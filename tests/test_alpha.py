"""Alpha-equivalence derived from the node schema, against the hand-written
comparison it replaced.

`syntax.alpha_equal` walks any two nodes of the same class through their
row: data fields compared as they are, names through the bound-name maps of
their namespace, children under the binders that scope over them, and a
handler's clauses matched by operation name.  The reference below is the
per-class walk it replaced, kept as it was.
"""

import random

from ecmtt import syntax as S
from ecmtt.evaluator import evaluate
from ecmtt.parser import parse_handler, parse_source, parse_term
from ecmtt.pretty import pretty
from ecmtt.syntax import alpha_equal, theory_equal, type_equal

from generators import corpus_mains, gen_program, gen_roundtrip_term

# ---------------------------------------------------------------------------
# The reference


def reference_alpha_equal(t1, t2) -> bool:
    """One match arm per pair of node classes, environments threaded as
    three pairs of maps."""

    def var_eq(env: dict[str, str], renv: dict[str, str], a: str, b: str) -> bool:
        if a in env:
            return env[a] == b
        if b in renv:
            return False
        return a == b

    def extend(env: dict[str, str], renv: dict[str, str], a: str, b: str) -> tuple[dict[str, str], dict[str, str]]:
        env2 = dict(env)
        renv2 = dict(renv)
        env2[a] = b
        renv2[b] = a
        return env2, renv2

    def go(a, b, vs, rvs, ms, rms, ks, rks) -> bool:
        match (a, b):
            case (S.Var(n1), S.Var(n2)):
                return var_eq(vs, rvs, n1, n2)
            case (S.Lam(p1, t1_, b1), S.Lam(p2, t2_, b2)):
                if not type_equal(t1_, t2_):
                    return False
                vs2, rvs2 = extend(vs, rvs, p1, p2)
                return go(b1, b2, vs2, rvs2, ms, rms, ks, rks)
            case (S.App(f1, a1), S.App(f2, a2)):
                return go(f1, f2, vs, rvs, ms, rms, ks, rks) and go(a1, a2, vs, rvs, ms, rms, ks, rks)
            case (S.BoxTerm(th1, c1), S.BoxTerm(th2, c2)):
                return theory_equal(th1, th2) and go(c1, c2, vs, rvs, ms, rms, ks, rks)
            case (S.LetBox(u1, e1, b1), S.LetBox(u2, e2, b2)):
                if not go(e1, e2, vs, rvs, ms, rms, ks, rks):
                    return False
                ms2, rms2 = extend(ms, rms, u1, u2)
                return go(b1, b2, vs, rvs, ms2, rms2, ks, rks)
            case (S.EvalTerm(h1, u1), S.EvalTerm(h2, u2)):
                return var_eq(ms, rms, u1, u2) and go(h1, h2, vs, rvs, ms, rms, ks, rks)
            case (S.Fix(f1, x1, a1_, th1, r1, c1, s1), S.Fix(f2, x2, a2_, th2, r2, c2, s2)):
                if not (type_equal(a1_, a2_) and theory_equal(th1, th2) and type_equal(r1, r2)):
                    return False
                vs2, rvs2 = extend(vs, rvs, f1, f2)
                vs3, rvs3 = extend(vs2, rvs2, x1, x2)
                return go(c1, c2, vs3, rvs3, ms, rms, ks, rks) and go(s1, s2, vs2, rvs2, ms, rms, ks, rks)
            case (S.IntLit(v1), S.IntLit(v2)):
                return v1 == v2
            case (S.BoolLit(v1), S.BoolLit(v2)):
                return v1 == v2
            case (S.UnitLit(), S.UnitLit()):
                return True
            case (S.Pair(l1, r1), S.Pair(l2, r2)) | (S.Append(l1, r1), S.Append(l2, r2)):
                return go(l1, l2, vs, rvs, ms, rms, ks, rks) and go(r1, r2, vs, rvs, ms, rms, ks, rks)
            case (S.Arith(o1, l1, r1), S.Arith(o2, l2, r2)) | (S.Cmp(o1, l1, r1), S.Cmp(o2, l2, r2)):
                return o1 == o2 and go(l1, l2, vs, rvs, ms, rms, ks, rks) and go(r1, r2, vs, rvs, ms, rms, ks, rks)
            case (S.Proj1(x1), S.Proj1(x2)) | (S.Proj2(x1), S.Proj2(x2)):
                return go(x1, x2, vs, rvs, ms, rms, ks, rks)
            case (S.ListE(es1), S.ListE(es2)):
                return len(es1) == len(es2) and all(
                    go(x1, x2, vs, rvs, ms, rms, ks, rks) for x1, x2 in zip(es1, es2)
                )
            case (S.If(c1, t1_, e1), S.If(c2, t2_, e2)):
                return (
                    go(c1, c2, vs, rvs, ms, rms, ks, rks)
                    and go(t1_, t2_, vs, rvs, ms, rms, ks, rks)
                    and go(e1, e2, vs, rvs, ms, rms, ks, rks)
                )
            case (S.Ret(e1), S.Ret(e2)):
                return go(e1, e2, vs, rvs, ms, rms, ks, rks)
            case (S.Bind(s1, x1, r1), S.Bind(s2, x2, r2)):
                if not go(s1, s2, vs, rvs, ms, rms, ks, rks):
                    return False
                vs2, rvs2 = extend(vs, rvs, x1, x2)
                return go(r1, r2, vs2, rvs2, ms, rms, ks, rks)
            case (S.OpCall(o1, a1), S.OpCall(o2, a2)):
                return o1 == o2 and go(a1, a2, vs, rvs, ms, rms, ks, rks)
            case (S.ContCall(k1, a1, s1), S.ContCall(k2, a2, s2)):
                return (
                    var_eq(ks, rks, k1, k2)
                    and go(a1, a2, vs, rvs, ms, rms, ks, rks)
                    and go(s1, s2, vs, rvs, ms, rms, ks, rks)
                )
            case (S.Handle(u1, t1_, h1, e1), S.Handle(u2, t2_, h2, e2)):
                return (
                    var_eq(ms, rms, u1, u2)
                    and go(t1_, t2_, vs, rvs, ms, rms, ks, rks)
                    and go(h1, h2, vs, rvs, ms, rms, ks, rks)
                    and go(e1, e2, vs, rvs, ms, rms, ks, rks)
                )
            case (S.Handler(th1, ops1, ret1), S.Handler(th2, ops2, ret2)):
                if not theory_equal(th1, th2) or len(ops1) != len(ops2):
                    return False
                by_name = {c.op: c for c in ops2}
                for c1 in ops1:
                    c2 = by_name.get(c1.op)
                    if c2 is None:
                        return False
                    vs2, rvs2 = extend(vs, rvs, c1.x, c2.x)
                    vs3, rvs3 = extend(vs2, rvs2, c1.z, c2.z)
                    ks2, rks2 = extend(ks, rks, c1.k, c2.k)
                    if not go(c1.body, c2.body, vs3, rvs3, ms, rms, ks2, rks2):
                        return False
                vs2, rvs2 = extend(vs, rvs, ret1.x, ret2.x)
                vs3, rvs3 = extend(vs2, rvs2, ret1.z, ret2.z)
                return go(ret1.body, ret2.body, vs3, rvs3, ms, rms, ks, rks)
            case (S.HSeq(cs1), S.HSeq(cs2)):
                if len(cs1) != len(cs2):
                    return False
                for c1, c2 in zip(cs1, cs2):
                    if not go(c1.handler, c2.handler, vs, rvs, ms, rms, ks, rks):
                        return False
                    if not go(c1.init, c2.init, vs, rvs, ms, rms, ks, rks):
                        return False
                    vs2, rvs2 = extend(vs, rvs, c1.var, c2.var)
                    if not go(c1.body, c2.body, vs2, rvs2, ms, rms, ks, rks):
                        return False
                return True
            case _:
                return False

    e = {}
    return go(t1, t2, e, e, e, e, e, e)


# ---------------------------------------------------------------------------
# Pairs

ST_HANDLERS = [
    "handler for St { get(x;k;z) -> k(z;z), set(x;k;z) -> k(();x), return(x;z) -> ret (x, z) }",
    # The same clauses in the other order, under other names: alpha-equal.
    "handler for St { set(a;j;s) -> j(();a), get(b;c;d) -> c(d;d), return(p;q) -> ret (p, q) }",
    # The two operation clauses' bodies swapped: not alpha-equal.
    "handler for St { get(x;k;z) -> k(();x), set(x;k;z) -> k(z;z), return(x;z) -> ret (x, z) }",
    # One clause short.
    "handler for St { get(x;k;z) -> k(z;z), return(x;z) -> ret (x, z) }",
    # A free continuation name in place of the bound one.
    "handler for St { get(x;k;z) -> k(z;z), set(x;j;z) -> k(();x), return(x;z) -> ret (x, z) }",
]
ST = "def St = {get:unit=>int, set:int=>unit}\n"


def st_handlers() -> list[S.Handler]:
    table = parse_source(ST).table
    return [parse_handler(text, table) for text in ST_HANDLERS]


def handler_pairs():
    handlers = st_handlers()
    handlers += [h.replace(op_clauses=h.op_clauses[::-1]) for h in handlers]
    return [(a, b) for a in handlers for b in handlers]


def pairs():
    out = []
    for seed in range(400):
        plain = gen_program(random.Random(seed))[0]
        out.append((plain, gen_program(random.Random(seed), shadow=True)[0]))
        out.append((plain, parse_term(pretty(plain))))
        term = gen_roundtrip_term(random.Random(seed))
        out.append((term, parse_term(pretty(term))))
    for program in corpus_mains() + [gen_program(random.Random(seed))[0] for seed in range(100)]:
        steps = [program] + [s.term for s in evaluate(program, max_steps=200, record=True).steps]
        out += zip(steps, steps[1:])
    return out + handler_pairs()


def test_the_derived_walk_agrees_with_the_reference():
    results = []
    for a, b in pairs():
        expected = reference_alpha_equal(a, b)
        assert alpha_equal(a, b) == expected, (pretty(a), pretty(b))
        results.append(expected)
    assert results.count(True) > 1000 and results.count(False) > 200


def test_handlers_match_clauses_by_operation_name():
    h, renamed, swapped, short, free_k = st_handlers()
    assert alpha_equal(h, renamed) and alpha_equal(renamed, h)
    assert alpha_equal(h, h.replace(op_clauses=h.op_clauses[::-1]))
    assert not alpha_equal(h, swapped)
    assert not alpha_equal(h, short) and not alpha_equal(short, h)
    assert not alpha_equal(h, free_k)
