"""Substitute only where a mapped name occurs: `_Engine.sub` against the
walk-everything substitution.

`sub` returns `norm(t)` for a subterm that has no mapped free name and binds
none of the mapping's names, without walking it.  The reference below is the
walk it replaced, which visits every node under the substitution and keeps
nothing.  Even where no mapped name occurs under it, the walk renames a
binder that a payload would capture, and under a binder that shadows the
only key it stops and leaves the body as it is, not normalised.  A skip on
the first condition alone does neither, which changes printed traces, so
the traces below are compared on programs whose names shadow one another.
"""

import dataclasses
import random
import sys

import pytest

from ecmtt import subst
from ecmtt import syntax as S
from ecmtt.evaluator import Value, evaluate
from ecmtt.parser import parse_source, parse_term
from ecmtt.pretty import pretty
from ecmtt.subst import mk_append, mk_arith, mk_cmp, mk_if_c, mk_if_e, mk_proj1, mk_proj2
from ecmtt.syntax import bound_names, free_vars, fresh_name
from ecmtt.typecheck import TypeCheckError, infer_term

from generators import gen_program

# ---------------------------------------------------------------------------
# The reference: the walk that visits every node under a non-empty mapping


def _ref_value_binder(b, m, bodies):
    m2 = {k: v for k, v in m.items() if k != b}
    if not m2:
        return b, m2
    if any(b in free_vars(v).values for v in m2.values()):
        avoid = set(m2)
        for v in m2.values():
            avoid |= free_vars(v).values
        for body in bodies:
            avoid |= free_vars(body).values
        b2 = fresh_name(b, avoid)
        m2[b] = S.Var(b2)
        return b2, m2
    return b, m2


def _ref_modal_binder(eng, u, m, body):
    if m and any(u in free_vars(v).modals for v in m.values()):
        avoid = set(free_vars(body).modals)
        for v in m.values():
            avoid |= free_vars(v).modals
        u2 = fresh_name(u, avoid)
        return u2, eng.rename_modal(body, u, u2)
    return u, body


def _ref_opt(eng, t, m):
    return reference_sub(eng, t, m) if m else t


def _ref_op_clause(eng, c, m):
    x2, mx = _ref_value_binder(c.x, m, (c.body,))
    z2, mz = _ref_value_binder(c.z, mx, (c.body,))
    body, k2 = c.body, c.k
    if mz and any(c.k in free_vars(v).conts for v in mz.values()):
        avoid = set(free_vars(body).conts)
        for v in mz.values():
            avoid |= free_vars(v).conts
        k2 = fresh_name(c.k, avoid)
        body = eng.rename_cont(body, c.k, k2)
    return S.OpClause(c.op, x2, k2, z2, _ref_opt(eng, body, mz))


def _ref_ret_clause(eng, c, m):
    x2, mx = _ref_value_binder(c.x, m, (c.body,))
    z2, mz = _ref_value_binder(c.z, mx, (c.body,))
    return S.RetClause(x2, z2, _ref_opt(eng, c.body, mz))


def reference_sub(eng, t, m, names=None):
    eng.tick()
    if not m:
        return t

    def s(x):
        return reference_sub(eng, x, m)

    match t:
        case S.Var(name):
            return m.get(name, t)
        case S.IntLit() | S.BoolLit() | S.UnitLit() | S.Nil():
            return t
        case S.Lam(p, a, b):
            p2, m2 = _ref_value_binder(p, m, (b,))
            return S.Lam(p2, a, _ref_opt(eng, b, m2), span=t.span)
        case S.App(f, a):
            return S.App(s(f), s(a), span=t.span)
        case S.BoxTerm(th, b):
            return S.BoxTerm(th, s(b), span=t.span)
        case S.LetBoxE(u, e, b) | S.LetBoxC(u, e, b):
            u2, b2 = _ref_modal_binder(eng, u, m, b)
            return type(t)(u2, s(e), s(b2), span=t.span)
        case S.EvalTerm(hseq, u):
            return S.EvalTerm(s(hseq), u, span=t.span)
        case S.FixE(f, p, a, th, r, rec, sc) | S.FixC(f, p, a, th, r, rec, sc):
            f2, mf = _ref_value_binder(f, m, (rec, sc))
            p2, mp = _ref_value_binder(p, mf, (rec,))
            return type(t)(f2, p2, a, th, r, _ref_opt(eng, rec, mp), _ref_opt(eng, sc, mf), span=t.span)
        case S.Pair(l, r):
            return S.Pair(s(l), s(r), span=t.span)
        case S.Proj1(a):
            return mk_proj1(s(a), span=t.span)
        case S.Proj2(a):
            return mk_proj2(s(a), span=t.span)
        case S.ConsE(h, tl):
            return S.ConsE(s(h), s(tl), span=t.span)
        case S.Append(l, r):
            return mk_append(s(l), s(r), span=t.span)
        case S.Arith(op, l, r):
            return mk_arith(op, s(l), s(r), span=t.span)
        case S.Cmp(op, l, r):
            return mk_cmp(op, s(l), s(r), span=t.span)
        case S.IfE(c, a, b):
            return mk_if_e(s(c), s(a), s(b), span=t.span)
        case S.IfC(c, a, b):
            return mk_if_c(s(c), s(a), s(b), span=t.span)
        case S.Ret(e):
            return S.Ret(s(e), span=t.span)
        case S.Bind(st, x, rest):
            st2 = s(st)
            x2, m2 = _ref_value_binder(x, m, (rest,))
            return S.Bind(st2, x2, _ref_opt(eng, rest, m2), span=t.span)
        case S.OpCall(op, a):
            return S.OpCall(op, s(a), span=t.span)
        case S.ContCall(k, a, st):
            return S.ContCall(k, s(a), s(st), span=t.span)
        case S.Handle(u, hseq, h, init):
            return S.Handle(u, s(hseq), s(h), s(init), span=t.span)
        case S.Handler(th, ops, ret):
            return S.Handler(
                th, tuple(_ref_op_clause(eng, c, m) for c in ops), _ref_ret_clause(eng, ret, m)
            )
        case S.HSeq(clauses):
            out = []
            for c in clauses:
                var2, m2 = _ref_value_binder(c.var, m, (c.body,))
                out.append(S.HClause(s(c.handler), s(c.init), var2, _ref_opt(eng, c.body, m2)))
            return S.HSeq(tuple(out))
    raise AssertionError(f"reference_sub: unhandled node {t!r}")


# ---------------------------------------------------------------------------
# Traces


def full_trace(term: S.Term) -> list[str]:
    """The initial term, every step's rule and printed term, and the final
    state."""
    outcome = evaluate(term, record=True)
    lines = [pretty(term)]
    lines += [f"{s.rule}\t{pretty(s.term)}" for s in outcome.steps]
    final = outcome.final
    lines.append(f"value\t{pretty(final.term)}" if isinstance(final, Value) else repr(final))
    return lines


def shadowing_programs() -> list[int]:
    """The seeds of 0-2999 whose shadowing program typechecks."""
    seeds = []
    for seed in range(3000):
        try:
            infer_term(gen_program(random.Random(seed), shadow=True)[0])
        except TypeCheckError:
            continue
        seeds.append(seed)
    return seeds


def traces(monkeypatch, reference: bool) -> list[list[str]]:
    # Each run builds its terms afresh, so no cached field of one run is
    # seen by the other.
    with monkeypatch.context() as patch:
        if reference:
            patch.setattr(subst._Engine, "sub", reference_sub)
        out = [full_trace(gen_program(random.Random(seed), shadow=True)[0]) for seed in SHADOW_SEEDS]
        out += [full_trace(gen_program(random.Random(seed))[0]) for seed in range(400)]
    return out


SHADOW_SEEDS = shadowing_programs()


def binds_again(t) -> bool:
    """Whether some `fn`, bind, `let box` or `let fix` in `t` binds its name
    again inside its own scope."""
    match t:
        case S.Lam(x, _, body) | S.Bind(_, x, body) | S.LetBoxE(x, _, body) | S.LetBoxC(x, _, body):
            if x in bound_names(body):
                return True
        case S.FixE(x, _, _, _, _, _, body) | S.FixC(x, _, _, _, _, _, body):
            if x in bound_names(body):
                return True
    if isinstance(t, tuple):
        return any(binds_again(x) for x in t)
    if dataclasses.is_dataclass(t):
        return any(binds_again(getattr(t, f.name)) for f in dataclasses.fields(t))
    return False


def test_the_shadowing_generator_reuses_names():
    assert len(SHADOW_SEEDS) == 2992
    binders = bound_names(gen_program(random.Random(0), shadow=True)[0])
    assert binders and all(name[-1] in "01" or name in ("x", "z") for name in binders)
    shadowing = sum(binds_again(gen_program(random.Random(seed), shadow=True)[0]) for seed in range(200))
    unique = sum(binds_again(gen_program(random.Random(seed))[0]) for seed in range(200))
    assert shadowing >= 10 and unique == 0


def test_traces_match_the_walk_everything_substitution(monkeypatch):
    got = traces(monkeypatch, reference=False)
    expected = traces(monkeypatch, reference=True)
    assert len(got) == 2992 + 400
    for a, b in zip(got, expected):
        assert a == b, a[0]
    # Enough steps happen for the comparison to mean something.
    assert sum(len(t) for t in got) > 10_000


# ---------------------------------------------------------------------------
# Work done

NONDET = """\
def Ch = {choice:unit=>bool}
def collectAll = handler for Ch {
  choice(x;k;z) -> (y1 <- k(true;z); y2 <- k(false;z); ret (y1 ++ y2)),
  return(x;z) -> ret [x]
}
"""

STATE = """\
def St = {get:unit=>int, set:int=>unit}
def handlerSt = handler for St {
  get(x;k;z) -> k(z;z),
  set(x;k;z) -> k(();x),
  return(x;z) -> ret (x, z)
}
"""


def collect_all(n: int) -> str:
    binds = "; ".join(f"b{i} <- choice()" for i in range(n))
    value = " + ".join(f"(if b{i} then {i} else {9 - i})" for i in range(n))
    return NONDET + f"let box u = box Ch. ({binds}; ret ({value}))\nin w <- handle u with collectAll init (); ret w"


def state_pairs(n: int) -> str:
    chain = "; ".join(f"y{i} <- get(); w{i} <- set(y{i} + 1)" for i in range(n))
    return STATE + f"let box u = box St. ({chain}; ret y0)\nin x <- handle u with handlerSt init 0; ret x"


def sub_visits(monkeypatch, source: str) -> tuple[int, S.Term]:
    visits = 0
    inner = subst._Engine.sub

    def counting(self, *args):
        nonlocal visits
        visits += 1
        return inner(self, *args)

    with monkeypatch.context() as patch:
        patch.setattr(subst._Engine, "sub", counting)
        outcome = evaluate(parse_source(source).main)
    assert isinstance(outcome.final, Value)
    return visits, outcome.final.term


def test_sub_visits_fall_on_multishot_handling(monkeypatch):
    # The walk-everything substitution makes 15,627 visits here.
    visits, result = sub_visits(monkeypatch, collect_all(8))
    assert visits < 12_000
    assert pretty(result).count(",") == 2**8 - 1


def test_sub_visits_do_not_rise_on_state_handling(monkeypatch):
    # The walk-everything substitution makes 4,166 visits here.
    visits, result = sub_visits(monkeypatch, state_pairs(40))
    assert visits <= 4_166
    assert pretty(result) == "ret (0, 40)"


def test_a_skipped_normal_subterm_is_returned_at_no_cost():
    term = subst.normalize(parse_term("fn y:int. (y + 1, [y, 2])"))
    three = subst.normalize(S.IntLit(3))
    # `x` is not free, and no binder clashes with the mapping's names.
    assert subst.subst_values(term, {"x": three}, fuel=0) is term
    # A binder that is a key, or free in a payload, forces the walk.
    with pytest.raises(subst.OutOfFuel):
        subst.subst_values(term, {"y": three}, fuel=0)
    with pytest.raises(subst.OutOfFuel):
        subst.subst_values(term, {"x": S.Var("y")}, fuel=0)
    # The walk renames a binder a payload would capture even where no mapped
    # name occurs under it, so such a subterm is walked, not skipped.
    renamed = subst.subst_values(S.Pair(S.Var("x"), term), {"x": S.Var("y")})
    assert pretty(renamed) == "(y, fn y1:int. (y1 + 1, [y1, 2]))"


def test_sub_output_of_a_normal_term_is_marked_normal():
    term = subst.normalize(parse_term("fn y:int. (x + y, if x < 2 then [x] else [])"))
    out = subst.subst_values(term, {"x": S.IntLit(1)})
    assert pretty(out) == "fn y:int. (1 + y, [1])"
    assert subst.normalize(out, fuel=0) is out
    assert subst.normalize(out.body.left, fuel=0) is out.body.left
    # Output of a term not known to be normal carries no mark.
    raw = parse_term("fn y:int. (x + y, 1 + 1)")
    out = subst.subst_values(raw, {"x": S.IntLit(1)})
    assert "_nf" not in vars(out)
    assert pretty(subst.normalize(out)) == "fn y:int. (1 + y, 2)"


def test_sub_of_a_450_pair_chain_fits_the_default_recursion_limit():
    # The chain is 900 binds deep and the mapped name is free at its end,
    # so the walk goes all the way down: this fails if `sub` spends more
    # than one frame per tree level, for example in a wrapper around the
    # skip check.
    chain = " ".join(f"y{i} <- get(); w{i} <- set(y{i} + x);" for i in range(450)) + " ret x"
    term = parse_term(chain)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        out = subst.subst_values(term, {"x": S.IntLit(1)})
        binders = bound_names(term)
    finally:
        sys.setrecursionlimit(limit)
    assert pretty(out).endswith("w449 <- set(y449 + 1); ret 1")
    assert len(binders) == 900


# ---------------------------------------------------------------------------
# Renaming


def test_renaming_returns_a_term_without_the_name_as_it_is():
    eng = subst._Engine(fuel=0)
    comp = parse_term("let box v = box {}. ret 1 in let box w = eval v in ret w")
    assert eng.rename_modal(comp, "u", "u1") is comp
    # `v` is bound, so it is not free either.
    assert eng.rename_modal(comp, "v", "v1") is comp
    handler = S.Handler(
        S.EMPTY_THEORY,
        (),
        S.RetClause("x", "z", S.Bind(S.ContCall("k", S.Var("x"), S.Var("z")), "y", S.Ret(S.Var("y")))),
    )
    assert eng.rename_cont(handler, "j", "j1") is handler
    renamed = subst._Engine().rename_cont(handler, "k", "k1")
    assert renamed.ret_clause.body.stmt.kname == "k1"
    out = subst._Engine().rename_modal(parse_term("eval u"), "u", "u1")
    assert out == S.EvalTerm(S.EMPTY_HSEQ, "u1")
