"""Substitute only where a mapped name is free: `_Engine.sub` against the
walk-everything substitution.

`sub` leaves a child where no mapped name is free as `norm(child)`, without
entering it, and `subst` a root the same way.  The reference below is the
walk it replaced, which visits every node under the substitution and keeps
nothing.  Even where no mapped name occurs under it, the walk renames a
binder that a payload would capture, and under a binder that shadows the
only key it stops and leaves the body as it is, not normalised.  `sub` does neither, so a step could print a binder name
or a folded literal differently; the traces below, on programs whose names
shadow one another, agree on every rule, step and final line.

`modal_subst` and `subst_cont` skip by the same rule, where the box or
continuation variable they substitute for is not free.
"""

import random
import sys

from ecmtt import subst
from ecmtt import syntax as S
from ecmtt.evaluator import Value, evaluate
from ecmtt.parser import parse_source, parse_term
from ecmtt.pretty import pretty
from ecmtt.record import Record
from ecmtt.subst import mk_append, mk_arith, mk_cmp, mk_if, mk_proj1, mk_proj2
from ecmtt.syntax import alpha_equal, free_vars, fresh_name
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
        return u2, eng._rename(body, S.MODALS, u, u2)
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
        body = eng._rename(body, S.CONTS, c.k, k2)
    return S.OpClause(c.op, x2, k2, z2, _ref_opt(eng, body, mz))


def _ref_ret_clause(eng, c, m):
    x2, mx = _ref_value_binder(c.x, m, (c.body,))
    z2, mz = _ref_value_binder(c.z, mx, (c.body,))
    return S.RetClause(x2, z2, _ref_opt(eng, c.body, mz))


def reference_subst(eng, t, mapping):
    # `_Engine.subst` makes the skip test at the root, so the reference takes
    # its place too, and walks every term under a non-empty mapping.
    m = {k: eng.norm(v) for k, v in mapping.items()}
    return reference_sub(eng, t, m) if m else t


def reference_sub(eng, t, m):
    eng.tick()
    if not m:
        return t

    def s(x):
        return reference_sub(eng, x, m)

    match t:
        case S.Var(name):
            return m.get(name, t)
        case S.IntLit() | S.BoolLit() | S.UnitLit():
            return t
        case S.Lam(p, a, b):
            p2, m2 = _ref_value_binder(p, m, (b,))
            return S.Lam(p2, a, _ref_opt(eng, b, m2), span=t.span)
        case S.App(f, a):
            return S.App(s(f), s(a), span=t.span)
        case S.BoxTerm(th, b):
            return S.BoxTerm(th, s(b), span=t.span)
        case S.LetBox(u, e, b):
            u2, b2 = _ref_modal_binder(eng, u, m, b)
            return type(t)(u2, s(e), s(b2), span=t.span)
        case S.EvalTerm(hseq, u):
            return S.EvalTerm(s(hseq), u, span=t.span)
        case S.Fix(f, p, a, th, r, rec, sc):
            f2, mf = _ref_value_binder(f, m, (rec, sc))
            p2, mp = _ref_value_binder(p, mf, (rec,))
            return type(t)(f2, p2, a, th, r, _ref_opt(eng, rec, mp), _ref_opt(eng, sc, mf), span=t.span)
        case S.Pair(l, r):
            return S.Pair(s(l), s(r), span=t.span)
        case S.Proj1(a):
            return mk_proj1(s(a), span=t.span)
        case S.Proj2(a):
            return mk_proj2(s(a), span=t.span)
        case S.ListE(elems):
            return S.ListE(tuple(s(e) for e in elems), span=t.span)
        case S.Append(l, r):
            return mk_append(s(l), s(r), span=t.span)
        case S.Arith(op, l, r):
            return mk_arith(op, s(l), s(r), span=t.span)
        case S.Cmp(op, l, r):
            return mk_cmp(op, s(l), s(r), span=t.span)
        case S.If(c, a, b):
            return mk_if(s(c), s(a), s(b), span=t.span)
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


def full_trace(term: S.Term) -> tuple[list[tuple[str, S.Term]], str]:
    """Every step's rule and term, and the printed final state."""
    outcome = evaluate(term, record=True)
    final = outcome.final
    if isinstance(final, Value):
        last = f"value\t{pretty(final.term)}"
    else:
        last = f"{type(final).__name__}{tuple(getattr(final, f) for f in final.fields())}"
    return [(s.rule, s.term) for s in outcome.steps], last


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


SHADOW_SEEDS = shadowing_programs()


def bound_names(term: S.Term) -> set[str]:
    """Every value, modal and continuation name bound inside `term`, read
    from `SCHEMA` with a loop, so deep terms need no recursion."""
    names, todo = set(), [term]
    while todo:
        t = todo.pop()
        row = S.SCHEMA[type(t)]
        names.update(getattr(t, f) for f, _, _ in row.binds)
        for _, c, many in row.kids:
            todo.extend(getattr(t, c) if many else (getattr(t, c),))
    return names


def binds_again(t) -> bool:
    """Whether some `fn`, bind, `let box` or `let fix` in `t` binds its name
    again inside its own scope."""
    match t:
        case S.Lam(x, _, body) | S.Bind(_, x, body) | S.LetBox(x, _, body):
            if x in bound_names(body):
                return True
        case S.Fix(x, _, _, _, _, _, body):
            if x in bound_names(body):
                return True
    # A record is a tuple too, so records are told apart first.
    if isinstance(t, Record):
        return any(binds_again(getattr(t, f)) for f in t.fields())
    if type(t) is tuple:
        return any(binds_again(x) for x in t)
    return False


def test_the_shadowing_generator_reuses_names():
    assert len(SHADOW_SEEDS) == 2992
    binders = bound_names(gen_program(random.Random(0), shadow=True)[0])
    assert binders and all(name[-1] in "01" or name in ("x", "z") for name in binders)
    shadowing = sum(binds_again(gen_program(random.Random(seed), shadow=True)[0]) for seed in range(200))
    unique = sum(binds_again(gen_program(random.Random(seed))[0]) for seed in range(200))
    assert shadowing >= 10 and unique == 0


def test_traces_match_the_walk_everything_substitution(monkeypatch):
    # Each run builds its program afresh, so no cached field of one run is
    # seen by the other.
    builds = [lambda seed=seed: gen_program(random.Random(seed), shadow=True)[0] for seed in SHADOW_SEEDS]
    builds += [lambda seed=seed: gen_program(random.Random(seed))[0] for seed in range(400)]
    assert len(builds) == 2992 + 400
    differing = lines = 0
    for build in builds:
        got, got_final = full_trace(build())
        with monkeypatch.context() as patch:
            patch.setattr(subst._Engine, "sub", reference_sub)
            patch.setattr(subst._Engine, "subst", reference_subst)
            expected, expected_final = full_trace(build())
        assert [r for r, _ in got] == [r for r, _ in expected], pretty(build())
        assert got_final == expected_final, pretty(build())
        same = True
        for (_, a), (_, b) in zip(got, expected):
            if pretty(a) != pretty(b):
                same = False
                assert alpha_equal(subst.normalize(a), subst.normalize(b)), pretty(b)
        differing += not same
        lines += len(got) + 2  # the initial term, each step and the final state
    # Enough steps happen for the comparison to mean something, and every
    # trace prints the same.
    assert lines > 10_000
    assert differing == 0


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


def engine_calls(monkeypatch, name: str, source: str) -> tuple[int, S.Term]:
    """The calls of the engine method `name` made evaluating `source`, and
    the value it evaluates to."""
    calls = 0
    inner = getattr(subst._Engine, name)

    def counting(self, *args):
        nonlocal calls
        calls += 1
        return inner(self, *args)

    with monkeypatch.context() as patch:
        patch.setattr(subst._Engine, name, counting)
        outcome = evaluate(parse_source(source).main)
    assert isinstance(outcome.final, Value)
    return calls, outcome.final.term


def test_sub_visits_fall_on_multishot_handling(monkeypatch):
    # The walk-everything substitution makes 15,627 visits here, and a walk
    # that enters each shared node once per path to it 9,861.  `sub` makes
    # 2,649, entered only where a key is free (3,723 when it was also called
    # on each child it then skipped).
    visits, result = engine_calls(monkeypatch, "sub", collect_all(8))
    assert visits < 4_500
    assert pretty(result).count(",") == 2**8 - 1


def test_multishot_ticks_follow_the_leaves(monkeypatch):
    # The handled continuation is plugged twice per choice, and the two
    # results share every subterm the choice is not free in; a plug that
    # walked a shared node once per path to it grew 2.15x per choice and
    # spent 25,862 ticks at n = 10.
    ticks = {n: engine_calls(monkeypatch, "tick", collect_all(n))[0] for n in range(8, 12)}
    for n in (9, 10, 11):
        assert ticks[n] <= 2.05 * ticks[n - 1], ticks
    assert ticks[10] <= 9_000


def test_sub_visits_do_not_rise_on_state_handling(monkeypatch):
    # The walk-everything substitution makes 4,166 visits here, and `sub`
    # 207 (287 when it was also called on each child it then skipped).
    visits, result = engine_calls(monkeypatch, "sub", state_pairs(40))
    assert visits <= 4_166
    assert pretty(result) == "ret (0, 40)"


def test_a_skipped_normal_subterm_is_returned_at_no_cost():
    term = subst.normalize(parse_term("fn y:int. (y + 1, [y, 2])"))
    y3 = subst.normalize(S.IntLit(3))
    vy = subst.normalize(S.Var("y"))
    # No mapped name is free, so the term is not walked, even where a binder
    # is a key or is free in a payload.
    assert subst._Engine(0).subst(term, {"x": y3}) is term
    assert subst._Engine(0).subst(term, {"y": y3}) is term
    assert subst._Engine(0).subst(term, {"x": vy}) is term
    # Next to a mapped name, the subterm is still skipped, binder and all.
    out = subst.subst_values(S.Pair(S.Var("x"), term), {"x": S.Var("y")})
    assert pretty(out) == "(y, fn y:int. (y + 1, [y, 2]))"
    # Where the substitution reaches under a binder a payload would be
    # captured by, the binder is renamed.
    out = subst.subst_values(parse_term("fn y:int. x + y"), {"x": S.Var("y")})
    assert pretty(out) == "fn y1:int. y + y1"


def test_sub_is_entered_only_where_a_key_is_free(monkeypatch):
    # `C` is closed and normal: the loop of `sub` over the pair reads its
    # cached free names and normal form, and enters only the pair and `x`.
    calls = []
    inner = subst._Engine.sub

    def counting(self, t, m):
        calls.append(t)
        return inner(self, t, m)

    monkeypatch.setattr(subst._Engine, "sub", counting)
    text = "fn y:int. ((y + 1, [y * 2, y - 3, 7]), if y < 4 then (y, [y]) else ((y + y) * 2, []))"
    closed = subst.normalize(parse_term(text))
    assert free_vars(closed) is S.NO_FREE_VARS and node_count(closed) == 29
    one = subst.normalize(S.IntLit(1))
    term = S.Pair(S.Var("x"), closed)
    out = subst.subst_values(term, {"x": one})
    assert calls == [term, term.left]
    assert out.left is one and out.right is closed
    # A closed child with no normal form cached yet is folded all the same,
    # by `norm`, at the ticks `norm` spends on a copy of it.
    text = "(fn y:int. y + 1, ([2 * 3, 4 - 3], if 1 < 4 then fst (1, 2) else 5 + 6))"
    folding = parse_term(text)
    assert "_nf" not in vars(folding)
    alone = subst._Engine()
    expected = alone.norm(parse_term(text))
    eng = subst._Engine()
    out = eng.subst(S.Pair(S.Var("x"), folding), {"x": one})
    assert pretty(out.right) == pretty(expected) == "(fn y:int. y + 1, ([6, 1], 1))"
    # Two ticks for the pair and `x`, the rest spent by `norm`.
    assert subst.DEFAULT_FUEL - eng.fuel == 2 + subst.DEFAULT_FUEL - alone.fuel
    assert len(calls) == 4


def node_count(term: S.Term) -> int:
    count, todo = 0, [term]
    while todo:
        t = todo.pop()
        count += 1
        for i, _, many in S.SCHEMA[type(t)].kids:
            todo.extend(t[i] if many else (t[i],))
    return count


def test_sub_output_of_a_normal_term_is_marked_normal():
    term = subst.normalize(parse_term("fn y:int. (x + y, if x < 2 then [x] else [])"))
    out = subst.subst_values(term, {"x": S.IntLit(1)})
    assert pretty(out) == "fn y:int. (1 + y, [1])"
    assert subst._Engine(0).norm(out) is out
    assert subst._Engine(0).norm(out.body.left) is out.body.left
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
    finally:
        sys.setrecursionlimit(limit)
    assert pretty(out).endswith("w449 <- set(y449 + 1); ret 1")
    assert len(bound_names(term)) == 900


def ticking_calls(monkeypatch, name: str) -> list[int]:
    """Count the calls of the engine method `name` that spend fuel of their
    own, not counting the calls of `name` they make: the calls that get
    past the skip.  The count is `[0]` of the list returned."""
    calls, spent = [0], []
    inner, tick = getattr(subst._Engine, name), subst._Engine.tick

    def counting(self, *args):
        spent.append(0)
        try:
            return inner(self, *args)
        finally:
            calls[0] += spent.pop() > 0

    def ticking(self):
        if spent:
            spent[-1] += 1
        tick(self)

    monkeypatch.setattr(subst._Engine, name, counting)
    monkeypatch.setattr(subst._Engine, "tick", ticking)
    return calls


def beside(n: int, hot: S.Comp) -> S.Comp:
    """`if b then hot else ret [y0 + 1, ..., y(n-1) + 1]`, normalised, so
    that a skip costs no fuel."""
    elems = tuple(S.Arith("+", S.Var(f"y{i}"), S.IntLit(1)) for i in range(n))
    return subst.normalize(S.If(S.Var("b"), hot, S.Ret(S.ListE(elems))))


def test_modal_and_continuation_substitution_skip_where_their_name_is_not_free(monkeypatch):
    handler = S.Handler(S.EMPTY_THEORY, (), S.RetClause("x", "z", S.Ret(S.Var("x"))))
    handle_u = S.Bind(S.Handle("u", S.EMPTY_HSEQ, handler, S.IntLit(0)), "v", S.Ret(S.Var("v")))
    call_k = S.Bind(S.ContCall("k", S.IntLit(1), S.UnitLit()), "v", S.Ret(S.Var("v")))
    for name, hot, run in [
        ("modal_subst", handle_u, lambda t: subst.modal_subst(t, "u", S.Ret(S.IntLit(1)))),
        ("subst_cont", call_k, lambda t: subst.subst_cont(t, "k", "a", "s", S.Ret(S.Var("a")))),
    ]:
        counts = []
        for n in (10, 1_000):
            term = beside(n, hot)
            with monkeypatch.context() as patch:
                calls = ticking_calls(patch, name)
                out = run(term)
            assert pretty(out.then) == "ret 1" and out.els is term.els
            counts.append(calls[0])
        # Only the `if` and the one use of the name tick, whatever the size
        # of the list beside them.
        assert counts == [2, 2], name
    # A normal term without the name comes back as it is, at no cost.
    side = beside(10, handle_u).els
    assert subst._Engine(0).modal_subst(side, "u", S.Ret(S.IntLit(1))) is side
    assert subst._Engine(0).subst_cont(side, "k", "a", "s", S.Ret(S.Var("a"))) is side


def unshared(t):
    """A copy of `t` rebuilt node by node, so that no node occurs twice.
    A record is a tuple too, so records are told apart first."""
    if isinstance(t, Record):
        return type(t)(*(unshared(getattr(t, f)) for f in type(t).fields()))
    if type(t) is tuple:
        return tuple(map(unshared, t))
    return t


def test_a_plug_shares_a_node_only_under_the_same_mapping():
    # One node occurs four times in the continuation body: twice where `a`
    # and `s` are free, once under a binder of `a`, so that only `s` is
    # substituted there, and once under a binder of `y`, which the payload
    # `y` would be captured by, so it is renamed inside the node first.
    node = S.ListE((S.Var("a"), S.Var("s"), S.Var("y")))
    body = S.Ret(S.Pair(node, S.Pair(node, S.Pair(S.Lam("a", S.INT, node), S.Lam("y", S.INT, node)))))
    call = S.Bind(S.ContCall("k", S.Var("y"), S.IntLit(7)), "v", S.Ret(S.Var("v")))
    copy = unshared(body)
    assert copy == body and copy.value.left is not copy.value.right.left
    out = subst.subst_cont(call, "k", "a", "s", body)
    expected = subst.subst_cont(call, "k", "a", "s", copy)
    shown = "ret ([y, 7, y], ([y, 7, y], (fn a:int. [a, 7, y], fn y1:int. [y, 7, y1])))"
    assert pretty(out) == pretty(expected) == shown
    assert alpha_equal(out, expected)
    # The two uses under the same mapping give one result node.
    assert out.value.left is out.value.right.left


# ---------------------------------------------------------------------------
# Handler clauses: the walk into a tuple of clauses

ST = "{get:unit=>int, set:int=>unit}"
READS_N = (
    f"handler for {ST} {{ get(x; k; z) -> k(n; z), set(x; k; z) -> k((); x),"
    " return(x; z) -> ret (x + z) }"
)


def test_a_beta_step_substitutes_into_the_clause_that_reads_the_argument():
    source = (
        f"def St = {ST}\n"
        f"let box u = (fn n:int. let box v = box St. (y <- get(); w <- set(y + 1); ret (y * 10))\n"
        f"  in box {{}}. (r <- handle v with {READS_N} init 1; ret r)) 5\n"
        "in eval u"
    )
    # get answers n = 5 and leaves the state 1; set makes it 6; 50 + 6.
    outcome = evaluate(parse_source(source).main)
    assert isinstance(outcome.final, Value) and pretty(outcome.final.term) == "56"


def test_a_clause_binder_a_payload_would_capture_is_renamed():
    term = parse_term(f"x <- handle v [{READS_N} init n as z. ret (z + n)] with {READS_N} init 0; ret x")
    out = subst.subst_values(term, {"n": S.Var("z")})
    hseq, handler = out.stmt.hseq, out.stmt.handler
    # The clauses that read `n` have their `z` renamed; the others keep it.
    for h in (hseq.clauses[0].handler, handler):
        get, put = h.op_clauses
        assert (get.z, pretty(get.body)) == ("z1", "x <- k(z; z1); ret x")
        assert (put.z, h.ret_clause.z) == ("z", "z")
    assert (hseq.clauses[0].var, pretty(hseq.clauses[0].body)) == ("z1", "ret z1 + z")
    assert pretty(hseq.clauses[0].init) == "z"


# ---------------------------------------------------------------------------
# Renaming


def test_renaming_returns_a_term_without_the_name_as_it_is():
    eng = subst._Engine(fuel=0)
    comp = parse_term("let box v = box {}. ret 1 in let box w = eval v in ret w")
    assert eng._rename(comp, S.MODALS, "u", "u1") is comp
    # `v` is bound, so it is not free either.
    assert eng._rename(comp, S.MODALS, "v", "v1") is comp
    handler = S.Handler(
        S.EMPTY_THEORY,
        (),
        S.RetClause("x", "z", S.Bind(S.ContCall("k", S.Var("x"), S.Var("z")), "y", S.Ret(S.Var("y")))),
    )
    assert eng._rename(handler, S.CONTS, "j", "j1") is handler
    renamed = subst._Engine()._rename(handler, S.CONTS, "k", "k1")
    assert renamed.ret_clause.body.stmt.kname == "k1"
    out = subst._Engine()._rename(parse_term("eval u"), S.MODALS, "u", "u1")
    assert out == S.EvalTerm(S.EMPTY_HSEQ, "u1")
