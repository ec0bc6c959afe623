"""Cached free names: `syntax.free_vars` against a reference walk.

`free_vars` computes each node's free names once, from its children's
cached results, and stores them on the node.  The reference below is the
plain top-down walk with bound-name sets threaded down, which shares no
code with the cached one.  Every comparison covers each subterm of the
term, not only its root, because every node carries its own result.
"""

import copy
import pickle
import random
import sys

import pytest

from ecmtt import syntax as S
from ecmtt.evaluator import evaluate
from ecmtt.parser import parse_term
from ecmtt.pretty import pretty
from ecmtt.record import Record
from ecmtt.syntax import NO_FREE_VARS, FreeVars, free_vars

from generators import corpus_mains, gen_program, gen_roundtrip_term

TERM_CLASSES = (S.Expr, S.Comp, S.Stmt, S.Handler, S.HSeq)


def reference_free_vars(term: S.Term) -> FreeVars:
    values: set[str] = set()
    modals: set[str] = set()
    ops: set[str] = set()
    conts: set[str] = set()

    def go(t, bv, bm, bo, bk) -> None:
        match t:
            case S.Var(name):
                if name not in bv:
                    values.add(name)
            case S.Lam(param, _, body):
                go(body, bv | {param}, bm, bo, bk)
            case S.App(fn, arg):
                go(fn, bv, bm, bo, bk)
                go(arg, bv, bm, bo, bk)
            case S.BoxTerm(theory, body):
                go(body, bv, bm, bo | theory.op_names(), bk)
            case S.LetBox(uvar, bound, body):
                go(bound, bv, bm, bo, bk)
                go(body, bv, bm | {uvar}, bo, bk)
            case S.EvalTerm(hseq, uvar):
                go(hseq, bv, bm, bo, bk)
                if uvar not in bm:
                    modals.add(uvar)
            case S.Fix(fname, param, _, _, _, rec_body, scope):
                go(rec_body, bv | {fname, param}, bm, bo, bk)
                go(scope, bv | {fname}, bm, bo, bk)
            case S.IntLit() | S.BoolLit() | S.UnitLit():
                pass
            case S.ListE(elems):
                for elem in elems:
                    go(elem, bv, bm, bo, bk)
            case S.Pair(left, right) | S.Append(left, right):
                go(left, bv, bm, bo, bk)
                go(right, bv, bm, bo, bk)
            case S.Arith(_, left, right) | S.Cmp(_, left, right):
                go(left, bv, bm, bo, bk)
                go(right, bv, bm, bo, bk)
            case S.Proj1(arg) | S.Proj2(arg):
                go(arg, bv, bm, bo, bk)
            case S.If(cond, then, els):
                go(cond, bv, bm, bo, bk)
                go(then, bv, bm, bo, bk)
                go(els, bv, bm, bo, bk)
            case S.Ret(value):
                go(value, bv, bm, bo, bk)
            case S.Bind(stmt, var, rest):
                go(stmt, bv, bm, bo, bk)
                go(rest, bv | {var}, bm, bo, bk)
            case S.OpCall(op, arg):
                if op not in bo:
                    ops.add(op)
                go(arg, bv, bm, bo, bk)
            case S.ContCall(kname, arg, state):
                if kname not in bk:
                    conts.add(kname)
                go(arg, bv, bm, bo, bk)
                go(state, bv, bm, bo, bk)
            case S.Handle(uvar, hseq, handler, init):
                if uvar not in bm:
                    modals.add(uvar)
                go(hseq, bv, bm, bo, bk)
                go(handler, bv, bm, bo, bk)
                go(init, bv, bm, bo, bk)
            case S.Handler(_, op_clauses, ret_clause):
                for clause in op_clauses:
                    go(clause.body, bv | {clause.x, clause.z}, bm, bo, bk | {clause.k})
                go(ret_clause.body, bv | {ret_clause.x, ret_clause.z}, bm, bo, bk)
            case S.HSeq(clauses):
                for clause in clauses:
                    go(clause.handler, bv, bm, bo, bk)
                    go(clause.init, bv, bm, bo, bk)
                    go(clause.body, bv | {clause.var}, bm, bo, bk)
            case _:
                raise AssertionError(f"reference_free_vars: unhandled node {t!r}")

    empty: frozenset[str] = frozenset()
    go(term, empty, empty, empty, empty)
    return FreeVars(frozenset(values), frozenset(modals), frozenset(ops), frozenset(conts))


def subterms(term: S.Term) -> list[S.Term]:
    """Every term node under `term`, itself included, through clause records."""
    out: list[S.Term] = []

    def walk(node) -> None:
        if isinstance(node, TERM_CLASSES):
            out.append(node)
        if isinstance(node, tuple):
            for item in node:
                walk(item)
        elif isinstance(node, Record) and not isinstance(node, (S.EffectContext, S.Type)):
            for f in node.fields():
                walk(getattr(node, f))

    walk(term)
    return out


def assert_matches_reference(term: S.Term) -> None:
    free_vars(term)
    for node in subterms(term):
        assert free_vars(node) == reference_free_vars(node), pretty(node)


def test_generated_terms_match_the_reference():
    for seed in range(300):
        rng = random.Random(seed)
        assert_matches_reference(gen_program(rng)[0])
        assert_matches_reference(gen_roundtrip_term(rng))


def test_every_evaluation_step_matches_the_reference():
    # The engine builds new nodes at each step and reuses old ones, so the
    # cache is checked on terms it has never seen as well as on cached ones.
    programs = corpus_mains() + [gen_program(random.Random(seed))[0] for seed in range(150)]
    checked = 0
    for program in programs:
        outcome = evaluate(program, max_steps=2000, record=True)
        for stepped in outcome.steps:
            assert_matches_reference(stepped.term)
            checked += 1
    assert checked > 300


x, y, k, z, u = "x", "y", "k", "z", "u"
ST = S.make_theory([S.OpDecl("get", S.UNIT, S.INT), S.OpDecl("set", S.INT, S.UNIT)])


def _fv(values=(), modals=(), ops=(), conts=()) -> FreeVars:
    return FreeVars(frozenset(values), frozenset(modals), frozenset(ops), frozenset(conts))


def _handler(body: S.Comp, ret_body: S.Comp) -> S.Handler:
    return S.Handler(
        ST,
        (
            S.OpClause("get", x, k, z, body),
            S.OpClause("set", x, k, z, S.Bind(S.ContCall(k, S.UnitLit(), S.Var(x)), y, S.Ret(S.Var(y)))),
        ),
        S.RetClause(x, z, ret_body),
    )


SHADOWING = [
    # fn x. (fn x. x) x y: the inner x is bound twice, y stays free.
    (
        S.Lam(x, S.INT, S.App(S.App(S.Lam(x, S.INT, S.Var(x)), S.Var(x)), S.Var(y))),
        _fv(values=[y]),
    ),
    # (fn x. x) x: the argument's x is free.
    (S.App(S.Lam(x, S.INT, S.Var(x)), S.Var(x)), _fv(values=[x])),
    # x <- get(x); x <- set(x); ret x: each bind rebinds x, the first get's x is free.
    (
        S.Bind(S.OpCall("get", S.Var(x)), x, S.Bind(S.OpCall("set", S.Var(x)), x, S.Ret(S.Var(x)))),
        _fv(values=[x], ops=["get", "set"]),
    ),
    # let box u = (eval u) in let box u = ... in eval u: the bound expression sees the outer u.
    (
        S.LetBox(
            u,
            S.EvalTerm(S.EMPTY_HSEQ, u),
            S.LetBox(u, S.BoxTerm(S.EMPTY_THEORY, S.Ret(S.Var(x))), S.EvalTerm(S.EMPTY_HSEQ, u)),
        ),
        _fv(values=[x], modals=[u]),
    ),
    # box St. (x <- get(); y <- raise(); ret x): the box binds its theory's
    # operations, not others.
    (
        S.BoxTerm(
            ST,
            S.Bind(S.OpCall("get", S.UnitLit()), x, S.Bind(S.OpCall("raise", S.UnitLit()), y, S.Ret(S.Var(x)))),
        ),
        _fv(ops=["raise"]),
    ),
    # let fix x(x) = ret (x y) in x z: fname and param both bind in the body,
    # fname alone in the scope.
    (
        S.Fix(
            x, x, S.INT, S.EMPTY_THEORY, S.INT, S.Ret(S.App(S.Var(x), S.Var(y))), S.App(S.Var(x), S.Var(z))
        ),
        _fv(values=[y, z]),
    ),
    # Clause x/z/k bind in their own clause body only; the handler's k is free
    # in the return clause, and x <- k(x; z) rebinds x inside the body.
    (
        _handler(
            S.Bind(
                S.ContCall(k, S.Var(x), S.Var(z)),
                x,
                S.Bind(S.ContCall(k, S.Var(x), S.Var(y)), z, S.Ret(S.Var(z))),
            ),
            S.Bind(S.ContCall(k, S.Var(x), S.Var(z)), y, S.Ret(S.Var(y))),
        ),
        _fv(values=[y], conts=[k]),
    ),
    # handle u [h init x as x. ret x] with h' init x: the sequence variable
    # binds in its own body only; u is free, and so is the value k that h'
    # returns, a different namespace from the clauses' continuation k.
    (
        S.Handle(
            u,
            S.HSeq((S.HClause(_handler(S.Ret(S.Var(x)), S.Ret(S.Var(x))), S.Var(x), x, S.Ret(S.Var(x))),)),
            _handler(S.Ret(S.Var(z)), S.Ret(S.Var(k))),
            S.Var(x),
        ),
        _fv(values=[x, k], modals=[u]),
    ),
]


@pytest.mark.parametrize("term, expected", SHADOWING)
def test_shadowing_binders(term, expected):
    assert free_vars(term) == expected
    assert_matches_reference(term)


def test_closed_nodes_share_one_result_and_unions_reuse_children():
    closed = parse_term("fn a:int. (a + 1, [a])")
    assert free_vars(closed) is NO_FREE_VARS
    app = S.App(S.Var(x), S.IntLit(1))
    assert free_vars(app) is free_vars(app.fn)
    pair = S.Pair(S.Var(x), S.Pair(S.Var(x), S.Var(y)))
    assert free_vars(pair) is free_vars(pair.right)


def test_caching_leaves_equality_hash_and_printing_alone():
    for seed in range(40):
        a = gen_program(random.Random(seed))[0]
        b = gen_program(random.Random(seed))[0]
        before = (repr(a), hash(a), pretty(a))
        free_vars(a)
        assert (repr(a), hash(a), pretty(a)) == before
        assert a == b and b == a
        assert hash(a) == hash(b)


def test_a_cached_node_copies_and_pickles_with_its_free_names():
    lam = S.Lam(x, S.INT, S.App(S.Var(x), S.Var(y)))
    free_vars(lam)
    for copied in (copy.deepcopy(lam), pickle.loads(pickle.dumps(lam))):
        assert copied == lam and type(copied._fv) is FreeVars
        assert copied._fv == _fv(values=[y]) and copied._fv.values == {y}


def test_replace_on_a_cached_node_recomputes():
    lam = S.Lam(x, S.INT, S.App(S.Var(x), S.Var(y)))
    assert free_vars(lam) == _fv(values=[y])
    assert free_vars(lam.replace(param=y)) == _fv(values=[x])
    assert free_vars(lam.replace(body=S.Var(z))) == _fv(values=[z])
    assert free_vars(lam.replace(body=S.IntLit(0))) is NO_FREE_VARS


def test_free_vars_of_a_450_pair_chain_fits_the_default_recursion_limit():
    # The parser computes the free names of the whole term from the top of
    # the stack, so this fails if free_vars spends more than one frame per
    # tree level: the chain is 900 binds deep.
    chain = " ".join(f"y{i} <- get(); w{i} <- set(y{i} + 1);" for i in range(450)) + " ret 0"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        term = parse_term(chain)
        assert free_vars(term) == _fv(ops=["get", "set"])
    finally:
        sys.setrecursionlimit(limit)
