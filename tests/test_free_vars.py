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
from pathlib import Path

import pytest

from ecmtt import syntax as S
from ecmtt.evaluator import evaluate
from ecmtt.parser import parse_source, parse_term
from ecmtt.pretty import pretty
from ecmtt.record import Record
from ecmtt.syntax import NO_FREE_VARS, FreeVars, free_vars

from generators import corpus_mains, gen_program, gen_roundtrip_term

TERM_CLASSES = (S.Expr, S.Comp, S.Stmt, S.Handler, S.HSeq)


def reference_free_vars(term: S.Term) -> FreeVars:
    values: set[str] = set()
    modals: set[str] = set()
    conts: set[str] = set()

    def go(t, bv, bm, bk) -> None:
        match t:
            case S.Var(name):
                if name not in bv:
                    values.add(name)
            case S.Lam(param, _, body):
                go(body, bv | {param}, bm, bk)
            case S.App(fn, arg):
                go(fn, bv, bm, bk)
                go(arg, bv, bm, bk)
            case S.BoxTerm(_, body):
                go(body, bv, bm, bk)
            case S.LetBox(uvar, bound, body):
                go(bound, bv, bm, bk)
                go(body, bv, bm | {uvar}, bk)
            case S.EvalTerm(hseq, uvar):
                go(hseq, bv, bm, bk)
                if uvar not in bm:
                    modals.add(uvar)
            case S.Fix(fname, param, _, _, _, rec_body, scope):
                go(rec_body, bv | {fname, param}, bm, bk)
                go(scope, bv | {fname}, bm, bk)
            case S.IntLit() | S.BoolLit() | S.UnitLit():
                pass
            case S.ListE(elems):
                for elem in elems:
                    go(elem, bv, bm, bk)
            case S.Pair(left, right) | S.Append(left, right):
                go(left, bv, bm, bk)
                go(right, bv, bm, bk)
            case S.Arith(_, left, right) | S.Cmp(_, left, right):
                go(left, bv, bm, bk)
                go(right, bv, bm, bk)
            case S.Proj1(arg) | S.Proj2(arg):
                go(arg, bv, bm, bk)
            case S.If(cond, then, els):
                go(cond, bv, bm, bk)
                go(then, bv, bm, bk)
                go(els, bv, bm, bk)
            case S.Ret(value):
                go(value, bv, bm, bk)
            case S.Bind(stmt, var, rest):
                go(stmt, bv, bm, bk)
                go(rest, bv | {var}, bm, bk)
            case S.OpCall(_, arg):
                go(arg, bv, bm, bk)
            case S.ContCall(kname, arg, state):
                if kname not in bk:
                    conts.add(kname)
                go(arg, bv, bm, bk)
                go(state, bv, bm, bk)
            case S.Handle(uvar, hseq, handler, init):
                if uvar not in bm:
                    modals.add(uvar)
                go(hseq, bv, bm, bk)
                go(handler, bv, bm, bk)
                go(init, bv, bm, bk)
            case S.Handler(_, op_clauses, ret_clause):
                for clause in op_clauses:
                    go(clause.body, bv | {clause.x, clause.z}, bm, bk | {clause.k})
                go(ret_clause.body, bv | {ret_clause.x, ret_clause.z}, bm, bk)
            case S.HSeq(clauses):
                for clause in clauses:
                    go(clause.handler, bv, bm, bk)
                    go(clause.init, bv, bm, bk)
                    go(clause.body, bv | {clause.var}, bm, bk)
            case _:
                raise AssertionError(f"reference_free_vars: unhandled node {t!r}")

    empty: frozenset[str] = frozenset()
    go(term, empty, empty, empty)
    return FreeVars(frozenset(values), frozenset(modals), frozenset(conts))


def subterms(term: S.Term) -> list[S.Term]:
    """Every term node under `term`, itself included, through clause records."""
    out: list[S.Term] = []

    def walk(node) -> None:
        if isinstance(node, TERM_CLASSES):
            out.append(node)
        # A record is a tuple too, so records are told apart first.
        if isinstance(node, Record):
            if not isinstance(node, (S.EffectContext, S.Type)):
                for f in node.fields():
                    walk(getattr(node, f))
        elif type(node) is tuple:
            for item in node:
                walk(item)

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


def _fv(values=(), modals=(), conts=()) -> FreeVars:
    return FreeVars(frozenset(values), frozenset(modals), frozenset(conts))


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
        _fv(values=[x]),
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
    # box St. (x <- get(); y <- raise(); ret x): operation names are data,
    # free neither inside nor outside the box's theory.
    (
        S.BoxTerm(
            ST,
            S.Bind(S.OpCall("get", S.UnitLit()), x, S.Bind(S.OpCall("raise", S.UnitLit()), y, S.Ret(S.Var(x)))),
        ),
        _fv(),
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
    # Operation names and theories are data, so a chain of operation calls
    # with nothing else free is closed, and a box shares its body's result.
    assert free_vars(parse_term("x <- get(); ret x")) is NO_FREE_VARS
    box = parse_term("box {get:unit=>int}. x <- get(); ret (x + y)")
    assert free_vars(box) is free_vars(box.body)


# The 14 classes whose free names are their children's alone: no uses,
# binders or tuples of children.
PLAIN = [row.cls for row in S.ROWS if not (row.uses or row.binds or row.tuples)]
# The data of the plain classes that hold any: an operator, a theory, a literal.
PLAIN_DATA = {"op": "+", "theory": S.EMPTY_THEORY, "value": 1}


def plain_node(cls: type, kids: list) -> S.Term:
    """A node of the plain class `cls`, built by `_make`, with `kids` as its
    children in order."""
    row = S.SCHEMA[cls]
    given = dict(zip(row.children, kids))
    return cls._make([given[f] if f in given else PLAIN_DATA.get(f) for f in row.fields])


@pytest.mark.parametrize("cls", PLAIN, ids=lambda cls: cls.__name__)
def test_a_plain_node_joins_its_children_s_free_names(cls):
    # `free_vars` reads the cached result of each child in place; cached or
    # not, closed or shared, the children give the reference names, and the
    # result is a child's own where that child's names hold all the others.
    n = len(S.SCHEMA[cls].children)

    def cached(t):
        free_vars(t)
        return t

    if n == 0:
        assert free_vars(plain_node(cls, [])) is NO_FREE_VARS
        return
    open_kids = [S.Var(f"x{i}") for i in range(n)]
    for kids in (open_kids, [cached(k) for k in open_kids]):
        node = plain_node(cls, kids)
        assert free_vars(node) == reference_free_vars(node) == FreeVars(
            frozenset(f"x{i}" for i in range(n)), frozenset(), frozenset()
        )
    assert free_vars(plain_node(cls, [S.IntLit(i) for i in range(n)])) is NO_FREE_VARS
    assert free_vars(plain_node(cls, [cached(S.IntLit(i)) for i in range(n)])) is NO_FREE_VARS
    for hot in range(n):
        for cache in (False, True):
            kid = S.Pair(S.Var("x"), S.Var("y"))
            kids = [(cached(kid) if cache else kid) if i == hot else S.UnitLit() for i in range(n)]
            assert free_vars(plain_node(cls, kids)) is free_vars(kid)
            # Beside a child whose names it holds, the larger set is shared.
            kids = [kid if i == hot else S.Var("x") for i in range(n)]
            assert free_vars(plain_node(cls, kids)) is free_vars(kid)
    shared = S.Var("x")
    assert free_vars(plain_node(cls, [shared] * n)) is free_vars(shared)


def test_caching_leaves_equality_hash_and_printing_alone():
    for seed in range(40):
        a = gen_program(random.Random(seed))[0]
        b = gen_program(random.Random(seed))[0]
        before = (repr(a), hash(a), pretty(a))
        free_vars(a)
        assert (repr(a), hash(a), pretty(a)) == before
        assert a == b and b == a
        assert hash(a) == hash(b)


def one_node_per_class() -> dict[type, S.Term]:
    """The first node of each `SCHEMA` class in the samples, then in the
    corpus programs for the classes the samples lack."""
    samples = sorted((Path(__file__).resolve().parent.parent / "samples").glob("*.ecmtt"))
    found: dict[type, S.Term] = {}
    todo = [*reversed(corpus_mains()), *(parse_source(p.read_text()).main for p in reversed(samples))]
    while todo:
        t = todo.pop()
        # A node is a tuple too, so nodes are told apart first.
        if type(t) in S.SCHEMA:
            found.setdefault(type(t), t)
            todo.extend(reversed(t))
        elif type(t) is tuple:
            todo.extend(reversed(t))
    return found


def test_a_cached_node_copies_and_pickles_with_its_free_names():
    lam = S.Lam(x, S.INT, S.App(S.Var(x), S.Var(y)))
    free_vars(lam)
    for copied in (copy.deepcopy(lam), pickle.loads(pickle.dumps(lam))):
        assert copied == lam and type(copied._fv) is FreeVars
        assert copied._fv == _fv(values=[y]) and copied._fv.values == {y}
    # One parsed node of every class, with its span: a node is a tuple, so
    # `copy` and `pickle` rebuild it through `__new__` from its fields.
    nodes = one_node_per_class()
    assert set(nodes) == set(S.SCHEMA)
    for cls, node in nodes.items():
        fv = free_vars(node)
        for copied in (copy.copy(node), copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
            assert type(copied) is cls and copied == node, cls
            # Field by field, each span included.
            assert tuple(copied) == tuple(node) and getattr(copied, "span", None) == getattr(node, "span", None)
            assert type(copied._fv) is FreeVars and copied._fv == fv, cls


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
        assert free_vars(term) is NO_FREE_VARS
    finally:
        sys.setrecursionlimit(limit)
