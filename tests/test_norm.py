"""Normalise once: `subst.normalize` against the rebuild-everything walk.

`_Engine.norm` returns a node itself when nothing under it folds, and
stores its result on the node so a term that is already normal costs one
lookup.  The reference below is the plain walk that rebuilds every node
through the smart constructors and keeps nothing, which shares no code
with the cached one.
"""

import random
import sys

import pytest

from ecmtt import subst
from ecmtt import syntax as S
from ecmtt.evaluator import evaluate
from ecmtt.parser import parse_term
from ecmtt.pretty import pretty
from ecmtt.subst import mk_append, mk_arith, mk_cmp, mk_if, mk_proj1, mk_proj2

from generators import corpus_mains, gen_program, gen_roundtrip_term


def reference_norm(t: S.Term) -> S.Term:
    n = reference_norm
    match t:
        case S.Var() | S.IntLit() | S.BoolLit() | S.UnitLit():
            return t
        case S.Lam(p, a, b):
            return S.Lam(p, a, n(b), span=t.span)
        case S.App(f, a):
            return S.App(n(f), n(a), span=t.span)
        case S.BoxTerm(th, b):
            return S.BoxTerm(th, n(b), span=t.span)
        case S.LetBox(u, e, b):
            return S.LetBox(u, n(e), n(b), span=t.span)
        case S.EvalTerm(hseq, u):
            return S.EvalTerm(n(hseq), u, span=t.span)
        case S.Fix(f, p, a, th, r, rec, sc):
            return S.Fix(f, p, a, th, r, n(rec), n(sc), span=t.span)
        case S.Pair(l, r):
            return S.Pair(n(l), n(r), span=t.span)
        case S.Proj1(a):
            return mk_proj1(n(a), span=t.span)
        case S.Proj2(a):
            return mk_proj2(n(a), span=t.span)
        case S.ListE(elems):
            return S.ListE(tuple(n(e) for e in elems), span=t.span)
        case S.Append(l, r):
            return mk_append(n(l), n(r), span=t.span)
        case S.Arith(op, l, r):
            return mk_arith(op, n(l), n(r), span=t.span)
        case S.Cmp(op, l, r):
            return mk_cmp(op, n(l), n(r), span=t.span)
        case S.If(c, a, b):
            return mk_if(n(c), n(a), n(b), span=t.span)
        case S.Ret(e):
            return S.Ret(n(e), span=t.span)
        case S.Bind(st, x, rest):
            return S.Bind(n(st), x, n(rest), span=t.span)
        case S.OpCall(op, a):
            return S.OpCall(op, n(a), span=t.span)
        case S.ContCall(k, a, st):
            return S.ContCall(k, n(a), n(st), span=t.span)
        case S.Handle(u, hseq, h, init):
            return S.Handle(u, n(hseq), n(h), n(init), span=t.span)
        case S.Handler(th, ops, ret):
            return S.Handler(
                th,
                tuple(S.OpClause(c.op, c.x, c.k, c.z, n(c.body)) for c in ops),
                S.RetClause(ret.x, ret.z, n(ret.body)),
            )
        case S.HSeq(clauses):
            return S.HSeq(tuple(S.HClause(n(c.handler), n(c.init), c.var, n(c.body)) for c in clauses))
    raise AssertionError(f"reference_norm: unhandled node {t!r}")


def assert_matches_reference(t: S.Term) -> None:
    expected = reference_norm(t)
    got = subst.normalize(t)
    assert got == expected, pretty(t)
    assert pretty(got) == pretty(expected)
    # Normal forms are their own normal forms, at no cost.
    assert subst.normalize(got) is got
    assert subst.normalize(t) is got
    assert subst._Engine(0).norm(t) is got


# Pure redexes on literals in every position the smart constructors fold.
FOLDABLE = [
    "1 + 2 * 3",
    "fn x:int. x + (2 * 3)",
    "fst (1, 2) + snd (3, 4)",
    "[1, 2] ++ [3]",
    "[] ++ [1 + 1]",
    "if 1 < 2 then 3 else 4",
    "if true then (if false then 1 else 2) else 3",
    "(1 = 1, 10 / 3)",
    "1 / 0",
    "fn x:int. (x + 1, 2 + 2)",
    "ret (if 2 = 2 then 1 + 1 else 0)",
]


@pytest.mark.parametrize("text", FOLDABLE)
def test_folding_matches_the_reference(text):
    assert_matches_reference(parse_term(text))


def test_generated_terms_match_the_reference():
    for seed in range(300):
        assert_matches_reference(gen_program(random.Random(seed))[0])
        assert_matches_reference(gen_roundtrip_term(random.Random(seed)))


def test_every_evaluation_step_matches_the_reference():
    # Engine output shares nodes with its input and with earlier steps, so
    # steps mix cached and fresh nodes.
    programs = corpus_mains() + [gen_program(random.Random(seed))[0] for seed in range(150)]
    checked = 0
    for program in programs:
        outcome = evaluate(program, max_steps=2000, record=True)
        for stepped in outcome.steps:
            assert_matches_reference(stepped.term)
            checked += 1
    assert checked > 300


def test_a_normal_node_is_returned_as_it_is():
    term = parse_term("fn x:int. (x, [1, 2])")
    assert subst.normalize(term) is term
    folded = parse_term("fn x:int. (x, 1 + 2)")
    out = subst.normalize(folded)
    assert out is not folded
    # Only the path to the fold is rebuilt.
    assert out.body.left is folded.body.left


def test_a_memo_hit_spends_no_fuel():
    term = gen_program(random.Random(7))[0]
    with pytest.raises(subst.OutOfFuel):
        subst._Engine(0).norm(term)
    out = subst.normalize(term)
    assert subst._Engine(0).norm(term) is out
    assert subst._Engine(0).norm(out) is out


def test_the_memo_is_invisible():
    for seed in range(40):
        a = gen_program(random.Random(seed))[0]
        b = gen_program(random.Random(seed))[0]
        before = (repr(a), hash(a), pretty(a))
        subst.normalize(a)
        assert (repr(a), hash(a), pretty(a)) == before
        assert a == b and b == a
        assert hash(a) == hash(b)


def test_replace_gives_a_node_without_the_memo():
    lam = parse_term("fn x:int. x + (1 + 1)")
    assert subst.normalize(lam) == parse_term("fn x:int. x + 2")
    assert "_nf" in vars(lam)
    fresh = lam.replace(param="y")
    assert "_nf" not in vars(fresh)
    assert subst.normalize(fresh) == parse_term("fn y:int. x + 2")
    assert subst.normalize(lam.replace(body=S.Var("z"))) == S.Lam("x", S.INT, S.Var("z"))


def test_normalize_of_a_450_pair_chain_fits_the_default_recursion_limit():
    # The chain is 900 binds deep, so this fails if norm spends more than
    # one frame per tree level, for example in a wrapper around the memo.
    chain = " ".join(f"y{i} <- get(); w{i} <- set(y{i} + 1);" for i in range(450)) + " ret 0"
    term = parse_term(chain)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        out = subst.normalize(term)
    finally:
        sys.setrecursionlimit(limit)
    assert out is term
