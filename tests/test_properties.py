"""Property suites: algebraic laws of the helpers and randomized soundness.

Small structural properties are driven by hypothesis; whole-program
properties use the seeded generators from generators.py so failures are
reproducible from the printed seed.
"""

import random

from hypothesis import given, strategies as st

from ecmtt import syntax as S
from ecmtt.evaluator import Stuck, Value, evaluate
from ecmtt.parser import parse_term, parse_type
from ecmtt.pretty import pretty, type_text
from ecmtt.subst import subst_values
from ecmtt.syntax import (
    alpha_equal,
    make_theory,
    theory_equal,
    theory_subset,
    type_equal,
)
from ecmtt.typecheck import _merge, infer_comp

from generators import gen_program, gen_roundtrip_term

# -- hypothesis strategies for types and theories


def types(max_depth: int = 3):
    base = st.sampled_from([S.INT, S.BOOL, S.UNIT])
    return st.recursive(
        base,
        lambda sub: st.one_of(
            st.builds(S.ProdT, sub, sub),
            st.builds(S.ListT, sub),
            st.builds(S.ArrowT, sub, sub),
        ),
        max_leaves=max_depth,
    )


op_names = st.sampled_from(["alpha", "beta", "gamma", "delta"])


@st.composite
def theories(draw):
    names = draw(st.lists(op_names, unique=True, min_size=0, max_size=3))
    return make_theory(
        [S.OpDecl(n, draw(types(2)), draw(types(2))) for n in names]
    )


@given(types())
def test_type_equal_is_reflexive(ty):
    assert type_equal(ty, ty)


@given(types(), types())
def test_type_equal_is_symmetric(a, b):
    assert type_equal(a, b) == type_equal(b, a)


@given(types())
def test_type_text_parses_back(ty):
    assert type_equal(parse_type(type_text(ty)), ty)


@given(theories())
def test_theory_subset_is_reflexive(th):
    assert theory_subset(th, th)


@given(theories(), theories())
def test_theory_equal_means_mutual_inclusion(a, b):
    assert theory_equal(a, b) == (theory_subset(a, b) and theory_subset(b, a))


@given(types())
def test_bottom_is_absorbed_by_any_type(ty):
    merged = _merge(S.BOTTOM, ty)
    assert merged is not None and type_equal(merged, ty)
    merged = _merge(ty, S.BOTTOM)
    assert merged is not None and type_equal(merged, ty)


@given(types())
def test_merge_is_idempotent(ty):
    merged = _merge(ty, ty)
    assert merged is not None and type_equal(merged, ty)


@given(types(), types())
def test_merge_is_commutative_up_to_equality(a, b):
    ab, ba = _merge(a, b), _merge(b, a)
    assert (ab is None) == (ba is None)
    if ab is not None:
        assert type_equal(ab, ba)


@given(st.integers(min_value=-50, max_value=50), st.integers(min_value=-50, max_value=50))
def test_arithmetic_agrees_with_python(a, b):
    term = S.Arith("+", S.IntLit(a), S.IntLit(b))
    outcome = evaluate(term)
    assert isinstance(outcome.final, Value)
    assert outcome.final.term == S.IntLit(a + b)


@given(st.lists(st.integers(min_value=-9, max_value=9), max_size=5))
def test_list_literals_roundtrip(xs):
    literal = S.ListE(tuple(S.IntLit(x) for x in xs))
    assert alpha_equal(parse_term(pretty(literal)), literal)


@given(st.text(alphabet="abcxyz", min_size=1, max_size=3))
def test_substituting_an_absent_variable_is_identity(name):
    term = parse_term("fn q:int. q + 1")
    assert alpha_equal(subst_values(term, {name: S.IntLit(0)}), term)


# -- seeded whole-program properties


def test_generated_programs_roundtrip_through_the_printer():
    rng = random.Random(20260819)
    for _ in range(300):
        term = gen_roundtrip_term(rng)
        assert alpha_equal(parse_term(pretty(term)), term), pretty(term)


def test_generated_programs_preserve_their_type_per_step():
    rng = random.Random(96321)
    for _ in range(300):
        comp, ty = gen_program(rng)
        got = infer_comp(S.EMPTY_MODAL, S.EMPTY_THEORY, comp)
        assert type_equal(got, ty), (type_text(got), type_text(ty))
        outcome = evaluate(comp, max_steps=20000, record=True)
        assert not isinstance(outcome.final, Stuck), outcome.final
        for stepped in outcome.steps:
            after = infer_comp(S.EMPTY_MODAL, S.EMPTY_THEORY, stepped.term)
            merged = _merge(after, got)
            assert merged is not None and type_equal(merged, got), (
                type_text(after),
                type_text(got),
            )


def test_generated_values_survive_a_json_style_reprint():
    rng = random.Random(5150)
    for _ in range(200):
        comp, _ = gen_program(rng)
        outcome = evaluate(comp, max_steps=20000)
        if not isinstance(outcome.final, Value):
            continue
        text = pretty(outcome.final.term)
        assert alpha_equal(parse_term(text), outcome.final.term), text
