"""Structural helpers: equality up to alpha, theory comparison, free names."""

from ecmtt import syntax as S
from ecmtt.parser import parse_term, parse_type
from ecmtt.pretty import theory_text
from ecmtt.syntax import (
    alpha_equal,
    free_vars,
    fresh_name,
    make_theory,
    theory_equal,
    theory_subset,
    type_equal,
)

ST = make_theory(
    [S.OpDecl("get", S.UNIT, S.INT), S.OpDecl("set", S.INT, S.UNIT)]
)
EXN = make_theory([S.OpDecl("raise", S.UNIT, S.BOTTOM)])


def test_type_equal_ignores_theory_order():
    a = parse_type("[ {get:unit=>int, set:int=>unit} ] int")
    b = parse_type("[ {set:int=>unit, get:unit=>int} ] int")
    assert type_equal(a, b)


def test_type_equal_compares_distinct_objects_by_structure():
    # The same object answers at once; separately built types are walked.
    pair = S.ProdT(S.INT, S.ListT(S.UNIT))
    assert type_equal(pair, pair)
    assert type_equal(S.ProdT(S.BaseT("int"), S.ListT(S.BaseT("unit"))), pair)
    assert type_equal(S.BoxT(ST, S.BaseT("bool")), S.BoxT(ST, S.BOOL))


def test_type_equal_distinguishes_structure():
    assert not type_equal(S.ProdT(S.INT, S.BOOL), S.ProdT(S.BOOL, S.INT))
    assert not type_equal(S.ListT(S.INT), S.INT)
    assert not type_equal(S.ArrowT(S.INT, S.INT), S.ArrowT(S.INT, S.BOOL))
    assert not type_equal(S.BoxT(ST, S.INT), S.BoxT(EXN, S.INT))


def test_theory_subset_requires_matching_signatures():
    st_get_only = make_theory([S.OpDecl("get", S.UNIT, S.INT)])
    assert theory_subset(st_get_only, ST)
    assert not theory_subset(ST, st_get_only)
    wrong = make_theory([S.OpDecl("get", S.UNIT, S.BOOL)])
    assert not theory_subset(wrong, ST)


def test_theory_equal_is_set_equality():
    flipped = make_theory(
        [S.OpDecl("set", S.INT, S.UNIT), S.OpDecl("get", S.UNIT, S.INT)]
    )
    assert theory_equal(ST, flipped)
    assert not theory_equal(ST, EXN)


def test_alpha_equal_renames_value_binders():
    a = parse_term("fn x:int. x + 1")
    b = parse_term("fn y:int. y + 1")
    assert alpha_equal(a, b)


def test_alpha_equal_rejects_capture():
    a = parse_term("fn x:int. fn y:int. x")
    b = parse_term("fn x:int. fn y:int. y")
    assert not alpha_equal(a, b)


def test_alpha_equal_renames_modal_binders():
    a = parse_term("let box u = box {}. ret 1 in eval u")
    b = parse_term("let box v = box {}. ret 1 in eval v")
    assert alpha_equal(a, b)


def test_alpha_equal_free_names_must_match_literally():
    assert not alpha_equal(S.Var("x"), S.Var("y"))
    assert alpha_equal(S.Var("x"), S.Var("x"))


def test_alpha_equal_compares_theories_as_sets():
    a = parse_term("box {get:unit=>int, set:int=>unit}. ret 1")
    b = parse_term("box {set:int=>unit, get:unit=>int}. ret 1")
    assert alpha_equal(a, b)


def test_free_vars_separates_namespaces():
    term = parse_term("x <- get(); ret (f x)")
    fv = free_vars(term)
    assert fv.values == {"f"}
    assert fv.modals == frozenset()


def test_free_vars_box_binds_its_operations():
    # Operation names are data: the box's theory declares them, and nothing
    # is left free.
    term = parse_term("box {get:unit=>int}. get()")
    assert free_vars(term) is S.NO_FREE_VARS


def test_free_vars_lambda_binds_value_variable():
    fv = free_vars(parse_term("fn x:int. x + y"))
    assert fv.values == {"y"}


def test_free_vars_modal_variable():
    term = parse_term("let box u = b in eval u")
    fv = free_vars(term)
    assert fv.modals == frozenset()
    assert fv.values == {"b"}


def test_fresh_name_avoids_collisions():
    assert fresh_name("x", []) == "x"
    assert fresh_name("x", ["x"]) == "x1"
    assert fresh_name("x", ["x", "x1", "x2"]) == "x3"


def test_make_theory_rejects_duplicate_operations():
    import pytest

    with pytest.raises(ValueError):
        make_theory([S.OpDecl("get", S.UNIT, S.INT), S.OpDecl("get", S.UNIT, S.BOOL)])


def _nodes_with_theory(theory):
    """One node of each class that checks its theory when built."""
    body = S.Ret(S.IntLit(0))
    ret = S.RetClause("x", "z", body)
    return [
        lambda: S.BoxTerm(theory, body),
        lambda: S.Fix("f", "n", S.INT, theory, S.INT, body, S.Var("f")),
        lambda: S.Fix("f", "n", S.INT, theory, S.INT, body, body),
        lambda: S.Handler(theory, (), ret),
        lambda: S.ModalBind("u", S.INT, theory),
        lambda: S.BoxT(theory, S.INT),
    ]


def test_every_theory_holder_rejects_a_bad_context():
    import pytest

    for build in _nodes_with_theory(ST):
        build()  # marks ST as checked
    not_a_theory = S.EffectContext((S.ContDecl("k", S.INT, S.INT, S.INT),))
    duplicate = S.EffectContext((S.OpDecl("get", S.UNIT, S.INT), S.OpDecl("get", S.UNIT, S.BOOL)))
    for bad in (not_a_theory, duplicate):
        for build in _nodes_with_theory(bad):
            with pytest.raises(ValueError):
                build()
            with pytest.raises(ValueError):
                build()  # a failed check is not remembered as a pass


def test_each_theory_is_checked_once(monkeypatch):
    calls = 0
    inner = S.EffectContext.is_theory

    def counting(self):
        nonlocal calls
        calls += 1
        return inner(self)

    monkeypatch.setattr(S.EffectContext, "is_theory", counting)
    theory = make_theory([S.OpDecl("tick", S.UNIT, S.UNIT)])
    for build in _nodes_with_theory(theory):
        build()
        build()
    assert calls == 1
    fresh = make_theory([S.OpDecl("tick", S.UNIT, S.UNIT)])
    assert fresh == theory
    S.BoxTerm(fresh, S.Ret(S.IntLit(0)))
    assert calls == 2


def test_contexts_print_their_entries_outermost_first():
    # A continuation declaration prints its state type after a slash.
    with_k = ST.with_cont(S.ContDecl("k", S.INT, S.BOOL, S.UNIT))
    assert theory_text(with_k) == "{get:unit=>int, set:int=>unit, k~:int/bool=>unit}"
    ctx = S.ModalContext(S.ValBind("x", S.INT), S.ModalContext())
    ctx = S.ModalContext(S.ModalBind("u", S.BOOL, S.EMPTY_THEORY), ctx)
    assert repr(ctx) == (
        "ModalContext((ValBind(name='x', type=BaseT(name='int')), "
        "ModalBind(name='u', type=BaseT(name='bool'), theory=EffectContext(entries=()))))"
    )
    assert repr(S.ModalContext()) == "ModalContext(())"
