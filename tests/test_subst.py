"""Substitution operations: value, monadic, continuation, handling, modal."""

import random
from pathlib import Path

import pytest

from ecmtt import syntax as S
from ecmtt.corpus import CASES, PRELUDE
from ecmtt.parser import ParseError, parse_source, parse_term
from ecmtt.pretty import pretty
from ecmtt.subst import (
    OutOfFuel,
    SubstitutionError,
    _Engine,
    eta_expand,
    eval_meta,
    handle_seq,
    handle_with,
    id_handler,
    is_pure_value,
    modal_subst,
    normalize,
    subst_cont,
    subst_monadic,
    subst_values,
)
from ecmtt.syntax import EMPTY_MODAL, alpha_equal, type_equal
from ecmtt.typecheck import HandlerSig, check_handler

from generators import gen_program
from test_free_vars import subterms

TABLE = parse_source(PRELUDE).table
ST = TABLE.theories["St"]
EXN = TABLE.theories["Exn"]
HANDLER_ST = TABLE.handlers["handlerSt"]
ID_ST = TABLE.handlers["idSt"]


def comp(text: str) -> S.Comp:
    term = parse_term(text, TABLE)
    assert isinstance(S.last_part(term), S.Comp), text
    return term


def test_value_substitution_avoids_capture():
    body = parse_term("fn x:int. x + y")
    got = subst_values(body, {"y": S.Var("x")})
    # The free x being substituted in must not be captured by the binder.
    assert alpha_equal(got, parse_term("fn w:int. w + x"))
    assert not alpha_equal(got, parse_term("fn x:int. x + x"))


def test_value_substitution_is_simultaneous():
    term = parse_term("x + y")
    got = subst_values(term, {"x": S.Var("y"), "y": S.Var("x")})
    assert alpha_equal(got, parse_term("y + x"))


def test_monadic_substitution_into_a_return():
    got = subst_monadic(comp("ret 3"), "x", comp("ret (x + 1)"))
    assert alpha_equal(got, comp("ret 4"))


def test_monadic_substitution_pushes_under_a_bind():
    got = subst_monadic(comp("w <- get(); ret w"), "y", comp("ret (y + 1)"))
    assert alpha_equal(got, comp("w <- get(); ret (w + 1)"))


def test_monadic_substitution_renames_to_avoid_capture():
    # The continuation mentions its own free `w`, which must not collide
    # with the bound w of the producer.
    got = subst_monadic(comp("w <- get(); ret w"), "y", comp("ret (y + w)"))
    assert alpha_equal(got, comp("v <- get(); ret (v + w)"))


def test_continuation_substitution_plugs_both_arguments():
    t = comp("v <- k(3; 4); ret v")
    got = subst_cont(t, "k", "x", "y", comp("ret (x + y)"))
    assert alpha_equal(got, comp("ret 7"))


def test_continuation_substitution_leaves_other_continuations():
    t = comp("v <- q(3; 4); ret v")
    got = subst_cont(t, "k", "x", "y", comp("ret (x + y)"))
    assert alpha_equal(got, t)


def test_handling_a_return_runs_the_return_clause():
    got = handle_with(comp("ret 5"), HANDLER_ST, S.IntLit(0))
    assert alpha_equal(got, comp("ret (5, 0)"))


def test_handling_an_operation_runs_its_clause():
    got = handle_with(comp("x <- get(); ret x"), HANDLER_ST, S.IntLit(0))
    assert alpha_equal(got, comp("ret (0, 0)"))


def test_handling_threads_state_through_set():
    got = handle_with(
        comp("y <- get(); w <- set(y + 1); ret y"), HANDLER_ST, S.IntLit(0)
    )
    assert alpha_equal(got, comp("ret (0, 1)"))


def test_handling_reports_a_missing_clause():
    lonely = parse_source(
        PRELUDE
        + "\ndef lonely = handler for Exn {"
        "\n  raise(x;k;z) -> ret 42,"
        "\n  return(x;z) -> ret x"
        "\n}\n"
    ).table.handlers["lonely"]
    with pytest.raises(SubstitutionError):
        handle_with(comp("x <- get(); ret x"), lonely, S.UnitLit())


def test_handling_sequence_feeds_clause_variable():
    theta = S.HSeq((S.HClause(HANDLER_ST, S.IntLit(0), "w", comp("ret (fst w)")),))
    got = handle_seq(comp("ret 5"), theta)
    assert alpha_equal(got, comp("ret 5"))


def test_empty_handling_sequence_is_identity():
    c = comp("x <- get(); ret x")
    assert alpha_equal(handle_seq(c, S.EMPTY_HSEQ), c)


def test_modal_substitution_runs_handlers_in_place():
    stmt = parse_term("x <- handle u with handlerSt init 0; ret x", TABLE)
    got = modal_subst(stmt, "u", comp("y <- get(); w <- set(y + 1); ret y"))
    assert alpha_equal(got, comp("ret (0, 1)"))


def test_modal_substitution_resolves_eval():
    t = parse_term("ret ((eval u) + 1)", TABLE)
    got = modal_subst(t, "u", comp("ret 9"))
    assert alpha_equal(got, comp("ret 10"))


def test_modal_substitution_ignores_other_modals():
    t = parse_term("x <- handle v with handlerSt init 0; ret x", TABLE)
    got = modal_subst(t, "u", comp("ret 1"))
    assert alpha_equal(got, t)


def test_eval_meta_strips_a_return():
    assert alpha_equal(eval_meta(comp("ret 5")), S.IntLit(5))


def test_eval_meta_rejects_a_bare_operation():
    with pytest.raises(SubstitutionError):
        eval_meta(comp("x <- get(); ret x"))


def test_normalize_folds_pure_arithmetic():
    assert alpha_equal(normalize(parse_term("ret ((1 + 2) * 3)")), comp("ret 9"))
    assert alpha_equal(normalize(parse_term("fst (1, 2)")), S.IntLit(1))
    assert alpha_equal(
        normalize(parse_term("if 1 < 2 then 5 else 6")), S.IntLit(5)
    )


def test_normalize_works_under_binders():
    got = normalize(parse_term("fn x:int. x + (1 + 1)"))
    assert alpha_equal(got, parse_term("fn x:int. x + 2"))


def test_id_handler_has_one_clause_per_operation():
    h = id_handler(ST)
    assert {c.op for c in h.op_clauses} == {"get", "set"}
    sig = check_handler(EMPTY_MODAL, ST, h, S.INT, S.UNIT)
    assert sig == HandlerSig(S.INT, ST, S.UNIT, S.INT)


def test_id_handler_acts_as_identity_on_computations():
    c = comp("x <- get(); ret x")
    got = handle_with(c, id_handler(ST), S.UnitLit())
    assert alpha_equal(got, c)


def test_eta_expansion_preserves_the_boxed_type():
    from ecmtt.typecheck import infer_expr

    e = parse_term("box St. get()", TABLE)
    assert isinstance(S.last_part(e), S.Expr)
    expanded = eta_expand(e, ST)
    assert type_equal(infer_expr(EMPTY_MODAL, expanded), S.BoxT(ST, S.INT))


def test_eta_expansion_keeps_empty_theory_behaviour():
    from ecmtt.evaluator import Value, evaluate

    e = parse_term("box {}. ret 3")
    assert isinstance(S.last_part(e), S.Expr)

    def observe(boxed: S.Expr) -> str:
        probe = S.LetBox("w", boxed, S.EvalTerm(S.EMPTY_HSEQ, "w"))
        outcome = evaluate(probe)
        assert isinstance(outcome.final, Value)
        return pretty(outcome.final.term)

    assert observe(e) == observe(eta_expand(e, S.EMPTY_THEORY)) == "3"


def test_a_renamed_clause_binder_avoids_the_other_binders_of_its_clause():
    # The clause names its state `x1` and leaves it unused, so the free
    # names of its body do not hold `x1`.  Each substitution reaches into the
    # body, at `eval u` and at the call of `j`, with code that reads `x`:
    # renaming `x` away from it must still not pick `x1`, which the state
    # would capture.
    theory = S.make_theory([S.OpDecl("get", S.UNIT, S.INT)])
    ret = S.RetClause("x", "z", S.Ret(S.Var("x")))

    def handler(body: S.Comp) -> S.Handler:
        return S.Handler(theory, (S.OpClause("get", "x", "k", "x1", body),), ret)

    reads_u = handler(S.Ret(S.Pair(S.Var("x"), S.EvalTerm(S.EMPTY_HSEQ, "u"))))
    boxed = modal_subst(reads_u, "u", S.Ret(S.Var("x")))
    calls_j = handler(S.Bind(S.ContCall("j", S.Var("x"), S.IntLit(0)), "v", S.Ret(S.Var("v"))))
    handling = S.Bind(S.Handle("w", S.EMPTY_HSEQ, calls_j, S.IntLit(0)), "v", S.Ret(S.Var("v")))
    resumed = subst_cont(handling, "j", "a", "b", S.Ret(S.Pair(S.Var("a"), S.Var("x"))))
    # Both give the clause body `ret (x', x)`, `x'` the renamed binder.
    expected = S.Handler(theory, (S.OpClause("get", "y", "k", "s", S.Ret(S.Pair(S.Var("y"), S.Var("x")))),), ret)
    for out in (boxed, resumed.stmt.handler):
        clause = out.op_clauses[0]
        assert (clause.x, clause.z, clause.body) == ("x2", "x1", S.Ret(S.Pair(S.Var("x2"), S.Var("x"))))
        assert alpha_equal(out, expected)


def test_fuel_runs_out_instead_of_spinning():
    with pytest.raises(OutOfFuel):
        _Engine(2).handle_with(comp("y <- get(); w <- set(y + 1); ret y"), HANDLER_ST, S.IntLit(0))


def test_mk_append_folds_two_lists_of_pure_values_only():
    from ecmtt.subst import mk_append

    one, two = S.ListE((S.IntLit(1), S.Var("x"))), S.ListE((S.IntLit(2),))
    assert mk_append(one, two) == S.ListE((S.IntLit(1), S.Var("x"), S.IntLit(2)))
    assert mk_append(S.ListE(()), two) == two
    # Not a list, or an element that is not a pure value: no fold.
    busy = S.ListE((S.Arith("+", S.IntLit(1), S.IntLit(1)),))
    for left, right in [(S.Var("xs"), two), (one, S.Var("ys")), (busy, two), (two, busy)]:
        assert mk_append(left, right) == S.Append(left, right)


def test_value_substitution_renames_a_modal_binder_the_payload_uses():
    # The payload `eval u` names the modal variable `u` that the `let box`
    # binds, so the binder is renamed, not the payload captured.
    term = parse_term("let box u = box {}. ret 1 in x")
    out = subst_values(term, {"x": parse_term("eval u")})
    assert out == parse_term("let box u1 = box {}. ret 1 in eval u")
    assert alpha_equal(out, parse_term("let box w = box {}. ret 1 in eval u"))
    assert not alpha_equal(out, parse_term("let box u = box {}. ret 1 in eval u"))


def test_renaming_a_clause_binder_skips_a_body_another_binder_rebinds():
    # The clause binds `x` twice, as argument and as state.  Both would
    # capture the payload's `x`; renaming the argument leaves the body
    # alone, since the state still binds `x` there.
    theory = S.make_theory([S.OpDecl("get", S.UNIT, S.INT)])
    ret = S.RetClause("x", "z", S.Ret(S.Var("x")))
    get = S.OpClause("get", "x", "k", "x", S.Ret(S.EvalTerm(S.EMPTY_HSEQ, "u")))
    out = modal_subst(S.Handler(theory, (get,), ret), "u", S.Ret(S.Var("x")))
    assert out.op_clauses == (S.OpClause("get", "x1", "k", "x2", S.Ret(S.Var("x"))),)
    by_hand = S.OpClause("get", "a", "k", "b", S.Ret(S.Var("x")))
    assert alpha_equal(out, S.Handler(theory, (by_hand,), ret))
    # Where the body uses `x`, it means the state, and follows the state's
    # new name only.
    body = S.Ret(S.Arith("+", S.Var("x"), S.EvalTerm(S.EMPTY_HSEQ, "u")))
    get = S.OpClause("get", "x", "k", "x", body)
    out = modal_subst(S.Handler(theory, (get,), ret), "u", S.Ret(S.Var("x")))
    renamed = S.Ret(S.Arith("+", S.Var("x2"), S.Var("x")))
    assert out.op_clauses == (S.OpClause("get", "x1", "k", "x2", renamed),)
    by_hand = S.OpClause("get", "a", "k", "b", S.Ret(S.Arith("+", S.Var("b"), S.Var("x"))))
    assert alpha_equal(out, S.Handler(theory, (by_hand,), ret))


def reference_is_pure_value(e: S.Term) -> bool:
    """`is_pure_value` as it was written with class patterns: the reference
    for the exact-class version."""
    match e:
        case S.Var() | S.IntLit() | S.BoolLit() | S.UnitLit() | S.Lam() | S.BoxTerm():
            return True
        case S.Pair(left, right):
            return reference_is_pure_value(left) and reference_is_pure_value(right)
        case S.ListE(elems):
            return getattr(e, "_pure", False) or all(map(reference_is_pure_value, elems))
        case _:
            return False


def _pure_value_samples() -> list[S.Term]:
    """The main terms of the samples and the corpus cases that parse, and
    `gen_program` seeds 0-399, plain and shadowing."""
    sources = [p.read_text() for p in sorted(Path(__file__).parent.parent.glob("samples/*.ecmtt"))]
    sources += [case.source for case in CASES]
    mains = []
    for source in sources:
        try:
            mains.append(parse_source(source).main)
        except ParseError:
            continue
    for shadow in (False, True):
        mains += [gen_program(random.Random(seed), shadow)[0] for seed in range(400)]
    return [m for m in mains if m is not None]


def test_is_pure_value_agrees_with_the_class_pattern_reference():
    mains = _pure_value_samples()
    assert len(mains) > 800
    pure = seen = 0
    for main in mains:
        for node in subterms(main):
            assert is_pure_value(node) == reference_is_pure_value(node), pretty(node)
            pure += reference_is_pure_value(node)
            seen += 1
    # Both answers occur, so the agreement says something.
    assert 0 < pure < seen
