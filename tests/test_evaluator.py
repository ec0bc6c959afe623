"""Small-step evaluation: values, traces, fuel, and runtime failures."""

import math
from pathlib import Path

import pytest

from ecmtt import evaluator, subst
from ecmtt import syntax as S
from ecmtt.corpus import PRELUDE
from ecmtt.evaluator import (
    DEFAULT_MAX_STEPS,
    FuelExhausted,
    Stuck,
    Value,
    evaluate,
    is_value,
    step,
)
from ecmtt.parser import parse_source, parse_term
from ecmtt.pretty import pretty
from ecmtt.syntax import alpha_equal

TABLE = parse_source(PRELUDE).table
SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def run(text: str) -> str:
    outcome = evaluate(parse_term(text, TABLE))
    assert isinstance(outcome.final, Value), outcome.final
    return pretty(outcome.final.term)


def test_values_do_not_step():
    for text in ["1", "true", "()", "(1, 2)", "[1, 2]", "fn x:int. x", "box St. get()"]:
        term = parse_term(text, TABLE)
        assert is_value(term), text
        assert step(term) is None, text


def test_ret_of_a_value_is_final():
    term = parse_term("ret 42")
    assert is_value(term)
    assert run("ret 42") == "ret 42"


def test_beta_reduction():
    assert run("(fn x:int. x + 1) 3") == "4"


def test_applications_reduce_left_to_right():
    outcome = evaluate(
        parse_term("((fn x:int. fn y:int. x) 1) ((fn z:int. z) 2)"), record=True
    )
    rules = [s.rule for s in outcome.steps]
    assert rules[0].startswith("cong-app-l") or rules[0] == "beta-app"
    assert isinstance(outcome.final, Value)
    assert pretty(outcome.final.term) == "1"


def test_arithmetic_and_comparison():
    assert run("2 * 3 + 1") == "7"
    assert run("if 2 < 1 then 5 else 6") == "6"
    assert run("10 / 3") == "3"


def test_pairs_and_projections_evaluate_eagerly():
    assert run("fst ((1 + 1, 2), 3)") == "(2, 2)"


def test_list_append():
    assert run("[1] ++ [2, 3]") == "[1, 2, 3]"


def test_letbox_substitutes_the_boxed_code():
    outcome = evaluate(
        parse_term("let box u = box {}. ret 1 in eval u", TABLE), record=True
    )
    assert [s.rule for s in outcome.steps] == ["beta-letbox"]
    assert isinstance(outcome.final, Value)
    assert pretty(outcome.final.term) == "1"


def test_state_pipeline_reduces_to_final_pair():
    got = run(
        "let box u = box St. (y <- get(); w <- set(y + 1); ret y) "
        "in x <- handle u with handlerSt init 0; ret x"
    )
    assert got == "ret (0, 1)"


def test_exception_pipeline_aborts_to_the_handler_value():
    got = run(
        "let box u = explode 12 in x <- handle u with handlerExn init (); ret x"
    )
    assert got == "ret 42"


def test_fix_unrolls_until_the_base_case():
    got = run(
        "let fix fact(n:int) : [{}] int = "
        "if n = 0 then ret 1 else ret (n * eval_f (fact (n - 1))) "
        "in eval_f (fact 3)"
    )
    assert got == "6"


def test_trace_records_every_intermediate_term():
    term = parse_term("(1 + 2) * (3 + 4)")
    outcome = evaluate(term, record=True)
    assert alpha_equal(outcome.initial, term)
    assert len(outcome.steps) == outcome.step_count == 3
    assert isinstance(outcome.final, Value)
    assert alpha_equal(outcome.final.term, S.IntLit(21))
    # The last recorded step already holds the final term.
    assert alpha_equal(outcome.steps[-1].term, outcome.final.term)


def test_step_count_is_tracked_without_recording():
    outcome = evaluate(parse_term("(1 + 2) * (3 + 4)"))
    assert outcome.steps == ()
    assert outcome.step_count == 3


def test_fuel_exhaustion_reports_the_step_budget():
    table = parse_source(
        "def eval_f = fn x:[{}]unit. let box u = x in eval u"
    ).table
    spin = parse_term(
        "let fix spin(x:unit) : [{}] unit = ret (eval_f (spin x)) "
        "in eval_f (spin ())",
        table,
    )
    outcome = evaluate(spin, max_steps=50)
    assert isinstance(outcome.final, FuelExhausted)
    assert outcome.final.steps == 50
    assert outcome.step_count == 50


def test_budget_is_checked_before_stepping(monkeypatch):
    pairs = " ".join(f"y{i} <- get(); w{i} <- set(y{i} + 1);" for i in range(60))
    term = parse_term(
        f"let box u = box St. ({pairs} ret 0) in x <- handle u with handlerSt init 0; ret x",
        TABLE,
    )

    def no_handling(*args):
        raise AssertionError("modal_subst ran with no budget left")

    monkeypatch.setattr(subst, "modal_subst", no_handling)
    outcome = evaluate(term, max_steps=0)
    assert outcome.final == FuelExhausted(0)
    assert outcome.step_count == 0
    # A value needs no step, so a spent budget still reports it.
    assert evaluate(parse_term("ret 1"), max_steps=0).final == Value(parse_term("ret 1"))
    # A term that would get stuck at the budget reports fuel, not the stuck step.
    assert evaluate(parse_term("1 / 0"), max_steps=0).final == FuelExhausted(0)


def test_division_by_zero_gets_stuck_with_a_reason():
    outcome = evaluate(parse_term("1 / 0"))
    assert isinstance(outcome.final, Stuck)
    assert outcome.final.reason == "division-by-zero"


def test_division_by_zero_under_a_congruence():
    outcome = evaluate(parse_term("(1 / 0) + 2"))
    assert isinstance(outcome.final, Stuck)
    assert outcome.final.reason == "division-by-zero"


def test_default_budget_is_generous():
    assert DEFAULT_MAX_STEPS >= 1_000_000


def test_nondeterminism_collects_branches():
    got = run(
        "let box u = box Ch. (b <- choice(); if b then ret 4 else ret 5) in "
        "x <- handle u with handler for Ch { "
        "choice(x;k;z) -> (l <- k(true;z); r <- k(false;z); ret (fst l ++ fst r, z)), "
        "return(x;z) -> ret ([x], z) } init (); ret (fst x)"
    )
    assert got == "ret [4, 5]"


def test_counting_handler_threads_its_state():
    got = run(
        "let box u = box Cnt. (x <- a(); y <- b(); ret (x + y)) in "
        "w <- handle u with handler for Cnt { "
        "a(x;k;z) -> k(1; z + 1), "
        "b(x;k;z) -> k(1; z + 1), "
        "return(x;z) -> ret (x, z) } init 0; ret w"
    )
    # Each clause resumes with the counter bumped once, so two operations
    # leave the state at 2 alongside the computed sum.
    assert got == "ret (2, 2)"


def _is_value_calls_per_step(monkeypatch, n: int) -> float:
    # Every call goes through the module attribute, the recursive ones too.
    calls = 0
    real = evaluator.is_value

    def counting(t):
        nonlocal calls
        calls += 1
        return real(t)

    monkeypatch.setattr(evaluator, "is_value", counting)
    source = (SAMPLES / "factorial.ecmtt").read_text().replace("fact 3", f"fact {n}")
    outcome = evaluate(parse_source(source).main)
    monkeypatch.setattr(evaluator, "is_value", real)
    assert outcome.final == Value(S.IntLit(math.factorial(n)))
    return calls / outcome.step_count


def test_a_step_does_not_rewalk_the_term(monkeypatch):
    # The stepper refocuses from the contractum instead of descending from
    # the root, so the value checks per step stay flat as the term grows.
    # Re-descending from the root makes them grow with N.
    small = _is_value_calls_per_step(monkeypatch, 32)
    large = _is_value_calls_per_step(monkeypatch, 128)
    assert small < 3 and large < 3
    assert large < small + 0.1


def test_step_is_one_iteration_of_the_machine():
    term = parse_term("(1 + 2) * (3 + 4)")
    outcome = evaluate(term, record=True)
    current = term
    for recorded in outcome.steps:
        stepped = step(current)
        assert stepped == recorded
        current = stepped.term
    assert step(current) is None



def test_step_raises_on_a_stuck_term():
    # A stuck term is neither a value (None) nor a step; `run` reports it
    # as `Stuck`, and `step` raises.
    term = S.Arith("/", S.IntLit(1), S.IntLit(0))
    assert evaluate(term).final == Stuck("division-by-zero")
    with pytest.raises(evaluator._StuckError, match="division-by-zero"):
        step(term)

def test_rules_name_the_path_to_the_redex():
    outcome = evaluate(parse_term("((1 + 2, 3), if 1 < 2 then 4 else 5)"), record=True)
    assert [s.rule for s in outcome.steps] == [
        "cong-pair-l:cong-pair-l:arith",
        "cong-pair-r:cong-if",
        "cong-pair-r:if-true",
    ]


_TRIVIAL = S.Handler(S.EMPTY_THEORY, (), S.RetClause("x", "z", S.Ret(S.Var("x"))))
_K_CALL = S.ContCall("k", S.IntLit(1), S.IntLit(2))


def _bound(stmt: S.Stmt) -> S.Comp:
    return S.Bind(stmt, "x", S.Ret(S.Var("x")))


def _handled(u: str) -> S.Comp:
    return _bound(S.Handle(u, S.EMPTY_HSEQ, _TRIVIAL, S.UnitLit()))


@pytest.mark.parametrize(
    "term, reason",
    [
        (S.Var("x"), "unbound variable x"),
        (S.IfE(S.IntLit(1), S.IntLit(2), S.IntLit(3)), "conditional on a non-boolean"),
        (S.Proj1(S.IntLit(1)), "projection from a non-pair"),
        (S.Append(S.IntLit(1), S.Nil()), "append of non-list values"),
        (S.Arith("+", S.BoolLit(True), S.IntLit(1)), "arithmetic on non-integers"),
        (S.Cmp("<", S.BoolLit(True), S.IntLit(1)), "comparison of non-integers"),
        (S.EvalTerm(S.EMPTY_HSEQ, "u"), "eval of an unresolved box variable"),
        (_bound(S.OpCall("get", S.UnitLit())), "unhandled operation get at top level"),
        (_bound(_K_CALL), "unapplied continuation k at top level"),
        (_handled("u"), "handle of an unresolved box variable"),
        (S.OpCall("get", S.UnitLit()), "no rule applies"),
        (
            S.LetBoxE("u", S.BoxTerm(S.EMPTY_THEORY, _bound(_K_CALL)), S.EvalTerm(S.EMPTY_HSEQ, "u")),
            "continuation 'k' escapes evaluation",
        ),
        (
            S.LetBoxC("u", S.BoxTerm(S.EMPTY_THEORY, _bound(_K_CALL)), _handled("u")),
            "continuation call in a handled computation",
        ),
    ],
)
def test_ill_formed_closed_terms_get_stuck_with_their_reason(term, reason):
    assert evaluate(term).final == Stuck(reason)


def test_eval_of_boxed_let_fix_strips_it_to_an_expression():
    term = parse_term("let box u = box {}. let fix f(n:int):[{}]int = ret n in ret 5 in eval u")
    assert evaluate(term).final == Value(S.IntLit(5))
