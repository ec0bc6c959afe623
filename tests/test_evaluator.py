"""Small-step evaluation: values, traces, fuel, and runtime failures."""

import math
import time
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
from test_tail_handling import count_calls

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


def _unrolled_afresh(t: S.Term) -> S.Term:
    """The scope of a `let fix` with the recursive name replaced by a
    function built anew from the definition."""
    lam = S.Lam(
        t.param,
        t.annot,
        S.Fix(t.fname, t.param, t.annot, t.theory, t.ret_type, t.rec_body, S.BoxTerm(t.theory, t.rec_body)),
    )
    return subst.subst_values(t.scope, {t.fname: lam})


def test_definitions_sharing_a_body_unroll_to_their_own_functions():
    # Capture avoidance can rename the name or the parameter of a fix that
    # does not recurse and keep its body object; the unrolled function is
    # kept on that object, so every field of the definition must tell.
    body = parse_term("ret (n + 1)")
    st = TABLE.theories["St"]
    fixes = [
        S.Fix("f", "n", S.INT, S.EMPTY_THEORY, S.INT, body, S.Var("f")),
        S.Fix("f", "n", S.INT, S.EMPTY_THEORY, S.INT, body, S.Var("f")),
        S.Fix("g", "n", S.INT, S.EMPTY_THEORY, S.INT, body, S.Var("g")),
        S.Fix("g", "m", S.INT, S.EMPTY_THEORY, S.INT, body, S.Var("g")),
        S.Fix("g", "m", S.BOOL, S.EMPTY_THEORY, S.INT, body, S.Var("g")),
        S.Fix("g", "m", S.BOOL, st, S.INT, body, S.Var("g")),
        S.Fix("g", "m", S.BOOL, st, S.BOOL, body, S.Var("g")),
        S.Fix("f", "n", S.INT, S.EMPTY_THEORY, S.INT, body, S.Ret(S.Var("f"))),
        S.Fix("g", "n", S.INT, S.EMPTY_THEORY, S.INT, body, S.Ret(S.Var("g"))),
    ]
    for t in fixes + fixes[::-1]:
        got, want = evaluator._unroll(t), _unrolled_afresh(t)
        assert alpha_equal(got, want)
        assert pretty(got) == pretty(want)
    # The same definition unrolls to the same function object.
    assert evaluator._unroll(fixes[0]) is evaluator._unroll(fixes[1])


def _steps(term: S.Term) -> list[tuple[str, str]]:
    return [(s.rule, pretty(s.term)) for s in evaluate(term, record=True).steps]


@pytest.mark.parametrize(
    "text",
    [
        (SAMPLES / "factorial.ecmtt").read_text().replace("fact 3", "fact 5"),
        # A fix that does not recurse, called from one that does.
        "def eval_f = fn x:[{}]int. let box u = x in eval u\n"
        "let fix f(n:int):[{}]int = ret (n + 1) in "
        "let fix g(n:int):[{}]int = if n = 0 then ret (eval_f (f 7)) else ret (n + eval_f (g (n - 1))) "
        "in eval_f (g 3)",
    ],
)
def test_a_term_evaluated_again_takes_the_same_steps(text):
    term = parse_source(text).main
    first = _steps(term)
    assert _steps(term) == first
    assert _steps(parse_source(text).main) == first


def test_a_let_fix_computation_unrolls_in_place():
    term = parse_term(
        "let fix f(n:int):[{}]int = if n = 0 then ret 0 else ret (n + eval_f (f (n - 1))) "
        "in ret (eval_f (f 4))",
        TABLE,
    )
    assert isinstance(term, S.Fix) and isinstance(S.last_part(term), S.Comp)
    outcome = evaluate(term, record=True)
    assert outcome.final == Value(S.Ret(S.IntLit(10)))
    first = outcome.steps[0]
    assert first.rule == "unroll-fix"
    assert isinstance(first.term, S.Ret)
    assert pretty(first.term) == pretty(_unrolled_afresh(term))


def test_fact_64_unrolls_one_function(monkeypatch):
    # The function put for `fact` depends on the definition alone, so every
    # unroll-fix step reuses one, already normal with its free names known.
    source = (SAMPLES / "factorial.ecmtt").read_text().replace("fact 3", "fact 64")
    term = parse_source(source).main
    functions = []  # the payloads themselves, so that their ids stay distinct
    inner = subst.subst_values

    def recording(t, mapping, *rest):
        functions.extend(v for v in mapping.values() if isinstance(v, S.Lam) and isinstance(v.body, S.Fix))
        return inner(t, mapping, *rest)

    monkeypatch.setattr(subst, "subst_values", recording)
    ticks = count_calls(monkeypatch, "tick")
    outcome = evaluate(term)
    assert outcome.final == Value(S.IntLit(math.factorial(64)))
    assert len(functions) == 66  # the top-level fix and 65 calls of fact
    assert len({id(f) for f in functions}) == 1
    assert ticks[0] <= 1500


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


# Two steps that use no engine (`1 = 1`, then `if`), then a beta-letbox
# step that handles 60 get/set pairs, at least one engine tick per pair.
HANDLED_CHAIN = (
    "if 1 = 1 then (let box u = box St. ("
    + " ".join(f"y{i} <- get(); w{i} <- set(y{i} + 1);" for i in range(60))
    + " ret 0) in x <- handle u with handlerSt init 0; ret x) else ret (0, 0)"
)


def test_engine_fuel_running_out_is_named_as_the_substitution_budget(monkeypatch):
    term = parse_term(HANDLED_CHAIN, TABLE)
    assert evaluate(term).final == Value(parse_term("ret (0, 60)"))
    init = subst._Engine.__init__
    monkeypatch.setattr(subst._Engine, "__init__", lambda self, _=None: init(self, 50))
    outcome = evaluate(term)
    assert outcome.final == FuelExhausted(2, "substitution")
    assert outcome.step_count == 2
    assert evaluate(term, max_steps=2).final == FuelExhausted(2)
    assert FuelExhausted(2).budget == "steps"
    # `step` makes the two steps, then raises the engine's exception.
    for _ in range(2):
        term = step(term).term
    with pytest.raises(subst.OutOfFuel):
        step(term)


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


LIST_STEPS = {
    "[1 + 1, 2, 3 * 3, [4] ++ [5]]": [
        ("cong-cons-l:arith", "[2, 2, 3 * 3, [4] ++ [5]]"),
        ("cong-cons-r:cong-cons-r:cong-cons-l:arith", "[2, 2, 9, [4] ++ [5]]"),
        ("cong-cons-r:cong-cons-r:cong-cons-r:cong-cons-l:append", "[2, 2, 9, [4, 5]]"),
    ],
    "(0, [[1 + 1], [2 - 1], [3] ++ [1 - 1]])": [
        ("cong-pair-r:cong-cons-l:cong-cons-l:arith", "(0, [[2], [2 - 1], [3] ++ [1 - 1]])"),
        ("cong-pair-r:cong-cons-r:cong-cons-l:cong-cons-l:arith", "(0, [[2], [1], [3] ++ [1 - 1]])"),
        (
            "cong-pair-r:cong-cons-r:cong-cons-r:cong-cons-l:cong-append-r:cong-cons-l:arith",
            "(0, [[2], [1], [3] ++ [0]])",
        ),
        ("cong-pair-r:cong-cons-r:cong-cons-r:cong-cons-l:append", "(0, [[2], [1], [3, 0]])"),
    ],
}


@pytest.mark.parametrize("text", LIST_STEPS)
def test_list_elements_step_left_to_right_labelled_as_a_cons_chain(text):
    # A step inside element i is labelled as the cons chain the printer
    # shows: `cong-cons-r` once per element before it, then `cong-cons-l`.
    outcome = evaluate(parse_term(text), record=True)
    assert [(s.rule, pretty(s.term)) for s in outcome.steps] == LIST_STEPS[text]
    assert outcome.final == Value(outcome.steps[-1].term)
    current = parse_term(text)
    for recorded in outcome.steps:
        assert step(current) == recorded
        current = recorded.term


def _seconds_to_step_a_list(n: int) -> float:
    term = S.ListE((S.Arith("+", S.IntLit(1), S.IntLit(1)),) * n)
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        outcome = evaluate(term)
        best = min(best, time.perf_counter() - start)
    assert outcome.final == Value(S.ListE((S.IntLit(2),) * n))
    return best


def test_stepping_across_a_list_takes_linear_time():
    # A step inside a list fills the elements in place: 8 times the
    # elements take about 8 times as long.  Copying the list on each step
    # takes about 64 times as long.
    assert _seconds_to_step_a_list(32_000) < 25 * _seconds_to_step_a_list(4_000)


def test_a_stuck_list_element_stops_the_list():
    outcome = evaluate(parse_term("[1 + 1, 2, 6 / 0, 3 + 3]"), record=True)
    assert [(s.rule, pretty(s.term)) for s in outcome.steps] == [
        ("cong-cons-l:arith", "[2, 2, 6 / 0, 3 + 3]")
    ]
    assert outcome.final == Stuck("division-by-zero")


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
        (S.If(S.IntLit(1), S.IntLit(2), S.IntLit(3)), "conditional on a non-boolean"),
        (S.Proj1(S.IntLit(1)), "projection from a non-pair"),
        (S.Append(S.IntLit(1), S.ListE(())), "append of non-list values"),
        (S.Arith("+", S.BoolLit(True), S.IntLit(1)), "arithmetic on non-integers"),
        (S.Cmp("<", S.BoolLit(True), S.IntLit(1)), "comparison of non-integers"),
        (S.EvalTerm(S.EMPTY_HSEQ, "u"), "eval of an unresolved box variable"),
        (_bound(S.OpCall("get", S.UnitLit())), "unhandled operation get at top level"),
        (_bound(_K_CALL), "unapplied continuation k at top level"),
        (_handled("u"), "handle of an unresolved box variable"),
        (S.OpCall("get", S.UnitLit()), "no rule applies"),
        (
            S.LetBox("u", S.BoxTerm(S.EMPTY_THEORY, _bound(_K_CALL)), S.EvalTerm(S.EMPTY_HSEQ, "u")),
            "continuation 'k' escapes evaluation",
        ),
        (
            S.LetBox("u", S.BoxTerm(S.EMPTY_THEORY, _bound(_K_CALL)), _handled("u")),
            "continuation call in a handled computation",
        ),
    ],
)
def test_ill_formed_closed_terms_get_stuck_with_their_reason(term, reason):
    assert evaluate(term).final == Stuck(reason)


def test_eval_of_boxed_let_fix_strips_it_to_an_expression():
    term = parse_term("let box u = box {}. let fix f(n:int):[{}]int = ret n in ret 5 in eval u")
    assert evaluate(term).final == Value(S.IntLit(5))
