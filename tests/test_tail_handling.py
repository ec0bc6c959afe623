"""Tail-resumptive clauses: a plugged clause whose one call of its `k` is
`v <- k(e1; e2); ret v` in tail position is handled in place, with the
state `e2` kept concrete, by the loop in `subst._Engine.handle_with`.

Each shape below has a result worked out by hand.  Which path a clause
took shows in the `subst_cont` calls: the tail rule makes none, and every
other clause that calls its `k` (multi-shot, non-tail, `k` in both
branches) makes at least one.  A clause that discards its `k` is the result
as it is: the rest of the computation is not handled.

The loop keeps the operations' results as a pending substitution; the
capture tests check the renaming that needs against Python models of the
programs, and the count tests what it saves.
"""

import sys

import pytest

from ecmtt import subst
from ecmtt import syntax as S
from ecmtt.corpus import PRELUDE
from ecmtt.evaluator import Value, evaluate
from ecmtt.parser import parse_source, parse_term
from ecmtt.pretty import pretty
from ecmtt.syntax import alpha_equal

from generators import NameSupply

HANDLERS = """\
def bothSt = handler for St {
  get(x;k;z) -> if z = 0 then k(1; z) else k(z; z),
  set(x;k;z) -> k((); x),
  return(x;z) -> ret (x, z)
}

def plusOneSt = handler for St {
  get(x;k;z) -> (w <- k(z; z); ret (w + 1)),
  set(x;k;z) -> k((); x),
  return(x;z) -> ret x
}

def eval_f = fn x:[{}]int. let box u = x in eval u
"""

TABLE = parse_source(PRELUDE + HANDLERS).table


def comp(text: str) -> S.Comp:
    term = parse_term(text, TABLE)
    assert isinstance(S.last_part(term), S.Comp), text
    return term


def count_calls(monkeypatch, name: str) -> list[int]:
    """Count calls of the engine method `name`; the count is `[0]` of the
    list returned."""
    calls = [0]
    inner = getattr(subst._Engine, name)

    def counting(self, *args):
        calls[0] += 1
        return inner(self, *args)

    monkeypatch.setattr(subst._Engine, name, counting)
    return calls


def handled(monkeypatch, text: str, handler: str, state: S.Expr) -> tuple[S.Comp, int]:
    """The computation handled by the named handler, and the `subst_cont`
    calls that took."""
    calls = count_calls(monkeypatch, "subst_cont")
    out = subst.handle_with(comp(text), TABLE.handlers[handler], state)
    return out, calls[0]


def run_term(term: S.Term) -> str:
    outcome = evaluate(term)
    assert isinstance(outcome.final, Value), outcome.final
    return pretty(outcome.final.term)


def run(source: str) -> str:
    return run_term(parse_source(source).main)


# ---------------------------------------------------------------------------
# Tail shapes: the rule applies


def test_a_clause_that_calls_k_directly_is_handled_in_place(monkeypatch):
    out, conts = handled(
        monkeypatch, "y <- get(); w <- set(y + 5); v <- get(); ret (y + v)", "handlerSt", S.IntLit(1)
    )
    assert pretty(out) == "ret (7, 6)"
    assert conts == 0


def test_a_clause_that_calls_k_after_a_statement_keeps_the_statement(monkeypatch):
    # `idSt` re-performs each operation, so handling gives the program back.
    program = "y <- get(); w <- set(y + 5); v <- get(); ret (y + v)"
    out, conts = handled(monkeypatch, program, "idSt", S.UnitLit())
    assert alpha_equal(out, comp(program))
    assert conts == 0


def test_a_clause_that_calls_k_in_one_branch_keeps_the_other(monkeypatch):
    # With the state a variable, `set`'s test cannot fold; the branch
    # without `k` stays as it is and the handling goes on in the other.
    out, conts = handled(monkeypatch, "y <- get(); w <- set(y + 1); ret y", "handlerExplosiveSt", S.Var("m"))
    assert alpha_equal(out, comp("if m + 1 = 13 then (y <- raise(); ret y) else ret (m, m + 1)"))
    assert conts == 0


def test_a_let_box_let_fix_or_if_of_the_handled_computation_is_kept(monkeypatch):
    program = "let box u = box St. get() in y <- get(); ret y"
    out, conts = handled(monkeypatch, program, "handlerSt", S.IntLit(3))
    assert alpha_equal(out, comp("let box u = box St. get() in ret (3, 3)"))
    program = "let fix f(n:int):[{}]int = ret n in y <- get(); ret y"
    out, _ = handled(monkeypatch, program, "handlerSt", S.IntLit(3))
    assert alpha_equal(out, comp("let fix f(n:int):[{}]int = ret n in ret (3, 3)"))
    program = "y <- get(); if y = 0 then (w <- set(1); ret 1) else ret y"
    out, _ = handled(monkeypatch, program, "handlerSt", S.Var("m"))
    assert alpha_equal(out, comp("if m = 0 then ret (1, 1) else ret (m, m)"))
    assert conts == 0


# ---------------------------------------------------------------------------
# Other shapes: the general path


def test_a_clause_that_calls_k_in_both_branches_takes_the_general_path(monkeypatch):
    out, conts = handled(monkeypatch, "y <- get(); ret y", "bothSt", S.Var("m"))
    assert alpha_equal(out, comp("if m = 0 then ret (1, m) else ret (m, m)"))
    assert conts > 0


def test_a_clause_that_uses_the_result_of_k_takes_the_general_path(monkeypatch):
    # get: y = 5; set: 7; get: v = 7; y + v = 12, plus one per get.
    program = "y <- get(); w <- set(y + 2); v <- get(); ret (y + v)"
    out, conts = handled(monkeypatch, program, "plusOneSt", S.IntLit(5))
    assert pretty(out) == "ret 14"
    assert conts > 0


def test_a_discarding_clause_drops_the_rest_of_the_computation(monkeypatch):
    out, conts = handled(monkeypatch, "w <- raise(); ret 1", "handlerExn", S.UnitLit())
    assert pretty(out) == "ret 42"
    assert conts == 0
    # A set of 13 makes the explosive clause discard its continuation.
    out, conts = handled(monkeypatch, "y <- get(); w <- set(y + 1); ret y", "handlerExplosiveSt", S.IntLit(12))
    assert alpha_equal(out, comp("y <- raise(); ret y"))
    assert conts == 0


# ---------------------------------------------------------------------------
# Capture


@pytest.mark.parametrize("shadow", [False, True])
def test_clause_binders_do_not_capture_the_names_of_the_handled_program(shadow, monkeypatch):
    # The re-performing clauses bind names drawn from the same supply as the
    # program's, so with `shadow` they are the program's own names.
    sup = NameSupply(shadow)
    a, b, c, p, q = (sup.fresh("y") for _ in range(5))
    clause = f"({p} <- {{op}}(x); {q} <- k({p}; z); ret {q})"
    handler = (
        "def idY = handler for St {\n"
        f"  get(x;k;z) -> {clause.format(op='get')},\n"
        f"  set(x;k;z) -> {clause.format(op='set')},\n"
        "  return(x;z) -> ret x\n"
        "}\n"
    )
    program = f"{a} <- get(); {b} <- set({a} + 1); {c} <- get(); ret ({a} + {c})"
    source = PRELUDE + handler
    h = parse_source(source).table.handlers["idY"]
    calls = count_calls(monkeypatch, "subst_cont")
    assert alpha_equal(subst.handle_with(comp(program), h, S.UnitLit()), comp(program))
    assert calls[0] == 0
    # From state 4: the first get reads 4, the set writes 5, the second get
    # reads 5.  With shadowing the second get's name hides the first's.
    result = 5 + 5 if a == c else 4 + 5
    main = (
        f"let box v = (let box u = box St. ({program}) in box St. (x <- handle u with idY init (); ret x))\n"
        "in r <- handle v with handlerSt init 4; ret r\n"
    )
    assert run(source + main) == f"ret ({result}, 5)"


def reperformed_chain(n: int, shadow: bool) -> tuple[str, int]:
    """A chain of N get/set pairs under names from a `NameSupply`, then `y
    <- get(); w <- set(y + 2); ret (a + y)`, where `a` is the first pair's
    name and `y` and `w` are `idSt`'s own clause binders; and the value it
    returns from state 4, by a model that looks names up as they are bound."""
    sup = NameSupply(shadow)
    stmts = []
    for i in range(n):
        a, w = sup.fresh("y"), sup.fresh("w")
        stmts += [(a, None), (w, (a, i % 3 + 1))]
    stmts += [("y", None), ("w", ("y", 2))]
    read = stmts[0][0]
    env, s = {}, 4
    for name, set_to in stmts:
        if set_to is None:
            env[name] = s
        else:
            s, env[name] = env[set_to[0]] + set_to[1], ()
    text = "; ".join(f"{b} <- get()" if st is None else f"{b} <- set({st[0]} + {st[1]})" for b, st in stmts)
    return f"{text}; ret ({read} + y)", env[read] + env["y"]


@pytest.mark.parametrize("shadow", [False, True])
def test_pending_payloads_are_not_captured_by_the_clause_binders(shadow, monkeypatch):
    # `idSt` re-performs each operation under its binder `y`, so the first
    # result is pending as `Var(y)` while the program binds `y` again: each
    # later clause `y` must be renamed away from it.
    program, result = reperformed_chain(6, shadow)
    calls = count_calls(monkeypatch, "subst_cont")
    assert alpha_equal(subst.handle_with(comp(program), TABLE.handlers["idSt"], S.UnitLit()), comp(program))
    assert calls[0] == 0
    main = (
        f"let box v = (let box u = box St. ({program}) in box St. (x <- handle u with idSt init (); ret x))\n"
        "in r <- handle v with handlerSt init 4; ret r\n"
    )
    assert run(PRELUDE + main).startswith(f"ret ({result}, ")


def test_a_pending_payload_is_not_captured_by_a_let_fix_or_let_box_of_the_program(monkeypatch):
    # The first get reads the initial state, which names an outer `f` and
    # `u`; after `set(5)` the state no longer does, so the loop carries that
    # pending payload under the program's own `let fix f` and `let box u`.
    code = (
        "y <- get(); w <- set(5); let fix f(n:int):[{}]int = ret n in "
        "let box u = box {}. ret 0 in ret (y + eval_f (f 2) + eval u)"
    )
    out, conts = handled(monkeypatch, code, "handlerSt", parse_term("eval_f (f (eval u))", TABLE))
    expected = (
        "let fix f1(n:int):[{}]int = ret n in let box u1 = box {}. ret 0 in "
        "ret (eval_f (f (eval u)) + eval_f (f1 2) + eval u1, 5)"
    )
    assert alpha_equal(out, comp(expected))
    assert conts == 0
    main = (
        f"let box v = box St. ({code})\n"
        "in let box u = box {}. ret 10\n"
        "in let fix f(n:int):[{}]int = ret (n + 1)\n"
        "in x <- handle v with handlerSt init (eval_f (f (eval u))); ret x\n"
    )
    # y reads the outer f of the outer u, 10 + 1; the inner ones give 2 and 0.
    assert run(PRELUDE + HANDLERS + main) == f"ret ({10 + 1 + 2 + 0}, 5)"


@pytest.mark.parametrize("handler", ["handlerSt", "handlerExplosiveSt"])
def test_a_let_fix_binder_may_take_the_name_of_a_result_nothing_reads(handler, monkeypatch):
    # `y` reads the state, which names the outer `f` and `u`, so the
    # program's `let fix f` and `let box u` are renamed.  The result `f1` is
    # read nowhere after its operation, so it does not hold the name `f1`
    # back: a pending result kept past its last read would make it `f2`.
    code = (
        "f1 <- get(); y <- get(); w <- set(5); let fix f(n:int):[{}]int = ret n in "
        "let box u = box {}. ret 0 in ret (y + eval_f (f 2) + eval u)"
    )
    out, conts = handled(monkeypatch, code, handler, parse_term("eval_f (f (eval u))", TABLE))
    eval_f = "(fn x:[ {} ] int. let box u = x in eval u)"
    assert pretty(out) == (
        "let fix f1(n:int):[ {} ] int = ret n in let box u1 = box {}. ret 0 in "
        f"ret ({eval_f} (f (eval u)) + {eval_f} (f1 2) + eval u1, 5)"
    )
    assert conts == 0
    main = (
        f"let box v = box St. ({code})\n"
        "in let box u = box {}. ret 10\n"
        "in let fix f(n:int):[{}]int = ret (n + 1)\n"
        f"in x <- handle v with {handler} init (eval_f (f (eval u))); ret x\n"
    )
    assert run(PRELUDE + HANDLERS + main) == f"ret ({10 + 1 + 2 + 0}, 5)"


def test_a_let_box_binder_is_renamed_away_from_the_state(monkeypatch):
    # The state names `u`, so the program's `let box u` would capture the
    # handler's use of it, before and after an operation.
    state = parse_term("eval u", TABLE)
    for code in ("", "y <- get(); "):
        program = f"{code}let box u = box {{}}. ret 0 in w <- get(); ret (w + eval u)"
        out, _ = handled(monkeypatch, program, "handlerSt", state)
        assert alpha_equal(out, comp("let box u1 = box {}. ret 0 in ret (eval u + eval u1, eval u)"))


def test_a_let_fix_binder_is_renamed_away_from_the_state(monkeypatch):
    # The state names `f`, so the program's `let fix f` would capture the
    # handler's use of it, before an operation and after one whose result,
    # pending, names `f` too.
    state = parse_term("eval_f (f 3)", TABLE)
    s = "eval_f (f 3)"
    fix = "let fix f(n:int):[{}]int = ret (n + 1) in "
    cases = (
        ("", "ret (w + eval_f (f w))", f"ret ({s} + eval_f (f1 ({s})), {s})", 30 + 31),
        ("y <- get(); ", "ret (y + w + eval_f (f w))", f"ret ({s} + {s} + eval_f (f1 ({s})), {s})", 30 + 30 + 31),
    )
    main = "in let fix f(n:int):[{}]int = ret (n * 10)\nin x <- handle v with handlerSt init (eval_f (f 3)); ret x\n"
    for code, result, expected, value in cases:
        program = f"{code}{fix}w <- get(); {result}"
        out, _ = handled(monkeypatch, program, "handlerSt", state)
        assert alpha_equal(out, comp(f"let fix f1(n:int):[{{}}]int = ret (n + 1) in {expected}"))
        # The outer f makes the state 30; the inner one adds 1 to it.
        assert run(PRELUDE + HANDLERS + f"let box v = box St. ({program})\n" + main) == f"ret ({value}, 30)"


# ---------------------------------------------------------------------------
# Cost and depth


def uniform_chain(n: int, result: str = "y0") -> str:
    chain = "; ".join(f"y{i} <- get(); w{i} <- set(y{i} + 1)" for i in range(n))
    return PRELUDE + f"let box u = box St. ({chain}; ret {result})\nin x <- handle u with handlerSt init 0; ret x\n"


def sub_visits(monkeypatch, source: str) -> tuple[str, int]:
    """The printed value of a program, and the `sub` calls evaluating it took."""
    with monkeypatch.context() as patch:
        calls = count_calls(patch, "sub")
        return run(source), calls[0]


def test_sub_visits_grow_linearly_on_a_handler_st_chain(monkeypatch):
    visits = {}
    for n in (100, 400):
        value, visits[n] = sub_visits(monkeypatch, uniform_chain(n))
        assert value == f"ret (0, {n})"
    # Handling under a symbolic state made 22,222 and 328,822 visits here
    # (14.8x); substituting each result into the rest at once, 2,119 and
    # 8,419 (4.0x), walking the chain down to `ret y0`.  Now 517 and 2,017
    # (3.9x), `sub` entered only where a key is free (723 and 2,823 when it
    # was also called on each child it then skipped).
    assert visits[400] <= 4.5 * visits[100]


def test_far_reads_cost_no_more_sub_visits_than_near_ones(monkeypatch):
    # Substituting each result into the rest at once rebuilt the chain down
    # to every far read: 13,204 visits for the first four against 6,832 for
    # the last two.  With the results pending, each read costs one lookup.
    far, far_visits = sub_visits(monkeypatch, uniform_chain(400, "(y0 + y1 + y2 + y3)"))
    near, near_visits = sub_visits(monkeypatch, uniform_chain(400, "(y399 + y398)"))
    assert (far, near) == ("ret (6, 400)", "ret (797, 400)")
    assert far_visits <= 1.1 * near_visits


def test_a_direct_tail_clause_is_not_plugged(monkeypatch):
    # `handlerSt`'s clauses are `k(z; z)` and `k((); x)`: only their two
    # arguments are substituted into, never the clause body.
    bodies = [clause.body for clause in TABLE.handlers["handlerSt"].op_clauses]
    substituted = []
    inner = subst._Engine.subst

    def recording(self, t, mapping):
        substituted.append(t)
        return inner(self, t, mapping)

    monkeypatch.setattr(subst._Engine, "subst", recording)
    assert run(uniform_chain(20)) == "ret (0, 20)"
    assert substituted and not any(t == body for t in substituted for body in bodies)


def test_a_discarding_clause_handles_nothing_after_it(monkeypatch):
    # From -287, the 300th set writes 13; the 150 pairs after it are dropped
    # unhandled, with no continuation substituted and no handling nested.
    chain = "; ".join(f"y{i} <- get(); w{i} <- set(y{i} + 1)" for i in range(450))
    handles = count_calls(monkeypatch, "handle_with")
    out, conts = handled(monkeypatch, f"{chain}; ret 0", "handlerExplosiveSt", S.IntLit(-287))
    assert alpha_equal(out, comp("y <- raise(); ret y"))
    assert conts == 0 and handles[0] == 1


def state_ops(n: int, explode_at: int | None = None) -> list[tuple[str, int]]:
    """Pair i sets the state to y_i + 1 or y_i + 2, or, at every third pair,
    to 2 or 5, so from a state below 10 it stays below 13; pair `explode_at`
    sets it to 13."""
    ops = [("const", i % 6) if i % 3 == 2 else ("add", i % 3 + 1) for i in range(n)]
    if explode_at is not None:
        ops[explode_at] = ("const", 13)
    return ops


def state_model(ops: list[tuple[str, int]], s: int, reads: tuple[int, int], explode: bool) -> tuple[int, int] | None:
    """(y_a + y_b, the final state), or None when `explode` is set and a set
    writes 13."""
    ys = []
    for kind, c in ops:
        ys.append(s)
        s = s + c if kind == "add" else c
        if explode and s == 13:
            return None
    return ys[reads[0]] + ys[reads[1]], s


def state_chain(ops: list[tuple[str, int]], reads: tuple[int, int]) -> str:
    pairs = [
        f"y{i} <- get(); w{i} <- set({f'y{i} + {c}' if kind == 'add' else c})" for i, (kind, c) in enumerate(ops)
    ]
    return "; ".join(pairs) + f"; ret (y{reads[0]} + y{reads[1]})"


def run_at_the_default_limit(source: str) -> str:
    term = parse_source(source).main
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        return run_term(term)
    finally:
        sys.setrecursionlimit(limit)


# y0 is read at the end, so the first get's result is substituted all the
# way down the chain.
READS = (0, 1)


def test_a_450_pair_handler_st_chain_runs_at_the_default_recursion_limit():
    ops = state_ops(450)
    main = f"let box u = box St. ({state_chain(ops, READS)})\nin x <- handle u with handlerSt init 2; ret x\n"
    assert run_at_the_default_limit(PRELUDE + main) == "ret ({}, {})".format(*state_model(ops, 2, READS, False))


@pytest.mark.parametrize("explode_at", [None, 300])
def test_a_450_pair_staged_explosive_chain_runs_at_the_default_recursion_limit(explode_at):
    # A set of 13 makes the exception handler answer 42.
    ops = state_ops(450, explode_at)
    main = (
        f"let box u = box St. ({state_chain(ops, READS)})\n"
        "in x <- handle u [handlerExplosiveSt init 2 as y. ret (fst y)] with handlerExn init (); ret x\n"
    )
    outcome = state_model(ops, 2, READS, True)
    assert (outcome is None) == (explode_at is not None)
    assert run_at_the_default_limit(PRELUDE + main) == f"ret {42 if outcome is None else outcome[0]}"


def test_a_300_pair_re_performed_chain_runs_at_the_default_recursion_limit():
    ops = state_ops(300)
    main = (
        f"let box v = (let box u = box St. ({state_chain(ops, READS)})\n"
        "  in box StExn. (x <- handle u with idSt init (); ret x))\n"
        "in r <- handle v with handlerStExn init 2; ret r\n"
    )
    assert run_at_the_default_limit(PRELUDE + main) == "ret ({}, {})".format(*state_model(ops, 2, READS, False))
