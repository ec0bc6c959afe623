"""Golden trace digests: every reduction step the evaluator prints, pinned.

For each program below, `trace_digests.json` holds one sha256 taken over
its full recorded trace: the printed initial term, each step's rule and
printed term, the final state and the step count, at the default budget
and again at a budget of 3 steps.  A change to the engine that renames a
binder differently, folds a redex at another time or takes another step
changes a digest, even where the result is alpha-equal.

The programs: the main term of every corpus case that parses, every file
in `samples/` (`loop` at 200 steps in place of the default budget), and
`gen_program` seeds 0-399, plain and with shadowing names (the shadowing
ones that typecheck).

A change that alters traces on purpose regenerates the file with

    PYTHONPATH=src python tests/test_traces.py

and says in its description which traces changed and why.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from ecmtt.corpus import CASES
from ecmtt.evaluator import DEFAULT_MAX_STEPS, FuelExhausted, Stuck, Value, evaluate
from ecmtt.parser import ParseError, parse_source, parse_term
from ecmtt.pretty import pretty
from ecmtt.subst import normalize
from ecmtt.syntax import alpha_equal
from ecmtt.typecheck import TypeCheckError, infer_term

sys.path.insert(0, str(Path(__file__).resolve().parent))
from generators import gen_program  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "trace_digests.json"
SHORT_BUDGET = 3
# `loop` never ends; this budget stands in for the default one.
LOOP_BUDGET = 200


def _trace_lines(term, max_steps: int) -> list[str]:
    trace = evaluate(term, max_steps=max_steps, record=True)
    lines = [pretty(term)]
    lines += [f"{s.rule}\t{pretty(s.term)}" for s in trace.steps]
    lines.append(_final_line(trace.final))
    lines.append(f"steps\t{trace.step_count}")
    return lines


def _final_line(final) -> str:
    """The final state as the digests were pinned with it."""
    match final:
        case Value(term):
            return f"value\t{pretty(term)}"
        case Stuck(reason):
            return f"Stuck(reason={reason!r})"
        case FuelExhausted(steps, "steps"):
            return f"FuelExhausted(steps={steps})"
        case FuelExhausted(steps, budget):
            return f"FuelExhausted(steps={steps}, budget={budget!r})"


def _digest(term, budgets: tuple[int, ...]) -> str:
    h = hashlib.sha256()
    for budget in budgets:
        h.update(f"budget {budget}\n".encode())
        for line in _trace_lines(term, budget):
            h.update(line.encode())
            h.update(b"\n")
    return h.hexdigest()


def _programs():
    """(key, term, budgets) for every pinned program, built afresh."""
    for case in CASES:
        try:
            main = parse_source(case.source).main
        except ParseError:
            continue
        if main is not None:
            yield f"corpus/{case.name}", main, (DEFAULT_MAX_STEPS, SHORT_BUDGET)
    for path in sorted((ROOT / "samples").glob("*.ecmtt")):
        main = parse_source(path.read_text(encoding="utf-8")).main
        budget = LOOP_BUDGET if path.stem == "loop" else DEFAULT_MAX_STEPS
        yield f"sample/{path.stem}", main, (budget, SHORT_BUDGET)
    for seed in range(400):
        yield f"gen/{seed}", gen_program(random.Random(seed))[0], (DEFAULT_MAX_STEPS, SHORT_BUDGET)
    for seed in range(400):
        term = gen_program(random.Random(seed), shadow=True)[0]
        try:
            infer_term(term)
        except TypeCheckError:
            continue
        yield f"shadow/{seed}", term, (DEFAULT_MAX_STEPS, SHORT_BUDGET)


def current_digests() -> dict[str, str]:
    return {key: _digest(term, budgets) for key, term, budgets in _programs()}


def test_traces_match_the_golden_digests():
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = current_digests()
    assert len(got) > 800
    assert sorted(got) == sorted(expected)
    changed = [key for key in got if got[key] != expected[key]]
    assert not changed, f"{len(changed)} traces changed, first {changed[:10]}"


# `corpus/abort-handler-caught` and `sample/exceptions` run the same program,
# `explode 12`.  Before tail-resumptive clauses were handled with the
# concrete state, its third step printed the binder of the exploding
# clause's `y <- raise()` as `y1`: the set was handled with its argument
# `y + 1` symbolic, and substituting it into that clause renamed the `y` the
# argument would be captured by.  With the state concrete the argument is
# `13`, nothing is captured, and the binder prints as `y`.  These are the
# steps as they printed then; each must stay alpha-equal to the step printed
# now.
EXPLODE_12_STEPS = (
    (
        "cong-letbox",
        "let box u = let box u = (fn n:int. box {get:unit=>int, set:int=>unit}. y <- get(); w <- set(y + n);"
        " ret y) 1 in box {raise:unit=>bot}. x <- handle u with handler for {get:unit=>int, set:int=>unit}"
        " { get(x; k; z) -> x <- k(z; z); ret x, set(x; k; z) -> if x = 13 then y <- raise(); ret y else"
        " x <- k((); x); ret x, return(x; z) -> ret (x, z) } init 12; ret fst x in x <- handle u with handler"
        " for {raise:unit=>bot} { raise(x; k; z) -> ret 42, return(x; z) -> ret x } init (); ret x",
    ),
    (
        "cong-letbox",
        "let box u = let box u = box {get:unit=>int, set:int=>unit}. y <- get(); w <- set(y + 1); ret y in"
        " box {raise:unit=>bot}. x <- handle u with handler for {get:unit=>int, set:int=>unit} { get(x; k; z)"
        " -> x <- k(z; z); ret x, set(x; k; z) -> if x = 13 then y <- raise(); ret y else x <- k((); x);"
        " ret x, return(x; z) -> ret (x, z) } init 12; ret fst x in x <- handle u with handler for"
        " {raise:unit=>bot} { raise(x; k; z) -> ret 42, return(x; z) -> ret x } init (); ret x",
    ),
    (
        "cong-letbox",
        "let box u = box {raise:unit=>bot}. y1 <- raise(); ret fst y1 in x <- handle u with handler for"
        " {raise:unit=>bot} { raise(x; k; z) -> ret 42, return(x; z) -> ret x } init (); ret x",
    ),
    ("beta-letbox", "ret 42"),
)


def test_the_re_pinned_traces_differ_from_the_old_ones_by_a_binder_name_alone():
    programs = {key: term for key, term, _ in _programs()}
    for key in ("corpus/abort-handler-caught", "sample/exceptions"):
        steps = evaluate(programs[key], record=True).steps
        assert [s.rule for s in steps] == [rule for rule, _ in EXPLODE_12_STEPS]
        changed = []
        for step, (_, old) in zip(steps, EXPLODE_12_STEPS):
            assert alpha_equal(step.term, parse_term(old)), (key, old)
            if pretty(step.term) != old:
                changed.append(pretty(step.term))
        assert changed == [EXPLODE_12_STEPS[2][1].replace("y1", "y")], key


# `shadow/47`, `shadow/233` and `shadow/278` changed one step each when `sub`
# stopped walking into subterms where no mapped name is free: the walk used to
# stop under a binder that shadowed the last key and leave the body as it
# was, where a skipped subterm is now normalized, so `4 - 47` and `if false
# ...` are folded a step earlier.  For each: the rules and the final line as
# they were, and each changed step as it printed then, by position.
SHADOW_STEPS = {
    "shadow/47": (
        ("beta-letbox", "beta-letbox", "beta-letbox", "beta-letbox"),
        {
            1: (
                "let box u0 = box {op19:unit=>bool}. ret () in x <- handle u0 [handler for"
                " {op19:unit=>bool} { op19(x0; k1; z0) -> y1 <- k1(z0 = 61; 46); ret y1, return(x0; z1)"
                " -> ret (x0, z1) } init 37 as w1. let box u1 = box {op28:unit=>bool}. v1 <- op28();"
                " ret [(), ()] in w0 <- handle u1 with handler for {op28:unit=>bool} { op28(x0; k1; z0)"
                " -> ret [(), ()], return(x0; z1) -> ret x0 } init true; ret 4 - 47] with handler for"
                " {op1:bool=>unit, op2:bool=>bool, op3:unit=>bool} { op1(x1; k0; z1) -> y0 <- k0(();"
                " 58); ret y0, op2(x1; k0; z1) -> y0 <- k0(false; 2); ret y0, op3(x1; k0; z1) -> y0 <-"
                " k0(false; z1); ret y0, return(x1; z0) -> ret x1 } init 62; ret 43"
            ),
        },
        "ret 43",
    ),
    "shadow/233": (
        ("cong-ret:beta-letbox", "cong-ret:beta-letbox", "cong-ret:beta-letbox"),
        {
            1: (
                "ret (let box u1 = box {op21:unit=>bool}. ret [(), (), ()] in eval [handler for"
                " {op21:unit=>bool} { op21(x0; k1; z0) -> ret [(), ()], return(x0; z1) -> ret x0 } init"
                " false as w0. if true then ret 7 else ret 29] u1)"
            ),
        },
        "ret 7",
    ),
    "shadow/278": (
        ("beta-letbox", "beta-letbox", "beta-letbox", "beta-letbox"),
        {
            0: (
                "let box u0 = box {op15:int=>int, op16:int=>unit, op17:unit=>bool}. let box u1 = box"
                " {op18:int=>bool, op19:int=>bool, op20:int=>unit}. v1 <- op20(94); ret false in w0 <-"
                " handle u1 with handler for {op18:int=>bool, op19:int=>bool, op20:int=>unit} {"
                " op18(x0; k1; z0) -> y1 <- k1(true; z0); ret y1, op19(x0; k1; z0) -> ret false,"
                " op20(x1; k0; z1) -> y0 <- k0(z1; ()); ret y0, return(x0; z1) -> ret x0 } init (); v1"
                " <- op15(24); ret () in w1 <- handle u0 with handler for {op15:int=>int,"
                " op16:int=>unit, op17:unit=>bool} { op15(x0; k1; z0) -> ret ((), true), op16(x1; k0;"
                " z1) -> y0 <- k0((); true); ret y0, op17(x1; k0; z1) -> ret ((), true), return(x0; z1)"
                " -> ret (x0, z1) } init true; let box u1 = box {op52:bool=>bool, op53:int=>bool,"
                " op54:bool=>int}. ret ((), 88) in w0 <- handle u1 with handler for {op52:bool=>bool,"
                " op53:int=>bool, op54:bool=>int} { op52(x1; k0; z1) -> y0 <- k0(true; z1); ret y0,"
                " op53(x1; k0; z1) -> y0 <- k0(false; -47); ret y0, op54(x1; k0; z1) -> y0 <- k0(z1;"
                " 3630); ret y0, return(x1; z0) -> ret (x1, z0) } init 91; if false then ret 12 else"
                " ret 35"
            ),
        },
        "ret 35",
    ),
}


def test_the_re_pinned_shadow_traces_differ_from_the_old_ones_up_to_normalization():
    programs = {key: term for key, term, _ in _programs()}
    for key, (rules, old_steps, final) in SHADOW_STEPS.items():
        trace = evaluate(programs[key], record=True)
        assert [s.rule for s in trace.steps] == list(rules), key
        assert trace.step_count == len(rules) and pretty(trace.final.term) == final, key
        for i, old in old_steps.items():
            new = trace.steps[i].term
            assert pretty(new) != old, (key, i)
            assert alpha_equal(normalize(new), normalize(parse_term(old))), (key, i)


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(current_digests(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS}")
