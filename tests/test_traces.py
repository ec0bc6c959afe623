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
from ecmtt.evaluator import DEFAULT_MAX_STEPS, Value, evaluate
from ecmtt.parser import ParseError, parse_source
from ecmtt.pretty import pretty
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
    final = trace.final
    lines.append(f"value\t{pretty(final.term)}" if isinstance(final, Value) else repr(final))
    lines.append(f"steps\t{trace.step_count}")
    return lines


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


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(current_digests(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS}")
