"""Golden typing results: what the typechecker says about every pinned input.

For each input below, `typing_golden.json` holds one line: `type T` with the
printed type the checker synthesizes, `type error E` with the rendered
`TypeCheckError` (kind, span and both sides), or `parse error E` for a
corpus case that does not parse.  A change to the typechecker that accepts
or rejects another term, or words or places an error differently, changes a
line.

The inputs: every corpus case, every file in `samples/`, `gen_program`
seeds 0-399 plain and with shadowing names (ill-typed ones included), and
for each plain seed a copy with one integer literal swapped for `true`, so
that the error paths are pinned as well as the types.  The copies are
printed and parsed again, so their errors carry source spans.

A change that alters typing on purpose regenerates the file with

    PYTHONPATH=src python tests/test_typing_golden.py

and says in its description which lines changed and why.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from ecmtt import syntax as S
from ecmtt.corpus import CASES
from ecmtt.parser import ParseError, parse_source, parse_term
from ecmtt.pretty import pretty, type_text
from ecmtt.typecheck import TypeCheckError, infer_term

sys.path.insert(0, str(Path(__file__).resolve().parent))
from generators import gen_program  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "typing_golden.json"


def _int_lits(term: S.Term) -> int:
    """How many integer literals `term` holds, in any position."""
    if isinstance(term, S.IntLit):
        return 1
    row = S.SCHEMA.get(type(term))
    if row is None:
        return 0
    total = 0
    for _, name, many in row.kids:
        child = getattr(term, name)
        total += sum(map(_int_lits, child)) if many else _int_lits(child)
    return total


def _swap_int(term: S.Term, k: int) -> S.Term:
    """`term` with its k-th integer literal, counted in schema order, replaced
    by `true`."""
    seen = 0

    def walk(t: S.Term) -> S.Term:
        nonlocal seen
        if isinstance(t, S.IntLit):
            seen += 1
            return S.BoolLit(True) if seen - 1 == k else t
        row = S.SCHEMA.get(type(t))
        if row is None:
            return t
        new = {}
        for _, name, many in row.kids:
            child = getattr(t, name)
            new[name] = tuple(map(walk, child)) if many else walk(child)
        return t.replace(**new)

    return walk(term)


def _typing(term: S.Term) -> str:
    try:
        return f"type {type_text(infer_term(term))}"
    except TypeCheckError as exc:
        return f"type error {exc.render()}"


def _inputs():
    """(key, line) for every pinned input."""
    for case in CASES:
        try:
            main = parse_source(case.source).main
        except ParseError as exc:
            yield f"corpus/{case.name}", f"parse error {exc}"
            continue
        if main is not None:
            yield f"corpus/{case.name}", _typing(main)
    for path in sorted((ROOT / "samples").glob("*.ecmtt")):
        yield f"sample/{path.stem}", _typing(parse_source(path.read_text(encoding="utf-8")).main)
    for seed in range(400):
        term = gen_program(random.Random(seed))[0]
        yield f"gen/{seed}", _typing(term)
        count = _int_lits(term)
        if count:
            swapped = parse_term(pretty(_swap_int(term, seed % count)))
            yield f"swap/{seed}", _typing(swapped)
    for seed in range(400):
        yield f"shadow/{seed}", _typing(gen_program(random.Random(seed), shadow=True)[0])


def current_typing() -> dict[str, str]:
    return dict(_inputs())


def test_typing_matches_the_golden_file():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = current_typing()
    assert len(got) > 1000
    # The swapped copies are there to pin error texts; most must fail.
    swapped = [line for key, line in got.items() if key.startswith("swap/")]
    assert sum(line.startswith("type error ") for line in swapped) > len(swapped) // 2
    assert sorted(got) == sorted(expected)
    changed = [key for key in got if got[key] != expected[key]]
    assert not changed, f"{len(changed)} typings changed, first {changed[:10]}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(current_typing(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
