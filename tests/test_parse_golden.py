"""Golden parse digests: what the parser makes of every prefix of the pinned
sources.

For each source below, `parse_digests.json` holds one sha256 taken over the
outcome of parsing each of its prefixes that ends at a token boundary, and
the whole text.  The outcome is the printed main term and the printed
definitions the prefix adds, or the text of the `ParseError`.  Most prefixes
stop in the middle of a form, so the error texts and their positions are
pinned as closely as the parsed terms: a change to the parser that accepts
other input, builds another term, or words or places an error differently
changes a digest.

The sources: every file in `samples/`, the main term of every corpus case
(parsed with the prelude's definitions in scope), and each definition of
the corpus prelude (with the definitions before it in scope).

A change that alters parsing on purpose regenerates the file with

    PYTHONPATH=src python tests/test_parse_golden.py

and says in its description which digests changed and why.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from ecmtt import syntax as S
from ecmtt.corpus import CASES, PRELUDE
from ecmtt.parser import DefTable, ParseError, parse_source, tokenize
from ecmtt.pretty import pretty, theory_text

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "parse_digests.json"
_KINDS = ("theories", "handlers", "terms")


def _copy(table: DefTable) -> DefTable:
    return DefTable(*(dict(getattr(table, kind)) for kind in _KINDS))


def _prefix_ends(text: str) -> list[int]:
    """The offset just past each token of `text`, then the end of `text`."""
    starts = [0]
    for i, ch in enumerate(text):
        if ch == "\n":
            starts.append(i + 1)
    ends = [starts[t.line - 1] + t.col - 1 + len(t.text) for t in tokenize(text)[:-1]]
    return ends + [len(text)]


def _outcome(text: str, base: DefTable) -> str:
    table = _copy(base)
    try:
        source = parse_source(text, table)
    except ParseError as e:
        return f"error\t{e}"
    lines = []
    for kind in _KINDS:
        for name, value in getattr(table, kind).items():
            if getattr(base, kind).get(name) is not value:
                shown = theory_text(value) if isinstance(value, S.EffectContext) else pretty(value)
                lines.append(f"def\t{name}\t{shown}")
    lines.append("main\t" + ("none" if source.main is None else pretty(source.main)))
    return "\n".join(lines)


def _digest(text: str, base: DefTable) -> str:
    h = hashlib.sha256()
    for end in _prefix_ends(text):
        h.update(f"prefix {end}\n{_outcome(text[:end], base)}\n".encode())
    return h.hexdigest()


def _prelude_defs() -> tuple[list[tuple[str, str, DefTable]], DefTable]:
    """(name, text, table of the definitions before it) for each prelude
    definition, and the table of the whole prelude."""
    chunks: list[str] = []
    for line in PRELUDE.splitlines(keepends=True):
        if line.startswith("def ") or not chunks:
            chunks.append(line)
        else:
            chunks[-1] += line
    out = []
    table = DefTable()
    for chunk in chunks:
        name = chunk.split()[1]
        out.append((name, chunk, _copy(table)))
        parse_source(chunk, table)
    return out, table


def _sources():
    """(key, text, table in scope) for every pinned source."""
    for path in sorted((ROOT / "samples").glob("*.ecmtt")):
        yield f"sample/{path.stem}", path.read_text(encoding="utf-8"), DefTable()
    defs, prelude = _prelude_defs()
    for name, text, table in defs:
        yield f"prelude/{name}", text, table
    for case in CASES:
        assert case.source.startswith(PRELUDE + "\n")
        yield f"corpus/{case.name}", case.source[len(PRELUDE) + 1 :], prelude


def current_digests() -> dict[str, str]:
    return {key: _digest(text, table) for key, text, table in _sources()}


def test_parses_match_the_golden_digests():
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = current_digests()
    assert len(got) > 60
    assert sorted(got) == sorted(expected)
    changed = [key for key in got if got[key] != expected[key]]
    assert not changed, f"{len(changed)} parse digests changed, first {changed[:10]}"


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(current_digests(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS}")
