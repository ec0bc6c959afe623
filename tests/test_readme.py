"""The command examples of README.md, run and compared with what they print.

Every line `$ ecmtt ARGS` in a fenced block is run through `cli.main` from
the root of the repository; the lines after it, to the end of its block,
are what it prints.  A documented line holding `...` stands for any line
that starts with its text before the `...` and ends with its text after it.
The type words of "Language summary" are checked against the parser's.
"""

import io
import re
import shlex
from pathlib import Path

import pytest

from ecmtt import cli
from ecmtt.syntax import TYPE_WORDS

ROOT = Path(__file__).resolve().parent.parent
PROMPT = "$ ecmtt "


def examples() -> list[tuple[str, list[str]]]:
    """Each documented command, its arguments as written, and the lines it
    prints, with the indentation of the fence taken off every line."""
    found: list[tuple[str, list[str]]] = []
    indent = None  # the indentation of the open fence, None outside a block
    printed = None  # the lines of the block's last command
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        text = line.lstrip()
        if text.startswith("```"):
            indent = line[: len(line) - len(text)] if indent is None else None
            printed = None
        elif indent is not None and line[len(indent) :].startswith(PROMPT):
            printed = []
            found.append((line[len(indent) + len(PROMPT) :], printed))
        elif printed is not None:
            printed.append(line[len(indent) :])
    return found


def matches(documented: str, printed: str) -> bool:
    if "..." not in documented:
        return documented == printed
    before, after = documented.split("...", 1)
    return len(printed) >= len(before) + len(after) and printed.startswith(before) and printed.endswith(after)


EXAMPLES = examples()


def test_the_readme_shows_each_command():
    assert [args.split()[0] for args, _ in EXAMPLES] == ["run", "check", "run", "trace"]


def test_an_elided_line_matches_on_both_ends():
    assert matches("ab ... yz", "ab middle yz") and matches("ab ... yz", "ab ... yz")
    assert not matches("ab ... yz", "ab yz") and not matches("ab ... yz", "ab middle y")
    assert not matches("ab", "ab ") and matches("ab", "ab")


@pytest.mark.parametrize("args, documented", EXAMPLES, ids=[args for args, _ in EXAMPLES])
def test_each_example_prints_as_documented(args, documented, monkeypatch):
    monkeypatch.chdir(ROOT)
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(shlex.split(args), stdin=io.StringIO(""), stdout=out, stderr=err)
    assert code == 0, err.getvalue()
    printed = out.getvalue().splitlines()
    assert len(printed) == len(documented), printed
    for doc, line in zip(documented, printed):
        assert matches(doc, line), (doc, line)


def test_the_type_words_are_the_parsers():
    """The one-word types that "Language summary" lists before `products`
    are exactly the words the parser reads as base types."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    summary = text.split("## Language summary", 1)[1]
    sentence = summary[summary.index("Types are") :].split("products", 1)[0]
    words = re.findall(r"`(\w+)`", sentence)
    assert sorted(words) == sorted(TYPE_WORDS)
