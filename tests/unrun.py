"""A pytest plugin that lists the statements of `src/ecmtt` a run never executes.

    PYTHONPATH=src:tests python -m pytest -q -p unrun [TESTS...]

A `sys.settrace` line tracer records every line of the package that runs in
the test process, and the terminal summary prints, per module, each run of
executable lines that never ran (`path:first-last: text of the first`).
Lines run only in a subprocess, as the CLI tests start some, count as
unrun.

A `RecursionError` raised inside a trace function switches tracing off for
the rest of the process (the deep-input tests in `test_cli.py` do this), so
the tracer is installed again before each test.  The run is several times
slower than an untraced one.
"""

from __future__ import annotations

import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ecmtt"

_ran: dict[str, set[int]] = {}
_ours: dict[object, bool] = {}  # code object -> whether it is in the package


def _local(frame, event, arg):
    if event == "line":
        _ran[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    code = frame.f_code
    ours = _ours.get(code)
    if ours is None:
        ours = _ours[code] = Path(code.co_filename).resolve().parent == PACKAGE
        if ours:
            _ran.setdefault(code.co_filename, set())
    if not ours:
        return None
    _ran[code.co_filename].add(frame.f_lineno)
    return _local


def _executable(code) -> set[int]:
    """The lines that hold bytecode in `code` and the code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _executable(const)
    return lines


def _runs(lines: list[int]) -> list[tuple[int, int]]:
    """Sorted lines grouped into runs of consecutive executable lines."""
    runs: list[tuple[int, int]] = []
    for line in lines:
        if runs and runs[-1][1] == line - 1:
            runs[-1] = (runs[-1][0], line)
        else:
            runs.append((line, line))
    return runs


def pytest_sessionstart(session):
    sys.settrace(_global)


def pytest_runtest_setup(item):
    sys.settrace(_global)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    ran_by_path = {Path(f).resolve(): lines for f, lines in _ran.items()}
    write = terminalreporter.write_line
    terminalreporter.section("statements of src/ecmtt never run")
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        source = text.splitlines()
        executable = _executable(compile(text, str(path), "exec"))
        unrun = sorted(executable - ran_by_path.get(path, set()))
        # Lines that hold executable code only, so a dense block of unrun
        # statements prints as one run even across blank or comment lines.
        dense = sorted(executable)
        index = {line: i for i, line in enumerate(dense)}
        for first, last in _runs([index[line] for line in unrun]):
            a, b = dense[first], dense[last]
            where = f"{a}" if a == b else f"{a}-{b}"
            write(f"{path.relative_to(PACKAGE.parent.parent)}:{where}: {source[a - 1].strip()}")
        total += len(unrun)
    write(f"{total} executable lines never ran")
