"""Command-line front end.

Five subcommands over the library: `check` typechecks a file and prints the
type of its main term, `run` evaluates it, `trace` prints every reduction
step, `repl` starts an interactive session, and `corpus` runs the embedded
example programs against their expectations.

All five take one path: load (read, decode, parse, take the main term),
typecheck, and reduce unless only the type is wanted.  Each way it ends is an
`Outcome`, whose exit code and `run --json` status are one row of `OUTCOMES`:

    0  ok              the type (`check`) or the value
    1  type-error      (also `corpus` when a case fails)
    2  parse-error     (also a file with no main term)
    3  fuel-exhausted  the step budget, or the engine's fuel within a step, ran out
    4  io-error        the file cannot be read, or is not UTF-8
    5  runtime-error   evaluation is stuck
    6  depth-limit     input nested deeper than the recursion limit allows
    7  (none)          usage error, reported by argparse

A JSON object carries `message`, the diagnostic without its `error: ` or
`runtime error: ` prefix, except that `ok` carries `value` and `steps` and
`fuel-exhausted` carries `steps`, and `budget` ("substitution fuel") when the
engine's fuel ran out within a step.  The evaluation fuel defaults to one
million steps and can be overridden with `--max-steps` or the
ECMTT_MAX_STEPS environment variable (the flag wins).  A budget that is not
a non-negative integer, from either source, is a usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, NamedTuple, NoReturn, Optional, TextIO

from .corpus import CASES, CorpusCase, EvaluatesTo, ParseErrorExpected, TypeErrorExpected, TypeIs
from .evaluator import DEFAULT_MAX_STEPS, FuelExhausted, Stuck, Value, run
from .parser import DefTable, ParseError, parse_source, parse_term
from .pretty import pretty, type_text
from .syntax import Term
from .typecheck import TypeCheckError, infer_term

__all__ = ["build_arg_parser", "main", "main_entry"]

# Each outcome's exit code, the prefix of its diagnostic line on stderr (None
# for success, printed on stdout), and its JSON fields besides the status.
OUTCOMES: dict[str, tuple[int, Optional[str], tuple[str, ...]]] = {
    "ok": (0, None, ("value", "steps")),
    "type-error": (1, "", ("message",)),
    "parse-error": (2, "", ("message",)),
    "fuel-exhausted": (3, "error: ", ("steps", "budget")),
    "io-error": (4, "error: ", ("message",)),
    "runtime-error": (5, "runtime error: ", ("message",)),
    "depth-limit": (6, "error: ", ("message",)),
}
EXIT_USAGE = 7

ENV_MAX_STEPS = "ECMTT_MAX_STEPS"


def _step_budget(text: str) -> int:
    """A step budget: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def _resolve_fuel(flag_value: Optional[int]) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get(ENV_MAX_STEPS)
    if env is None:
        return DEFAULT_MAX_STEPS
    try:
        return _step_budget(env)
    except argparse.ArgumentTypeError as exc:
        raise argparse.ArgumentTypeError(f"{ENV_MAX_STEPS} {exc}") from None


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        """argparse's usage error, with an exit code no outcome uses."""
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="ecmtt",
        description="Typechecker and interpreter for a calculus of boxed computations and effect handlers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="typecheck a file and print the type of its main term")
    check.add_argument("file", help="source file to check")

    run = sub.add_parser("run", help="evaluate the main term of a file")
    run.add_argument("file", help="source file to run")
    run.add_argument("--max-steps", type=_step_budget, default=None, help="evaluation fuel")
    run.add_argument("--json", action="store_true", help="emit the outcome as JSON")

    trace = sub.add_parser("trace", help="evaluate and print every reduction step")
    trace.add_argument("file", help="source file to trace")
    trace.add_argument("--max-steps", type=_step_budget, default=None, help="evaluation fuel")

    sub.add_parser("repl", help="start an interactive session")
    sub.add_parser("corpus", help="run the embedded example corpus")
    return parser


class Outcome(NamedTuple):
    """How one run of the path ended.  `text` is the type or value printed
    on success and the diagnostic otherwise; `kind` is a type error's kind,
    or the budget that ran out when it is not the step budget."""

    status: str
    text: str
    steps: int = 0
    kind: Optional[str] = None

    @property
    def line(self) -> str:
        """The line that reports the outcome, as the REPL prints it."""
        prefix = OUTCOMES[self.status][1]
        return self.text if prefix is None else prefix + self.text


class _Failed(Exception):
    """Ends the path with its argument, an outcome that no library exception
    stands for."""


def _main_term(text: str, name: str) -> Term:
    main_term = parse_source(text).main
    if main_term is None:
        raise _Failed(Outcome("parse-error", f"{name}: parse error: source has no main term"))
    return main_term


def _load(path: str) -> Term:
    """Read, decode and parse a source file, and return its main term."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _Failed(Outcome("io-error", str(exc))) from None
    except UnicodeDecodeError as exc:
        raise _Failed(Outcome("io-error", f"{path}: {exc}")) from None
    return _main_term(text, path)


def outcome(
    load: Callable[[], Optional[Term]], max_steps: Optional[int] = None, trace: Optional[TextIO] = None
) -> Optional[Outcome]:
    """Load a term, typecheck it and, given a step budget, reduce it.  Each
    library failure becomes its outcome here.  A load that gives no term (a
    REPL line of definitions only) has no outcome."""
    try:
        term = load()
        if term is None:
            return None
        ty = infer_term(term)
        return Outcome("ok", type_text(ty)) if max_steps is None else _reduce(term, max_steps, trace)
    except _Failed as exc:
        return exc.args[0]
    except ParseError as exc:
        return Outcome("parse-error", str(exc))
    except TypeCheckError as exc:
        return Outcome("type-error", exc.render(), kind=exc.kind)
    except RecursionError:
        # The parser, the typechecker and the engine recurse once per level
        # of the term, so a deep enough input runs out of frames anywhere.
        limit = sys.getrecursionlimit()
        return Outcome("depth-limit", f"input nested too deeply: recursion limit of {limit} frames reached")


def _reduce(term: Term, max_steps: int, trace: Optional[TextIO]) -> Outcome:
    """Drive `evaluator.run` to its end.  With a `trace` stream, print the
    initial term before the first step and each step as it is made, so
    nothing but the current term is kept and a long run shows its progress."""
    steps = run(term, max_steps, record=trace is not None)
    count = 0
    while True:
        try:
            stepped = next(steps)
        except StopIteration as stop:
            final = stop.value
            break
        if trace is not None:
            if count == 0:
                print(pretty(term), file=trace)
            print(f"  --[{stepped.rule}]--> {pretty(stepped.term)}", file=trace)
        count += 1
    match final:
        case Value(value):
            return Outcome("ok", pretty(value), count)
        case FuelExhausted(spent, "steps"):
            return Outcome("fuel-exhausted", f"fuel exhausted after {spent} steps", spent)
        case FuelExhausted(spent, budget):
            return Outcome("fuel-exhausted", f"{budget} fuel exhausted after {spent} steps", spent, f"{budget} fuel")
        case Stuck(reason):
            return Outcome("runtime-error", reason, count)


def _report(result: Outcome, out: TextIO, err: TextIO, as_json: bool = False) -> int:
    """Print an outcome of `check`, `run` or `trace`, and give its exit code."""
    code, prefix, fields = OUTCOMES[result.status]
    if as_json:
        # Imported here, so that start-up without `--json` does not load it.
        import json

        values = {"value": result.text, "message": result.text, "steps": result.steps, "budget": result.kind}
        fields = tuple(f for f in fields if values[f] is not None)
        print(json.dumps({"status": result.status, **{f: values[f] for f in fields}}), file=out)
    elif prefix is None:
        print(result.text, file=out)
    if prefix is not None:
        print(result.line, file=err)
    return code


def cmd_trace(path: str, max_steps: int, out: TextIO, err: TextIO) -> int:
    return _report(outcome(lambda: _load(path), max_steps, out), out, err)


_REPL_BANNER = "ecmtt repl; :t TERM for a type, def NAME = ... to define, :q to quit"
_PROMPT = "ecmtt> "


def cmd_repl(max_steps: int, stdin: TextIO, out: TextIO, err: TextIO) -> int:
    table = DefTable()
    print(_REPL_BANNER, file=out)
    while True:
        out.write(_PROMPT)
        out.flush()
        line = stdin.readline()
        if not line:
            print(file=out)
            return 0
        line = line.strip()
        if not line:
            continue
        if line in (":q", ":quit"):
            return 0
        if line.startswith(":t "):
            result = outcome(lambda: parse_term(line[len(":t "):], table))
        elif line.startswith("def "):
            # Definitions extend the table; a term after them is run.
            result = outcome(lambda: parse_source(line, table).main, max_steps)
        else:
            result = outcome(lambda: parse_term(line, table), max_steps)
        if result is not None:
            print(result.line, file=out)


def _judge(case: CorpusCase) -> tuple[str, bool, str]:
    """A corpus case's expectation as text, whether the case meets it, and
    the line its outcome prints."""
    expect = case.expectation
    budget = DEFAULT_MAX_STEPS if isinstance(expect, EvaluatesTo) else None
    got = outcome(lambda: _main_term(case.source, case.name), budget)
    match expect:
        case TypeIs(text):
            return f"type {text}", got.status == "ok" and got.text == text, got.line
        case EvaluatesTo(text):
            return f"value {text}", got.status == "ok" and got.text == text, got.line
        case TypeErrorExpected(kind):
            met = got.status == "type-error" and kind in (None, got.kind)
            return f"type error: {kind}" if kind else "type error", met, got.line
        case ParseErrorExpected():
            return "parse error", got.status == "parse-error", got.line


def cmd_corpus(out: TextIO) -> int:
    rows = [(case.name, *_judge(case)) for case in CASES]
    name_w = max(len(name) for name, *_ in rows)
    expect_w = max(len(expect) for _, expect, *_ in rows)
    for name, expect, passed, observed in rows:
        status = "pass" if passed else "FAIL"
        print(f"{status}  {name:<{name_w}}  {expect:<{expect_w}}  {observed}", file=out)
    failed = sum(1 for _, _, passed, _ in rows if not passed)
    if failed:
        print(f"{failed} of {len(rows)} cases failed", file=out)
        return 1
    print(f"all {len(rows)} cases pass", file=out)
    return 0


def main(
    argv: Optional[list[str]] = None,
    stdin: Optional[TextIO] = None,
    stdout: Optional[TextIO] = None,
    stderr: Optional[TextIO] = None,
) -> int:
    stdin = stdin if stdin is not None else sys.stdin
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    arg_parser = build_arg_parser()
    args = arg_parser.parse_args(argv)
    max_steps = DEFAULT_MAX_STEPS
    if args.command in ("run", "trace", "repl"):
        try:
            max_steps = _resolve_fuel(getattr(args, "max_steps", None))
        except argparse.ArgumentTypeError as exc:
            arg_parser.error(str(exc))
    match args.command:
        case "check":
            return _report(outcome(lambda: _load(args.file)), out, err)
        case "run":
            return _report(outcome(lambda: _load(args.file), max_steps), out, err, args.json)
        case "trace":
            return cmd_trace(args.file, max_steps, out, err)
        case "repl":
            return cmd_repl(max_steps, stdin, out, err)
        case "corpus":
            return cmd_corpus(out)
    raise AssertionError(f"unknown command {args.command!r}")


def main_entry() -> None:
    sys.exit(main())
