"""Command-line front end.

Five subcommands over the library: `check` typechecks a file and prints the
type of its main term, `run` evaluates it, `trace` prints every reduction
step, `repl` starts an interactive session, and `corpus` runs the embedded
example programs against their expectations.

Exit codes are a total function of the outcome: 0 success, 1 type error,
2 parse error, 3 fuel exhausted, 4 I/O error, 5 runtime error, 6 input
nested deeper than the interpreter's recursion limit allows.  The
evaluation fuel defaults to one million steps and can be overridden with
`--max-steps` or the ECMTT_MAX_STEPS environment variable (the flag wins).
A budget that is not a non-negative integer, from either source, is a usage
error, reported by argparse with exit code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, TextIO

from .corpus import (
    CaseResult,
    EvaluatesTo,
    ParseErrorExpected,
    TypeErrorExpected,
    TypeIs,
    run_corpus,
)
from .evaluator import DEFAULT_MAX_STEPS, FuelExhausted, Stuck, Value, evaluate, run
from .parser import DefTable, ParseError, parse_source, parse_term
from .pretty import pretty, type_text
from .typecheck import TypeCheckError, infer_term

__all__ = ["build_arg_parser", "main", "main_entry"]

EXIT_OK = 0
EXIT_TYPE_ERROR = 1
EXIT_PARSE_ERROR = 2
EXIT_FUEL = 3
EXIT_IO_ERROR = 4
EXIT_RUNTIME = 5
EXIT_DEPTH = 6

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


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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


def _load_main(path: str, err: TextIO):
    """Read and parse a source file, returning its main term or an exit code."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_IO_ERROR
    try:
        source = parse_source(text)
    except ParseError as exc:
        print(exc, file=err)
        return EXIT_PARSE_ERROR
    if source.main is None:
        print(f"{path}: parse error: source has no main term", file=err)
        return EXIT_PARSE_ERROR
    return source.main


def cmd_check(path: str, out: TextIO, err: TextIO) -> int:
    main_term = _load_main(path, err)
    if isinstance(main_term, int):
        return main_term
    try:
        ty = infer_term(main_term)
    except TypeCheckError as exc:
        print(exc.render(), file=err)
        return EXIT_TYPE_ERROR
    print(type_text(ty), file=out)
    return EXIT_OK


def _finish_run(final, steps: int, as_json: bool, out: TextIO, err: TextIO) -> int:
    match final:
        case Value(term):
            text = pretty(term)
            if as_json:
                print(json.dumps({"status": "ok", "value": text, "steps": steps}), file=out)
            else:
                print(text, file=out)
            return EXIT_OK
        case FuelExhausted(spent):
            if as_json:
                print(json.dumps({"status": "fuel-exhausted", "steps": spent}), file=out)
            print(f"error: fuel exhausted after {spent} steps", file=err)
            return EXIT_FUEL
        case Stuck(reason):
            if as_json:
                print(json.dumps({"status": "runtime-error", "message": reason}), file=out)
            print(f"runtime error: {reason}", file=err)
            return EXIT_RUNTIME
    print("error: evaluation produced no outcome", file=err)
    return EXIT_RUNTIME


def cmd_run(path: str, max_steps: int, as_json: bool, out: TextIO, err: TextIO) -> int:
    main_term = _load_main(path, err)
    if isinstance(main_term, int):
        return main_term
    try:
        infer_term(main_term)
    except TypeCheckError as exc:
        print(exc.render(), file=err)
        return EXIT_TYPE_ERROR
    trace = evaluate(main_term, max_steps=max_steps)
    return _finish_run(trace.final, trace.step_count, as_json, out, err)


def cmd_trace(path: str, max_steps: int, out: TextIO, err: TextIO) -> int:
    main_term = _load_main(path, err)
    if isinstance(main_term, int):
        return main_term
    try:
        infer_term(main_term)
    except TypeCheckError as exc:
        print(exc.render(), file=err)
        return EXIT_TYPE_ERROR
    # Each step is printed as it is made, so nothing but the current term
    # is kept, and a long run shows its progress.
    steps = run(main_term, max_steps)
    count = 0
    while True:
        try:
            stepped = next(steps)
        except StopIteration as stop:
            final = stop.value
            break
        if count == 0:
            print(pretty(main_term), file=out)
        count += 1
        print(f"  --[{stepped.rule}]--> {pretty(stepped.term)}", file=out)
    if isinstance(final, Value):
        print(pretty(final.term), file=out)
        return EXIT_OK
    return _finish_run(final, count, False, out, err)


def _depth_message() -> str:
    return f"input nested too deeply: recursion limit of {sys.getrecursionlimit()} frames reached"


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
            return EXIT_OK
        line = line.strip()
        if not line:
            continue
        if line in (":q", ":quit"):
            return EXIT_OK
        try:
            if line.startswith(":t "):
                term = parse_term(line[len(":t "):], table)
                print(type_text(infer_term(term)), file=out)
            elif line.startswith("def "):
                parse_source(line, table)
            else:
                term = parse_term(line, table)
                infer_term(term)
                trace = evaluate(term, max_steps=max_steps)
                match trace.final:
                    case Value(value_term):
                        print(pretty(value_term), file=out)
                    case FuelExhausted(spent):
                        print(f"error: fuel exhausted after {spent} steps", file=out)
                    case Stuck(reason):
                        print(f"runtime error: {reason}", file=out)
        except ParseError as exc:
            print(exc, file=out)
        except TypeCheckError as exc:
            print(exc.render(), file=out)
        except RecursionError:
            print(f"error: {_depth_message()}", file=out)


def _expectation_text(result: CaseResult) -> str:
    match result.case.expectation:
        case TypeIs(text):
            return f"type {text}"
        case EvaluatesTo(text):
            return f"value {text}"
        case TypeErrorExpected(kind):
            return f"type error: {kind}" if kind else "type error"
        case ParseErrorExpected():
            return "parse error"
    return "?"


def cmd_corpus(out: TextIO) -> int:
    results = run_corpus()
    name_w = max(len(r.case.name) for r in results)
    expect_w = max(len(_expectation_text(r)) for r in results)
    for r in results:
        status = "pass" if r.passed else "FAIL"
        expect = _expectation_text(r)
        print(f"{status}  {r.case.name:<{name_w}}  {expect:<{expect_w}}  {r.observed}", file=out)
    failed = sum(1 for r in results if not r.passed)
    if failed:
        print(f"{failed} of {len(results)} cases failed", file=out)
        return EXIT_TYPE_ERROR
    print(f"all {len(results)} cases pass", file=out)
    return EXIT_OK


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
    try:
        match args.command:
            case "check":
                return cmd_check(args.file, out, err)
            case "run":
                return cmd_run(args.file, max_steps, args.json, out, err)
            case "trace":
                return cmd_trace(args.file, max_steps, out, err)
            case "repl":
                return cmd_repl(max_steps, stdin, out, err)
            case "corpus":
                return cmd_corpus(out)
    except RecursionError:
        # The parser, the typechecker and the engine recurse once per level
        # of the term, so a deep enough input runs out of frames anywhere.
        if getattr(args, "json", False):
            print(json.dumps({"status": "depth-limit", "message": _depth_message()}), file=out)
        print(f"error: {_depth_message()}", file=err)
        return EXIT_DEPTH
    raise AssertionError(f"unknown command {args.command!r}")


def main_entry() -> None:
    sys.exit(main())
