"""Command line interface: exit codes, output formats, and the repl."""

import io
import itertools
import json
import math
import random
import runpy
import sys
from pathlib import Path
from typing import Iterator

import pytest

from ecmtt import cli, subst
from ecmtt.cli import ENV_MAX_STEPS, cmd_trace, main
from ecmtt.corpus import CASES, PRELUDE, TypeIs
from ecmtt.evaluator import DEFAULT_MAX_STEPS
from ecmtt.parser import KEYWORDS, PUNCT1, PUNCT2, ParseError, parse_source, tokenize

from test_cost_shape import HANDLERS
from test_free_vars import subterms
from test_tail_handling import READS, state_chain, state_model, state_ops

PIPELINE = """\
def St = {get:unit=>int, set:int=>unit}

def handlerSt = handler for St {
  get(x;k;z) -> k(z;z),
  set(x;k;z) -> k(();x),
  return(x;z) -> ret (x, z)
}

let box u = box St. (y <- get(); w <- set(y+1); ret y)
in x <- handle u with handlerSt init 0; ret x
"""

LOOP = """\
def eval_f = fn x:[{}]unit. let box u = x in eval u

let fix spin(x:unit):[{}]unit = ret (eval_f (spin x))
in eval_f (spin ())
"""


def invoke(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def pipeline_file(tmp_path):
    path = tmp_path / "pipeline.ecmtt"
    path.write_text(PIPELINE)
    return str(path)


def test_check_prints_the_type(pipeline_file):
    code, out, err = invoke(["check", pipeline_file])
    assert code == 0
    assert out.strip() == "int * int"
    assert err == ""


def test_check_reports_type_errors_on_stderr(tmp_path):
    path = tmp_path / "bad.ecmtt"
    path.write_text("box {}. get()\n")
    code, out, err = invoke(["check", str(path)])
    assert code == 1
    assert out == ""
    assert "op-not-in-context" in err


def test_check_rejects_an_empty_file(tmp_path):
    path = tmp_path / "empty.ecmtt"
    path.write_text("")
    code, _, err = invoke(["check", str(path)])
    assert code == 2
    assert "parse error" in err


def test_check_reports_parse_errors(tmp_path):
    path = tmp_path / "broken.ecmtt"
    path.write_text("ret (1 + 2\n")
    code, _, err = invoke(["check", str(path)])
    assert code == 2
    assert "parse error" in err


def test_check_reports_the_error_of_the_reading_that_got_further(tmp_path):
    # The expression reading stops before the `<-`; the computation reading
    # gets to the unknown handler name.
    path = tmp_path / "nope.ecmtt"
    path.write_text(
        "def St = {get:unit=>int, set:int=>unit}\n"
        "let box u = box St. get()\n"
        "in x <- handle u with nope init 0; ret x\n"
    )
    code, out, err = invoke(["check", str(path)])
    assert code == 2
    assert out == ""
    assert err.strip() == "3:23: parse error: unknown handler name 'nope'"


def test_run_reports_a_non_decimal_digit_as_a_parse_error(tmp_path):
    path = tmp_path / "digit.ecmtt"
    path.write_text("ret \u00b2\n", encoding="utf-8")
    code, out, err = invoke(["run", str(path)])
    assert code == 2
    assert out == ""
    assert "unexpected character" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "source, message",
    [
        ("ret int", "1:5: parse error: expected an expression, found 'int'"),
        ("x = 13 int", "1:8: parse error: expected end of input, found 'int'"),
    ],
)
def test_the_type_keyword_int_in_an_expression_is_a_parse_error(tmp_path, source, message):
    # The keyword is not read as an integer literal.
    path = tmp_path / "word.ecmtt"
    path.write_text(source + "\n")
    code, out, err = invoke(["check", str(path)])
    assert code == 2
    assert out == ""
    assert err.strip() == message


def test_missing_file_is_an_io_error(tmp_path):
    code, _, err = invoke(["check", str(tmp_path / "nope.ecmtt")])
    assert code == 4
    assert "error" in err


def test_run_prints_the_final_term(pipeline_file):
    code, out, _ = invoke(["run", pipeline_file])
    assert code == 0
    assert out.strip() == "ret (0, 1)"


def test_run_typechecks_before_evaluating(tmp_path):
    path = tmp_path / "bad.ecmtt"
    path.write_text("(fn x:int. x) true\n")
    code, out, err = invoke(["run", str(path)])
    assert code == 1
    assert out == ""
    assert "argument-mismatch" in err


def test_run_json_reparses_to_the_same_value(pipeline_file):
    from ecmtt.parser import parse_term
    from ecmtt.syntax import alpha_equal

    code, out, _ = invoke(["run", "--json", pipeline_file])
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "ok"
    assert payload["steps"] > 0
    assert alpha_equal(parse_term(payload["value"]), parse_term("ret (0, 1)"))


def test_run_fuel_flag_exhausts_on_a_loop(tmp_path):
    path = tmp_path / "loop.ecmtt"
    path.write_text(LOOP)
    code, _, err = invoke(["run", "--max-steps", "50", str(path)])
    assert code == 3
    assert "fuel exhausted after 50 steps" in err


def test_run_fuel_environment_variable(tmp_path, monkeypatch):
    path = tmp_path / "loop.ecmtt"
    path.write_text(LOOP)
    monkeypatch.setenv(ENV_MAX_STEPS, "40")
    code, _, err = invoke(["run", str(path)])
    assert code == 3
    assert "after 40 steps" in err


def test_run_flag_wins_over_environment(tmp_path, monkeypatch):
    path = tmp_path / "loop.ecmtt"
    path.write_text(LOOP)
    monkeypatch.setenv(ENV_MAX_STEPS, "40")
    code, _, err = invoke(["run", "--max-steps", "60", str(path)])
    assert code == 3
    assert "after 60 steps" in err


@pytest.mark.parametrize(
    "flags, env, named",
    [
        (["--max-steps", "-1"], None, "--max-steps"),
        ([], "forty", ENV_MAX_STEPS),
        ([], "-3", ENV_MAX_STEPS),
        (None, None, "the following arguments are required: file"),
    ],
)
def test_invalid_step_budget_is_a_usage_error(tmp_path, monkeypatch, capsys, flags, env, named):
    # Exit code 7, apart from the parse-error code 2 that argparse would use.
    # `flags` None leaves out the file argument.
    path = tmp_path / "loop.ecmtt"
    path.write_text(LOOP)
    if env is not None:
        monkeypatch.setenv(ENV_MAX_STEPS, env)
    with pytest.raises(SystemExit) as exc:
        invoke(["run"] if flags is None else ["run", *flags, str(path)])
    assert exc.value.code == 7
    assert named in capsys.readouterr().err


def test_run_division_by_zero_is_a_runtime_error(tmp_path):
    path = tmp_path / "div.ecmtt"
    path.write_text("1 / 0\n")
    code, _, err = invoke(["run", str(path)])
    assert code == 5
    assert "runtime error: division-by-zero" in err


def test_trace_final_line_matches_run_output(pipeline_file):
    run_code, run_out, _ = invoke(["run", pipeline_file])
    trace_code, trace_out, _ = invoke(["trace", pipeline_file])
    assert run_code == trace_code == 0
    lines = trace_out.strip().splitlines()
    assert lines[-1] == run_out.strip()
    assert any("--[" in line for line in lines)


def test_trace_shows_the_initial_term_first(pipeline_file):
    _, trace_out, _ = invoke(["trace", pipeline_file])
    first = trace_out.splitlines()[0]
    assert first.startswith("let box")


def test_trace_of_a_value_is_just_the_value(tmp_path):
    path = tmp_path / "done.ecmtt"
    path.write_text("ret 42\n")
    code, out, _ = invoke(["trace", str(path)])
    assert code == 0
    assert out.strip() == "ret 42"


class _FailingStream(io.StringIO):
    """Accepts `limit` writes, then raises on the next."""

    def __init__(self, limit: int):
        super().__init__()
        self.limit = limit

    def write(self, text: str) -> int:
        if self.limit == 0:
            raise BrokenPipeError("stream closed")
        self.limit -= 1
        return super().write(text)


def test_trace_prints_each_step_as_it_is_made(monkeypatch):
    # A program that never stops, with the full default budget: the output
    # stream fails on its sixth write, and that must end the trace after a
    # handful of steps, not once the budget is spent.
    loop = Path(__file__).resolve().parent.parent / "samples" / "loop.ecmtt"
    substitutions = 0
    real = subst.subst_values

    def counting(*args, **kwargs):
        nonlocal substitutions
        substitutions += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(subst, "subst_values", counting)
    out = _FailingStream(5)
    with pytest.raises(BrokenPipeError):
        cmd_trace(str(loop), DEFAULT_MAX_STEPS, out, io.StringIO())
    assert substitutions < 10
    # print writes a line's text and its newline separately: what got out
    # is the initial term, the first step and the second step's text, the
    # head of a bounded trace.
    code, bounded, _ = invoke(["trace", str(loop), "--max-steps", "5"])
    assert code == 3
    assert bounded.startswith(out.getvalue())
    assert out.getvalue().count("\n") == 2


def test_corpus_reports_every_case(capsys):
    code, out, _ = invoke(["corpus"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == f"all {len(CASES)} cases pass"
    assert len(lines) == len(CASES) + 1
    assert all(line.startswith("pass") for line in lines[:-1])


def test_corpus_reports_a_failing_case(monkeypatch):
    wrong = CASES[0].replace(expectation=TypeIs("bool"))
    monkeypatch.setattr(cli, "CASES", [CASES[1], wrong])
    out = io.StringIO()
    assert cli.cmd_corpus(out) == 1
    lines = out.getvalue().splitlines()
    assert lines[0].startswith("pass") and lines[1].startswith("FAIL")
    assert lines[-1] == "1 of 2 cases failed"


def test_repl_types_terms_and_quits():
    code, out, _ = invoke(["repl"], ":t box {}. ret 0\n:q\n")
    assert code == 0
    assert "[ {} ] int" in out


def test_repl_evaluates_bare_terms():
    code, out, _ = invoke(["repl"], "let box u = box {}. ret 1 in eval u\n:q\n")
    assert code == 0
    # The prompt is not followed by a newline, so the echoed result lands
    # on the same line as the prompt text.
    assert "ecmtt> 1\n" in out


def test_repl_definitions_persist():
    session = (
        "def St = {get:unit=>int, set:int=>unit}\n"
        "def handlerSt = handler for St { get(x;k;z) -> k(z;z), "
        "set(x;k;z) -> k(();x), return(x;z) -> ret (x, z) }\n"
        "let box u = box St. (y <- get(); w <- set(y+1); ret y) "
        "in x <- handle u with handlerSt init 0; ret x\n"
        ":q\n"
    )
    code, out, _ = invoke(["repl"], session)
    assert code == 0
    assert "ret (0, 1)" in out



def test_repl_runs_a_term_after_a_definition_on_one_line():
    code, out, _ = invoke(["repl"], "def one = 1 ret one + 5\none\n:q\n")
    assert code == 0
    assert "ecmtt> ret 6\n" in out
    assert "ecmtt> 1\n" in out

def test_repl_skips_blank_lines():
    code, out, _ = invoke(["repl"], "\n   \nret 2\n:q\n")
    assert code == 0
    # Each blank line gets a new prompt and no output.
    assert "ecmtt> ecmtt> ecmtt> ret 2\n" in out


def test_repl_recovers_from_errors():
    session = "fn x. x\nbox {}. get()\nret 7\n:q\n"
    code, out, _ = invoke(["repl"], session)
    assert code == 0
    assert "parse error" in out
    assert "op-not-in-context" in out
    assert "ret 7" in out


def test_repl_ends_cleanly_on_eof():
    code, _, _ = invoke(["repl"], "")
    assert code == 0


# ---------------------------------------------------------------------------
# Input deeper than the recursion limit


def _reperformed_chain(pairs: int, prelude: str = HANDLERS) -> str:
    # The parser and the typechecker read the chain in a loop. `idSt`'s
    # clauses keep a statement around the call of `k`, so handling it takes
    # the free names of the rest of the chain, a frame per statement.
    chain = "; ".join(f"y{i} <- get(); w{i} <- set(y{i} + 1)" for i in range(pairs))
    return prelude + (
        f"let box v = (let box u = box St. ({chain}; ret y0)\n"
        "  in box StExn. (x <- handle u with idSt init (); ret x))\n"
        "in r <- handle v with handlerStExn init 0; ret r\n"
    )


def _collect_all(n: int) -> str:
    # Collects the sum of every way to make n choices, a 2**n-element list.
    binds = "; ".join(f"b{i} <- choice()" for i in range(n))
    value = " + ".join(f"(if b{i} then {i} else {9 - i})" for i in range(n))
    return (
        "def Ch = {choice:unit=>bool}\n"
        "def collectAll = handler for Ch {\n"
        "  choice(x;k;z) -> (y1 <- k(true;z); y2 <- k(false;z); ret (y1 ++ y2)),\n"
        "  return(x;z) -> ret [x]\n"
        "}\n"
        f"let box u = box Ch. ({binds}; ret ({value}))\nin w <- handle u with collectAll init (); ret w\n"
    )


def _collect_all_value(n: int) -> str:
    """What `_collect_all(n)` returns, modelled without ecmtt: the sums in
    the order the choices are made, `true` first."""
    sums = [sum(i if b else 9 - i for i, b in enumerate(bs)) for bs in itertools.product((True, False), repeat=n)]
    return f"ret [{', '.join(map(str, sums))}]"


@pytest.mark.parametrize(
    "source, checked",
    [(_reperformed_chain(600), "int * int\n"), (_collect_all(10), "list int\n")],
    ids=["600-pair-chain", "collectAll-10"],
)
def test_deep_input_exits_6_naming_the_recursion_limit(tmp_path, source, checked):
    # The re-performed chain checks, but it is nested too deeply for the
    # evaluator.
    # `collectAll`'s 1,024-element result list takes no frame per element, so
    # it runs and traces to its value.
    path = tmp_path / "deep.ecmtt"
    path.write_text(source)
    assert invoke(["check", str(path)]) == (0, checked, "")
    if checked == "list int\n":
        value = _collect_all_value(10)
        code, out, err = invoke(["run", "--json", str(path)])
        assert (code, err) == (0, "")
        assert json.loads(out) == {"status": "ok", "value": value, "steps": 1}
        code, out, err = invoke(["trace", str(path)])
        assert (code, err) == (0, "")
        assert out.endswith(f"  --[beta-letbox]--> {value}\n{value}\n")
        return
    code, out, err = invoke(["run", "--json", str(path)])
    assert code == 6
    payload = json.loads(out)
    assert payload["status"] == "depth-limit"
    assert "recursion limit" in payload["message"]
    assert err.count("\n") == 1 and "Traceback" not in err
    code, _, err = invoke(["trace", str(path)])
    assert code == 6
    assert err.count("\n") == 1 and "recursion limit" in err


def test_a_chain_that_names_no_term_definition_checks_under_the_whole_prelude(tmp_path):
    # The corpus prelude also defines terms (`incr_n`, `eval_f`, ...).  The
    # chain names none of them, so the parser does not ask for its free
    # names, which would take a frame per statement; running it still
    # reaches the recursion limit in `evaluate`.
    path = tmp_path / "deep.ecmtt"
    path.write_text(_reperformed_chain(600, PRELUDE))
    assert invoke(["check", str(path)]) == (0, "int * int\n", "")
    code, out, _ = invoke(["run", "--json", str(path)])
    assert code == 6
    assert json.loads(out)["status"] == "depth-limit"


def test_a_main_term_that_names_no_definition_is_not_walked_at_parse_time():
    main = parse_source(
        PRELUDE + "let box u = box St. (y <- get(); w <- set(y + 1); ret y)\n"
        "in x <- handle u with handlerSt init 0; ret x\n"
    ).main
    # The handler comes from the table; the chain and the binders around it
    # are the main term's own.
    own = [main, main.body, *subterms(main.bound)]
    assert not [node for node in own if "_fv" in vars(node)]
    # A term that names one is resolved as before.
    main = parse_source(PRELUDE + "eval_f (box {}. ret 1)\n").main
    assert "eval_f" not in str(main)


def test_a_handler_reads_a_term_defined_after_it_through_the_main_term(tmp_path):
    # `foo` is not a token of the main term, but the handler the main term
    # names reads it, so it is resolved there.
    path = tmp_path / "late.ecmtt"
    path.write_text(
        "def St = {get:unit=>int, set:int=>unit}\n"
        "def h = handler for St { get(x;k;z) -> k(foo;z), set(x;k;z) -> k(();x), return(x;z) -> ret x }\n"
        "def foo = 1\n"
        "let box u = box St. (y <- get(); ret y) in r <- handle u with h init 0; ret r\n"
    )
    assert invoke(["check", str(path)]) == (0, "int\n", "")
    assert invoke(["run", str(path)]) == (0, "ret 1\n", "")


@pytest.mark.parametrize(
    "pairs, stages, result",
    [
        (10_000, "", "ret ({}, {})"),
        (600, " [handlerExplosiveSt init 2 as y. ret (fst y)]", "ret {}"),
    ],
    ids=["10000-pair-chain", "600-pair-staged-chain"],
)
def test_a_long_tail_resumptive_chain_checks_runs_and_traces(tmp_path, recursion_limit_1000, pairs, stages, result):
    # `handlerSt` and `handlerExplosiveSt` resume in place with a concrete
    # state, so handling the chain takes no frame per statement.
    ops = state_ops(pairs)
    handler = "handlerExn init ()" if stages else "handlerSt init 2"
    path = tmp_path / "chain.ecmtt"
    path.write_text(
        HANDLERS + f"let box u = box St. ({state_chain(ops, READS)})\nin x <- handle u{stages} with {handler}; ret x\n"
    )
    value = result.format(*state_model(ops, 2, READS, False))
    checked = "int\n" if stages else "int * int\n"
    assert invoke(["check", str(path)]) == (0, checked, "")
    code, out, err = invoke(["run", "--json", str(path)])
    assert (code, err) == (0, "")
    assert json.loads(out) == {"status": "ok", "value": value, "steps": 1}
    code, out, err = invoke(["trace", str(path)])
    assert (code, err) == (0, "")
    assert out.endswith(f"  --[beta-letbox]--> {value}\n{value}\n")


def test_check_of_a_deep_sum_exits_6_naming_the_recursion_limit(tmp_path):
    # `infer` takes a frame per level of a left-nested sum.
    path = tmp_path / "deep.ecmtt"
    path.write_text("ret (" + " + ".join(["1"] * 3000) + ")\n")
    code, out, err = invoke(["check", str(path)])
    limit = sys.getrecursionlimit()
    assert (code, out) == (6, "")
    assert err == f"error: input nested too deeply: recursion limit of {limit} frames reached\n"


TRIVIAL = "handler for {} { return(x;z) -> ret x }"
STAGES = "; ".join([f"{TRIVIAL} init () as y. ret y"] * 2000)


@pytest.mark.parametrize(
    "main, ran",
    [(f"x <- handle u [{STAGES}] with {TRIVIAL} init (); ret x", "ret 7\n"), (f"eval [{STAGES}] u", "7\n")],
    ids=["handle", "eval"],
)
def test_a_2000_stage_sequence_checks_and_runs(tmp_path, recursion_limit_1000, main, ran):
    # The stages are typed and handled in a loop, one after another.
    path = tmp_path / "stages.ecmtt"
    path.write_text(f"let box u = box {{}}. ret 7 in {main}\n")
    assert invoke(["check", str(path)]) == (0, "int\n", "")
    assert invoke(["run", str(path)]) == (0, ran, "")


def test_a_bare_statement_before_a_long_named_chain_checks_and_runs(tmp_path, recursion_limit_1000):
    # The bare `raise();` names its result away from the free names of the
    # 2,500 statements after it, which the parser fills as it builds them.
    chain = "".join(f"a{i} <- get(); " for i in range(2500))
    path = tmp_path / "chain.ecmtt"
    path.write_text(
        "def E = {get:unit=>int, raise:unit=>unit}\n"
        "def h = handler for E {get(x;k;z) -> k(z;z), raise(x;k;z) -> k(();z), return(x;z) -> ret (x, z)}\n"
        f"let box u = box E. (raise(); {chain}ret 0) in x <- handle u with h init 0; ret x\n"
    )
    assert invoke(["check", str(path)]) == (0, "int * int\n", "")
    assert invoke(["run", str(path)]) == (0, "ret (0, 0)\n", "")


def test_a_recursion_error_exits_6_naming_the_limit(monkeypatch, pipeline_file):
    def too_deep(term):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "infer_term", too_deep)
    code, out, err = invoke(["check", pipeline_file])
    limit = sys.getrecursionlimit()
    assert (code, out) == (6, "")
    assert err == f"error: input nested too deeply: recursion limit of {limit} frames reached\n"


def test_long_lists_run_to_their_values(tmp_path):
    path = tmp_path / "nondet.ecmtt"
    path.write_text(_collect_all(12))
    assert invoke(["run", str(path)]) == (0, _collect_all_value(12) + "\n", "")
    literal = "[" + ", ".join(map(str, range(100_000))) + "]"
    path.write_text(literal + "\n")
    assert invoke(["run", str(path)]) == (0, literal + "\n", "")


def test_repl_reports_deep_input_and_carries_on():
    deep = "(" * 1200 + "1" + ")" * 1200
    code, out, _ = invoke(["repl"], f"{deep}\nret 7\n:q\n")
    assert code == 0
    assert "recursion limit" in out
    assert "ret 7" in out


def test_unknown_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        invoke(["frobnicate"])
    assert exc.value.code == 7
    assert "invalid choice" in capsys.readouterr().err


SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def _sample_argv(monkeypatch):
    monkeypatch.setattr(sys, "argv", ["ecmtt", "check", str(SAMPLES / "incr_pipeline.ecmtt")])


def test_the_console_script_exits_with_the_status_of_main(monkeypatch, capsys):
    _sample_argv(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        cli.main_entry()
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "int * int"


def test_python_dash_m_runs_the_command_line(monkeypatch, capsys):
    _sample_argv(monkeypatch)
    # A fresh `ecmtt.__main__` each time, as `python -m ecmtt` would run it.
    monkeypatch.delitem(sys.modules, "ecmtt.__main__", raising=False)
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("ecmtt", run_name="__main__", alter_sys=True)
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "int * int"


# ---------------------------------------------------------------------------
# Every outcome of the shared path


@pytest.mark.parametrize("command", ["check", "run", "trace"])
def test_an_undecodable_file_is_an_io_error(tmp_path, command):
    path = tmp_path / "latin.ecmtt"
    path.write_bytes(b"\xff\xfe ret 1\n")
    code, out, err = invoke([command, str(path)])
    assert code == 4
    assert out == ""
    assert err.count("\n") == 1 and str(path) in err
    assert err.startswith("error: ") and "Traceback" not in err


JSON_OUTCOMES = [
    ("ok", 0, PIPELINE, []),
    ("type-error", 1, "(fn x:int. x) true\n", []),
    ("parse-error", 2, "ret (1 + 2\n", []),
    ("fuel-exhausted", 3, LOOP, ["--max-steps", "5"]),
    ("io-error", 4, None, []),
    ("runtime-error", 5, "1 / 0\n", []),
    ("depth-limit", 6, "(" * 1200 + "1" + ")" * 1200 + "\n", []),
]


@pytest.mark.parametrize("status, exit_code, source, flags", JSON_OUTCOMES, ids=[o[0] for o in JSON_OUTCOMES])
def test_run_json_reports_every_outcome(tmp_path, status, exit_code, source, flags):
    path = tmp_path / "program.ecmtt"
    if source is not None:
        path.write_text(source)
    code, out, err = invoke(["run", "--json", *flags, str(path)])
    assert code == exit_code
    assert out.count("\n") == 1
    payload = json.loads(out)
    assert payload["status"] == status
    if status == "ok":
        assert set(payload) == {"status", "value", "steps"}
        assert err == ""
    elif status == "fuel-exhausted":
        assert payload == {"status": status, "steps": 5}
        assert err == "error: fuel exhausted after 5 steps\n"
    else:
        # The stderr diagnostic, without its category prefix.
        assert set(payload) == {"status", "message"}
        assert err.count("\n") == 1 and err.rstrip("\n").endswith(payload["message"])


def test_run_json_names_the_substitution_budget(tmp_path, monkeypatch):
    # With 50 ticks per engine call, the fuel runs out in the handling step
    # that follows two steps without the engine (`1 = 1`, then `if`).
    chain = " ".join(f"y{i} <- get(); w{i} <- set(y{i} + 1);" for i in range(60))
    path = tmp_path / "chain.ecmtt"
    path.write_text(
        PIPELINE.split("let box")[0]
        + f"if 1 = 1 then (let box u = box St. ({chain} ret 0)\n"
        + "in x <- handle u with handlerSt init 0; ret x) else ret (0, 0)\n"
    )
    assert invoke(["run", str(path)])[:2] == (0, "ret (0, 60)\n")
    init = subst._Engine.__init__
    monkeypatch.setattr(subst._Engine, "__init__", lambda self, _=None: init(self, 50))
    code, out, err = invoke(["run", "--json", str(path)])
    assert code == 3
    assert json.loads(out) == {"status": "fuel-exhausted", "steps": 2, "budget": "substitution fuel"}
    assert err == "error: substitution fuel exhausted after 2 steps\n"


# ---------------------------------------------------------------------------
# Token mutants: one token deleted, inserted, replaced or swapped

FUZZ_SOURCES = [(path.name, path.read_text()) for path in sorted(SAMPLES.glob("*.ecmtt"))] + [
    (case.name, case.source) for case in CASES
]
# What an insertion or a replacement writes: every keyword and mark, a few
# names the programs use, and numbers.
FUZZ_WORDS = (*sorted(KEYWORDS), *PUNCT2, *PUNCT1, "x", "k", "z", "get", "set", "St", "handlerSt", "0", "13")
MUTANTS_PER_SOURCE = 8
DOCUMENTED_CODES = {code for code, _, _ in cli.OUTCOMES.values()}


def token_mutants(text: str, rng: random.Random, count: int) -> Iterator[str]:
    starts = list(itertools.accumulate((len(line) + 1 for line in text.split("\n")), initial=0))
    bounds = [(starts[t.line - 1] + t.col - 1, starts[t.line - 1] + t.col - 1 + len(t.text)) for t in tokenize(text)]
    bounds.pop()  # `eof`
    for _ in range(count):
        i = rng.randrange(len(bounds) - 1)  # a token with a next one to swap with
        (a, b), (c, d), word = bounds[i], bounds[i + 1], rng.choice(FUZZ_WORDS)
        yield rng.choice(
            (
                text[:a] + text[b:],
                f"{text[:a]} {word} {text[a:]}",
                f"{text[:a]} {word} {text[b:]}",
                text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:],
            )
        )


def span_inside(span, text: str) -> bool:
    """`span` covers characters of `text`, or the end of a line when empty."""
    lines = text.split("\n")
    return 1 <= span.line <= len(lines) and 1 <= span.col and span.col - 1 + span.length <= len(lines[span.line - 1])


@pytest.mark.parametrize("name, text", FUZZ_SOURCES, ids=[name for name, _ in FUZZ_SOURCES])
def test_token_mutants_end_in_a_documented_outcome(tmp_path, name, text):
    # Derandomised: each source draws its mutants from its own seed.
    path = tmp_path / "mutant.ecmtt"
    for mutant in token_mutants(text, random.Random(name), MUTANTS_PER_SOURCE):
        path.write_text(mutant, encoding="utf-8")
        for argv in (["check", str(path)], ["run", "--max-steps", "300", str(path)]):
            code, _, err = invoke(argv)
            assert code in DOCUMENTED_CODES, (argv[0], mutant, err)
        try:
            parse_source(mutant)
        except ParseError as exc:
            assert exc.span is not None and span_inside(exc.span, mutant), (str(exc), mutant)


# ---------------------------------------------------------------------------
# Integers past CPython's int/str conversion limit

BIG = "7" * 5000


def _digits(n: int) -> str:
    # Decimal text built from small conversions only, independent of ecmtt.
    chunks = []
    while n >= 10**100:
        n, low = divmod(n, 10**100)
        chunks.append(str(low).zfill(100))
    return str(n) + "".join(reversed(chunks))


def test_a_5000_digit_literal_checks_and_runs(tmp_path):
    path = tmp_path / "big.ecmtt"
    path.write_text(f"ret {BIG}\n")
    assert invoke(["check", str(path)]) == (0, "int\n", "")
    assert invoke(["run", str(path)]) == (0, f"ret {BIG}\n", "")


def test_the_repl_reads_and_prints_a_5000_digit_literal():
    code, out, _ = invoke(["repl"], f"{BIG} + 1\nret 7\n:q\n")
    assert code == 0
    assert f"ecmtt> {BIG[:-1]}8\n" in out
    assert "ecmtt> ret 7\n" in out


def test_a_factorial_past_the_conversion_limit_prints(tmp_path):
    sample = Path(__file__).resolve().parent.parent / "samples" / "factorial.ecmtt"
    path = tmp_path / "fact.ecmtt"
    path.write_text(sample.read_text().replace("fact 3", "fact 1800"))
    code, out, err = invoke(["run", str(path)])
    assert (code, err) == (0, "")
    assert out == _digits(math.factorial(1800)) + "\n"
    assert len(out) > 5000


def test_trace_of_a_deep_factorial_prints_to_its_value(tmp_path):
    # Each pending multiplication nests the printed term one level deeper,
    # and printing takes no frame per level, so every step prints.
    sample = Path(__file__).resolve().parent.parent / "samples" / "factorial.ecmtt"
    path = tmp_path / "fact.ecmtt"
    path.write_text(sample.read_text().replace("fact 3", "fact 200"))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        code, out, err = invoke(["trace", str(path)])
    finally:
        sys.setrecursionlimit(limit)
    assert (code, err) == (0, "")
    assert out.count("\n") == 1007
    assert out.endswith(f"\n{math.factorial(200)}\n")
