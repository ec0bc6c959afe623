"""Frozen records: field order, equality without spans, the pinned `repr`,
immutability, `replace`, the `__post_init__` check, the `dataclasses`
functions on records, and an import of the package that loads neither
`dataclasses` nor `inspect`."""

import subprocess
import sys
from pathlib import Path

import pytest

from ecmtt import syntax as S
from ecmtt.evaluator import FuelExhausted, Stuck
from ecmtt.record import Record, record

SRC = Path(__file__).resolve().parent.parent / "src"

# Each node class's fields in constructor order, as `@dataclass` gave them.
FIELDS = {
    S.App: ("fn", "arg", "span"),
    S.Append: ("left", "right", "span"),
    S.Arith: ("op", "left", "right", "span"),
    S.Bind: ("stmt", "var", "rest", "span"),
    S.BoolLit: ("value", "span"),
    S.BoxTerm: ("theory", "body", "span"),
    S.Cmp: ("op", "left", "right", "span"),
    S.ContCall: ("kname", "arg", "state", "span"),
    S.EvalTerm: ("hseq", "uvar", "span"),
    S.Fix: ("fname", "param", "annot", "theory", "ret_type", "rec_body", "scope", "span"),
    S.HClause: ("handler", "init", "var", "body"),
    S.HSeq: ("clauses",),
    S.Handle: ("uvar", "hseq", "handler", "init", "span"),
    S.Handler: ("theory", "op_clauses", "ret_clause", "span"),
    S.If: ("cond", "then", "els", "span"),
    S.IntLit: ("value", "span"),
    S.Lam: ("param", "annot", "body", "span"),
    S.LetBox: ("uvar", "bound", "body", "span"),
    S.ListE: ("elems", "span"),
    S.OpCall: ("op", "arg", "span"),
    S.OpClause: ("op", "x", "k", "z", "body"),
    S.Pair: ("left", "right", "span"),
    S.Proj1: ("arg", "span"),
    S.Proj2: ("arg", "span"),
    S.Ret: ("value", "span"),
    S.RetClause: ("x", "z", "body"),
    S.UnitLit: ("span",),
    S.Var: ("name", "span"),
}


def test_match_args_keep_the_field_order_with_span_last():
    assert set(FIELDS) == set(S.SCHEMA)
    for cls, names in FIELDS.items():
        assert cls.__match_args__ == names == cls.fields(), cls.__name__
        assert "span" not in names[:-1]


def test_spans_do_not_take_part_in_equality_or_hash():
    a = S.App(S.Var("f", S.Span(1, 1)), S.IntLit(2, S.Span(1, 3)), S.Span(1, 1, 3))
    b = S.App(S.Var("f"), S.IntLit(2))
    assert a == b and hash(a) == hash(b)
    assert a != S.App(S.Var("g"), S.IntLit(2))


def test_records_of_different_classes_are_not_equal():
    arg = S.Pair(S.IntLit(1), S.IntLit(2))
    assert S.Proj1(arg) != S.Proj2(arg)
    assert S.IntT() != S.BoolT()
    assert S.IntT() == S.INT


def test_repr_reads_as_before():
    assert repr(S.Var("x", S.Span(3, 4))) == "Var(name='x')"
    assert repr(Stuck("division-by-zero")) == "Stuck(reason='division-by-zero')"
    assert repr(FuelExhausted(3)) == "FuelExhausted(steps=3, budget='steps')"
    ctx = S.EMPTY_MODAL.with_value("x", S.INT)
    assert repr(ctx) == "ModalContext((ValBind(name='x', type=IntT()),))"


def test_fields_can_be_neither_assigned_nor_deleted():
    var = S.Var("x")
    with pytest.raises(AttributeError):
        var.name = "y"
    with pytest.raises(AttributeError):
        del var.name
    with pytest.raises(AttributeError):
        var.other = 1
    assert var.name == "x"


def test_replace_keeps_the_span():
    span = S.Span(2, 5, 4)
    lam = S.Lam("x", S.INT, S.Var("x"), span)
    new = lam.replace(body=S.IntLit(0))
    assert new.span == span and new.param == "x" and new.body == S.IntLit(0)
    assert lam.body == S.Var("x")
    with pytest.raises(TypeError):
        lam.replace(nothing=1)


def test_a_box_over_a_context_that_is_not_a_theory_fails_in_post_init():
    not_a_theory = S.EffectContext((S.ContDecl("k", S.INT, S.INT, S.INT),))
    with pytest.raises(ValueError) as info:
        S.BoxTerm(not_a_theory, S.Ret(S.IntLit(0)))
    assert any(entry.name == "__post_init__" for entry in info.traceback)


def test_record_rejects_misordered_defaults_and_a_class_not_derived_from_record():
    with pytest.raises(TypeError):

        @record
        class Bad(Record):
            a: int = 0
            b: int

    with pytest.raises(TypeError):

        @record
        class Plain:
            a: int


def test_dataclasses_functions_still_read_records():
    # Outside code, the benchmark's node counter among it, reads nodes
    # with `dataclasses.fields`.
    import dataclasses

    assert dataclasses.fields(S.Expr) == ()
    assert [f.name for f in dataclasses.fields(S.Fix)] == list(FIELDS[S.Fix])
    assert dataclasses.is_dataclass(S.Var("x"))
    lam = S.Lam("x", S.INT, S.Var("x"), S.Span(1, 2))
    assert dataclasses.replace(lam, param="y") == lam.replace(param="y")
    assert dataclasses.replace(lam, param="y").span == lam.span
    assert dataclasses.astuple(FuelExhausted(3)) == (3, "steps")


@pytest.mark.parametrize(
    "modules",
    [("ecmtt.cli",), ("ecmtt.parser", "ecmtt.typecheck", "ecmtt.evaluator", "ecmtt.subst", "ecmtt.syntax", "ecmtt.pretty")],
    ids=["cli", "layers"],
)
def test_importing_the_package_loads_neither_dataclasses_nor_inspect(modules):
    # Both cost tens of milliseconds at every start-up, and `json`, which
    # only `run --json` needs, a few more; this fails as soon as some import
    # brings one of them back.
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        f"import {', '.join(modules)}\n"
        "print(sorted({'dataclasses', 'inspect', 'json'} & set(sys.modules)))\n"
    )
    done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
