"""Frozen records: field order, equality without spans (`!=` and `hash`
included), the pinned `repr`, immutability, `replace`, the `__post_init__`
check, the `dataclasses` functions on records, a record as the tuple of
its fields, the constructors made from one template per shape, the builder
`_make` that makes what the constructor makes, and an import of the package
that loads neither `dataclasses` nor `inspect` and compiles one constructor
per shape."""

import functools
import importlib
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
    assert S.INT != S.BOTTOM
    assert S.BaseT("int") == S.INT


def _equality_agrees(a, b, equal: bool) -> None:
    assert (a == b) is equal and (b == a) is equal
    assert (a != b) is not equal and (b != a) is not equal
    if equal:
        assert hash(a) == hash(b)


def test_not_equal_is_the_negation_of_equal_for_every_record_class():
    # A record is a tuple, whose own `!=` would compare spans and ignore
    # the class.
    for cls in _record_classes():
        values = {f: S.EffectContext(()) if f == "theory" else object() for f in cls.fields()}
        a, b = cls(**values), cls(**values)
        _equality_agrees(a, b, True)
        if "span" in values:
            _equality_agrees(a, cls(**{**values, "span": S.Span(1, 2, 3)}), True)
        for f in values.keys() - {"span", "theory"}:
            _equality_agrees(a, cls(**{**values, f: object()}), False)
    arg = S.Pair(S.IntLit(1), S.IntLit(2))
    _equality_agrees(S.Proj1(arg), S.Proj2(arg), False)
    _equality_agrees(S.Proj1(arg, S.Span(1, 1)), S.Proj2(arg, S.Span(1, 1)), False)
    assert tuple(S.Proj1(arg)) == tuple(S.Proj2(arg))


def test_repr_reads_as_before():
    assert repr(S.Var("x", S.Span(3, 4))) == "Var(name='x')"
    assert repr(Stuck("division-by-zero")) == "Stuck(reason='division-by-zero')"
    assert repr(FuelExhausted(3)) == "FuelExhausted(steps=3, budget='steps')"
    ctx = S.EMPTY_MODAL.with_value("x", S.INT)
    assert repr(ctx) == "ModalContext((ValBind(name='x', type=BaseT(name='int')),))"


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


def test_a_span_field_must_come_last():
    # `==`, `hash` and `repr` leave out the last field when it is `span`.
    with pytest.raises(TypeError, match="'span' must come last"):
        record(type("Early", (Record,), {"__annotations__": {"span": int, "value": int}}))


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


MODULES = ("syntax", "evaluator", "parser", "typecheck", "corpus", "cli")


def _record_classes():
    """Every class that `record()` made in the package's modules."""
    found = []
    for name in MODULES:
        module = importlib.import_module(f"ecmtt.{name}")
        for obj in vars(module).values():
            made = isinstance(obj, type) and issubclass(obj, Record) and "__match_args__" in vars(obj)
            if made and obj.__module__ == module.__name__:
                found.append(obj)
    return found


# The defaults that the package's record bodies give, other than `span = None`.
DEFAULTS = {"EffectContext": ((),), "HSeq": ((),), "FuelExhausted": ("steps",), "Trace": (0,), "TypeErrorExpected": (None,)}


def test_every_constructor_is_the_one_a_per_class_source_compiles_to():
    classes = _record_classes()
    assert len(classes) == 51
    for cls in classes:
        names = cls.__match_args__
        new = cls.__new__
        made = f"_new(cls, ({''.join(f'{f}, ' for f in names)}))"
        if hasattr(cls, "__post_init__"):
            source = f"\n    self = {made}\n    self.__post_init__()\n    return self"
        else:
            source = f" return {made}"
        namespace: dict = {}
        exec(f"def __new__(cls, {', '.join(names)}):{source}", {}, namespace)
        expected = namespace["__new__"].__code__
        for part in ("co_code", "co_consts", "co_names", "co_varnames", "co_argcount"):
            assert getattr(new.__code__, part) == getattr(expected, part), (cls, part)
        # Each field's reader has taken the place of its default in the
        # class, so the defaults are compared with those of the bodies.
        defaults = DEFAULTS.get(cls.__qualname__, (None,) if names[-1:] == ("span",) else None)
        assert new.__defaults__ == defaults, cls
        assert new.__qualname__ == f"{cls.__qualname__}.__new__"
        # The record is the tuple of its fields, each read by position.
        node = cls(**{f: S.EffectContext(()) if f == "theory" else object() for f in names})
        assert type(node) is cls and tuple(node) == tuple(getattr(node, f) for f in names)


def test_keyword_construction_of_every_field_round_trips_through_replace():
    for cls in _record_classes():
        # Every `__post_init__` checks a `theory`; any other value will do.
        values = {f: S.EffectContext(()) if f == "theory" else object() for f in cls.__match_args__}
        made = cls(**values)
        copy = made.replace()
        assert type(copy) is cls
        for f, value in values.items():
            assert getattr(made, f) is value and getattr(copy, f) is value, (cls, f)
        for f in values:
            changed = made.replace(**{f: values[f]})
            assert all(getattr(changed, g) is values[g] for g in values), (cls, f)


def test_fields_named_like_the_placeholders_keep_their_own_values():
    @record
    class Swapped(Record):
        a1: int
        a0: int = 0

    both = Swapped(1, 2)
    assert (both.a1, both.a0) == (1, 2) == tuple(both) and vars(both) == {}
    assert Swapped(a0=5, a1=6).replace(a1=7) == Swapped(7, 5)
    assert Swapped(3).a0 == 0 and repr(Swapped(3)).endswith("Swapped(a1=3, a0=0)")


def test_a_new_shape_is_compiled_once_and_shared(monkeypatch):
    # No record of the package has nine fields.
    sources = []
    real = exec
    monkeypatch.setattr("builtins.exec", lambda source, *args: sources.append(source) or real(source, *args))

    def nine(prefix: str) -> type:
        return record(type(prefix, (Record,), {"__annotations__": {f"{prefix}{i}": int for i in range(9)}}))

    first, second = nine("p"), nine("q")
    assert len(sources) == 1 and first.__new__ is not second.__new__
    assert {f"p{i}": getattr(first(*range(9)), f"p{i}") for i in range(9)} == {f"p{i}": i for i in range(9)}
    assert {f"q{i}": getattr(second(*range(9)), f"q{i}") for i in range(9)} == {f"q{i}": i for i in range(9)}
    with pytest.raises(TypeError) as info:
        first(*range(8))
    assert str(info.value) == "p.__new__() missing 1 required positional argument: 'p8'"


@pytest.mark.parametrize("name", ["cls", "self", "_new"])
def test_a_field_may_not_take_a_name_the_constructor_uses(name):
    with pytest.raises(TypeError, match=f"Clash.*{name!r}"):
        record(type("Clash", (Record,), {"__annotations__": {"value": int, name: int}}))


@pytest.mark.parametrize(
    "modules",
    [("ecmtt.cli",), ("ecmtt.parser", "ecmtt.typecheck", "ecmtt.evaluator", "ecmtt.subst", "ecmtt.syntax", "ecmtt.pretty")],
    ids=["cli", "layers"],
)
def test_an_import_compiles_one_constructor_per_shape(modules):
    # A shape is a number of fields and whether the class has a
    # `__post_init__`; the package's 51 record classes have 10 shapes.
    code = (
        "import builtins, sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "sources = []\n"
        "real = builtins.exec\n"
        "def counting(source, *args, **kwargs):\n"
        "    if isinstance(source, str):\n"
        "        sources.append(source)\n"
        "    return real(source, *args, **kwargs)\n"
        "builtins.exec = counting\n"
        f"import {', '.join(modules)}\n"
        "from ecmtt.record import Record\n"
        "classes, todo = [], Record.__subclasses__()\n"
        "while todo:\n"
        "    cls = todo.pop()\n"
        "    todo.extend(cls.__subclasses__())\n"
        "    if '__match_args__' in vars(cls):  # made by `@record`\n"
        "        classes.append(cls)\n"
        "shapes = {(len(c.__match_args__), hasattr(c, '__post_init__')) for c in set(classes)}\n"
        "print(len(sources), len(shapes), len(set(classes)))\n"
    )
    done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    compiled, shapes, classes = map(int, done.stdout.split())
    assert compiled == shapes < classes


# The classes whose `__post_init__` checks that a context is a theory.
CHECKED = {"BoxT", "ModalBind", "BoxTerm", "Fix", "Handler"}


def _sample(cls: type) -> Record:
    """A record of `cls` whose fields hold distinct objects, a span where it
    has one and the empty theory where it checks one."""
    values = [S.EMPTY_THEORY if f == "theory" else object() for f in cls.fields()]
    if cls.fields()[-1:] == ("span",):
        values[-1] = S.Span(2, 3, 4)
    return cls(*values)


def test_the_builder_makes_what_the_constructor_makes():
    classes = _record_classes()
    assert {cls.__name__ for cls in classes if hasattr(cls, "__post_init__")} == CHECKED
    for cls in classes:
        node = _sample(cls)
        for fields in (tuple(node), list(node), node):
            made = cls._make(fields)
            assert type(made) is cls and made == node and repr(made) == repr(node), cls
            assert tuple(made) == tuple(node), cls
            if "span" in cls.fields():
                assert made.span == node.span == S.Span(2, 3, 4), cls
    # A class without a check is built in one C call.
    assert isinstance(S.Var._make, functools.partial) and S.Var._make.args == (S.Var,)


@pytest.mark.parametrize("name", sorted(CHECKED))
def test_the_builder_checks_the_theory_as_the_constructor_does(name):
    cls = next(c for c in _record_classes() if c.__name__ == name)
    get = S.OpDecl("get", S.UNIT, S.INT)
    twice = S.EffectContext((get, get))
    fields = [twice if f == "theory" else object() for f in cls.fields()]
    with pytest.raises(ValueError) as by_constructor:
        cls(*fields)
    with pytest.raises(ValueError) as by_builder:
        cls._make(fields)
    assert str(by_builder.value) == str(by_constructor.value)
    assert "get" in str(by_builder.value)
    assert any(entry.name == "__post_init__" for entry in by_builder.traceback)
