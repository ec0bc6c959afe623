"""Frozen records: immutable tuples made from their field annotations.

A record is the tuple of its fields.  `@record` gives a subclass of
`Record` its fields, the names its own body annotates, in order, as
`__match_args__`; a C reader per field, as `collections.namedtuple` gives
its classes; and one generated `__new__` that builds the tuple with
`tuple.__new__` and then calls the class's `__post_init__`, if any.
Fields with defaults, from the body, come last.  One shape, a number of
fields and whether there is a `__post_init__`, is compiled once, as a
template whose placeholder names `a0`, `a1`, ... each class renames to its
fields: 10 compiles make the package's 51 records.  A field named `span`,
a source position, comes last: the constructor and `replace` carry it,
and `==`, `hash` and `repr` leave it out; `repr` reads as a dataclass's
does: `Var(name='x')`.  A value cached on a node, such as its free names,
lives in the instance `__dict__`, outside the tuple.

`cls._make(fields)`, named as in `namedtuple`, builds what `cls(*fields)`
does from one sequence of every field value, unchecked: one C call,
`partial(tuple.__new__, cls)`, or `Record._make` for the five classes with a
`__post_init__`, which it runs.  A node costs about 520 ns built with `span=`
(a dict of keywords and a Python `__new__` frame), 350 ns positionally and
200 ns by `_make` (CPython 3.11); the walks and the parser use `_make`.
"""

from __future__ import annotations

from collections import _tuplegetter
from functools import partial
from types import CodeType, FunctionType
from typing import Iterable

# The one global of the generated constructors.
_NEW_GLOBALS = {"_new": tuple.__new__}
# The template of each shape: (number of fields, has `__post_init__`).
_TEMPLATES: dict[tuple[int, bool], CodeType] = {}


def _template(count: int, post_init: bool) -> CodeType:
    slots = [f"a{i}" for i in range(count)]
    made = f"_new(cls, ({''.join(f'{f}, ' for f in slots)}))"
    body = f"\n    self = {made}\n    self.__post_init__()\n    return self" if post_init else f" return {made}"
    namespace: dict = {}
    exec(f"def __new__(cls, {', '.join(slots)}):{body}", _NEW_GLOBALS, namespace)
    return namespace["__new__"].__code__


class _DataclassFields(dict):
    """Each record class's `__dataclass_fields__`, taken on first use from a
    dataclass of the same fields, so that `dataclasses.fields`, `replace`
    and `astuple` still read records and only their callers import
    `dataclasses`."""

    def __get__(self, obj: object, cls: type) -> dict:
        if cls not in self:
            import dataclasses

            made = dataclasses.make_dataclass(cls.__name__, cls.__match_args__)
            self[cls] = made.__dataclass_fields__
        return self[cls]


class Record(tuple):
    """The methods every record shares."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    # The positions that `==`, `hash` and `repr` see: all but a `span`.
    _compared = slice(0)
    __dataclass_fields__ = _DataclassFields()

    @classmethod
    def _make(cls, fields: Iterable) -> Record:
        self = tuple.__new__(cls, fields)
        self.__post_init__()
        return self

    @classmethod
    def fields(cls) -> tuple[str, ...]:
        """Every field, in constructor order."""
        return cls.__match_args__

    def replace(self, **changes: object) -> Record:
        """A copy with the given fields changed and the others, `span`
        included, kept."""
        cls = type(self)
        return cls(**{**dict(zip(cls.__match_args__, self)), **changes})

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            cut = self._compared
            return self[cut] == other[cut]
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        # `tuple.__ne__` would compare spans and ignore the class.
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __hash__(self) -> int:
        return hash(self[self._compared])

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(self.__match_args__, self[self._compared]))
        return f"{type(self).__qualname__}({shown})"

    def __getnewargs__(self) -> tuple:
        # So that `copy` and `pickle` rebuild it through `__new__`.
        return tuple(self)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a record")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a record")


def record(cls: type) -> type:
    """Make `cls`, a subclass of `Record`, a record of its annotated fields."""
    if not issubclass(cls, Record):
        raise TypeError(f"{cls.__qualname__} is not a subclass of Record")
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = tuple(cls.__dict__[f] for f in names if f in cls.__dict__)
    if any(f in cls.__dict__ for f in names[: len(names) - len(defaults)]):
        raise TypeError(f"{cls.__qualname__}: a field without a default follows one with a default")
    if taken := sorted({"cls", "self", "_new"} & set(names)):
        raise TypeError(f"{cls.__qualname__}: the constructor uses the name {taken[0]!r} for itself")
    if "span" in names[:-1]:
        raise TypeError(f"{cls.__qualname__}: the field 'span' must come last")
    shape = (len(names), hasattr(cls, "__post_init__"))
    if shape not in _TEMPLATES:
        _TEMPLATES[shape] = _template(*shape)
    code = _TEMPLATES[shape]
    slots = dict(zip(code.co_varnames[1:], names))
    code = code.replace(co_varnames=tuple(slots.get(v, v) for v in code.co_varnames))
    new = FunctionType(code, _NEW_GLOBALS, "__new__", defaults or None)
    new.__qualname__ = f"{cls.__qualname__}.__new__"
    cls.__new__ = staticmethod(new)
    if not shape[1]:  # a partial is no descriptor: `staticmethod` would only cost import time
        cls._make = partial(tuple.__new__, cls)
    for i, f in enumerate(names):
        setattr(cls, f, _tuplegetter(i, f"Field {i} of {cls.__qualname__}."))
    cls.__match_args__ = names
    cls._compared = slice(len(names) - (names[-1:] == ("span",)))
    return cls
