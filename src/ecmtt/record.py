"""Frozen records: immutable classes made from their field annotations.

`@record` gives a subclass of `Record` its fields, the names its own body
annotates, in order, as `__match_args__`, and one generated `__init__`
that stores each with `object.__setattr__` and then calls the class's
`__post_init__`, if any.  Fields with defaults, from the body, come last.
One shape, a number of fields and whether there is a `__post_init__`, is
compiled once, as a template whose placeholder names `a0`, `a1`, ... each
class renames to its fields: 10 compiles make the package's 51 records.
Everything else is shared.  A field named `span`, a source position, is
carried by the constructor and `replace` but left out of `==`, `hash`
and `repr`; `repr` reads as a dataclass's does: `Var(name='x')`.
"""

from __future__ import annotations

from operator import attrgetter
from types import CodeType, FunctionType
from typing import Callable

# The one global of the generated constructors.
_INIT_GLOBALS = {"_set": object.__setattr__}
# The template of each shape: (number of fields, has `__post_init__`).
_TEMPLATES: dict[tuple[int, bool], CodeType] = {}


def _template(count: int, post_init: bool) -> CodeType:
    slots = [f"a{i}" for i in range(count)]
    body = [f"\n    _set(self, {f!r}, {f})" for f in slots]
    if post_init:
        body.append("\n    self.__post_init__()")
    namespace: dict = {}
    exec(f"def __init__(self, {', '.join(slots)}):{''.join(body) or ' pass'}", _INIT_GLOBALS, namespace)
    return namespace["__init__"].__code__


def reader(names: tuple[str, ...]) -> Callable[[object], tuple]:
    """A function from an object to the tuple of its named attributes."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(names[0])
        return lambda obj: (get(obj),)
    return lambda obj: ()


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


class Record:
    """The methods every record shares."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    # The fields that `==`, `hash` and `repr` see, and a reader of their values.
    _compared: tuple[str, ...] = ()
    _key = staticmethod(reader(()))
    __dataclass_fields__ = _DataclassFields()

    @classmethod
    def fields(cls) -> tuple[str, ...]:
        """Every field, in constructor order."""
        return cls.__match_args__

    def replace(self, **changes: object) -> Record:
        """A copy with the given fields changed and the others, `span`
        included, kept."""
        cls = type(self)
        return cls(**{**{f: getattr(self, f) for f in cls.__match_args__}, **changes})

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(self._compared, self._key(self)))
        return f"{type(self).__qualname__}({shown})"

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
    if taken := sorted({"self", "_set"} & set(names)):
        raise TypeError(f"{cls.__qualname__}: the constructor uses the name {taken[0]!r} for itself")
    shape = (len(names), hasattr(cls, "__post_init__"))
    if shape not in _TEMPLATES:
        _TEMPLATES[shape] = _template(*shape)
    code = _TEMPLATES[shape]
    slots = dict(zip(code.co_varnames[1:], names))
    consts = tuple(slots.get(c, c) for c in code.co_consts)
    code = code.replace(co_varnames=("self", *names), co_consts=consts)
    cls.__init__ = FunctionType(code, _INIT_GLOBALS, "__init__", defaults or None)
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__match_args__ = names
    cls._compared = tuple(f for f in names if f != "span")
    cls._key = staticmethod(reader(cls._compared))
    return cls
