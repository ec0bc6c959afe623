"""Frozen records: immutable classes made from their field annotations.

`@record` gives a subclass of `Record` its fields, the names its own body
annotates, in order, as `__match_args__`, and one generated `__init__`
that stores each with `object.__setattr__` and then calls the class's
`__post_init__`, if any.  Fields with defaults, from the body, come last.
Everything else is shared.  A field named `span`, a source position, is
carried by the constructor and `replace` but left out of `==`, `hash`
and `repr`; `repr` reads as a dataclass's does: `Var(name='x')`.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable

# The one global of the generated constructors.
_INIT_GLOBALS = {"_set": object.__setattr__}


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
    body = [f"\n    _set(self, {f!r}, {f})" for f in names]
    if hasattr(cls, "__post_init__"):
        body.append("\n    self.__post_init__()")
    namespace: dict = {}
    exec(f"def __init__(self, {', '.join(names)}):{''.join(body) or ' pass'}", _INIT_GLOBALS, namespace)
    cls.__init__ = namespace["__init__"]
    cls.__init__.__defaults__ = defaults or None
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__match_args__ = names
    cls._compared = tuple(f for f in names if f != "span")
    cls._key = staticmethod(reader(cls._compared))
    return cls
