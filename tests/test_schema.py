"""The node schema: one row per node class, naming only that class's fields.

Every tree walk of the engine (`free_vars`, `alpha_equal`, `norm`, `sub`,
renaming and the congruences of the substitutions) reads
`syntax.SCHEMA`, so a class without a row, or a row that misses a child or
a binder, would go wrong deep inside a walk.  These checks catch that here.
"""

import inspect
import typing

import pytest

from ecmtt import syntax as S
from ecmtt.subst import _BUILD

NAMESPACES = {S.VALUES, S.MODALS, S.OPS, S.CONTS}


def node_classes() -> set[type]:
    """Every concrete term class: the record subclasses of `Expr`,
    `Comp` and `Stmt`, the handler, the handling sequence and the three
    clause records."""
    out = {S.Handler, S.HSeq, S.OpClause, S.RetClause, S.HClause}
    stack = [S.Expr, S.Comp, S.Stmt]
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if "__match_args__" in vars(cls):  # made by `@record`
            out.add(cls)
    return out


NODES = sorted(node_classes(), key=lambda cls: cls.__name__)


def holds_terms(tp) -> bool:
    """Whether a field of this annotated type holds a subterm or a tuple of
    them."""
    if typing.get_origin(tp) is tuple:
        return holds_terms(typing.get_args(tp)[0])
    return isinstance(tp, type) and tp in node_classes() | {S.Expr, S.Comp, S.Stmt}


def test_every_node_class_has_exactly_one_row():
    assert len(S.ROWS) == len(S.SCHEMA)
    assert set(S.SCHEMA) == node_classes()
    assert len(S.SCHEMA) == 31


@pytest.mark.parametrize("cls", NODES, ids=lambda cls: cls.__name__)
def test_each_row_names_its_own_fields(cls):
    row = S.SCHEMA[cls]
    names = list(cls.fields())
    hints = typing.get_type_hints(cls)
    assert row.fields == tuple(names)
    # The children are exactly the fields that hold subterms, and the
    # tuples exactly those that hold a tuple of them.
    assert set(row.children) == {n for n in names if holds_terms(hints[n])}
    assert len(set(row.children)) == len(row.children)
    assert set(row.tuples) == {n for n in row.children if typing.get_origin(hints[n]) is tuple}
    # Names are strings in one namespace; an operations binder is a theory.
    for f, ns in row.uses:
        assert f in names and ns in NAMESPACES and hints[f] is str
    for f, ns, scope in row.binds:
        assert f in names and ns in NAMESPACES
        assert hints[f] is (S.EffectContext if ns == S.OPS else str)
        # A binder scopes over children of its own class, and no tuple.
        assert scope and set(scope) <= set(row.children) - set(row.tuples)
    # Everything else is data, which alpha-equivalence compares as it is;
    # a theory that binds operations is data too, since they are never
    # renamed.
    renamed = {f for f, _ in row.uses} | {f for f, ns, _ in row.binds if ns != S.OPS}
    assert set(row.data) == set(names) - set(row.children) - renamed - {"span"}


@pytest.mark.parametrize("cls", NODES, ids=lambda cls: cls.__name__)
def test_each_class_is_rebuilt_from_its_fields_in_order(cls):
    # The walks rebuild a node by calling its constructor, or the smart
    # constructor of its class, with the field values in `Row.fields` order.
    build = _BUILD[cls]
    assert build is cls or list(inspect.signature(build).parameters) == list(S.SCHEMA[cls].fields)
