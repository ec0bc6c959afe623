"""The node schema: one row per node class, naming only that class's fields.

Every tree walk of the engine (`free_vars`, `alpha_equal`, `norm`, `sub`,
renaming and the congruences of the substitutions) reads
`syntax.SCHEMA`, so a class without a row, or a row that misses a child or
a binder, would go wrong deep inside a walk.  These checks catch that here.
"""

import inspect
import typing

import pytest

from ecmtt import subst
from ecmtt import syntax as S
from ecmtt.parser import parse_term, parse_type
from ecmtt.pretty import type_text
from ecmtt.subst import _BUILD, _SMART
from ecmtt.typecheck import infer_term

NAMESPACES = {S.VALUES, S.MODALS, S.CONTS}


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

# Each twin class in each of its two categories, written so that its last
# part has that category.
TWIN_TEXTS = {
    (S.LetBox, S.Expr): "let box u = b in f(2)",
    (S.LetBox, S.Comp): "let box u = b in f(1); ret 1",
    (S.Fix, S.Expr): "let fix f(n:int):[{}]int = ret n in f 1",
    (S.Fix, S.Comp): "let fix f(n:int):[{}]int = ret n in ret (f 1)",
    (S.If, S.Expr): "if c then f(1) else g(2)",
    (S.If, S.Comp): "if c then f(1) else g(2); ret 3",
}

# One case per class, and one per category of a twin, named after its
# class with `E` or `C` added.
CASES = [
    pytest.param(cls, cat, id=cls.__name__ + (cat.__name__[0] if cat else ""))
    for cls in NODES
    for cat in ((S.Expr, S.Comp) if issubclass(cls, S.Twin) else (None,))
]


def twin(cls: type, cat: type) -> S.Twin:
    """A parsed twin of class `cls` whose last part, not itself a twin, is
    of category `cat`."""
    t = parse_term(TWIN_TEXTS[cls, cat])
    assert type(t) is cls
    assert isinstance(S.last_part(t), cat) and not isinstance(S.last_part(t), S.Twin)
    return t


def holds_terms(tp) -> bool:
    """Whether a field of this annotated type holds a subterm or a tuple of
    them; a union holds one when each of its members does."""
    if typing.get_origin(tp) is tuple:
        return holds_terms(typing.get_args(tp)[0])
    if typing.get_origin(tp) is typing.Union:
        return all(map(holds_terms, typing.get_args(tp)))
    return isinstance(tp, type) and tp in node_classes() | {S.Expr, S.Comp, S.Stmt}


def test_every_node_class_has_exactly_one_row():
    assert len(S.ROWS) == len(S.SCHEMA)
    assert set(S.SCHEMA) == node_classes()
    assert len(S.SCHEMA) == 28


@pytest.mark.parametrize("cls, cat", CASES)
def test_each_row_names_its_own_fields(cls, cat):
    row = S.SCHEMA[cls]
    names = list(cls.fields())
    hints = typing.get_type_hints(cls)
    if cat is not None:
        # A twin's last part is one child, no tuple, that admits this
        # category.
        t = twin(cls, cat)
        last = [n for n in row.children if S.last_part(getattr(t, n)) is S.last_part(t)]
        assert len(last) == 1 and last[0] not in row.tuples
        assert cat in typing.get_args(hints[last[0]])
    assert row.fields == tuple(names)
    # The children are exactly the fields that hold subterms, and the
    # tuples exactly those that hold a tuple of them.
    assert set(row.children) == {n for n in names if holds_terms(hints[n])}
    assert len(set(row.children)) == len(row.children)
    assert set(row.tuples) == {n for n in row.children if typing.get_origin(hints[n]) is tuple}
    # Names are strings in one namespace.
    for f, ns in row.uses:
        assert f in names and ns in NAMESPACES and hints[f] is str
    for f, ns, scope in row.binds:
        assert f in names and ns in NAMESPACES and hints[f] is str
        # A binder scopes over children of its own class, and no tuple.
        assert scope and set(scope) <= set(row.children) - set(row.tuples)
    # Everything else is data, which alpha-equivalence compares as it is:
    # operation names and theories too, since they are never renamed.
    renamed = {f for f, _ in row.uses} | {f for f, _, _ in row.binds}
    assert set(row.data) == set(names) - set(row.children) - renamed - {"span"}


@pytest.mark.parametrize("cls, cat", CASES)
def test_each_class_is_rebuilt_from_its_fields_in_order(cls, cat):
    # The walks rebuild a node by calling its class's builder, `_make` or
    # the smart constructor of the class, with one list of the field values
    # in `Row.fields` order.  A node whose fields hold distinct objects
    # folds nothing, so each field comes back in place, span included.
    build = _BUILD[cls]
    assert build == _SMART.get(cls, cls._make)
    names = S.SCHEMA[cls].fields
    if cls in _SMART:
        mk = getattr(subst, "mk_" + cls.__name__.lower())
        assert list(inspect.signature(mk).parameters) == list(names)
    node = built(cls, span=S.Span(1, 2, 3)) if "span" in names else built(cls)
    out = build([getattr(node, n) for n in names])
    assert type(out) is cls and all(getattr(out, n) is getattr(node, n) for n in names)
    if cat is not None:
        # A twin rebuilt from its fields keeps its class and its category.
        t = twin(cls, cat)
        out = build([getattr(t, n) for n in names])
        assert type(out) is cls and out == t and isinstance(S.last_part(out), cat)


def smart_inputs(span: S.Span) -> dict[type, tuple[list, list]]:
    """For each class with a smart constructor, the field values of a node
    that folds and of one that does not."""
    one, two = S.IntLit(1), S.IntLit(2)
    x, y = S.Var("x"), S.Var("y")
    return {
        S.Arith: (["+", one, two, span], ["+", x, two, span]),
        S.Cmp: (["<", one, two, span], ["<", one, x, span]),
        S.Proj1: ([S.Pair(one, two), span], [x, span]),
        S.Proj2: ([S.Pair(one, two), span], [x, span]),
        S.Append: ([S.ListE((one,)), S.ListE((two,)), span], [S.ListE((one,)), x, span]),
        S.If: ([S.BoolLit(False), x, y, span], [x, x, y, span]),
    }


@pytest.mark.parametrize("cls", sorted(_SMART, key=lambda cls: cls.__name__), ids=lambda cls: cls.__name__)
def test_a_smart_builder_reads_a_sequence_as_its_mk_reads_arguments(cls):
    # `_BUILD[cls]` takes the field values as one sequence, a list from a
    # walk or the node itself from the stepper, and builds what `mk_*`
    # builds from them one by one, span included.
    mk = getattr(subst, "mk_" + cls.__name__.lower())
    span = S.Span(4, 5, 6)
    folding, plain = smart_inputs(span)[cls]
    for fields, folds in ((folding, True), (plain, False)):
        expected = mk(*fields)
        assert (type(expected) is not cls) == folds
        for given in (list(fields), cls._make(fields)):
            out = _BUILD[cls](given)
            assert type(out) is type(expected) and out == expected and out.span == expected.span
            if not folds:
                assert out is not given and all(a is b for a, b in zip(out, fields))


# The tails of each computation but `ret`: the children its result comes from.
TAILS = {S.Bind: ("rest",), S.LetBox: ("body",), S.Fix: ("scope",), S.If: ("then", "els")}


def built(cls: type, **given) -> S.Term:
    """A node of class `cls` whose fields hold distinct objects, or the
    values given; every `__post_init__` checks a theory."""
    values = {f: S.EMPTY_THEORY if f == "theory" else object() for f in cls.fields()}
    return cls(**{**values, **given})


def test_exactly_the_computations_with_a_tail_declare_their_tails():
    assert {row.cls: row.tails for row in S.ROWS if row.tails} == TAILS
    for row in S.ROWS:
        assert set(row.tails) <= set(row.children) - set(row.tuples), row.cls.__name__
        assert row.tail_at == tuple(row.fields.index(f) for f in row.tails), row.cls.__name__


@pytest.mark.parametrize("cls", NODES, ids=lambda cls: cls.__name__)
def test_each_row_reads_a_node_s_field_values_in_order(cls):
    # A node is the tuple of its field values in `Row.fields` order, and
    # the row's positions point at the fields it names.
    row = S.SCHEMA[cls]
    node = built(cls)
    assert type(node) is cls and len(node) == len(row.fields)
    assert all(a is getattr(node, f) for a, f in zip(node, row.fields))
    at = row.fields.index
    assert row.kids == tuple((at(c), c, c in row.tuples) for c in row.children)
    assert row.kid_at == tuple(i for i, _, _ in row.kids)
    assert row.use_at == tuple((at(f), ns) for f, ns in row.uses)
    assert row.bind_at == tuple((at(f), ns, tuple(map(at, scope))) for f, ns, scope in row.binds)
    for i, c, _ in row.kids:
        assert node[i] is getattr(node, c)
        assert row.over[i] == tuple((at(f), ns) for f, ns, scope in row.binds if c in scope)


@pytest.mark.parametrize("cls", [S.LetBox, S.Fix, S.If], ids=lambda cls: cls.__name__)
def test_the_last_part_of_a_twin_follows_its_last_tail(cls):
    last = S.SCHEMA[cls].tails[-1]
    leaf = S.Var("leaf")
    inner = built(cls, **{last: leaf})
    assert S.last_part(inner) is leaf
    # Down a chain of twins, and never into a tail before the last.
    outer = built(cls, **{**{tail: S.Var("other") for tail in S.SCHEMA[cls].tails}, last: inner})
    assert S.last_part(outer) is leaf
    assert S.last_part(leaf) is leaf


@pytest.mark.parametrize("word", sorted(S.TYPE_WORDS))
def test_each_type_word_parses_to_its_type_and_prints_back(word):
    assert parse_type(word) is S.TYPE_WORDS[word]
    assert type_text(S.TYPE_WORDS[word]) == word


def test_a_separately_built_base_type_is_the_same_type():
    term = S.App(S.Lam("x", S.BaseT("int"), S.Var("x")), S.IntLit(1))
    ty = infer_term(term)
    assert ty == S.INT and S.type_equal(ty, S.INT) and type_text(ty) == "int"
