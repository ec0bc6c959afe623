"""Kernel syntax: types, contexts, terms, and the basic operations on them.

A base type is a `BaseT` named by one of the four words of `TYPE_WORDS`:
`unit`, `int`, `bool`, and `bot`, the least type.

Terms come in five syntactic categories that reference each other: expressions
(pure), computations (effectful bodies), statements (the effectful heads of a
bind), handlers, and handling sequences.  `let box`, `let fix` and `if` are
one class each, a `Twin` of both the expression and the computation class,
whose category is that of its last part (`last_part`).  Three disjoint
namespaces of names are bound and renamed: value variables, modal variables
and continuation names.  Binding follows the term structure: ``fn`` and
binds of a statement bind value variables, ``let box`` binds a modal
variable, and a handler clause binds its continuation name over the clause
body.  Operation names are data, like the theories that declare them: the
typing rules resolve them against the theory in scope, and no walk renames
them.
Each term class has one row in `ROWS`, which declares its children,
names, binders and tails and gives their positions in the node, which is
the tuple of its field values; every walk reads the rows.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Union

from .record import Record, record


class Span(NamedTuple):
    """A source position; the parser makes one per node, so it is a tuple."""

    line: int
    col: int
    length: int = 0

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


# ---------------------------------------------------------------------------
# Types


class Type(Record):
    def __str__(self) -> str:
        from .pretty import type_text

        return type_text(self)


@record
class BaseT(Type):
    name: str


@record
class ProdT(Type):
    left: Type
    right: Type


@record
class ListT(Type):
    elem: Type


@record
class ArrowT(Type):
    dom: Type
    cod: Type


@record
class BoxT(Type):
    theory: "EffectContext"
    body: Type

    def __post_init__(self) -> None:
        _check_theory(self.theory, "box type")


UNIT = BaseT("unit")
INT = BaseT("int")
BOOL = BaseT("bool")
BOTTOM = BaseT("bot")

# The types written as one keyword, and the type operators by level: a
# higher level binds tighter, both group to the right, and the `list` and
# box prefixes bind tighter still.  `->` builds an `ArrowT`, `*` a `ProdT`.
TYPE_WORDS = {"unit": UNIT, "int": INT, "bool": BOOL, "bot": BOTTOM}
TYPE_BINARY = {"->": 1, "*": 2}


# ---------------------------------------------------------------------------
# Effect contexts and theories


@record
class OpDecl(Record):
    name: str
    in_type: Type
    out_type: Type


@record
class ContDecl(Record):
    name: str
    in_type: Type
    state_type: Type
    out_type: Type


@record
class EffectContext(Record):
    """A sequence of operation and continuation declarations.

    An *algebraic theory* is the special case containing operations only;
    box annotations and handler ascriptions must be theories.  Lookup is
    innermost-first (later entries shadow earlier ones of the same name).
    """

    entries: tuple[Union[OpDecl, ContDecl], ...] = ()

    def lookup_op(self, name: str) -> Optional[OpDecl]:
        for entry in reversed(self.entries):
            if isinstance(entry, OpDecl) and entry.name == name:
                return entry
        return None

    def lookup_cont(self, name: str) -> Optional[ContDecl]:
        for entry in reversed(self.entries):
            if isinstance(entry, ContDecl) and entry.name == name:
                return entry
        return None

    @property
    def ops(self) -> tuple[OpDecl, ...]:
        return tuple(e for e in self.entries if isinstance(e, OpDecl))

    def op_names(self) -> frozenset[str]:
        return frozenset(e.name for e in self.entries if isinstance(e, OpDecl))

    def is_theory(self) -> bool:
        return all(isinstance(e, OpDecl) for e in self.entries)

    def with_cont(self, decl: ContDecl) -> EffectContext:
        return EffectContext(self.entries + (decl,))


EMPTY_THEORY = EffectContext()


def make_theory(ops: Iterable[OpDecl]) -> EffectContext:
    """Build a theory, rejecting a malformed one (`_check_theory`)."""
    theory = EffectContext(tuple(ops))
    _check_theory(theory, "theory")
    return theory


def _check_theory(th: EffectContext, where: str) -> None:
    """Well-formedness: operations only, each name declared once."""
    # Nodes built from already-checked nodes pass the same context again, so
    # a context that passed is marked, outside its record fields.
    if getattr(th, "_theory_ok", False):
        return
    if not th.is_theory():
        raise ValueError(f"{where} must be an algebraic theory (operations only)")
    seen: set[str] = set()
    for op in th.entries:
        if op.name in seen:
            raise ValueError(f"duplicate operation {op.name!r} in {where}")
        seen.add(op.name)
    object.__setattr__(th, "_theory_ok", True)


# ---------------------------------------------------------------------------
# Modal contexts


@record
class ValBind(Record):
    name: str
    type: Type


@record
class ModalBind(Record):
    name: str
    type: Type
    theory: EffectContext

    def __post_init__(self) -> None:
        _check_theory(self.theory, "modal binding theory")


class ModalContext:
    """The value and modal bindings in scope.  A context is its innermost
    binding linked to the context it extends, so a binder costs O(1) and a
    lookup walks outwards from the innermost binding, which wins.  Contexts
    compare by identity."""

    __slots__ = ("entry", "parent")

    def __init__(
        self, entry: Optional[Union[ValBind, ModalBind]] = None, parent: Optional[ModalContext] = None
    ):
        self.entry = entry
        self.parent = parent

    @property
    def entries(self) -> tuple[Union[ValBind, ModalBind], ...]:
        """The bindings, outermost first."""
        out = []
        ctx = self
        while ctx.entry is not None:
            out.append(ctx.entry)
            ctx = ctx.parent
        return tuple(reversed(out))

    def __repr__(self) -> str:
        return f"ModalContext({self.entries!r})"

    def lookup_value(self, name: str) -> Optional[ValBind]:
        ctx = self
        while ctx.entry is not None:
            entry = ctx.entry
            if isinstance(entry, ValBind) and entry.name == name:
                return entry
            ctx = ctx.parent
        return None

    def lookup_modal(self, name: str) -> Optional[ModalBind]:
        ctx = self
        while ctx.entry is not None:
            entry = ctx.entry
            if isinstance(entry, ModalBind) and entry.name == name:
                return entry
            ctx = ctx.parent
        return None

    def with_value(self, name: str, ty: Type) -> ModalContext:
        return ModalContext(ValBind(name, ty), self)

    def with_modal(self, name: str, ty: Type, theory: EffectContext) -> ModalContext:
        return ModalContext(ModalBind(name, ty, theory), self)


EMPTY_MODAL = ModalContext()


# ---------------------------------------------------------------------------
# Terms


class _Node(Record):
    """A term of any category; it prints as surface syntax."""

    def __str__(self) -> str:
        from .pretty import pretty

        return pretty(self)


class Expr(_Node):
    pass


class Comp(_Node):
    pass


class Stmt(_Node):
    pass


@record
class Var(Expr):
    name: str
    span: Optional[Span] = None


@record
class Lam(Expr):
    param: str
    annot: Type
    body: Expr
    span: Optional[Span] = None


@record
class App(Expr):
    fn: Expr
    arg: Expr
    span: Optional[Span] = None


@record
class BoxTerm(Expr):
    theory: EffectContext
    body: Comp
    span: Optional[Span] = None

    def __post_init__(self) -> None:
        _check_theory(self.theory, "box annotation")


class Twin(Expr, Comp):
    """`let box`, `let fix` or `if`: a form whose typing and reduction are
    the same in both categories, and whose category is its last part's
    (`last_part`)."""


@record
class LetBox(Twin):
    uvar: str
    bound: Expr
    body: Union[Expr, Comp]
    span: Optional[Span] = None


@record
class EvalTerm(Expr):
    hseq: "HSeq"
    uvar: str
    span: Optional[Span] = None


@record
class Fix(Twin):
    fname: str
    param: str
    annot: Type
    theory: EffectContext
    ret_type: Type
    rec_body: Comp
    scope: Union[Expr, Comp]
    span: Optional[Span] = None

    def __post_init__(self) -> None:
        _check_theory(self.theory, "fix annotation")


@record
class IntLit(Expr):
    value: int
    span: Optional[Span] = None


# CPython converts at most a few thousand digits between int and str at once
# (a process-wide limit), so a longer number is split at a power of ten.


def int_text(n: int) -> str:
    """The decimal text of `n`, however many digits it has."""
    try:
        return str(n)
    except ValueError:
        k = n.bit_length() * 3 // 20  # about half the digits
        high, low = divmod(abs(n), 10**k)
        return ("-" if n < 0 else "") + int_text(high) + int_text(low).zfill(k)


def int_of_text(digits: str) -> int:
    """The value of a string of decimal digits, however long."""
    try:
        return int(digits)
    except ValueError:
        if len(digits) < 2:
            raise
        k = len(digits) // 2
        return int_of_text(digits[:-k]) * 10**k + int_of_text(digits[-k:])


@record
class BoolLit(Expr):
    value: bool
    span: Optional[Span] = None


@record
class UnitLit(Expr):
    span: Optional[Span] = None


@record
class Pair(Expr):
    left: Expr
    right: Expr
    span: Optional[Span] = None


@record
class Proj1(Expr):
    arg: Expr
    span: Optional[Span] = None


@record
class Proj2(Expr):
    arg: Expr
    span: Optional[Span] = None


@record
class ListE(Expr):
    elems: tuple[Expr, ...]
    span: Optional[Span] = None


@record
class Append(Expr):
    left: Expr
    right: Expr
    span: Optional[Span] = None


@record
class Arith(Expr):
    op: str  # one of + - * /
    left: Expr
    right: Expr
    span: Optional[Span] = None


@record
class Cmp(Expr):
    op: str  # one of = <
    left: Expr
    right: Expr
    span: Optional[Span] = None


# The binary operators by level: a higher level binds tighter, every level
# groups to the left, and a comparison (level 1) takes one operator only.
# `++` builds an `Append`, `=` and `<` a `Cmp`, the rest an `Arith`.
BINARY = {"=": 1, "<": 1, "++": 2, "+": 2, "-": 2, "*": 3, "/": 3}


@record
class If(Twin):
    cond: Expr
    then: Union[Expr, Comp]
    els: Union[Expr, Comp]
    span: Optional[Span] = None


@record
class Ret(Comp):
    value: Expr
    span: Optional[Span] = None


@record
class Bind(Comp):
    stmt: Stmt
    var: str
    rest: Comp
    span: Optional[Span] = None


@record
class OpCall(Stmt):
    op: str
    arg: Expr
    span: Optional[Span] = None


@record
class ContCall(Stmt):
    kname: str
    arg: Expr
    state: Expr
    span: Optional[Span] = None


@record
class OpClause(Record):
    op: str
    x: str
    k: str
    z: str
    body: Comp


@record
class RetClause(Record):
    x: str
    z: str
    body: Comp


@record
class Handler(_Node):
    theory: EffectContext
    op_clauses: tuple[OpClause, ...]
    ret_clause: RetClause
    span: Optional[Span] = None

    def __post_init__(self) -> None:
        _check_theory(self.theory, "handler ascription")

    def clause_for(self, op: str) -> Optional[OpClause]:
        for clause in self.op_clauses:
            if clause.op == op:
                return clause
        return None


@record
class HClause(Record):
    handler: Handler
    init: Expr
    var: str
    body: Comp


@record
class HSeq(_Node):
    clauses: tuple[HClause, ...] = ()


@record
class Handle(Stmt):
    uvar: str
    hseq: HSeq
    handler: Handler
    init: Expr
    span: Optional[Span] = None


EMPTY_HSEQ = HSeq()

Term = Union[Expr, Comp, Stmt, Handler, HSeq]


def last_part(t: Term) -> Term:
    """The node whose class gives `t` its category: `t` itself, or, down a
    chain of twins, the last tail (`Row.tails`) that is not a twin."""
    while isinstance(t, Twin):
        t = t[SCHEMA[type(t)].tail_at[-1]]
    return t


# ---------------------------------------------------------------------------
# The node schema

# The three namespaces, named as the fields of `FreeVars`.
VALUES, MODALS, CONTS = "values", "modals", "conts"


class Row:
    """How one node class holds subterms and names.

    `children` are the fields that hold subterms, in the order a walk visits
    them, and `tuples` those of them that hold a tuple of subterms.  `uses`
    are the fields that name a free occurrence, each with its namespace.
    `binds` are the binding fields, each with its namespace and the children
    it scopes over, in the order a walk renames them.  `tails` are the
    children of a computation but `ret` that its result comes from, the last
    of them its last part when it is a twin.  Every other field is data:
    operation names and theories too, since no walk renames them.

    A node is the tuple of its field values, so the walks read it, and
    rebuild it, by position.  The rest is derived from the fields above and
    the record, as positions in `fields`, every field in constructor order
    (span included): `kids`, each child's position, name and whether it
    holds a tuple; `kid_at`, `tail_at` and `use_at`, the positions of the
    children, the tails and the uses (each with its namespace); `bind_at`,
    each binder's position, namespace and the positions of the children it
    scopes over; `over`, the binders (position and namespace) scoping over
    the child at each position; and `data`, the fields that are neither
    children, names nor the span.
    """

    __slots__ = (
        "cls", "children", "tuples", "uses", "binds", "tails", "fields",
        "kids", "kid_at", "tail_at", "use_at", "bind_at", "over", "data",
    )

    def __init__(self, cls: type, children=(), tuples=(), uses=(), binds=(), tails=()):
        self.cls = cls
        self.children: tuple[str, ...] = children
        self.tuples: tuple[str, ...] = tuples
        self.uses: tuple[tuple[str, str], ...] = uses
        self.binds: tuple[tuple[str, str, tuple[str, ...]], ...] = binds
        self.tails: tuple[str, ...] = tails
        self.fields = cls.fields()
        at = self.fields.index
        self.kids = tuple((at(c), c, c in tuples) for c in children)
        self.kid_at = tuple(map(at, children))
        self.tail_at = tuple(map(at, tails))
        self.use_at = tuple((at(f), ns) for f, ns in uses)
        self.bind_at = tuple((at(f), ns, tuple(map(at, scope))) for f, ns, scope in binds)
        self.over = {i: tuple((j, ns) for j, ns, scope in self.bind_at if i in scope) for i in self.kid_at}
        named = {*children, *(f for f, _ in uses), *(f for f, _, _ in binds), "span"}
        self.data = tuple(f for f in self.fields if f not in named)


ROWS: tuple[Row, ...] = (
    Row(Var, uses=(("name", VALUES),)),
    Row(Lam, ("body",), binds=(("param", VALUES, ("body",)),)),
    Row(App, ("fn", "arg")),
    Row(BoxTerm, ("body",)),
    Row(LetBox, ("bound", "body"), binds=(("uvar", MODALS, ("body",)),), tails=("body",)),
    Row(EvalTerm, ("hseq",), uses=(("uvar", MODALS),)),
    Row(
        Fix,
        ("rec_body", "scope"),
        binds=(("fname", VALUES, ("rec_body", "scope")), ("param", VALUES, ("rec_body",))),
        tails=("scope",),
    ),
    Row(IntLit),
    Row(BoolLit),
    Row(UnitLit),
    Row(Pair, ("left", "right")),
    Row(Proj1, ("arg",)),
    Row(Proj2, ("arg",)),
    Row(ListE, ("elems",), tuples=("elems",)),
    Row(Append, ("left", "right")),
    Row(Arith, ("left", "right")),
    Row(Cmp, ("left", "right")),
    Row(If, ("cond", "then", "els"), tails=("then", "els")),
    Row(Ret, ("value",)),
    Row(Bind, ("stmt", "rest"), binds=(("var", VALUES, ("rest",)),), tails=("rest",)),
    Row(OpCall, ("arg",)),
    Row(ContCall, ("arg", "state"), uses=(("kname", CONTS),)),
    Row(Handle, ("hseq", "handler", "init"), uses=(("uvar", MODALS),)),
    Row(
        OpClause,
        ("body",),
        binds=(("x", VALUES, ("body",)), ("z", VALUES, ("body",)), ("k", CONTS, ("body",))),
    ),
    Row(RetClause, ("body",), binds=(("x", VALUES, ("body",)), ("z", VALUES, ("body",)))),
    Row(Handler, ("op_clauses", "ret_clause"), tuples=("op_clauses",)),
    Row(HClause, ("handler", "init", "body"), binds=(("var", VALUES, ("body",)),)),
    Row(HSeq, ("clauses",), tuples=("clauses",)),
)
SCHEMA: dict[type, Row] = {row.cls: row for row in ROWS}


# ---------------------------------------------------------------------------
# Free and bound names


@record
class FreeVars(Record):
    """The free names of a term, one set per namespace.

    A record, so a tuple: `free_vars` makes one for nearly every node it
    meets, and `named`, `_join` and `_unbound` build it with `tuple.__new__`,
    so no constructor of its own runs.  It has no `__dict__`."""

    __slots__ = ()
    values: frozenset[str]
    modals: frozenset[str]
    conts: frozenset[str]

    def __or__(self, other: FreeVars) -> FreeVars:
        return _join(self, other)


_new = tuple.__new__
_NO_NAMES: frozenset[str] = frozenset()
NO_FREE_VARS = FreeVars(_NO_NAMES, _NO_NAMES, _NO_NAMES)
_NAMESPACES = (VALUES, MODALS, CONTS)


def named(ns: str, names: Iterable[str]) -> FreeVars:
    """The names as a set in one namespace."""
    sets = [_NO_NAMES] * 3
    sets[_NAMESPACES.index(ns)] = frozenset(names)
    return _new(FreeVars, sets)


def _join(a: FreeVars, b: FreeVars) -> FreeVars:
    """The union of two free-name sets.  An operand that already holds the
    other is returned as it is, so closed and repeated subterms add no
    allocation."""
    if b is NO_FREE_VARS or b is a:
        return a
    if a is NO_FREE_VARS:
        return b
    av, am, ak = a
    bv, bm, bk = b
    if bv <= av and bm <= am and bk <= ak:
        return a
    if av <= bv and am <= bm and ak <= bk:
        return b
    return _new(FreeVars, (av | bv, am | bm, ak | bk))


def _unbound(fv: FreeVars, term: Term, binders: Iterable[tuple[int, str]]) -> FreeVars:
    """`fv` less the names the given (position, namespace) binders of
    `term` bind; `fv` itself when none of them is free."""
    sets = None
    for at, ns in binders:
        name = term[at]
        i = _NAMESPACES.index(ns)
        held = fv[i] if sets is None else sets[i]
        if name not in held:
            continue
        if sets is None:
            sets = list(fv)
        sets[i] = held - {name}
    if sets is None:
        return fv
    return _new(FreeVars, sets) if any(sets) else NO_FREE_VARS


def free_vars(term: Term) -> FreeVars:
    """Free names of a term, one set per namespace: the names its `uses`
    fields hold, and its children's free names less those bound over them.
    Operation names, handler clause labels and theory ascriptions are data,
    so they contribute nothing.

    Terms are immutable, so the result is computed once per node, from the
    cached results of its children, and stored on the node outside its
    record fields: equality, hashing and printing do not see it.  Closed
    nodes share `NO_FREE_VARS`.  The recursion goes through this function
    alone, one frame per tree level, so deep terms fit the same recursion
    limit as the parser that built them.

    A child's cached result is read here, not through a call.
    """
    fv = getattr(term, "_fv", None)
    if fv is not None:
        return fv
    row = SCHEMA[type(term)]
    fv = NO_FREE_VARS
    for i, ns in row.use_at:
        fv = _join(fv, named(ns, (term[i],)))
    # A `FreeVars` is a tuple of three sets, so a cached one is true.
    for i, _, many in row.kids:
        kid = term[i]
        if many:
            for item in kid:
                fv = _join(fv, getattr(item, "_fv", None) or free_vars(item))
        elif row.over[i]:
            fv = _join(fv, _unbound(getattr(kid, "_fv", None) or free_vars(kid), term, row.over[i]))
        else:
            fv = _join(fv, getattr(kid, "_fv", None) or free_vars(kid))
    object.__setattr__(term, "_fv", fv)
    return fv


# ---------------------------------------------------------------------------
# Type equality and theory inclusion


def type_equal(a: Type, b: Type) -> bool:
    """Structural equality; box theories compare as name-keyed sets.  A type
    is equal to itself, so the same object answers at once."""
    if a is b:
        return True
    match (a, b):
        case (BaseT(n1), BaseT(n2)):
            return n1 == n2
        case (ProdT(l1, r1), ProdT(l2, r2)):
            return type_equal(l1, l2) and type_equal(r1, r2)
        case (ListT(e1), ListT(e2)):
            return type_equal(e1, e2)
        case (ArrowT(d1, c1), ArrowT(d2, c2)):
            return type_equal(d1, d2) and type_equal(c1, c2)
        case (BoxT(t1, b1), BoxT(t2, b2)):
            return theory_equal(t1, t2) and type_equal(b1, b2)
        case _:
            return False


def theory_subset(small: EffectContext, big: EffectContext) -> bool:
    """Every operation of `small` appears in `big` with identical types."""
    for op in small.ops:
        other = big.lookup_op(op.name)
        if other is None:
            return False
        if not (type_equal(op.in_type, other.in_type) and type_equal(op.out_type, other.out_type)):
            return False
    return True


def theory_equal(a: EffectContext, b: EffectContext) -> bool:
    return theory_subset(a, b) and theory_subset(b, a)


# ---------------------------------------------------------------------------
# Alpha equivalence


def _data_equal(a: object, b: object) -> bool:
    """Equality of two non-name, non-child fields: types structurally,
    theories as sets, anything else (literals, operators, labels) as is."""
    if isinstance(a, Type) and isinstance(b, Type):
        return type_equal(a, b)
    if isinstance(a, EffectContext) and isinstance(b, EffectContext):
        return theory_equal(a, b)
    return a == b


def alpha_equal(t1: Term, t2: Term) -> bool:
    """Structural equality up to renaming of bound value, modal, and
    continuation variables.  Operation names must match literally; theory
    annotations compare as sets; a handler's clauses are matched by
    operation name, in any order."""

    def go(a: Term, b: Term, env: dict[str, tuple[dict[str, str], dict[str, str]]]) -> bool:
        # `env` maps each namespace to the bound names of `a` paired with
        # those of `b`, both ways.
        cls = type(a)
        if type(b) is not cls:
            return False
        row = SCHEMA[cls]
        for f in row.data:
            if not _data_equal(getattr(a, f), getattr(b, f)):
                return False
        for i, ns in row.use_at:
            fwd, back = env[ns]
            x, y = a[i], b[i]
            if not (fwd[x] == y if x in fwd else y not in back and x == y):
                return False
        for i, _, many in row.kids:
            inner = env
            for j, ns in row.over[i]:
                fwd, back = inner[ns]
                x, y = a[j], b[j]
                inner = {**inner, ns: ({**fwd, x: y}, {**back, y: x})}
            x, y = a[i], b[i]
            if not many:
                x, y = (x,), (y,)
            elif len(x) != len(y):
                return False
            elif cls is Handler:
                by_op = {clause.op: clause for clause in y}
                y = tuple(by_op.get(clause.op) for clause in x)
            for p, q in zip(x, y):
                if not go(p, q, inner):
                    return False
        return True

    empty: dict[str, str] = {}
    return go(t1, t2, {ns: (empty, empty) for ns in _NAMESPACES})


# ---------------------------------------------------------------------------
# Fresh names


def fresh_name(base: str, avoid: Iterable[str]) -> str:
    """`base` if unused, else `base` with the smallest positive integer suffix
    not in `avoid`."""
    taken = set(avoid)
    if base not in taken:
        return base
    i = 1
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"
