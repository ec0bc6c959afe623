"""Kernel syntax: types, contexts, terms, and the basic operations on them.

Terms come in five syntactic categories that reference each other: expressions
(pure), computations (effectful bodies), statements (the effectful heads of a
bind), handlers, and handling sequences.  Four disjoint namespaces are in play:
value variables, modal variables, operation names, and continuation names.
Binding follows the term structure: ``fn`` and binds of a statement bind value
variables, ``let box`` binds a modal variable, a box literal binds the
operation names of its theory over its body, and a handler clause binds its
continuation name over the clause body.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterable, NamedTuple, Optional, Union


class Span(NamedTuple):
    """A source position; the parser makes one per node, so it is a tuple."""

    line: int
    col: int
    length: int = 0

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


# ---------------------------------------------------------------------------
# Types


class Type:
    def __str__(self) -> str:
        from .pretty import type_text

        return type_text(self)


@dataclass(frozen=True)
class UnitT(Type):
    pass


@dataclass(frozen=True)
class IntT(Type):
    pass


@dataclass(frozen=True)
class BoolT(Type):
    pass


@dataclass(frozen=True)
class BottomT(Type):
    pass


@dataclass(frozen=True)
class BaseT(Type):
    name: str


@dataclass(frozen=True)
class ProdT(Type):
    left: Type
    right: Type


@dataclass(frozen=True)
class ListT(Type):
    elem: Type


@dataclass(frozen=True)
class ArrowT(Type):
    dom: Type
    cod: Type


@dataclass(frozen=True)
class BoxT(Type):
    theory: "EffectContext"
    body: Type

    def __post_init__(self) -> None:
        _check_theory(self.theory, "box type")


UNIT = UnitT()
INT = IntT()
BOOL = BoolT()
BOTTOM = BottomT()


# ---------------------------------------------------------------------------
# Effect contexts and theories


@dataclass(frozen=True)
class OpDecl:
    name: str
    in_type: Type
    out_type: Type


@dataclass(frozen=True)
class ContDecl:
    name: str
    in_type: Type
    state_type: Type
    out_type: Type


@dataclass(frozen=True)
class EffectContext:
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
    """Build a theory, rejecting duplicate operation names (well-formedness)."""
    ops = tuple(ops)
    seen: set[str] = set()
    for op in ops:
        if op.name in seen:
            raise ValueError(f"duplicate operation {op.name!r} in theory")
        seen.add(op.name)
    return EffectContext(ops)


def _check_theory(th: EffectContext, where: str) -> None:
    # Nodes built from already-checked nodes pass the same context again, so
    # a context that passed is marked, outside its dataclass fields.
    if getattr(th, "_theory_ok", False):
        return
    if not th.is_theory():
        raise ValueError(f"{where} must be an algebraic theory (operations only)")
    names = [op.name for op in th.ops]
    if len(names) != len(set(names)):
        raise ValueError(f"duplicate operation name in {where}")
    object.__setattr__(th, "_theory_ok", True)


# ---------------------------------------------------------------------------
# Modal contexts


@dataclass(frozen=True)
class ValBind:
    name: str
    type: Type


@dataclass(frozen=True)
class ModalBind:
    name: str
    type: Type
    theory: EffectContext

    def __post_init__(self) -> None:
        _check_theory(self.theory, "modal binding theory")


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class ModalContext:
    """The value and modal bindings in scope.  A context is its innermost
    binding linked to the context it extends, so a binder costs O(1) and a
    lookup walks outwards from the innermost binding, which wins."""

    entry: Optional[Union[ValBind, ModalBind]] = None
    parent: Optional[ModalContext] = None

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


class _Node:
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


_SPAN = dict(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Var(Expr):
    name: str
    span: Optional[Span] = field(**_SPAN)


@dataclass(frozen=True)
class Lam(Expr):
    param: str
    annot: Type
    body: Expr
    span: Optional[Span] = field(**_SPAN)


@dataclass(frozen=True)
class App(Expr):
    fn: Expr
    arg: Expr
    span: Optional[Span] = field(**_SPAN)


@dataclass(frozen=True)
class BoxTerm(Expr):
    theory: EffectContext
    body: Comp
    span: Optional[Span] = field(**_SPAN)

    def __post_init__(self) -> None:
        _check_theory(self.theory, "box annotation")


@dataclass(frozen=True)
class LetBoxE(Expr):
    uvar: str
    bound: Expr
    body: Expr
    span: Optional[Span] = field(**_SPAN)


@dataclass(frozen=True)
class EvalTerm(Expr):
    hseq: "HSeq"
    uvar: str
    span: Optional[Span] = field(**_SPAN)


@dataclass(frozen=True)
class FixE(Expr):
    fname: str
    param: str
    annot: Type
    theory: EffectContext
    ret_type: Type
    rec_body: Comp
    scope: Expr
    span: Optional[Span] = field(**_SPAN)

    def __post_init__(self) -> None:
        _check_theory(self.theory, "fix annotation")


@dataclass(frozen=True)
class IntLit(Expr):
    value: int
    span: Optional[Span] = field(**_SPAN)


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


@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool
    span: Optional[Span] = field(**_SPAN)


@dataclass(frozen=True)
class UnitLit(Expr):
    span: Optional[Span] = field(**_SPAN)


@dataclass(frozen=True)
class Pair(Expr):
    left: Expr
    right: Expr
    span: Optional[Span] = field(**_SPAN)


@dataclass(frozen=True)
class Proj1(Expr):
    arg: Expr
    span: Optional[Span] = field(**_SPAN)


@dataclass(frozen=True)
class Proj2(Expr):
    arg: Expr
    span: Optional[Span] = field(**_SPAN)


@dataclass(frozen=True)
class Nil(Expr):
    # The element annotation is kernel-only: the surface form [] parses to
    # Nil(None) and takes its element type from the head of an enclosing
    # non-empty literal.
    elem: Optional[Type] = None
    span: Optional[Span] = field(**_SPAN)


@dataclass(frozen=True)
class ConsE(Expr):
    head: Expr
    tail: Expr
    span: Optional[Span] = field(**_SPAN)


@dataclass(frozen=True)
class Append(Expr):
    left: Expr
    right: Expr
    span: Optional[Span] = field(**_SPAN)


@dataclass(frozen=True)
class Arith(Expr):
    op: str  # one of + - * /
    left: Expr
    right: Expr
    span: Optional[Span] = field(**_SPAN)


@dataclass(frozen=True)
class Cmp(Expr):
    op: str  # one of = <
    left: Expr
    right: Expr
    span: Optional[Span] = field(**_SPAN)


@dataclass(frozen=True)
class IfE(Expr):
    cond: Expr
    then: Expr
    els: Expr
    span: Optional[Span] = field(**_SPAN)


@dataclass(frozen=True)
class Ret(Comp):
    value: Expr
    span: Optional[Span] = field(**_SPAN)


@dataclass(frozen=True)
class Bind(Comp):
    stmt: Stmt
    var: str
    rest: Comp
    span: Optional[Span] = field(**_SPAN)


@dataclass(frozen=True)
class LetBoxC(Comp):
    uvar: str
    bound: Expr
    body: Comp
    span: Optional[Span] = field(**_SPAN)


@dataclass(frozen=True)
class FixC(Comp):
    fname: str
    param: str
    annot: Type
    theory: EffectContext
    ret_type: Type
    rec_body: Comp
    scope: Comp
    span: Optional[Span] = field(**_SPAN)

    def __post_init__(self) -> None:
        _check_theory(self.theory, "fix annotation")


@dataclass(frozen=True)
class IfC(Comp):
    cond: Expr
    then: Comp
    els: Comp
    span: Optional[Span] = field(**_SPAN)


@dataclass(frozen=True)
class OpCall(Stmt):
    op: str
    arg: Expr
    span: Optional[Span] = field(**_SPAN)


@dataclass(frozen=True)
class ContCall(Stmt):
    kname: str
    arg: Expr
    state: Expr
    span: Optional[Span] = field(**_SPAN)


@dataclass(frozen=True)
class OpClause:
    op: str
    x: str
    k: str
    z: str
    body: Comp


@dataclass(frozen=True)
class RetClause:
    x: str
    z: str
    body: Comp


@dataclass(frozen=True)
class Handler(_Node):
    theory: EffectContext
    op_clauses: tuple[OpClause, ...]
    ret_clause: RetClause
    span: Optional[Span] = field(**_SPAN)

    def __post_init__(self) -> None:
        _check_theory(self.theory, "handler ascription")

    def clause_for(self, op: str) -> Optional[OpClause]:
        for clause in self.op_clauses:
            if clause.op == op:
                return clause
        return None


@dataclass(frozen=True)
class HClause:
    handler: Handler
    init: Expr
    var: str
    body: Comp


@dataclass(frozen=True)
class HSeq(_Node):
    clauses: tuple[HClause, ...] = ()


@dataclass(frozen=True)
class Handle(Stmt):
    uvar: str
    hseq: HSeq
    handler: Handler
    init: Expr
    span: Optional[Span] = field(**_SPAN)


EMPTY_HSEQ = HSeq()

Term = Union[Expr, Comp, Stmt, Handler, HSeq]


# ---------------------------------------------------------------------------
# The node schema

# The four namespaces, named as the fields of `FreeVars`.
VALUES, MODALS, OPS, CONTS = "values", "modals", "ops", "conts"


class Row:
    """How one node class holds subterms and names.

    `children` are the fields that hold subterms, in the order a walk visits
    them, and `tuples` those of them that hold a tuple of subterms.  `uses`
    are the fields that name a free occurrence, each with its namespace.
    `binds` are the binding fields, each with its namespace and the children
    it scopes over, in the order a walk renames them; an `OPS` binder holds
    a theory and binds its operations.  Every other field is data.

    The rest is derived from these and the dataclass: `fields`, every field
    in constructor order (span included), so a node is rebuilt from a list
    of its field values; `kids`, each child's position in `fields`, name and
    whether it holds a tuple; `over`, the binders scoping over each child;
    and `data`, the fields that are neither children, names nor the span.
    """

    __slots__ = ("cls", "children", "tuples", "uses", "binds", "fields", "kids", "over", "data")

    def __init__(self, cls: type, children=(), tuples=(), uses=(), binds=()):
        self.cls = cls
        self.children: tuple[str, ...] = children
        self.tuples: tuple[str, ...] = tuples
        self.uses: tuple[tuple[str, str], ...] = uses
        self.binds: tuple[tuple[str, str, tuple[str, ...]], ...] = binds
        self.fields = tuple(f.name for f in fields(cls))
        self.kids = tuple((self.fields.index(c), c, c in tuples) for c in children)
        self.over = {c: tuple((f, ns) for f, ns, scope in binds if c in scope) for c in children}
        named = {*children, *(f for f, _ in uses), *(f for f, ns, _ in binds if ns != OPS), "span"}
        self.data = tuple(f for f in self.fields if f not in named)


_FIX = dict(
    children=("rec_body", "scope"),
    binds=(("fname", VALUES, ("rec_body", "scope")), ("param", VALUES, ("rec_body",))),
)
_LET_BOX = dict(children=("bound", "body"), binds=(("uvar", MODALS, ("body",)),))

ROWS: tuple[Row, ...] = (
    Row(Var, uses=(("name", VALUES),)),
    Row(Lam, ("body",), binds=(("param", VALUES, ("body",)),)),
    Row(App, ("fn", "arg")),
    Row(BoxTerm, ("body",), binds=(("theory", OPS, ("body",)),)),
    Row(LetBoxE, **_LET_BOX),
    Row(EvalTerm, ("hseq",), uses=(("uvar", MODALS),)),
    Row(FixE, **_FIX),
    Row(IntLit),
    Row(BoolLit),
    Row(UnitLit),
    Row(Nil),
    Row(Pair, ("left", "right")),
    Row(Proj1, ("arg",)),
    Row(Proj2, ("arg",)),
    Row(ConsE, ("head", "tail")),
    Row(Append, ("left", "right")),
    Row(Arith, ("left", "right")),
    Row(Cmp, ("left", "right")),
    Row(IfE, ("cond", "then", "els")),
    Row(Ret, ("value",)),
    Row(Bind, ("stmt", "rest"), binds=(("var", VALUES, ("rest",)),)),
    Row(LetBoxC, **_LET_BOX),
    Row(FixC, **_FIX),
    Row(IfC, ("cond", "then", "els")),
    Row(OpCall, ("arg",), uses=(("op", OPS),)),
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


@dataclass(frozen=True)
class FreeVars:
    values: frozenset[str]
    modals: frozenset[str]
    ops: frozenset[str]
    conts: frozenset[str]

    def __or__(self, other: FreeVars) -> FreeVars:
        return _join(self, other)


_NO_NAMES: frozenset[str] = frozenset()
NO_FREE_VARS = FreeVars(_NO_NAMES, _NO_NAMES, _NO_NAMES, _NO_NAMES)
_NAMESPACES = (VALUES, MODALS, OPS, CONTS)


def _named(ns: str, names: Iterable[str]) -> FreeVars:
    """The names as a set in one namespace."""
    sets = [_NO_NAMES] * 4
    sets[_NAMESPACES.index(ns)] = frozenset(names)
    return FreeVars(*sets)


def _join(a: FreeVars, b: FreeVars) -> FreeVars:
    """The union of two free-name sets.  An operand that already holds the
    other is returned as it is, so closed and repeated subterms add no
    allocation."""
    if b is NO_FREE_VARS or b is a:
        return a
    if a is NO_FREE_VARS:
        return b
    av, am, ao, ak = a.values, a.modals, a.ops, a.conts
    bv, bm, bo, bk = b.values, b.modals, b.ops, b.conts
    if bv <= av and bm <= am and bo <= ao and bk <= ak:
        return a
    if av <= bv and am <= bm and ao <= bo and ak <= bk:
        return b
    return FreeVars(av | bv, am | bm, ao | bo, ak | bk)


def _minus(fv: FreeVars, bound: FreeVars) -> FreeVars:
    """`fv` less the names a binder binds; `fv` itself when none is free."""
    if (
        fv.values.isdisjoint(bound.values)
        and fv.modals.isdisjoint(bound.modals)
        and fv.ops.isdisjoint(bound.ops)
        and fv.conts.isdisjoint(bound.conts)
    ):
        return fv
    out = FreeVars(
        fv.values - bound.values,
        fv.modals - bound.modals,
        fv.ops - bound.ops,
        fv.conts - bound.conts,
    )
    return NO_FREE_VARS if out == NO_FREE_VARS else out


def _bound_by(term: Term, binders: Iterable[tuple[str, str]]) -> FreeVars:
    """The names the given (field, namespace) binders of `term` bind."""
    bound = NO_FREE_VARS
    for f, ns in binders:
        v = getattr(term, f)
        bound = _join(bound, _named(ns, v.op_names() if ns == OPS else (v,)))
    return bound


def free_vars(term: Term) -> FreeVars:
    """Free names of a term, one set per namespace: the names its `uses`
    fields hold, and its children's free names less those bound over them.
    Handler clause labels and theory ascriptions are data, so they
    contribute nothing.

    Terms are immutable, so the result is computed once per node, from the
    cached results of its children, and stored on the node outside its
    dataclass fields: equality, hashing and printing do not see it.  Closed
    nodes share `NO_FREE_VARS`.  The recursion goes through this function
    alone, one frame per tree level, so deep terms fit the same recursion
    limit as the parser that built them.
    """
    fv = getattr(term, "_fv", None)
    if fv is not None:
        return fv
    row = SCHEMA[type(term)]
    fv = NO_FREE_VARS
    for f, ns in row.uses:
        fv = _join(fv, _named(ns, (getattr(term, f),)))
    for _, c, many in row.kids:
        kid = getattr(term, c)
        if many:
            for item in kid:
                fv = _join(fv, free_vars(item))
        elif row.over[c]:
            fv = _join(fv, _minus(free_vars(kid), _bound_by(term, row.over[c])))
        else:
            fv = _join(fv, free_vars(kid))
    object.__setattr__(term, "_fv", fv)
    return fv


def _union(a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
    """`a | b`, or an operand itself when it already holds the other."""
    if b <= a:
        return a
    if a <= b:
        return b
    return a | b


def bound_names(term: Term) -> frozenset[str]:
    """Every name bound anywhere inside a term, all namespaces in one set.
    Operation names bound by box theories are left out, since nothing
    renames them.

    Cached on the node as `_bv`, the way `free_vars` caches `_fv`, and
    computed through this function alone, one frame per tree level."""
    bv = getattr(term, "_bv", None)
    if bv is not None:
        return bv
    row = SCHEMA[type(term)]
    bv = _NO_NAMES
    for f, ns, _ in row.binds:
        if ns != OPS:
            bv = _union(bv, frozenset((getattr(term, f),)))
    for _, c, many in row.kids:
        kid = getattr(term, c)
        if many:
            for item in kid:
                bv = _union(bv, bound_names(item))
        else:
            bv = _union(bv, bound_names(kid))
    object.__setattr__(term, "_bv", bv)
    return bv


# ---------------------------------------------------------------------------
# Type equality and theory inclusion


def type_equal(a: Type, b: Type) -> bool:
    """Structural equality; box theories compare as name-keyed sets."""
    match (a, b):
        case (UnitT(), UnitT()) | (IntT(), IntT()) | (BoolT(), BoolT()) | (BottomT(), BottomT()):
            return True
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
        for f, ns in row.uses:
            fwd, back = env[ns]
            x, y = getattr(a, f), getattr(b, f)
            if not (fwd[x] == y if x in fwd else y not in back and x == y):
                return False
        for _, c, many in row.kids:
            inner = env
            for f, ns in row.over[c]:
                if ns != OPS:
                    fwd, back = inner[ns]
                    x, y = getattr(a, f), getattr(b, f)
                    inner = {**inner, ns: ({**fwd, x: y}, {**back, y: x})}
            x, y = getattr(a, c), getattr(b, c)
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
