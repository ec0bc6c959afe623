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

from dataclasses import dataclass, field
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


class Expr:
    def __str__(self) -> str:
        from .pretty import pretty

        return pretty(self)


class Comp:
    def __str__(self) -> str:
        from .pretty import pretty

        return pretty(self)


class Stmt:
    def __str__(self) -> str:
        from .pretty import pretty

        return pretty(self)


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
class Handler:
    theory: EffectContext
    op_clauses: tuple[OpClause, ...]
    ret_clause: RetClause

    def __post_init__(self) -> None:
        _check_theory(self.theory, "handler ascription")

    def clause_for(self, op: str) -> Optional[OpClause]:
        for clause in self.op_clauses:
            if clause.op == op:
                return clause
        return None

    def __str__(self) -> str:
        from .pretty import pretty

        return pretty(self)


@dataclass(frozen=True)
class HClause:
    handler: Handler
    init: Expr
    var: str
    body: Comp


@dataclass(frozen=True)
class HSeq:
    clauses: tuple[HClause, ...] = ()

    def __str__(self) -> str:
        from .pretty import pretty

        return pretty(self)


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
# Free variables


@dataclass(frozen=True)
class FreeVars:
    values: frozenset[str]
    modals: frozenset[str]
    ops: frozenset[str]
    conts: frozenset[str]


_NO_NAMES: frozenset[str] = frozenset()
NO_FREE_VARS = FreeVars(_NO_NAMES, _NO_NAMES, _NO_NAMES, _NO_NAMES)


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


def _bind(
    fv: FreeVars,
    values: Iterable[str] = (),
    modals: Iterable[str] = (),
    ops: Iterable[str] = (),
    conts: Iterable[str] = (),
) -> FreeVars:
    """`fv` less the names a binder binds; `fv` itself when none is free."""
    if (
        fv.values.isdisjoint(values)
        and fv.modals.isdisjoint(modals)
        and fv.ops.isdisjoint(ops)
        and fv.conts.isdisjoint(conts)
    ):
        return fv
    out = FreeVars(
        fv.values.difference(values),
        fv.modals.difference(modals),
        fv.ops.difference(ops),
        fv.conts.difference(conts),
    )
    return NO_FREE_VARS if out == NO_FREE_VARS else out


def free_vars(term: Term) -> FreeVars:
    """Free names of a term, one set per namespace.

    Box literals bind the operation names of their theory; handler clause
    labels and theory ascriptions are declarations, not uses, so they
    contribute nothing.

    Terms are immutable, so the result is computed once per node, from the
    cached results of its children, and stored on the node outside its
    dataclass fields: equality, hashing and printing do not see it.  Closed
    nodes share `NO_FREE_VARS`.  The recursion goes through this function
    alone, one frame per tree level, so deep terms fit the same recursion
    limit as the parser that built them.  A new node class needs a case here.
    """
    fv = getattr(term, "_fv", None)
    if fv is not None:
        return fv
    match term:
        case Var(name):
            fv = FreeVars(frozenset((name,)), _NO_NAMES, _NO_NAMES, _NO_NAMES)
        case Bind(stmt, var, rest):
            fv = _join(free_vars(stmt), _bind(free_vars(rest), values=(var,)))
        case OpCall(op, arg):
            fv = _join(FreeVars(_NO_NAMES, _NO_NAMES, frozenset((op,)), _NO_NAMES), free_vars(arg))
        case ContCall(kname, arg, state):
            fv = _join(FreeVars(_NO_NAMES, _NO_NAMES, _NO_NAMES, frozenset((kname,))), free_vars(arg))
            fv = _join(fv, free_vars(state))
        case Ret(value) | Proj1(value) | Proj2(value):
            fv = free_vars(value)
        case IntLit() | BoolLit() | UnitLit() | Nil():
            fv = NO_FREE_VARS
        case App(left, right) | Pair(left, right) | ConsE(left, right) | Append(left, right):
            fv = _join(free_vars(left), free_vars(right))
        case Arith(_, left, right) | Cmp(_, left, right):
            fv = _join(free_vars(left), free_vars(right))
        case IfE(cond, then, els) | IfC(cond, then, els):
            fv = _join(_join(free_vars(cond), free_vars(then)), free_vars(els))
        case Lam(param, _, body):
            fv = _bind(free_vars(body), values=(param,))
        case BoxTerm(theory, body):
            fv = _bind(free_vars(body), ops=theory.op_names())
        case LetBoxE(uvar, bound, body) | LetBoxC(uvar, bound, body):
            fv = _join(free_vars(bound), _bind(free_vars(body), modals=(uvar,)))
        case EvalTerm(hseq, uvar):
            fv = _join(FreeVars(_NO_NAMES, frozenset((uvar,)), _NO_NAMES, _NO_NAMES), free_vars(hseq))
        case FixE(fname, param, _, _, _, rec_body, scope) | FixC(
            fname, param, _, _, _, rec_body, scope
        ):
            fv = _join(
                _bind(free_vars(rec_body), values=(fname, param)),
                _bind(free_vars(scope), values=(fname,)),
            )
        case Handle(uvar, hseq, handler, init):
            fv = _join(FreeVars(_NO_NAMES, frozenset((uvar,)), _NO_NAMES, _NO_NAMES), free_vars(hseq))
            fv = _join(_join(fv, free_vars(handler)), free_vars(init))
        case Handler(_, op_clauses, r):
            fv = _bind(free_vars(r.body), values=(r.x, r.z))
            for c in op_clauses:
                fv = _join(fv, _bind(free_vars(c.body), values=(c.x, c.z), conts=(c.k,)))
        case HSeq(clauses):
            fv = NO_FREE_VARS
            for c in clauses:
                fv = _join(_join(fv, free_vars(c.handler)), free_vars(c.init))
                fv = _join(fv, _bind(free_vars(c.body), values=(c.var,)))
        case _:
            raise AssertionError(f"free_vars: unhandled node {term!r}")
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
    """Every name bound anywhere inside a term, all namespaces in one set:
    `fn` parameters, bind variables, `let box` and `let fix` names, clause
    `x`, `k` and `z`, and sequence variables.  Operation names bound by box
    theories are left out, since nothing renames them.

    Cached on the node as `_bv`, the way `free_vars` caches `_fv`, and
    computed through this function alone, one frame per tree level."""
    bv = getattr(term, "_bv", None)
    if bv is not None:
        return bv
    match term:
        case Var() | IntLit() | BoolLit() | UnitLit() | Nil():
            bv = _NO_NAMES
        case Bind(stmt, var, rest):
            bv = _union(_union(bound_names(stmt), bound_names(rest)), frozenset((var,)))
        case Ret(value) | Proj1(value) | Proj2(value) | OpCall(_, value) | BoxTerm(_, value):
            bv = bound_names(value)
        case App(left, right) | Pair(left, right) | ConsE(left, right) | Append(left, right):
            bv = _union(bound_names(left), bound_names(right))
        case Arith(_, left, right) | Cmp(_, left, right) | ContCall(_, left, right):
            bv = _union(bound_names(left), bound_names(right))
        case IfE(cond, then, els) | IfC(cond, then, els):
            bv = _union(_union(bound_names(cond), bound_names(then)), bound_names(els))
        case Lam(param, _, body):
            bv = _union(bound_names(body), frozenset((param,)))
        case LetBoxE(uvar, bound, body) | LetBoxC(uvar, bound, body):
            bv = _union(_union(bound_names(bound), bound_names(body)), frozenset((uvar,)))
        case EvalTerm(hseq, _):
            bv = bound_names(hseq)
        case FixE(fname, param, _, _, _, rec_body, scope) | FixC(
            fname, param, _, _, _, rec_body, scope
        ):
            bv = _union(bound_names(rec_body), bound_names(scope))
            bv = _union(bv, frozenset((fname, param)))
        case Handle(_, hseq, handler, init):
            bv = _union(_union(bound_names(hseq), bound_names(handler)), bound_names(init))
        case Handler(_, op_clauses, r):
            bv = _union(bound_names(r.body), frozenset((r.x, r.z)))
            for c in op_clauses:
                bv = _union(bv, _union(bound_names(c.body), frozenset((c.x, c.k, c.z))))
        case HSeq(clauses):
            bv = _NO_NAMES
            for c in clauses:
                bv = _union(_union(bv, bound_names(c.handler)), bound_names(c.init))
                bv = _union(bv, _union(bound_names(c.body), frozenset((c.var,))))
        case _:
            raise AssertionError(f"bound_names: unhandled node {term!r}")
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


def _opt_type_equal(a: Optional[Type], b: Optional[Type]) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return type_equal(a, b)


# ---------------------------------------------------------------------------
# Alpha equivalence


def alpha_equal(t1: Term, t2: Term) -> bool:
    """Structural equality up to renaming of bound value, modal, and
    continuation variables.  Operation names must match literally; theory
    annotations compare as sets."""

    def var_eq(env: dict[str, str], renv: dict[str, str], a: str, b: str) -> bool:
        if a in env:
            return env[a] == b
        if b in renv:
            return False
        return a == b

    def extend(env: dict[str, str], renv: dict[str, str], a: str, b: str) -> tuple[dict[str, str], dict[str, str]]:
        env2 = dict(env)
        renv2 = dict(renv)
        env2[a] = b
        renv2[b] = a
        return env2, renv2

    def go(a: Term, b: Term, vs, rvs, ms, rms, ks, rks) -> bool:
        match (a, b):
            case (Var(n1), Var(n2)):
                return var_eq(vs, rvs, n1, n2)
            case (Lam(p1, t1_, b1), Lam(p2, t2_, b2)):
                if not type_equal(t1_, t2_):
                    return False
                vs2, rvs2 = extend(vs, rvs, p1, p2)
                return go(b1, b2, vs2, rvs2, ms, rms, ks, rks)
            case (App(f1, a1), App(f2, a2)):
                return go(f1, f2, vs, rvs, ms, rms, ks, rks) and go(a1, a2, vs, rvs, ms, rms, ks, rks)
            case (BoxTerm(th1, c1), BoxTerm(th2, c2)):
                return theory_equal(th1, th2) and go(c1, c2, vs, rvs, ms, rms, ks, rks)
            case (LetBoxE(u1, e1, b1), LetBoxE(u2, e2, b2)) | (LetBoxC(u1, e1, b1), LetBoxC(u2, e2, b2)):
                if not go(e1, e2, vs, rvs, ms, rms, ks, rks):
                    return False
                ms2, rms2 = extend(ms, rms, u1, u2)
                return go(b1, b2, vs, rvs, ms2, rms2, ks, rks)
            case (EvalTerm(h1, u1), EvalTerm(h2, u2)):
                return var_eq(ms, rms, u1, u2) and go(h1, h2, vs, rvs, ms, rms, ks, rks)
            case (
                (FixE(f1, x1, a1_, th1, r1, c1, s1), FixE(f2, x2, a2_, th2, r2, c2, s2))
                | (FixC(f1, x1, a1_, th1, r1, c1, s1), FixC(f2, x2, a2_, th2, r2, c2, s2))
            ):
                if not (type_equal(a1_, a2_) and theory_equal(th1, th2) and type_equal(r1, r2)):
                    return False
                vs2, rvs2 = extend(vs, rvs, f1, f2)
                vs3, rvs3 = extend(vs2, rvs2, x1, x2)
                return go(c1, c2, vs3, rvs3, ms, rms, ks, rks) and go(s1, s2, vs2, rvs2, ms, rms, ks, rks)
            case (IntLit(v1), IntLit(v2)):
                return v1 == v2
            case (BoolLit(v1), BoolLit(v2)):
                return v1 == v2
            case (UnitLit(), UnitLit()):
                return True
            case (Pair(l1, r1), Pair(l2, r2)) | (Append(l1, r1), Append(l2, r2)) | (ConsE(l1, r1), ConsE(l2, r2)):
                return go(l1, l2, vs, rvs, ms, rms, ks, rks) and go(r1, r2, vs, rvs, ms, rms, ks, rks)
            case (Arith(o1, l1, r1), Arith(o2, l2, r2)) | (Cmp(o1, l1, r1), Cmp(o2, l2, r2)):
                return o1 == o2 and go(l1, l2, vs, rvs, ms, rms, ks, rks) and go(r1, r2, vs, rvs, ms, rms, ks, rks)
            case (Proj1(x1), Proj1(x2)) | (Proj2(x1), Proj2(x2)):
                return go(x1, x2, vs, rvs, ms, rms, ks, rks)
            case (Nil(e1), Nil(e2)):
                return _opt_type_equal(e1, e2)
            case (IfE(c1, t1_, e1), IfE(c2, t2_, e2)) | (IfC(c1, t1_, e1), IfC(c2, t2_, e2)):
                return (
                    go(c1, c2, vs, rvs, ms, rms, ks, rks)
                    and go(t1_, t2_, vs, rvs, ms, rms, ks, rks)
                    and go(e1, e2, vs, rvs, ms, rms, ks, rks)
                )
            case (Ret(e1), Ret(e2)):
                return go(e1, e2, vs, rvs, ms, rms, ks, rks)
            case (Bind(s1, x1, r1), Bind(s2, x2, r2)):
                if not go(s1, s2, vs, rvs, ms, rms, ks, rks):
                    return False
                vs2, rvs2 = extend(vs, rvs, x1, x2)
                return go(r1, r2, vs2, rvs2, ms, rms, ks, rks)
            case (OpCall(o1, a1), OpCall(o2, a2)):
                return o1 == o2 and go(a1, a2, vs, rvs, ms, rms, ks, rks)
            case (ContCall(k1, a1, s1), ContCall(k2, a2, s2)):
                return (
                    var_eq(ks, rks, k1, k2)
                    and go(a1, a2, vs, rvs, ms, rms, ks, rks)
                    and go(s1, s2, vs, rvs, ms, rms, ks, rks)
                )
            case (Handle(u1, t1_, h1, e1), Handle(u2, t2_, h2, e2)):
                return (
                    var_eq(ms, rms, u1, u2)
                    and go(t1_, t2_, vs, rvs, ms, rms, ks, rks)
                    and go(h1, h2, vs, rvs, ms, rms, ks, rks)
                    and go(e1, e2, vs, rvs, ms, rms, ks, rks)
                )
            case (Handler(th1, ops1, ret1), Handler(th2, ops2, ret2)):
                if not theory_equal(th1, th2) or len(ops1) != len(ops2):
                    return False
                by_name = {c.op: c for c in ops2}
                for c1 in ops1:
                    c2 = by_name.get(c1.op)
                    if c2 is None:
                        return False
                    vs2, rvs2 = extend(vs, rvs, c1.x, c2.x)
                    vs3, rvs3 = extend(vs2, rvs2, c1.z, c2.z)
                    ks2, rks2 = extend(ks, rks, c1.k, c2.k)
                    if not go(c1.body, c2.body, vs3, rvs3, ms, rms, ks2, rks2):
                        return False
                vs2, rvs2 = extend(vs, rvs, ret1.x, ret2.x)
                vs3, rvs3 = extend(vs2, rvs2, ret1.z, ret2.z)
                return go(ret1.body, ret2.body, vs3, rvs3, ms, rms, ks, rks)
            case (HSeq(cs1), HSeq(cs2)):
                if len(cs1) != len(cs2):
                    return False
                for c1, c2 in zip(cs1, cs2):
                    if not go(c1.handler, c2.handler, vs, rvs, ms, rms, ks, rks):
                        return False
                    if not go(c1.init, c2.init, vs, rvs, ms, rms, ks, rks):
                        return False
                    vs2, rvs2 = extend(vs, rvs, c1.var, c2.var)
                    if not go(c1.body, c2.body, vs2, rvs2, ms, rms, ks, rks):
                        return False
                return True
            case _:
                return False

    e: dict[str, str] = {}
    return go(t1, t2, e, e, e, e, e, e)


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
