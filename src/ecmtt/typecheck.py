"""Algorithmic typechecker.

Expressions synthesize a type from the modal context alone; computations and
statements also consult an effect context of operations and continuations.
Expressions and computations are typed by one walk, `infer`, where an effect
context of None marks an expression position.  The system is syntax-directed,
one rule per node class, so `infer` checks the category and then applies the
rule that `_INFER` holds for the node's exact class, with no chain of class
patterns to try first; a new class needs one rule and one `_INFER` entry.
Handlers are checked against the value type and state type of the computation
they receive, synthesizing their answer type from the return clause.  A
handling sequence is checked left to right, one stage at a time: each stage's
handler and body live in the theory the next stage handles, and the last
stage's in the ambient theory of the sequence itself.

The Bottom type has no introduction form, so no value of it ever exists.  It
is treated as the least type: a Bottom-typed expression is accepted wherever
any type is expected, eliminating a Bottom synthesizes Bottom again, and the
branches of a conditional (or the clauses of a handler) join with Bottom
absorbed.  Absorption is structural, so a pair whose first component can
only abort still fits a pair of ints.  This keeps terms typeable after a
substitution grafts a continuation into a branch that can only abort.
"""

from __future__ import annotations

from typing import Optional, Union

from . import syntax as S
from .pretty import pretty
from .record import Record, record
from .syntax import EMPTY_THEORY, EffectContext, ModalContext, Span, Type

__all__ = [
    "ERROR_KINDS",
    "TypeCheckError",
    "HandlerSig",
    "infer",
    "infer_expr",
    "infer_comp",
    "infer_stmt",
    "check_handler",
    "infer_hseq",
    "infer_term",
]


# Every error carries one of these kinds.
ERROR_KINDS = frozenset(
    {
        "unbound-variable",
        "op-not-in-context",
        "theory-mismatch",
        "not-a-function",
        "not-a-box",
        "clause-coverage",
        "state-type-mismatch",
        "argument-mismatch",
    }
)


def _side(t: Union[Type, EffectContext, str]) -> str:
    return pretty(t) if isinstance(t, (Type, EffectContext)) else str(t)


class TypeCheckError(Exception):
    """A typing failure with a categorical kind and an optional source span.

    Renders as ``LINE:COL: KIND: expected X, found Y`` when both sides are
    known, or ``LINE:COL: KIND: message`` otherwise.
    """

    def __init__(
        self,
        kind: str,
        message: str = "",
        *,
        span: Optional[Span] = None,
        expected: Union[Type, EffectContext, str, None] = None,
        found: Union[Type, EffectContext, str, None] = None,
    ) -> None:
        if kind not in ERROR_KINDS:
            raise ValueError(f"unknown error kind {kind!r}")
        self.kind = kind
        self.message = message
        self.span = span
        self.expected = expected
        self.found = found
        super().__init__(self.render())

    def render(self) -> str:
        parts = []
        if self.span is not None:
            parts.append(f"{self.span.line}:{self.span.col}: ")
        parts.append(self.kind)
        if self.expected is not None and self.found is not None:
            parts.append(f": expected {_side(self.expected)}, found {_side(self.found)}")
            if self.message:
                parts.append(f" ({self.message})")
        elif self.message:
            parts.append(f": {self.message}")
        return "".join(parts)


@record
class HandlerSig(Record):
    """The four components of a handler ascription.

    The handler consumes computations of ``in_type`` over ``theory``, threads
    a state of ``state_type``, and produces computations of ``out_type``.
    """

    in_type: Type
    theory: EffectContext
    state_type: Type
    out_type: Type


def _merge(t1: Type, t2: Type) -> Optional[Type]:
    """Least upper bound of two types, or None when they are incompatible.

    Bottom is absorbed wherever it appears, including inside pairs, lists,
    boxes, and arrow codomains; a branch that can only abort may therefore
    sit next to one that produces a real value.  Arrow domains must agree
    exactly: lambda binders carry literal annotations, so nothing ever
    widens there.  A type merges with itself to itself.
    """
    if t1 is t2:
        return t1
    if t1 == S.BOTTOM:
        return t2
    if t2 == S.BOTTOM:
        return t1
    match (t1, t2):
        case (S.ProdT(), S.ProdT()):
            left = _merge(t1.left, t2.left)
            right = _merge(t1.right, t2.right)
            if left is None or right is None:
                return None
            return S.ProdT(left, right)
        case (S.ListT(), S.ListT()):
            elem = _merge(t1.elem, t2.elem)
            return None if elem is None else S.ListT(elem)
        case (S.BoxT(), S.BoxT()):
            if not S.theory_equal(t1.theory, t2.theory):
                return None
            body = _merge(t1.body, t2.body)
            return None if body is None else S.BoxT(t1.theory, body)
        case (S.ArrowT(), S.ArrowT()):
            if not S.type_equal(t1.dom, t2.dom):
                return None
            cod = _merge(t1.cod, t2.cod)
            return None if cod is None else S.ArrowT(t1.dom, cod)
        case _:
            return t1 if S.type_equal(t1, t2) else None


def _require(
    actual: Type,
    expected: Type,
    span: Optional[Span],
    *,
    kind: str = "argument-mismatch",
    message: str = "",
) -> None:
    """Demand that `actual` fits where `expected` is required.

    A Bottom-typed expression fits anywhere (no value inhabits it), and the
    same holds componentwise: a pair whose first component can only abort
    fits a pair of ints.  The converse does not hold, so an expected Bottom
    accepts only Bottom.  A type fits itself.
    """
    if actual is expected:
        return
    merged = _merge(actual, expected)
    if merged is not None and S.type_equal(merged, expected):
        return
    raise TypeCheckError(kind, message, span=span, expected=expected, found=actual)


def _join(t1: Type, t2: Type, span: Optional[Span], message: str = "conditional branches disagree") -> Type:
    """Join two alternative result types; Bottom is absorbed structurally."""
    merged = _merge(t1, t2)
    if merged is not None:
        return merged
    raise TypeCheckError(
        "argument-mismatch",
        message,
        span=span,
        expected=t1,
        found=t2,
    )


# ---------------------------------------------------------------------------
# Expressions, computations and statements


def infer(delta: ModalContext, gamma: Optional[EffectContext], t: S.Term) -> Type:
    """The type of an expression when `gamma` is None, and otherwise of a
    computation over the effect context `gamma`; a term of another category
    is rejected.  A twin (`let box`, `let fix`, `if`) passes in either
    position and types its last part in the same one, so a last part of the
    wrong category is rejected where it sits.  The rule is the one `_INFER`
    holds for the node's class."""
    if not isinstance(t, S.Expr if gamma is None else S.Comp):
        what = "expression" if gamma is None else "computation"
        raise TypeCheckError("argument-mismatch", f"unrecognized {what} {t!r}")
    return _INFER[type(t)](delta, gamma, t)


def _var(delta: ModalContext, gamma: Optional[EffectContext], t: S.Var) -> Type:
    bind = delta.lookup_value(t.name)
    if bind is None:
        raise TypeCheckError("unbound-variable", f"value variable {t.name}", span=t.span)
    return bind.type


def _chain(delta: ModalContext, gamma: Optional[EffectContext], t: S.Term) -> Type:
    """A chain of binds, `let box` and `let fix`, walked in a loop, one
    frame for the whole chain: each binder extends `delta`, and the loop
    moves on to its last part; a bind in an expression position meets the
    entry check of `infer`."""
    while True:
        cls = type(t)
        if cls is S.Bind and gamma is not None:
            delta = delta.with_value(t.var, infer_stmt(delta, gamma, t.stmt))
            t = t.rest
        elif cls is S.LetBox:
            tb = infer(delta, None, t.bound)
            if tb == S.BOTTOM:
                return S.BOTTOM
            if not isinstance(tb, S.BoxT):
                raise TypeCheckError("not-a-box", span=t.span, expected="a boxed computation", found=tb)
            delta = delta.with_modal(t.uvar, tb.body, tb.theory)
            t = t.body
        elif cls is S.Fix:
            delta = delta.with_value(t.fname, S.ArrowT(t.annot, S.BoxT(t.theory, t.ret_type)))
            got = infer(delta.with_value(t.param, t.annot), t.theory, t.rec_body)
            _require(got, t.ret_type, t.span, message="recursive body")
            t = t.scope
        else:
            return infer(delta, gamma, t)


def _lam(delta: ModalContext, gamma: Optional[EffectContext], t: S.Lam) -> Type:
    return S.ArrowT(t.annot, infer(delta.with_value(t.param, t.annot), None, t.body))


def _app(delta: ModalContext, gamma: Optional[EffectContext], t: S.App) -> Type:
    tf = infer(delta, None, t.fn)
    if tf == S.BOTTOM:
        infer(delta, None, t.arg)
        return S.BOTTOM
    if not isinstance(tf, S.ArrowT):
        raise TypeCheckError("not-a-function", span=t.span, expected="a function type", found=tf)
    _require(infer(delta, None, t.arg), tf.dom, t.span, message="function argument")
    return tf.cod


def _eval(delta: ModalContext, gamma: Optional[EffectContext], t: S.EvalTerm) -> Type:
    bind = delta.lookup_modal(t.uvar)
    if bind is None:
        raise TypeCheckError("unbound-variable", f"modal variable {t.uvar}", span=t.span)
    return infer_hseq(delta, EMPTY_THEORY, t.hseq, bind.type, bind.theory, span=t.span)


def _proj(delta: ModalContext, gamma: Optional[EffectContext], t: S.Term) -> Type:
    tp = infer(delta, None, t.arg)
    if tp == S.BOTTOM:
        return S.BOTTOM
    if not isinstance(tp, S.ProdT):
        raise TypeCheckError("argument-mismatch", span=t.span, expected="a pair type", found=tp)
    return tp.left if type(t) is S.Proj1 else tp.right


def _list(delta: ModalContext, gamma: Optional[EffectContext], t: S.ListE) -> Type:
    if not t.elems:
        raise TypeCheckError("argument-mismatch", "cannot infer an element type for []", span=t.span)
    # Joined from the right, as a cons onto each element's tail.
    types = [infer(delta, None, e) for e in t.elems]
    out = S.ListT(types.pop())
    for ty in reversed(types):
        out = _join(S.ListT(ty), out, t.span, message="list tail")
    return out


def _append(delta: ModalContext, gamma: Optional[EffectContext], t: S.Append) -> Type:
    tl = infer(delta, None, t.left)
    tr = infer(delta, None, t.right)
    for side in (tl, tr):
        if side != S.BOTTOM and not isinstance(side, S.ListT):
            raise TypeCheckError("argument-mismatch", span=t.span, expected="a list type", found=side)
    return _join(tl, tr, t.span, message="append operand")


def _arith(delta: ModalContext, gamma: Optional[EffectContext], t: S.Arith) -> Type:
    _require(infer(delta, None, t.left), S.INT, t.span, message="arithmetic operand")
    _require(infer(delta, None, t.right), S.INT, t.span, message="arithmetic operand")
    return S.INT


def _cmp(delta: ModalContext, gamma: Optional[EffectContext], t: S.Cmp) -> Type:
    _require(infer(delta, None, t.left), S.INT, t.span, message="comparison operand")
    _require(infer(delta, None, t.right), S.INT, t.span, message="comparison operand")
    return S.BOOL


def _if(delta: ModalContext, gamma: Optional[EffectContext], t: S.If) -> Type:
    _require(infer(delta, None, t.cond), S.BOOL, t.span, message="condition")
    return _join(infer(delta, gamma, t.then), infer(delta, gamma, t.els), t.span)


# The typing rule of each expression and computation class.
_INFER = {
    S.Var: _var,
    S.Ret: lambda delta, gamma, t: infer(delta, None, t.value),
    S.Bind: _chain,
    S.LetBox: _chain,
    S.Fix: _chain,
    S.Lam: _lam,
    S.App: _app,
    S.BoxTerm: lambda delta, gamma, t: S.BoxT(t.theory, infer(delta, t.theory, t.body)),
    S.EvalTerm: _eval,
    S.IntLit: lambda delta, gamma, t: S.INT,
    S.BoolLit: lambda delta, gamma, t: S.BOOL,
    S.UnitLit: lambda delta, gamma, t: S.UNIT,
    S.Pair: lambda delta, gamma, t: S.ProdT(infer(delta, None, t.left), infer(delta, None, t.right)),
    S.Proj1: _proj,
    S.Proj2: _proj,
    S.ListE: _list,
    S.Append: _append,
    S.Arith: _arith,
    S.Cmp: _cmp,
    S.If: _if,
}


def infer_expr(delta: ModalContext, e: S.Expr) -> Type:
    return infer(delta, None, e)


def infer_comp(delta: ModalContext, gamma: EffectContext, c: S.Comp) -> Type:
    return infer(delta, gamma, c)


def infer_stmt(delta: ModalContext, gamma: EffectContext, s: S.Stmt) -> Type:
    cls = type(s)
    if cls is S.OpCall:
        decl = gamma.lookup_op(s.op)
        if decl is None:
            raise TypeCheckError("op-not-in-context", f"operation {s.op}", span=s.span)
        ta = infer(delta, None, s.arg)
        _require(ta, decl.in_type, s.span, message=f"argument of {s.op}")
        return decl.out_type

    if cls is S.ContCall:
        decl = gamma.lookup_cont(s.kname)
        if decl is None:
            raise TypeCheckError("unbound-variable", f"continuation variable {s.kname}", span=s.span)
        ta = infer(delta, None, s.arg)
        _require(ta, decl.in_type, s.span, message=f"argument of {s.kname}")
        ts = infer(delta, None, s.state)
        message = f"state passed to {s.kname}"
        _require(ts, decl.state_type, s.span, kind="state-type-mismatch", message=message)
        return decl.out_type

    if cls is S.Handle:
        bind = delta.lookup_modal(s.uvar)
        if bind is None:
            raise TypeCheckError("unbound-variable", f"modal variable {s.uvar}", span=s.span)
        mid = infer_hseq(delta, s.handler.theory, s.hseq, bind.type, bind.theory, span=s.span)
        ts = infer(delta, None, s.init)
        sig = check_handler(delta, gamma, s.handler, mid, ts)
        return sig.out_type

    raise TypeCheckError("argument-mismatch", f"unrecognized statement {s!r}")


# ---------------------------------------------------------------------------
# Handlers and handling sequences


def check_handler(
    delta: ModalContext,
    gamma: EffectContext,
    h: S.Handler,
    in_type: Type,
    state_type: Type,
) -> HandlerSig:
    """Check a handler against the computation type and state it receives.

    The answer type is synthesized from the return clause, then every
    operation clause is checked against it with the continuation variable
    bound at that answer type.
    """
    declared = h.theory.op_names()
    seen: set[str] = set()
    for clause in h.op_clauses:
        if clause.op in seen:
            raise TypeCheckError(
                "clause-coverage", f"duplicate clause for operation {clause.op}", span=h.span
            )
        seen.add(clause.op)
        if clause.op not in declared:
            raise TypeCheckError(
                "clause-coverage",
                f"clause for operation {clause.op} outside the handler theory",
                span=h.span,
            )
    missing = declared - seen
    if missing:
        raise TypeCheckError(
            "clause-coverage",
            f"missing clause for operation {sorted(missing)[0]}",
            span=h.span,
        )

    rc = h.ret_clause
    out_type = infer(
        delta.with_value(rc.x, in_type).with_value(rc.z, state_type), gamma, rc.body
    )

    # The answer type is the join of all clause bodies: normally each op
    # clause must repeat the return clause's type exactly, but a clause that
    # can only abort contributes Bottom, which is absorbed.
    for clause in h.op_clauses:
        decl = h.theory.lookup_op(clause.op)
        assert decl is not None
        inner = delta.with_value(clause.x, decl.in_type).with_value(clause.z, state_type)
        extended = gamma.with_cont(
            S.ContDecl(clause.k, decl.out_type, state_type, out_type)
        )
        got = infer(inner, extended, clause.body)
        out_type = _join(
            out_type, got, clause.body.span, message=f"clause for {clause.op}"
        )

    return HandlerSig(in_type, h.theory, state_type, out_type)


def infer_hseq(
    delta: ModalContext,
    ambient: EffectContext,
    theta: S.HSeq,
    in_type: Type,
    source_theory: EffectContext,
    *,
    span: Optional[Span] = None,
) -> Type:
    """Type a handling sequence applied to a computation.

    ``source_theory`` is the theory of the handled computation and
    ``ambient`` the theory its final result lives in.  The source must be
    contained in the first handler's theory (the ambient, for an empty
    sequence); each stage's handler and body live in the next one's theory,
    the last stage's in the ambient.
    """
    theories = [c.handler.theory for c in theta.clauses] + [ambient]
    if not S.theory_subset(source_theory, theories[0]):
        raise TypeCheckError(
            "theory-mismatch",
            "unhandled operations remain",
            span=span,
            expected=theories[0],
            found=source_theory,
        )
    ty = in_type
    for clause, gamma in zip(theta.clauses, theories[1:]):
        ts = infer(delta, None, clause.init)
        sig = check_handler(delta, gamma, clause.handler, ty, ts)
        ty = infer(delta.with_value(clause.var, sig.out_type), gamma, clause.body)
    return ty


# ---------------------------------------------------------------------------
# Entry point


def infer_term(term: S.Term) -> Type:
    """Synthesize the type of a closed top-level term.

    Expressions are typed in the empty modal context; computations and
    statements additionally get the empty effect context, so any operation
    they perform must be handled internally.  A twin is of the category of
    its `last_part`.
    """
    last = S.last_part(term)
    if isinstance(last, S.Expr):
        return infer(S.EMPTY_MODAL, None, term)
    if isinstance(last, S.Comp):
        return infer(S.EMPTY_MODAL, EMPTY_THEORY, term)
    if isinstance(last, S.Stmt):
        return infer_stmt(S.EMPTY_MODAL, EMPTY_THEORY, term)
    raise ValueError(f"cannot type a {type(term).__name__} at top level")
