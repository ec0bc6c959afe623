"""Algorithmic typechecker.

Expressions synthesize a type from the modal context alone; computations and
statements also consult an effect context of operations and continuations.
Expressions and computations are typed by one walk, `infer`, where an effect
context of None marks an expression position.
Handlers are checked against the value type and state type of the computation
they receive, synthesizing their answer type from the return clause.  A
handling sequence is checked right to left: each clause's prefix must produce
its handler's theory, while the clause body and continuation live in the
ambient theory of the sequence itself.

The Bottom type has no introduction form, so no value of it ever exists.  It
is treated as the least type: a Bottom-typed expression is accepted wherever
any type is expected, eliminating a Bottom synthesizes Bottom again, and the
branches of a conditional (or the clauses of a handler) join with Bottom
absorbed.  Absorption is structural, so a pair whose first component can
only abort still fits a pair of ints.  This keeps terms typeable after a
substitution grafts a continuation into a branch that can only abort.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from . import syntax as S
from .pretty import theory_text, type_text
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
    if isinstance(t, S.Type):
        return type_text(t)
    if isinstance(t, S.EffectContext):
        return theory_text(t)
    return str(t)


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


@dataclass(frozen=True)
class HandlerSig:
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
    widens there.
    """
    if isinstance(t1, S.BottomT):
        return t2
    if isinstance(t2, S.BottomT):
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
    accepts only Bottom.
    """
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
    is rejected.  `let box`, `let fix` and `if` exist in both categories and
    are one case each, whose last part stays in the category of the whole."""
    if not isinstance(t, S.Expr if gamma is None else S.Comp):
        what = "expression" if gamma is None else "computation"
        raise TypeCheckError("argument-mismatch", f"unrecognized {what} {t!r}")
    match t:
        case S.Var(name):
            bind = delta.lookup_value(name)
            if bind is None:
                raise TypeCheckError("unbound-variable", f"value variable {name}", span=t.span)
            return bind.type

        case S.Ret(value):
            return infer(delta, None, value)

        case S.Bind(stmt, var, rest):
            ta = infer_stmt(delta, gamma, stmt)
            return infer(delta.with_value(var, ta), gamma, rest)

        case S.Lam(param, annot, body):
            return S.ArrowT(annot, infer(delta.with_value(param, annot), None, body))

        case S.App(fn, arg):
            tf = infer(delta, None, fn)
            if isinstance(tf, S.BottomT):
                infer(delta, None, arg)
                return S.BOTTOM
            if not isinstance(tf, S.ArrowT):
                raise TypeCheckError(
                    "not-a-function", span=t.span, expected="a function type", found=tf
                )
            ta = infer(delta, None, arg)
            _require(ta, tf.dom, t.span, message="function argument")
            return tf.cod

        case S.BoxTerm(theory, body):
            return S.BoxT(theory, infer(delta, theory, body))

        case S.LetBoxE(uvar, bound, body) | S.LetBoxC(uvar, bound, body):
            tb = infer(delta, None, bound)
            if isinstance(tb, S.BottomT):
                return S.BOTTOM
            if not isinstance(tb, S.BoxT):
                raise TypeCheckError(
                    "not-a-box", span=t.span, expected="a boxed computation", found=tb
                )
            return infer(delta.with_modal(uvar, tb.body, tb.theory), gamma, body)

        case S.EvalTerm(hseq, uvar):
            bind = delta.lookup_modal(uvar)
            if bind is None:
                raise TypeCheckError("unbound-variable", f"modal variable {uvar}", span=t.span)
            return infer_hseq(delta, EMPTY_THEORY, hseq, bind.type, bind.theory, span=t.span)

        case S.FixE(fname, param, annot, theory, ret_type, rec_body, scope) | S.FixC(
            fname, param, annot, theory, ret_type, rec_body, scope
        ):
            ftype = S.ArrowT(annot, S.BoxT(theory, ret_type))
            inner = delta.with_value(fname, ftype).with_value(param, annot)
            got = infer(inner, theory, rec_body)
            _require(got, ret_type, t.span, message="recursive body")
            return infer(delta.with_value(fname, ftype), gamma, scope)

        case S.IntLit():
            return S.INT
        case S.BoolLit():
            return S.BOOL
        case S.UnitLit():
            return S.UNIT

        case S.Pair(left, right):
            return S.ProdT(infer(delta, None, left), infer(delta, None, right))

        case S.Proj1(arg) | S.Proj2(arg):
            tp = infer(delta, None, arg)
            if isinstance(tp, S.BottomT):
                return S.BOTTOM
            if not isinstance(tp, S.ProdT):
                raise TypeCheckError(
                    "argument-mismatch", span=t.span, expected="a pair type", found=tp
                )
            return tp.left if isinstance(t, S.Proj1) else tp.right

        case S.Nil(elem):
            if elem is None:
                raise TypeCheckError(
                    "argument-mismatch",
                    "cannot infer an element type for []",
                    span=t.span,
                )
            return S.ListT(elem)

        case S.ConsE(head, tail):
            th = infer(delta, None, head)
            if isinstance(tail, S.Nil) and tail.elem is None:
                return S.ListT(th)
            tt = infer(delta, None, tail)
            if not isinstance(tt, (S.ListT, S.BottomT)):
                raise TypeCheckError(
                    "argument-mismatch", span=t.span, expected="a list type", found=tt
                )
            return _join(S.ListT(th), tt, t.span, message="list tail")

        case S.Append(left, right):
            tl = infer(delta, None, left)
            tr = infer(delta, None, right)
            for side in (tl, tr):
                if not isinstance(side, (S.ListT, S.BottomT)):
                    raise TypeCheckError(
                        "argument-mismatch", span=t.span, expected="a list type", found=side
                    )
            return _join(tl, tr, t.span, message="append operand")

        case S.Arith(_, left, right):
            _require(infer(delta, None, left), S.INT, t.span, message="arithmetic operand")
            _require(infer(delta, None, right), S.INT, t.span, message="arithmetic operand")
            return S.INT

        case S.Cmp(_, left, right):
            _require(infer(delta, None, left), S.INT, t.span, message="comparison operand")
            _require(infer(delta, None, right), S.INT, t.span, message="comparison operand")
            return S.BOOL

        case S.IfE(cond, then, els) | S.IfC(cond, then, els):
            _require(infer(delta, None, cond), S.BOOL, t.span, message="condition")
            return _join(infer(delta, gamma, then), infer(delta, gamma, els), t.span)

    raise TypeCheckError("argument-mismatch", f"unrecognized term {t!r}")


def infer_expr(delta: ModalContext, e: S.Expr) -> Type:
    return infer(delta, None, e)


def infer_comp(delta: ModalContext, gamma: EffectContext, c: S.Comp) -> Type:
    return infer(delta, gamma, c)


def infer_stmt(delta: ModalContext, gamma: EffectContext, s: S.Stmt) -> Type:
    match s:
        case S.OpCall(op, arg):
            decl = gamma.lookup_op(op)
            if decl is None:
                raise TypeCheckError("op-not-in-context", f"operation {op}", span=s.span)
            ta = infer(delta, None, arg)
            _require(ta, decl.in_type, s.span, message=f"argument of {op}")
            return decl.out_type

        case S.ContCall(kname, arg, state):
            decl = gamma.lookup_cont(kname)
            if decl is None:
                raise TypeCheckError(
                    "unbound-variable", f"continuation variable {kname}", span=s.span
                )
            ta = infer(delta, None, arg)
            _require(ta, decl.in_type, s.span, message=f"argument of {kname}")
            ts = infer(delta, None, state)
            _require(
                ts,
                decl.state_type,
                s.span,
                kind="state-type-mismatch",
                message=f"state passed to {kname}",
            )
            return decl.out_type

        case S.Handle(uvar, hseq, handler, init):
            bind = delta.lookup_modal(uvar)
            if bind is None:
                raise TypeCheckError("unbound-variable", f"modal variable {uvar}", span=s.span)
            mid = infer_hseq(delta, handler.theory, hseq, bind.type, bind.theory, span=s.span)
            ts = infer(delta, None, init)
            sig = check_handler(delta, gamma, handler, mid, ts)
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
    ``ambient`` the theory its final result lives in.  An empty sequence
    requires the source to be contained in the ambient; a nonempty one types
    its prefix under the last clause's handler theory, then that handler and
    its continuation under the ambient.
    """
    if not theta.clauses:
        if S.theory_subset(source_theory, ambient):
            return in_type
        raise TypeCheckError(
            "theory-mismatch",
            "unhandled operations remain",
            span=span,
            expected=ambient,
            found=source_theory,
        )
    last = theta.clauses[-1]
    prefix = S.HSeq(theta.clauses[:-1])
    mid = infer_hseq(delta, last.handler.theory, prefix, in_type, source_theory, span=span)
    ts = infer(delta, None, last.init)
    sig = check_handler(delta, ambient, last.handler, mid, ts)
    return infer(delta.with_value(last.var, sig.out_type), ambient, last.body)


# ---------------------------------------------------------------------------
# Entry point


def infer_term(term: S.Term) -> Type:
    """Synthesize the type of a closed top-level term.

    Expressions are typed in the empty modal context; computations and
    statements additionally get the empty effect context, so any operation
    they perform must be handled internally.
    """
    if isinstance(term, S.Expr):
        return infer(S.EMPTY_MODAL, None, term)
    if isinstance(term, S.Comp):
        return infer(S.EMPTY_MODAL, EMPTY_THEORY, term)
    if isinstance(term, S.Stmt):
        return infer_stmt(S.EMPTY_MODAL, EMPTY_THEORY, term)
    raise ValueError(f"cannot type a {type(term).__name__} at top level")
