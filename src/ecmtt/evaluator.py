"""Call-by-value small-step evaluation.

Expressions step to expression values (literals, functions, boxes, pairs
and lists of values); computations step to `ret v`.  Handling is not a
step of its own: replacing a box variable substitutes the boxed code into
every handle and eval of that variable, so a beta-letbox step can do a
lot of work at once.  Between redexes the stepper walks the leftmost
non-value position, which is the only congruence this language needs: a
closed well-typed computation never has a bind at its head, because the
top level offers no operations to call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from . import subst
from . import syntax as S

DEFAULT_MAX_STEPS = 1_000_000


def is_value(t: S.Term) -> bool:
    """Closed runtime values; `ret v` is the terminal computation."""
    match t:
        case S.IntLit() | S.BoolLit() | S.UnitLit() | S.Lam() | S.BoxTerm() | S.Nil():
            return True
        case S.Pair(left, right):
            return is_value(left) and is_value(right)
        case S.ConsE(head, tail):
            return is_value(head) and is_value(tail)
        case S.Ret(value):
            return is_value(value)
        case _:
            return False


@dataclass(frozen=True)
class Stepped:
    term: S.Term
    rule: str


@dataclass(frozen=True)
class Stuck:
    reason: str


class _StuckError(Exception):
    def __init__(self, reason: str):
        self.reason = reason


def _unroll(t: Union[S.FixE, S.FixC]) -> S.Term:
    """One unrolling: the recursive name becomes a function whose body is
    the same fix with its own body boxed as the scope."""
    lam = S.Lam(
        t.param,
        t.annot,
        S.FixE(
            t.fname,
            t.param,
            t.annot,
            t.theory,
            t.ret_type,
            t.rec_body,
            S.BoxTerm(t.theory, t.rec_body),
        ),
    )
    return subst.subst_values(t.scope, {t.fname: lam})


def step(t: S.Term) -> Optional[Stepped]:
    """One step, or None when `t` is a value.  Raises _StuckError when no
    rule applies."""
    match t:
        case _ if is_value(t):
            return None
        case S.Var(name):
            raise _StuckError(f"unbound variable {name}")
        case S.App(f, a):
            if not is_value(f):
                inner = step(f)
                assert inner is not None
                return Stepped(S.App(inner.term, a, span=t.span), f"cong-app-l:{inner.rule}")
            if not is_value(a):
                inner = step(a)
                assert inner is not None
                return Stepped(S.App(f, inner.term, span=t.span), f"cong-app-r:{inner.rule}")
            if isinstance(f, S.Lam):
                return Stepped(subst.subst_values(f.body, {f.param: a}), "beta-app")
            raise _StuckError("application of a non-function")
        case S.LetBoxE(u, e, body):
            if isinstance(e, S.BoxTerm):
                return Stepped(subst.modal_subst(body, u, e.body), "beta-letbox")
            if not is_value(e):
                inner = step(e)
                assert inner is not None
                return Stepped(S.LetBoxE(u, inner.term, body, span=t.span), "cong-letbox")
            raise _StuckError("let box on a non-box value")
        case S.LetBoxC(u, e, body):
            if isinstance(e, S.BoxTerm):
                return Stepped(subst.modal_subst(body, u, e.body), "beta-letbox")
            if not is_value(e):
                inner = step(e)
                assert inner is not None
                return Stepped(S.LetBoxC(u, inner.term, body, span=t.span), "cong-letbox")
            raise _StuckError("let box on a non-box value")
        case S.FixE() | S.FixC():
            return Stepped(_unroll(t), "unroll-fix")
        case S.IfE(cond, a, b) | S.IfC(cond, a, b):
            cls = S.IfE if isinstance(t, S.IfE) else S.IfC
            if not is_value(cond):
                inner = step(cond)
                assert inner is not None
                return Stepped(cls(inner.term, a, b, span=t.span), "cong-if")
            if isinstance(cond, S.BoolLit):
                return Stepped(a if cond.value else b, "if-true" if cond.value else "if-false")
            raise _StuckError("conditional on a non-boolean")
        case S.Ret(e):
            inner = step(e)
            assert inner is not None
            return Stepped(S.Ret(inner.term, span=t.span), f"cong-ret:{inner.rule}")
        case S.Pair(l, r):
            if not is_value(l):
                inner = step(l)
                assert inner is not None
                return Stepped(S.Pair(inner.term, r, span=t.span), f"cong-pair-l:{inner.rule}")
            inner = step(r)
            assert inner is not None
            return Stepped(S.Pair(l, inner.term, span=t.span), f"cong-pair-r:{inner.rule}")
        case S.Proj1(a):
            if not is_value(a):
                inner = step(a)
                assert inner is not None
                return Stepped(S.Proj1(inner.term, span=t.span), f"cong-proj:{inner.rule}")
            if isinstance(a, S.Pair):
                return Stepped(a.left, "proj-fst")
            raise _StuckError("projection from a non-pair")
        case S.Proj2(a):
            if not is_value(a):
                inner = step(a)
                assert inner is not None
                return Stepped(S.Proj2(inner.term, span=t.span), f"cong-proj:{inner.rule}")
            if isinstance(a, S.Pair):
                return Stepped(a.right, "proj-snd")
            raise _StuckError("projection from a non-pair")
        case S.ConsE(h, tl):
            if not is_value(h):
                inner = step(h)
                assert inner is not None
                return Stepped(S.ConsE(inner.term, tl, span=t.span), f"cong-cons-l:{inner.rule}")
            inner = step(tl)
            assert inner is not None
            return Stepped(S.ConsE(h, inner.term, span=t.span), f"cong-cons-r:{inner.rule}")
        case S.Append(l, r):
            if not is_value(l):
                inner = step(l)
                assert inner is not None
                return Stepped(S.Append(inner.term, r, span=t.span), f"cong-append-l:{inner.rule}")
            if not is_value(r):
                inner = step(r)
                assert inner is not None
                return Stepped(S.Append(l, inner.term, span=t.span), f"cong-append-r:{inner.rule}")
            folded = subst.mk_append(l, r, span=t.span)
            if isinstance(folded, S.Append):
                raise _StuckError("append of non-list values")
            return Stepped(folded, "append")
        case S.Arith(op, l, r):
            if not is_value(l):
                inner = step(l)
                assert inner is not None
                return Stepped(
                    S.Arith(op, inner.term, r, span=t.span), f"cong-arith-l:{inner.rule}"
                )
            if not is_value(r):
                inner = step(r)
                assert inner is not None
                return Stepped(
                    S.Arith(op, l, inner.term, span=t.span), f"cong-arith-r:{inner.rule}"
                )
            if op == "/" and isinstance(r, S.IntLit) and r.value == 0:
                raise _StuckError("division-by-zero")
            folded = subst.mk_arith(op, l, r, span=t.span)
            if isinstance(folded, S.Arith):
                raise _StuckError("arithmetic on non-integers")
            return Stepped(folded, "arith")
        case S.Cmp(op, l, r):
            if not is_value(l):
                inner = step(l)
                assert inner is not None
                return Stepped(S.Cmp(op, inner.term, r, span=t.span), f"cong-cmp-l:{inner.rule}")
            if not is_value(r):
                inner = step(r)
                assert inner is not None
                return Stepped(S.Cmp(op, l, inner.term, span=t.span), f"cong-cmp-r:{inner.rule}")
            folded = subst.mk_cmp(op, l, r, span=t.span)
            if isinstance(folded, S.Cmp):
                raise _StuckError("comparison of non-integers")
            return Stepped(folded, "cmp")
        case S.EvalTerm():
            raise _StuckError("eval of an unresolved box variable")
        case S.Bind(stmt, _, _):
            match stmt:
                case S.OpCall(op, _):
                    raise _StuckError(f"unhandled operation {op} at top level")
                case S.ContCall(k, _, _):
                    raise _StuckError(f"unapplied continuation {k} at top level")
                case _:
                    raise _StuckError("handle of an unresolved box variable")
        case _:
            raise _StuckError("no rule applies")


@dataclass(frozen=True)
class FuelExhausted:
    steps: int


@dataclass(frozen=True)
class Value:
    term: S.Term


Final = Union[Value, Stuck, FuelExhausted]


@dataclass(frozen=True)
class Trace:
    initial: S.Term
    steps: tuple[Stepped, ...]
    final: Final
    step_count: int = 0


def evaluate(t: S.Term, max_steps: int = DEFAULT_MAX_STEPS, record: bool = False) -> Trace:
    """Step to a value, recording the path when asked.

    The budget is checked before each step, so no step beyond `max_steps`
    is computed: a term that is not a value once the budget is spent ends
    in `FuelExhausted`, even one that would have got stuck."""
    initial = t
    steps: list[Stepped] = []
    count = 0
    while True:
        if count >= max_steps:
            final = Value(t) if is_value(t) else FuelExhausted(count)
            return Trace(initial, tuple(steps), final, count)
        try:
            stepped = step(t)
        except _StuckError as e:
            return Trace(initial, tuple(steps), Stuck(e.reason), count)
        except subst.SubstitutionError as e:
            return Trace(initial, tuple(steps), Stuck(str(e)), count)
        except subst.OutOfFuel:
            return Trace(initial, tuple(steps), FuelExhausted(count), count)
        if stepped is None:
            return Trace(initial, tuple(steps), Value(t), count)
        count += 1
        if record:
            steps.append(stepped)
        t = stepped.term
