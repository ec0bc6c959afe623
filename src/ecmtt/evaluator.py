"""Call-by-value small-step evaluation.

Expressions step to expression values (literals, functions, boxes, pairs
and lists of values); computations step to `ret v`.  Handling is not a
step of its own: replacing a box variable substitutes the boxed code into
every handle and eval of that variable, so a beta-letbox step can do a
lot of work at once.  Between redexes the stepper walks the leftmost
non-value position, which is the only congruence this language needs: a
closed well-typed computation never has a bind at its head, because the
top level offers no operations to call.

The stepper is a refocusing machine (Danvy and Nielsen, "Refocusing in
reduction semantics", 2004).  It keeps the evaluation context as a stack
of frames and, after each contraction, carries on from the contractum:
it descends into the leftmost non-value child, and plugs a value back
into its parent only when the focus is a value.  It never goes back to
the root, so a step costs about the size of its redex.  The whole term
and the nested rule name are built only when a step is recorded.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Generator, Optional, Union

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
    """No rule applies; the message says why."""


# The congruence positions: for each node class, the children evaluated
# before the node itself, in order, with the rule label of a step inside
# each.  A node with every listed child a value is a redex, unless its
# class is one of the value forms below.
_CONGRUENCE: dict[type, tuple[tuple[str, str], ...]] = {
    S.App: (("fn", "cong-app-l"), ("arg", "cong-app-r")),
    S.LetBoxE: (("bound", "cong-letbox"),),
    S.LetBoxC: (("bound", "cong-letbox"),),
    S.IfE: (("cond", "cong-if"),),
    S.IfC: (("cond", "cong-if"),),
    S.Ret: (("value", "cong-ret"),),
    S.Pair: (("left", "cong-pair-l"), ("right", "cong-pair-r")),
    S.Proj1: (("arg", "cong-proj"),),
    S.Proj2: (("arg", "cong-proj"),),
    S.ConsE: (("head", "cong-cons-l"), ("tail", "cong-cons-r")),
    S.Append: (("left", "cong-append-l"), ("right", "cong-append-r")),
    S.Arith: (("left", "cong-arith-l"), ("right", "cong-arith-r")),
    S.Cmp: (("left", "cong-cmp-l"), ("right", "cong-cmp-r")),
}

# Classes whose node is a value once its evaluated children are: `is_value`.
_VALUE_FORMS = frozenset(
    {S.IntLit, S.BoolLit, S.UnitLit, S.Lam, S.BoxTerm, S.Nil, S.Pair, S.ConsE, S.Ret}
)

# Congruences whose rule name hides the step taken inside them.
_OPAQUE = frozenset({"cong-letbox", "cong-if"})

# A frame of the evaluation context: a parent and the index, into its
# `_CONGRUENCE` entry, of the child the focus replaces.
_Frame = tuple[S.Term, int]


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


def _contract(t: S.Term) -> tuple[S.Term, str]:
    """The contractum and rule of a redex: a non-value whose evaluated
    children are values.  Raises _StuckError when no rule applies."""
    match t:
        case S.Var(name):
            raise _StuckError(f"unbound variable {name}")
        case S.App(f, a):
            if isinstance(f, S.Lam):
                return subst.subst_values(f.body, {f.param: a}), "beta-app"
            raise _StuckError("application of a non-function")
        case S.LetBoxE(u, e, body) | S.LetBoxC(u, e, body):
            if isinstance(e, S.BoxTerm):
                return subst.modal_subst(body, u, e.body), "beta-letbox"
            raise _StuckError("let box on a non-box value")
        case S.FixE() | S.FixC():
            return _unroll(t), "unroll-fix"
        case S.IfE(cond, a, b) | S.IfC(cond, a, b):
            if isinstance(cond, S.BoolLit):
                return (a, "if-true") if cond.value else (b, "if-false")
            raise _StuckError("conditional on a non-boolean")
        case S.Proj1(a) | S.Proj2(a):
            if isinstance(a, S.Pair):
                return (a.left, "proj-fst") if isinstance(t, S.Proj1) else (a.right, "proj-snd")
            raise _StuckError("projection from a non-pair")
        case S.Append(l, r):
            folded = subst.mk_append(l, r, span=t.span)
            if isinstance(folded, S.Append):
                raise _StuckError("append of non-list values")
            return folded, "append"
        case S.Arith(op, l, r):
            if op == "/" and isinstance(r, S.IntLit) and r.value == 0:
                raise _StuckError("division-by-zero")
            folded = subst.mk_arith(op, l, r, span=t.span)
            if isinstance(folded, S.Arith):
                raise _StuckError("arithmetic on non-integers")
            return folded, "arith"
        case S.Cmp(op, l, r):
            folded = subst.mk_cmp(op, l, r, span=t.span)
            if isinstance(folded, S.Cmp):
                raise _StuckError("comparison of non-integers")
            return folded, "cmp"
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


def _plug(parent: S.Term, i: int, child: S.Term) -> S.Term:
    """`parent` with `child` at its i-th congruence position."""
    return dataclasses.replace(parent, **{_CONGRUENCE[type(parent)][i][0]: child})


def _recorded(frames: list[_Frame], contractum: S.Term, rule: str) -> Stepped:
    """The whole term after a contraction, and the rule named through the
    context; the rule name stops at an opaque congruence."""
    term = contractum
    for parent, i in reversed(frames):
        term = _plug(parent, i, term)
    labels = []
    for parent, i in frames:
        labels.append(_CONGRUENCE[type(parent)][i][1])
        if labels[-1] in _OPAQUE:
            break
    else:
        labels.append(rule)
    return Stepped(term, ":".join(labels))


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


def run(
    t: S.Term, max_steps: int = DEFAULT_MAX_STEPS, record: bool = True
) -> Generator[Optional[Stepped], None, Final]:
    """Yield each step as it is made (None for each one when not `record`)
    and return the outcome.

    The budget is checked before each step, so no step beyond `max_steps`
    is computed: a term that is not a value once the budget is spent ends
    in `FuelExhausted`, even one that would have got stuck."""
    frames: list[_Frame] = []
    focus = t
    start = 0  # the first of the focus's positions not yet known to hold a value
    count = 0
    while True:
        # Refocus: down to the leftmost non-value child, up while the
        # focus is a value.
        positions = _CONGRUENCE.get(type(focus), ())
        i = start
        while i < len(positions) and is_value(getattr(focus, positions[i][0])):
            i += 1
        if i < len(positions):
            frames.append((focus, i))
            focus, start = getattr(focus, positions[i][0]), 0
            continue
        if type(focus) in _VALUE_FORMS:
            if not frames:
                return Value(focus)
            parent, j = frames.pop()
            focus, start = _plug(parent, j, focus), j + 1
            continue
        if count >= max_steps:
            return FuelExhausted(count)
        try:
            contractum, rule = _contract(focus)
        except (_StuckError, subst.SubstitutionError) as e:
            return Stuck(str(e))
        except subst.OutOfFuel:
            return FuelExhausted(count)
        count += 1
        yield _recorded(frames, contractum, rule) if record else None
        focus, start = contractum, 0


def step(t: S.Term) -> Optional[Stepped]:
    """One step, or None when `t` is a value: `run` with a budget of one
    step.  Raises _StuckError when no rule applies, and the engine's
    OutOfFuel when its own budget runs out within the step."""
    try:
        return next(run(t, 1))
    except StopIteration as stop:
        match stop.value:
            case Stuck(reason):
                raise _StuckError(reason) from None
            case FuelExhausted():
                raise subst.OutOfFuel() from None
        return None


def evaluate(t: S.Term, max_steps: int = DEFAULT_MAX_STEPS, record: bool = False) -> Trace:
    """Step to a value, recording the path when asked; see `run`."""
    steps = run(t, max_steps, record)
    recorded: list[Stepped] = []
    count = 0
    while True:
        try:
            stepped = next(steps)
        except StopIteration as stop:
            return Trace(t, tuple(recorded), stop.value, count)
        count += 1
        if stepped is not None:
            recorded.append(stepped)
