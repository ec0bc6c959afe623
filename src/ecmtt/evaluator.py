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

from typing import Generator, Optional, Union

from . import subst
from . import syntax as S
from .record import Record, record

DEFAULT_MAX_STEPS = 1_000_000


def is_value(t: S.Term) -> bool:
    """Closed runtime values; `ret v` is the terminal computation."""
    match t:
        case S.IntLit() | S.BoolLit() | S.UnitLit() | S.Lam() | S.BoxTerm():
            return True
        case S.Pair(left, right):
            return is_value(left) and is_value(right)
        case S.ListE(elems):
            return all(map(is_value, elems))
        case S.Ret(value):
            return is_value(value)
        case _:
            return False


@record
class Stepped(Record):
    term: S.Term
    rule: str


@record
class Stuck(Record):
    reason: str


class _StuckError(Exception):
    """No rule applies; the message says why."""


# The congruence positions: for each node class, the children evaluated
# before the node itself, in order, each named and then taken as its
# position in the node, with the rule label of a step inside it.  A node
# with every listed child a value is a redex, unless its class is one of
# the value forms below.
_CONGRUENCE: dict[type, tuple[tuple[int, str], ...]] = {
    S.App: (("fn", "cong-app-l"), ("arg", "cong-app-r")),
    S.LetBox: (("bound", "cong-letbox"),),
    S.If: (("cond", "cong-if"),),
    S.Ret: (("value", "cong-ret"),),
    S.Pair: (("left", "cong-pair-l"), ("right", "cong-pair-r")),
    S.Proj1: (("arg", "cong-proj"),),
    S.Proj2: (("arg", "cong-proj"),),
    S.Append: (("left", "cong-append-l"), ("right", "cong-append-r")),
    S.Arith: (("left", "cong-arith-l"), ("right", "cong-arith-r")),
    S.Cmp: (("left", "cong-cmp-l"), ("right", "cong-cmp-r")),
}
_CONGRUENCE = {cls: tuple((cls.fields().index(f), rule) for f, rule in kids) for cls, kids in _CONGRUENCE.items()}


class _Elems(list):
    """The elements of a list the machine is inside, left to right, each
    put in place as it becomes a value: the list is rebuilt, with no source
    span, once all are values or when a step is recorded, not once per
    element.  A step inside element i is labelled as if the list were a
    chain of cons cells: `cong-cons-r` i times, then `cong-cons-l`."""


# Classes whose node is a value once its evaluated children are: `is_value`.
# A list's elements are its evaluated children, read by `run` itself.
_VALUE_FORMS = frozenset(
    {S.IntLit, S.BoolLit, S.UnitLit, S.Lam, S.BoxTerm, S.Pair, S.ListE, _Elems, S.Ret}
)

# Congruences whose rule name hides the step taken inside them.
_OPAQUE = frozenset({"cong-letbox", "cong-if"})

# A frame of the evaluation context: a parent and the index, into its
# `_CONGRUENCE` entry or its list elements, of the child the focus replaces.
_Frame = tuple[Union[S.Term, _Elems], int]


def _unroll(t: S.Fix) -> S.Term:
    """One unrolling: the recursive name becomes a function whose body is
    the same fix with its own body boxed as the scope.

    The function depends on the definition alone, so it is built once and
    kept on the body node, outside its record fields, as `_unrolled`: a
    pair of the key it was built from and the function.  Later unrollings
    reuse it, already normal and with its free names known.  The key holds
    the whole definition, the names compared by value and the types and
    theory by identity, because a renamed `fname` or `param` of a fix that
    does not recurse leaves the same body object."""
    key = (t.fname, t.param, t.annot, t.theory, t.ret_type)
    memo = getattr(t.rec_body, "_unrolled", None)
    if memo is None or not _same_definition(memo[0], key):
        lam = S.Lam(
            t.param,
            t.annot,
            S.Fix(*key, t.rec_body, S.BoxTerm(t.theory, t.rec_body)),
        )
        memo = (key, lam)
        object.__setattr__(t.rec_body, "_unrolled", memo)
    return subst.subst_values(t.scope, {t.fname: memo[1]})


def _same_definition(a: tuple, b: tuple) -> bool:
    """Two `_unroll` keys: names equal, types and theory the same objects."""
    return a[0] == b[0] and a[1] == b[1] and all(x is y for x, y in zip(a[2:], b[2:]))


# The redexes that their class's smart constructor folds, each with the rule
# of the fold and the reason the term is stuck when it does not fold.
_FOLDS = {
    S.Proj1: ("proj-fst", "projection from a non-pair"),
    S.Proj2: ("proj-snd", "projection from a non-pair"),
    S.Append: ("append", "append of non-list values"),
    S.Arith: ("arith", "arithmetic on non-integers"),
    S.Cmp: ("cmp", "comparison of non-integers"),
}


def _contract(t: S.Term) -> tuple[S.Term, str]:
    """The contractum and rule of a redex: a non-value whose evaluated
    children are values.  Raises _StuckError when no rule applies."""
    cls = type(t)
    if cls is S.App:
        f = t.fn
        if type(f) is S.Lam:
            return subst.subst_values(f.body, {f.param: t.arg}), "beta-app"
        raise _StuckError("application of a non-function")
    if cls is S.LetBox:
        e = t.bound
        if type(e) is S.BoxTerm:
            return subst.modal_subst(t.body, t.uvar, e.body), "beta-letbox"
        raise _StuckError("let box on a non-box value")
    if cls is S.Fix:
        return _unroll(t), "unroll-fix"
    if cls is S.If:
        cond = t.cond
        if type(cond) is S.BoolLit:
            return (t.then, "if-true") if cond.value else (t.els, "if-false")
        raise _StuckError("conditional on a non-boolean")
    if cls in _FOLDS:
        if cls is S.Arith and t.op == "/" and type(t.right) is S.IntLit and t.right.value == 0:
            raise _StuckError("division-by-zero")
        folded = subst._BUILD[cls](t)
        rule, reason = _FOLDS[cls]
        if type(folded) is cls:
            raise _StuckError(reason)
        return folded, rule
    if cls is S.Var:
        raise _StuckError(f"unbound variable {t.name}")
    if cls is S.EvalTerm:
        raise _StuckError("eval of an unresolved box variable")
    if cls is S.Bind:
        stmt = t.stmt
        if type(stmt) is S.OpCall:
            raise _StuckError(f"unhandled operation {stmt.op} at top level")
        if type(stmt) is S.ContCall:
            raise _StuckError(f"unapplied continuation {stmt.kname} at top level")
        raise _StuckError("handle of an unresolved box variable")
    raise _StuckError("no rule applies")


def _plug(parent: Union[S.Term, _Elems], i: int, child: S.Term) -> Union[S.Term, _Elems]:
    """`parent` with `child` at its i-th congruence position, rebuilt from
    its fields in order; a list's elements take it in place."""
    cls = type(parent)
    if cls is _Elems:
        parent[i] = child
        return parent
    args = list(parent)
    args[_CONGRUENCE[cls][i][0]] = child
    return cls._make(args)


def _recorded(frames: list[_Frame], contractum: S.Term, rule: str) -> Stepped:
    """The whole term after a contraction, and the rule named through the
    context; the rule name stops at an opaque congruence.  A list's
    elements take the stepped element in place until it is a value."""
    term = contractum
    for parent, i in reversed(frames):
        term = _plug(parent, i, term)
        if type(term) is _Elems:
            term = S.ListE(tuple(term))
    labels = []
    for parent, i in frames:
        if type(parent) is _Elems:
            labels += ["cong-cons-r"] * i + ["cong-cons-l"]
            continue
        labels.append(_CONGRUENCE[type(parent)][i][1])
        if labels[-1] in _OPAQUE:
            break
    else:
        labels.append(rule)
    return Stepped(term, ":".join(labels))


@record
class FuelExhausted(Record):
    """The step budget ran out after `steps` steps, or, with `budget`
    "substitution", the engine's own fuel within the next step."""

    steps: int
    budget: str = "steps"


@record
class Value(Record):
    term: S.Term


Final = Union[Value, Stuck, FuelExhausted]


@record
class Trace(Record):
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
        while i < len(positions) and is_value(focus[positions[i][0]]):
            i += 1
        if i < len(positions):
            frames.append((focus, i))
            focus, start = focus[positions[i][0]], 0
            continue
        if type(focus) in _VALUE_FORMS:
            if type(focus) is S.ListE or type(focus) is _Elems:
                # Into the first element from `start` that is not a value.
                elems = focus if type(focus) is _Elems else focus.elems
                i = start
                while i < len(elems) and is_value(elems[i]):
                    i += 1
                if i < len(elems):
                    frames.append((focus if elems is focus else _Elems(elems), i))
                    focus, start = elems[i], 0
                    continue
                if elems is focus:
                    focus = S.ListE(tuple(elems))
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
            return FuelExhausted(count, "substitution")
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
    """Step to a value, recording the path when asked; see `run`.

    The engine's fuel is charged only for work not already cached on the
    term, so evaluating the same term again can spend fewer ticks and run
    out of fuel later; the steps and the outcome are otherwise the same."""
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
