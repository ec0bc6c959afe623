"""The substitution engine.

Everything the operational semantics does is a form of substitution:
plugging expressions in for value variables, threading a computation's
result into a continuation, replaying a captured continuation with a new
argument and state, running a handler over a computation, and replacing a
box variable with boxed code (which is where handling actually happens).

All operations are capture-avoiding across the value, modal, and
continuation namespaces.  Operation names are never renamed: handler
clause bodies and handling-sequence continuations take their operations
from the enclosing context, so a rename would change which operations
they perform.  Well-typed expressions are operation-closed, which keeps
this safe.

Reconstruction goes through smart constructors that fold pure redexes on
literals (arithmetic, comparisons, projections and appends of values,
conditionals on literal booleans).  Division by zero is never folded; the
stepper reports it if it is actually reached.

The walks read each node's children and binders from `syntax.SCHEMA`, so
only the cases where the operations differ from a congruence are written
out: a variable, a continuation call, a handle or eval of the substituted
box variable, and the operations on computations.
"""

from __future__ import annotations

from typing import Callable, Optional

from . import syntax as S
from .syntax import CONTS, MODALS, OPS, SCHEMA, VALUES, Span, bound_names, free_vars, fresh_name

DEFAULT_FUEL = 1_000_000


class SubstitutionError(Exception):
    pass


class OutOfFuel(Exception):
    pass


# ---------------------------------------------------------------------------
# Values and smart constructors


def is_pure_value(e: S.Expr) -> bool:
    """Open values: safe to duplicate or discard during substitution."""
    match e:
        case S.Var() | S.IntLit() | S.BoolLit() | S.UnitLit() | S.Lam() | S.BoxTerm() | S.Nil():
            return True
        case S.Pair(left, right):
            return is_pure_value(left) and is_pure_value(right)
        case S.ConsE(head, tail):
            return is_pure_value(head) and is_pure_value(tail)
        case _:
            return False


def value_spine(e: S.Expr) -> Optional[list[S.Expr]]:
    """The elements of a nil-terminated chain of pure values, else None."""
    elems: list[S.Expr] = []
    while True:
        match e:
            case S.Nil():
                return elems
            case S.ConsE(head, tail) if is_pure_value(head):
                elems.append(head)
                e = tail
            case _:
                return None


def _div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def mk_arith(op: str, left: S.Expr, right: S.Expr, span: Optional[Span] = None) -> S.Expr:
    if isinstance(left, S.IntLit) and isinstance(right, S.IntLit):
        a, b = left.value, right.value
        match op:
            case "+":
                return S.IntLit(a + b, span=span)
            case "-":
                return S.IntLit(a - b, span=span)
            case "*":
                return S.IntLit(a * b, span=span)
            case "/" if b != 0:
                return S.IntLit(_div(a, b), span=span)
    return S.Arith(op, left, right, span=span)


def mk_cmp(op: str, left: S.Expr, right: S.Expr, span: Optional[Span] = None) -> S.Expr:
    if isinstance(left, S.IntLit) and isinstance(right, S.IntLit):
        a, b = left.value, right.value
        return S.BoolLit(a == b if op == "=" else a < b, span=span)
    return S.Cmp(op, left, right, span=span)


def _value_pair(arg: S.Expr) -> bool:
    return isinstance(arg, S.Pair) and is_pure_value(arg.left) and is_pure_value(arg.right)


def mk_proj1(arg: S.Expr, span: Optional[Span] = None) -> S.Expr:
    return arg.left if _value_pair(arg) else S.Proj1(arg, span=span)


def mk_proj2(arg: S.Expr, span: Optional[Span] = None) -> S.Expr:
    return arg.right if _value_pair(arg) else S.Proj2(arg, span=span)


def mk_append(left: S.Expr, right: S.Expr, span: Optional[Span] = None) -> S.Expr:
    spine = value_spine(left)
    if spine is None or value_spine(right) is None:
        return S.Append(left, right, span=span)
    result = right
    for elem in reversed(spine):
        result = S.ConsE(elem, result, span=span)
    return result


def mk_if(cond: S.Expr, then: S.Term, els: S.Term, span: Optional[Span] = None) -> S.Term:
    """A conditional, an expression or a computation as `then` is."""
    if isinstance(cond, S.BoolLit):
        return then if cond.value else els
    return (S.IfC if isinstance(then, S.Comp) else S.IfE)(cond, then, els, span=span)


# ---------------------------------------------------------------------------
# The engine

# The constructor every walk rebuilds a node with: the smart constructor of
# its class, else the class itself.  Each takes the fields in constructor
# order, span last, as `Row.fields` lists them.
_BUILD: dict[type, Callable[..., S.Term]] = {cls: cls for cls in SCHEMA}
_BUILD.update(
    {
        S.Proj1: mk_proj1,
        S.Proj2: mk_proj2,
        S.Append: mk_append,
        S.Arith: mk_arith,
        S.Cmp: mk_cmp,
        S.IfE: mk_if,
        S.IfC: mk_if,
    }
)

# The children of each computation but `ret` that its result comes from,
# its tails, by name and by position in `Row.fields`.
_TAILS = {S.Bind: ("rest",), S.LetBoxC: ("body",), S.FixC: ("scope",), S.IfC: ("then", "els")}
_TAIL_AT = {cls: tuple(map(SCHEMA[cls].fields.index, tails)) for cls, tails in _TAILS.items()}

# The expression form of each computation that `eval_meta` strips down.
_EXPR_TWIN = {S.LetBoxC: S.LetBoxE, S.FixC: S.FixE, S.IfC: S.IfE}


def _field_values(t: S.Term, row: S.Row) -> list:
    return [getattr(t, f) for f in row.fields]


def _unshadowed(t: S.Term, row: S.Row, ns: str, name: str) -> tuple[str, ...]:
    """The children of `t` where no binder of `t` rebinds `name` in `ns`."""
    if not row.binds:
        return row.children
    return tuple(
        c for c in row.children if not any(b == ns and getattr(t, f) == name for f, b in row.over[c])
    )


def _map_into(row: S.Row, args: list, into: tuple[str, ...], walk: Callable, *extra) -> list:
    """`args`, a node's field values, with `walk(child, *extra)` in place
    of each child in `into`, item by item in a tuple."""
    for i, c, many in row.kids:
        if c in into:
            if many:
                items = []
                for item in args[i]:
                    items.append(walk(item, *extra))
                args[i] = tuple(items)
            else:
                args[i] = walk(args[i], *extra)
    return args


class _Engine:
    def __init__(self, fuel: int = DEFAULT_FUEL):
        self.fuel = fuel

    def tick(self) -> None:
        self.fuel -= 1
        if self.fuel < 0:
            raise OutOfFuel("substitution fuel exhausted")

    # -- plain normalization (rebuild through smart constructors)

    def norm(self, t: S.Term) -> S.Term:
        """`t` with every pure redex on literals folded.  A node none of
        whose children changes and that does not fold is returned as it is.
        The result is stored on the node, outside its dataclass fields as
        `free_vars` stores its own, and marks itself as its own normal form,
        so a payload that is already normal costs one lookup and no fuel.
        The memo check is here, not in a wrapper, and tuples of clauses are
        walked by loops, so deep terms take one frame per tree level."""
        nf = getattr(t, "_nf", None)
        if nf is not None:
            return nf
        self.tick()
        norm = self.norm
        cls = type(t)
        row = SCHEMA[cls]
        args = _field_values(t, row)
        changed = False
        for i, _, many in row.kids:
            kid = args[i]
            if many:
                items = []
                for item in kid:
                    items.append(norm(item))
                    changed = changed or items[-1] is not item
                args[i] = tuple(items)
            else:
                args[i] = norm(kid)
                changed = changed or args[i] is not kid
        build = _BUILD[cls]
        if build is cls:
            out = cls(*args) if changed else t
        else:
            out = build(*args)
            # Unchanged children and no fold: the node is normal as it is.
            # A fold may return a child of the same class, an `if` branch.
            if not changed and type(out) is cls and all(out is not args[i] for i, _, _ in row.kids):
                out = t
        object.__setattr__(t, "_nf", out)
        if out is not t:
            object.__setattr__(out, "_nf", out)
        return out

    # -- value substitution

    def subst(self, t: S.Term, mapping: dict[str, S.Expr]) -> S.Term:
        m = {k: self.norm(v) for k, v in mapping.items()}
        return self.sub(t, m) if m else t

    @staticmethod
    def _names(m: dict[str, S.Expr]) -> set[str]:
        """Every name a mapping can clash with: its keys and the free value,
        modal and continuation names of its payloads."""
        names = set(m)
        for v in m.values():
            fv = free_vars(v)
            names |= fv.values
            names |= fv.modals
            names |= fv.conts
        return names

    def _value_binder(
        self, b: str, m: dict[str, S.Expr], names: set[str], bodies: tuple[S.Term, ...]
    ) -> tuple[str, dict[str, S.Expr], set[str]]:
        """Adjust a mapping for descent under a value binder, renaming the
        binder through the mapping itself when a payload would capture it.
        The names returned hold the new mapping's names, and may hold more:
        a name too many only means a subterm is walked, not skipped."""
        if b not in names:
            return b, m, names
        m2 = {k: v for k, v in m.items() if k != b}
        if not m2:
            return b, m2, names
        if any(b in free_vars(v).values for v in m2.values()):
            avoid = set(m2)
            for v in m2.values():
                avoid |= free_vars(v).values
            for body in bodies:
                avoid |= free_vars(body).values
            b2 = fresh_name(b, avoid)
            m2[b] = S.Var(b2)
            return b2, m2, names | {b2}
        return b, m2, names

    def _sub_binders(
        self, row: S.Row, args: list, m: dict[str, S.Expr], names: set[str]
    ) -> dict[str, tuple[dict[str, S.Expr], set[str]]]:
        """The mapping, with its names, that each child under a binder is
        substituted with.  A value binder is handled by `_value_binder`; a
        modal or continuation binder that a payload would capture is renamed
        in the children it scopes over.  New binder names and renamed
        children are written into `args`, the node's field values."""
        index = row.fields.index
        inner: dict[str, tuple[dict[str, S.Expr], set[str]]] = {}
        for f, ns, scope in row.binds:
            if ns == OPS:
                continue
            m2, n2 = inner.get(scope[0], (m, names))
            b = args[index(f)]
            if ns == VALUES:
                b2, m2, n2 = self._value_binder(b, m2, n2, tuple(args[index(c)] for c in scope))
                args[index(f)] = b2
            elif m2 and any(b in getattr(free_vars(v), ns) for v in m2.values()):
                avoid: set[str] = set()
                for v in m2.values():
                    avoid |= getattr(free_vars(v), ns)
                self._freshen_binder(row, args, f, ns, scope, avoid)
            for c in scope:
                inner[c] = (m2, n2)
        return inner

    def sub(self, t: S.Term, m: dict[str, S.Expr], names: Optional[set[str]] = None) -> S.Term:
        """Substitute normalized payloads for the free value variables of
        `t` (`m` is not empty; `names` holds at least `_names(m)`, and is
        computed here when not given).

        A subterm with no mapped free name that binds none of `names` is
        returned as `norm(t)` without a walk: there the walk would rename no
        binder and keep the whole mapping, so it would rebuild the subterm
        through the smart constructors `norm` uses.  A skipped subterm costs
        no fuel when it is already normal.  Under a binder that drops the
        last key, a child is left as it is.  When `t` is normal, so is the
        result, and it is marked so, as `norm` marks its own.  The checks
        are here, not in a wrapper, so deep terms take one frame per level."""
        if names is None:
            names = self._names(m)
        if free_vars(t).values.isdisjoint(m) and bound_names(t).isdisjoint(names):
            return self.norm(t)
        self.tick()
        cls = type(t)
        if cls is S.Var:
            return m[t.name]
        sub = self.sub
        row = SCHEMA[cls]
        args = _field_values(t, row)
        inner = self._sub_binders(row, args, m, names) if row.binds else {}
        for i, c, many in row.kids:
            m2, n2 = inner[c] if c in inner else (m, names)
            if not m2:
                continue
            if many:
                items = []
                for item in args[i]:
                    items.append(sub(item, m2, n2))
                args[i] = tuple(items)
            else:
                args[i] = sub(args[i], m2, n2)
        out = _BUILD[cls](*args)
        if getattr(t, "_nf", None) is t:
            object.__setattr__(out, "_nf", out)
        return out

    # -- renaming of modal and continuation names

    def _rename(self, t: S.Term, ns: str, old: str, new: str) -> S.Term:
        """Rename a free name of namespace `ns`.  `new` must be fresh for
        `t`.  A subterm where `old` is not free comes back as it is, at no
        fuel.  Nodes are rebuilt with their plain constructors."""
        if old not in getattr(free_vars(t), ns):
            return t
        self.tick()
        cls = type(t)
        row = SCHEMA[cls]
        args = _field_values(t, row)
        for f, used in row.uses:
            if used == ns and getattr(t, f) == old:
                args[row.fields.index(f)] = new
        return cls(*_map_into(row, args, _unshadowed(t, row, ns, old), self._rename, ns, old, new))

    def rename_modal(self, t: S.Term, old: str, new: str) -> S.Term:
        """Rename a free modal variable; see `_rename`."""
        return self._rename(t, MODALS, old, new)

    def rename_cont(self, t: S.Term, old: str, new: str) -> S.Term:
        """Rename a free continuation name; see `_rename`."""
        return self._rename(t, CONTS, old, new)

    # -- capture avoidance for the walks below

    def _freshen_binder(
        self, row: S.Row, args: list, f: str, ns: str, scope: tuple[str, ...], avoid: set[str]
    ) -> None:
        """Rename the binder in field `f` to a name outside `avoid`, the free
        names of the children it scopes over and the node's other binders,
        and rename it in each of those children where no other binder of the
        node rebinds its old name.  `args`, the node's field values, is
        updated in place."""
        index = row.fields.index
        b = args[index(f)]
        taken = set(avoid)
        for c in scope:
            taken |= getattr(free_vars(args[index(c)]), ns)
        for g, other, _ in row.binds:
            if other == ns and g != f:
                taken.add(args[index(g)])
        b2 = args[index(f)] = fresh_name(b, taken)
        for c in scope:
            if any(other == ns and g != f and args[index(g)] == b for g, other in row.over[c]):
                continue
            i = index(c)
            args[i] = self.sub(args[i], {b: S.Var(b2)}) if ns == VALUES else self._rename(args[i], ns, b, b2)

    def _freshen(
        self, t: S.Term, into: tuple[str, ...], danger: S.FreeVars, avoid: Optional[S.FreeVars] = None
    ) -> list:
        """The field values of `t`, with each binder renamed that scopes
        over a child in `into` and whose name is in `danger`, away from
        `avoid` (by default `danger`).  Operation names are never renamed."""
        row = SCHEMA[type(t)]
        args = _field_values(t, row)
        for f, ns, scope in row.binds:
            if ns == OPS or args[row.fields.index(f)] not in getattr(danger, ns):
                continue
            if any(c in into for c in scope):
                self._freshen_binder(row, args, f, ns, scope, getattr(avoid or danger, ns))
        return args

    # -- monadic substitution: plug a continuation in for a computation's result

    def subst_monadic(self, c: S.Comp, x: str, cont: S.Comp) -> S.Comp:
        """Replace each `ret e` leaf of `c` with `cont[e/x]`."""
        self.tick()
        if type(c) is S.Ret:
            return self.subst(cont, {x: c.value})
        cfv = free_vars(cont)
        danger = S.FreeVars(cfv.values - {x}, cfv.modals, cfv.ops, cfv.conts)
        avoid = S.FreeVars(cfv.values | {x}, cfv.modals, cfv.ops, cfv.conts)
        args = self._freshen(c, _TAILS[type(c)], danger, avoid)
        for i in _TAIL_AT[type(c)]:
            args[i] = self.subst_monadic(args[i], x, cont)
        return _BUILD[type(c)](*args)

    # -- continuation substitution

    def subst_cont(self, t: S.Term, k: str, xp: str, yp: str, body: S.Comp) -> S.Term:
        """Substitute the parametrized continuation (xp, yp).body for calls
        of `k`.  A call `v <- k(e1; e2); c` becomes the body at e1/e2 with
        the rest of the computation, itself still rewritten, plugged in for
        v.  `body` must not call `k` itself.

        Calls occur in computations, statements and handler clauses.  The
        walk leaves expressions alone, and handling sequences, whose
        clauses cannot call the continuation of an enclosing handler."""
        self.tick()
        match t:
            case S.Bind(S.ContCall(k2, e1, e2), v, rest) if k2 == k:
                plugged = self.subst(body, {xp: e1, yp: e2})
                return self.subst_monadic(plugged, v, self.subst_cont(rest, k, xp, yp, body))
        row = SCHEMA[type(t)]
        into = tuple(
            c for c in _unshadowed(t, row, CONTS, k) if not isinstance(getattr(t, c), (S.Expr, S.HSeq))
        )
        if not into:
            return t
        bfv = free_vars(body)
        danger = S.FreeVars(bfv.values - {xp, yp}, bfv.modals, bfv.ops, bfv.conts)
        args = self._freshen(t, into, danger, bfv)
        return _BUILD[type(t)](*_map_into(row, args, into, self.subst_cont, k, xp, yp, body))

    # -- handling

    def handle_with(self, c: S.Comp, h: S.Handler, state: S.Expr) -> S.Comp:
        """Run handler h over computation c with the given state expression."""
        self.tick()
        match c:
            case S.Ret(e):
                r = h.ret_clause
                return self.subst(r.body, {r.x: e, r.z: state})
            case S.Bind(S.OpCall(op, arg), _, _):
                clause = h.clause_for(op)
                if clause is None:
                    raise SubstitutionError(f"no clause handles operation {op!r}")
                outside = free_vars(h) | free_vars(state)
                _, yv, rest, _ = self._freshen(c, ("rest",), outside)
                z2 = fresh_name("z", free_vars(rest).values | outside.values | {yv})
                plugged = self.subst(clause.body, {clause.x: arg, clause.z: state})
                resumed = self.handle_with(rest, h, S.Var(z2))
                return self.subst_cont(plugged, clause.k, yv, z2, resumed)
            case S.Bind(S.ContCall(), _, _):
                raise SubstitutionError("continuation call in a handled computation")
            case S.Bind(S.Handle(u2, theta2, h2, e2), yv, rest):
                # A handle under a handler: the inner handling becomes one
                # more stage of the sequence, and this handler takes over as
                # the outermost one.
                clause = S.HClause(h2, e2, yv, rest)
                hseq = S.HSeq(theta2.clauses + (clause,))
                xf = "x"
                return S.Bind(
                    S.Handle(u2, hseq, h, state, span=c.span),
                    xf,
                    S.Ret(S.Var(xf)),
                    span=c.span,
                )
        args = self._freshen(c, _TAILS[type(c)], free_vars(h) | free_vars(state))
        for i in _TAIL_AT[type(c)]:
            args[i] = self.handle_with(args[i], h, state)
        return _BUILD[type(c)](*args)

    def handle_seq(self, c: S.Comp, theta: S.HSeq) -> S.Comp:
        if not theta.clauses:
            return c
        prefix = S.HSeq(theta.clauses[:-1])
        last = theta.clauses[-1]
        handled = self.handle_with(self.handle_seq(c, prefix), last.handler, last.init)
        return self.subst_monadic(handled, last.var, last.body)

    # -- modal substitution

    def modal_subst(self, t: S.Term, u: str, c: S.Comp) -> S.Term:
        """Substitute boxed code `c` for the modal variable `u`.  At each
        handle of `u` the code is run through the handling sequence and the
        handler on the spot; at each eval of `u` it is run through the
        sequence and then stripped down to an expression.  Elsewhere the
        walk goes into every child not under a binder of `u`, renaming the
        binders the code would be captured by."""
        self.tick()
        match t:
            case S.Bind(S.Handle(u2, theta, h, e), x, rest) if u2 == u:
                theta2 = self.modal_subst(theta, u, c)
                handled = self.handle_with(
                    self.handle_seq(c, theta2), self.modal_subst(h, u, c), self.modal_subst(e, u, c)
                )
                return self.subst_monadic(handled, x, self.modal_subst(rest, u, c))
            case S.EvalTerm(theta, u2) if u2 == u:
                return self.eval_meta(self.handle_seq(c, self.modal_subst(theta, u, c)))
        row = SCHEMA[type(t)]
        if not row.kids:
            return t
        into = _unshadowed(t, row, MODALS, u)
        args = self._freshen(t, into, free_vars(c))
        return _BUILD[type(t)](*_map_into(row, args, into, self.modal_subst, u, c))

    # -- running a closed computation down to an expression

    def eval_meta(self, c: S.Comp) -> S.Expr:
        """Strip a computation with no effects left into an expression: a
        returned value is the value itself, and a handle at the head folds
        into an eval with the handling attached to the sequence.  A `let
        box`, `let fix` or `if` becomes its expression twin."""
        self.tick()
        match c:
            case S.Ret(e):
                return e
            case S.Bind(S.Handle(u, theta, h, e), x, rest):
                hseq = S.HSeq(theta.clauses + (S.HClause(h, e, x, rest),))
                return S.EvalTerm(hseq, u, span=c.span)
            case S.Bind(S.OpCall(op, _), _, _):
                raise SubstitutionError(f"operation {op!r} escapes evaluation")
            case S.Bind(S.ContCall(kn, _, _), _, _):
                raise SubstitutionError(f"continuation {kn!r} escapes evaluation")
        args = _field_values(c, SCHEMA[type(c)])
        for i in _TAIL_AT[type(c)]:
            args[i] = self.eval_meta(args[i])
        return _BUILD[_EXPR_TWIN[type(c)]](*args)


# ---------------------------------------------------------------------------
# Public entry points


def subst_values(t: S.Term, mapping: dict[str, S.Expr], fuel: int = DEFAULT_FUEL) -> S.Term:
    return _Engine(fuel).subst(t, mapping)


def subst_monadic(c: S.Comp, x: str, cont: S.Comp, fuel: int = DEFAULT_FUEL) -> S.Comp:
    return _Engine(fuel).subst_monadic(c, x, cont)


def subst_cont(
    t: S.Term, k: str, x: str, y: str, body: S.Comp, fuel: int = DEFAULT_FUEL
) -> S.Term:
    return _Engine(fuel).subst_cont(t, k, x, y, body)


def handle_with(c: S.Comp, h: S.Handler, state: S.Expr, fuel: int = DEFAULT_FUEL) -> S.Comp:
    return _Engine(fuel).handle_with(c, h, state)


def handle_seq(c: S.Comp, theta: S.HSeq, fuel: int = DEFAULT_FUEL) -> S.Comp:
    return _Engine(fuel).handle_seq(c, theta)


def modal_subst(t: S.Term, u: str, c: S.Comp, fuel: int = DEFAULT_FUEL) -> S.Term:
    return _Engine(fuel).modal_subst(t, u, c)


def eval_meta(c: S.Comp, fuel: int = DEFAULT_FUEL) -> S.Expr:
    return _Engine(fuel).eval_meta(c)


def normalize(t: S.Term, fuel: int = DEFAULT_FUEL) -> S.Term:
    return _Engine(fuel).norm(t)


def id_handler(theory: S.EffectContext) -> S.Handler:
    """The handler that re-performs every operation of the theory and passes
    results straight through, with a unit state it never looks at."""
    clauses = []
    for op in theory.ops:
        body = S.Bind(
            S.OpCall(op.name, S.Var("x")),
            "y",
            S.Bind(S.ContCall("k", S.Var("y"), S.Var("z")), "w", S.Ret(S.Var("w"))),
        )
        clauses.append(S.OpClause(op.name, "x", "k", "z", body))
    return S.Handler(theory, tuple(clauses), S.RetClause("x", "z", S.Ret(S.Var("x"))))


def eta_expand(e: S.Expr, theory: S.EffectContext) -> S.Expr:
    """Wrap boxed code so the box is opened, re-performed through the
    identity handler, and boxed again at the same theory."""
    uvar = fresh_name("u", free_vars(e).modals)
    inner = S.Bind(
        S.Handle(uvar, S.EMPTY_HSEQ, id_handler(theory), S.UnitLit()),
        "x",
        S.Ret(S.Var("x")),
    )
    return S.LetBoxE(uvar, e, S.BoxTerm(theory, inner))
