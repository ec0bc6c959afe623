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
box variable, and the operations on computations.  The walks that act at a
name (`sub`, `_rename`, `modal_subst`, `subst_cont`) return a subterm where
their name is not free without walking it, normalised (`_rename`: as it is);
`sub` tests each child in its own loop, and `subst` the root.

Fuel is spent in ticks: one per node a walk enters where its name is free,
plus one per node `norm` has not normalised before; the operations on
computations tick once per node of the descent they make.  A node that
occurs more than once in a continuation `subst_cont` plugs is entered once
per plug and mapping, however many paths lead to it.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from . import syntax as S
from .syntax import (
    CONTS,
    MODALS,
    SCHEMA,
    VALUES,
    Span,
    free_vars,
    fresh_name,
)

DEFAULT_FUEL = 1_000_000


class SubstitutionError(Exception):
    pass


class OutOfFuel(Exception):
    pass


# ---------------------------------------------------------------------------
# Values and smart constructors


# The atoms `is_pure_value` accepts without looking inside.
_PURE_ATOMS = frozenset({S.Var, S.IntLit, S.BoolLit, S.UnitLit, S.Lam, S.BoxTerm})


def is_pure_value(e: S.Expr) -> bool:
    """Open values: safe to duplicate or discard during substitution.  A
    list `mk_append` folded is marked pure on the node, outside its record
    fields, so it is not checked again."""
    cls = type(e)
    if cls in _PURE_ATOMS:
        return True
    if cls is S.Pair:
        return is_pure_value(e.left) and is_pure_value(e.right)
    if cls is S.ListE:
        return getattr(e, "_pure", False) or all(map(is_pure_value, e.elems))
    return False


def _div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _arith(fields: Sequence) -> S.Expr:
    op, left, right, span = fields
    if isinstance(left, S.IntLit) and isinstance(right, S.IntLit):
        a, b = left.value, right.value
        match op:
            case "+":
                return S.IntLit._make((a + b, span))
            case "-":
                return S.IntLit._make((a - b, span))
            case "*":
                return S.IntLit._make((a * b, span))
            case "/" if b != 0:
                return S.IntLit._make((_div(a, b), span))
    return S.Arith._make(fields)


def _cmp(fields: Sequence) -> S.Expr:
    op, left, right, span = fields
    if isinstance(left, S.IntLit) and isinstance(right, S.IntLit):
        a, b = left.value, right.value
        return S.BoolLit._make((a == b if op == "=" else a < b, span))
    return S.Cmp._make(fields)


def _value_pair(arg: S.Expr) -> bool:
    return isinstance(arg, S.Pair) and is_pure_value(arg.left) and is_pure_value(arg.right)


def _proj1(fields: Sequence) -> S.Expr:
    arg = fields[0]
    return arg.left if _value_pair(arg) else S.Proj1._make(fields)


def _proj2(fields: Sequence) -> S.Expr:
    arg = fields[0]
    return arg.right if _value_pair(arg) else S.Proj2._make(fields)


def _append(fields: Sequence) -> S.Expr:
    left, right, span = fields
    if type(left) is S.ListE and type(right) is S.ListE and is_pure_value(left) and is_pure_value(right):
        out = S.ListE._make((left.elems + right.elems, span))
        object.__setattr__(out, "_pure", True)
        return out
    return S.Append._make(fields)


def _if(fields: Sequence) -> S.Term:
    cond = fields[0]
    if isinstance(cond, S.BoolLit):
        return fields[1] if cond.value else fields[2]
    return S.If._make(fields)


# The smart constructors as the walks call them, on a node's field values in
# order as one sequence; the `mk_*` below take them one by one.
_SMART: dict[type, Callable[[Sequence], S.Term]] = {
    S.Proj1: _proj1,
    S.Proj2: _proj2,
    S.Append: _append,
    S.Arith: _arith,
    S.Cmp: _cmp,
    S.If: _if,
}


def mk_arith(op: str, left: S.Expr, right: S.Expr, span: Optional[Span] = None) -> S.Expr:
    return _arith((op, left, right, span))


def mk_cmp(op: str, left: S.Expr, right: S.Expr, span: Optional[Span] = None) -> S.Expr:
    return _cmp((op, left, right, span))


def mk_proj1(arg: S.Expr, span: Optional[Span] = None) -> S.Expr:
    return _proj1((arg, span))


def mk_proj2(arg: S.Expr, span: Optional[Span] = None) -> S.Expr:
    return _proj2((arg, span))


def mk_append(left: S.Expr, right: S.Expr, span: Optional[Span] = None) -> S.Expr:
    return _append((left, right, span))


def mk_if(cond: S.Expr, then: S.Term, els: S.Term, span: Optional[Span] = None) -> S.Term:
    """A conditional; one on a literal boolean is the branch it takes."""
    return _if((cond, then, els, span))


# ---------------------------------------------------------------------------
# The engine

# The builder every walk rebuilds a node with, given its field values in
# order as one sequence (a node will do): the class's smart constructor, else
# `cls._make`, one C call: 200 ns, to 350 for `cls(*fields)`, 520 with `span=`.
_BUILD = {cls: _SMART.get(cls, cls._make) for cls in SCHEMA}


def _unshadowed(t: S.Term, row: S.Row, ns: str, name: str) -> tuple[int, ...]:
    """The positions of the children of `t` where no binder of `t` rebinds
    `name` in `ns`."""
    if not row.binds:
        return row.kid_at
    return tuple(i for i in row.kid_at if not any(b == ns and t[j] == name for j, b in row.over[i]))


def _map_into(row: S.Row, args: list, into: tuple[int, ...], walk: Callable, *extra) -> list:
    """`args`, a node's field values, with `walk(child, *extra)` in place
    of each child at a position in `into`, item by item in a tuple."""
    for i, _, many in row.kids:
        if i in into:
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
        # `sub`'s results by `(id(t), id(m))`, while `subst_cont` plugs.
        self.shared: Optional[dict[tuple[int, int], tuple]] = None

    def tick(self) -> None:
        self.fuel -= 1
        if self.fuel < 0:
            raise OutOfFuel("substitution fuel exhausted")

    # -- plain normalization (rebuild through smart constructors)

    def norm(self, t: S.Term) -> S.Term:
        """`t` with every pure redex on literals folded.  A node none of
        whose children changes and that does not fold is returned as it is.
        The result is stored on the node, outside its record fields as
        `free_vars` stores its own, and marks itself as its own normal form,
        so a payload that is already normal costs one lookup and no fuel.
        The self-reference is deliberate: it makes each normal node a cycle
        for the collector, but since `sub` reads a child's `_nf` in place, a
        `True` marker in its place made the benchmark's `multishot_nondet`
        slower in all 8 pairs measured (p50 4.0-4.5 against 5.0-5.4 ms).
        One earlier measurement, before those reads, went the other way;
        ROADMAP "Measured and rejected" lists them all.
        The memo check is here, not in a wrapper, and tuples of clauses are
        walked by loops, so deep terms take one frame per tree level."""
        nf = getattr(t, "_nf", None)
        if nf is not None:
            return nf
        self.tick()
        norm = self.norm
        cls = type(t)
        row = SCHEMA[cls]
        args = list(t)
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
        if cls not in _SMART:
            out = _BUILD[cls](args) if changed else t
        else:
            out = _SMART[cls](args)
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
        if not m:
            return t
        return self.norm(t) if free_vars(t).values.isdisjoint(m) else self.sub(t, m)

    def sub(self, t: S.Term, m: dict[str, S.Expr]) -> S.Term:
        """Substitute normalized payloads for the free value variables of
        `t`, where some key of `m` is free.  A child where no key is free
        is not entered: it comes back normalised, its cached free names and
        normal form read here, and a call made only where one is not cached
        yet.  So a skipped subterm keeps its binders: no payload can be
        captured where none is put.  Binders are renamed by `_scope`; under
        a binder that drops the last key, a child is left as it is.  When
        `t` is normal, so is the result, and it is marked so, as `norm`
        marks its own.  The checks are here, not in a wrapper, so deep terms
        take one frame per level."""
        shared = self.shared
        if shared is not None:
            key = id(t), id(m)
            hit = shared.get(key)
            if hit is not None:
                return hit[2]
        self.tick()
        cls = type(t)
        if cls is S.Var:
            return m[t.name]
        sub, norm = self.sub, self.norm
        row = SCHEMA[cls]
        if row.binds:
            args, inner = self._scope(t, m)
        else:
            args, inner = list(t), {}
        # A node is a tuple of at least one field and a `FreeVars` one of
        # three, so a cached value is true and `or` reads it.
        for i, _, many in row.kids:
            m2 = inner.get(i, m)
            if not m2:
                continue
            if many:
                items = []
                for kid in args[i]:
                    if (getattr(kid, "_fv", None) or free_vars(kid)).values.isdisjoint(m2):
                        items.append(getattr(kid, "_nf", None) or norm(kid))
                    else:
                        items.append(sub(kid, m2))
                args[i] = tuple(items)
            else:
                # The same test as for a tuple's items above; keep the two
                # identical.  One loop over `(args[i],)` for both made the
                # seed-5 `multishot_nondet` pipeline about 7 % slower.
                kid = args[i]
                if (getattr(kid, "_fv", None) or free_vars(kid)).values.isdisjoint(m2):
                    args[i] = getattr(kid, "_nf", None) or norm(kid)
                else:
                    args[i] = sub(kid, m2)
        out = _BUILD[cls](args)
        if getattr(t, "_nf", None) is t:
            object.__setattr__(out, "_nf", out)
        if shared is not None:
            # The entry keeps `t` and `m` alive, so neither id is reused.
            shared[key] = (t, m, out)
        return out

    # -- capture avoidance: renaming a binder where something would be captured

    def _rename(self, t: S.Term, ns: str, old: str, new: str) -> S.Term:
        """Rename the free name `old` of namespace `ns` to `new`, which must
        not be free in `t`.  A binder of `new` over a free `old` is renamed
        first, away from both names, through `_freshen`, as `sub` renames
        its binders through `_scope`.  Nodes are rebuilt by their class's
        `_make`, with no fold."""
        if old not in getattr(free_vars(t), ns):
            return t
        self.tick()
        row = SCHEMA[type(t)]
        into = _unshadowed(t, row, ns, old)
        args = self._freshen(t, into, S.named(ns, (new,)), S.named(ns, (new, old)))
        for i, used in row.use_at:
            if used == ns and t[i] == old:
                args[i] = new
        return row.cls._make(_map_into(row, args, into, self._rename, ns, old, new))

    def _freshen(
        self, t: S.Term, into: tuple[int, ...], danger: S.FreeVars, avoid: Optional[S.FreeVars] = None
    ) -> list:
        """The field values of `t`, with each binder renamed that scopes
        over a child at a position in `into` and whose name is in `danger`:
        to a name outside `avoid` (by default `danger`), the free names of the
        children it scopes over and the node's other binders, and, by
        `_rename`, in each of those children where no other binder of the
        node rebinds its old name."""
        row = SCHEMA[type(t)]
        args = list(t)
        for i, ns, scope in row.bind_at:
            b = args[i]
            if b not in getattr(danger, ns) or not any(c in into for c in scope):
                continue
            taken = set(getattr(avoid or danger, ns))
            for c in scope:
                taken |= getattr(free_vars(args[c]), ns)
            for j, other, _ in row.bind_at:
                if other == ns and j != i:
                    taken.add(args[j])
            b2 = args[i] = fresh_name(b, taken)
            for c in scope:
                if any(other == ns and j != i and args[j] == b for j, other in row.over[c]):
                    continue
                args[c] = self._rename(args[c], ns, b, b2)
        return args

    def _scope(self, t: S.Term, m: dict[str, S.Expr], outside: S.FreeVars = S.NO_FREE_VARS) -> tuple[list, dict]:
        """Take the substitution `m` under the binders of `t`: the field
        values of `t` with each binder renamed that a payload would capture
        (the payload of a key free in `t` other than the binder), and each
        binder over a tail of `t` (`Row.tails`) whose name is in `outside`;
        and the mapping for the child at each position, `m` less the value
        names bound over it."""
        row = SCHEMA[type(t)]
        fv = free_vars(t).values
        danger = S.NO_FREE_VARS
        for k in m.keys() & fv:
            p = free_vars(m[k])
            danger |= S.FreeVars(p.values - {k}, p.modals, p.conts) if k in p.values else p
        args = list(t)
        if danger is not S.NO_FREE_VARS or outside is not S.NO_FREE_VARS:
            # A new name must not be a key either, or `m` would replace it.
            avoid = S.FreeVars(danger.values.union(m), danger.modals, danger.conts)
            args = self._freshen(t, row.kid_at, danger, avoid)
            if outside is not S.NO_FREE_VARS:
                args = self._freshen(row.cls._make(args), row.tail_at, outside, outside | avoid)
        inner: dict[int, dict[str, S.Expr]] = {}
        for i, ns, scope in row.bind_at:
            b = t[i]
            for c in scope:
                m2 = inner.get(c, m)
                if ns == VALUES and b in m2:
                    inner[c] = {k: v for k, v in m2.items() if k != b}
        return args, inner

    # -- monadic substitution: plug a continuation in for a computation's result

    def subst_monadic(self, c: S.Comp, x: str, cont: S.Comp) -> S.Comp:
        """Replace each `ret e` leaf of `c` with `cont[e/x]`."""
        self.tick()
        if type(c) is S.Ret:
            return self.subst(cont, {x: c.value})
        cfv = free_vars(cont)
        danger = S.FreeVars(cfv.values - {x}, cfv.modals, cfv.conts)
        avoid = S.FreeVars(cfv.values | {x}, cfv.modals, cfv.conts)
        row = SCHEMA[type(c)]
        args = self._freshen(c, row.tail_at, danger, avoid)
        for i in row.tail_at:
            args[i] = self.subst_monadic(args[i], x, cont)
        return _BUILD[type(c)](args)

    # -- continuation substitution

    def subst_cont(self, t: S.Term, k: str, xp: str, yp: str, body: S.Comp) -> S.Term:
        """Substitute the parametrized continuation (xp, yp).body for calls
        of `k`, which `body` must not call itself.  A call `v <- k(e1; e2);
        c` becomes the body at e1/e2 with the rest of the computation, itself
        still rewritten, plugged in for v.  Elsewhere the walk goes into every
        child not under a binder of `k`, renaming the binders the body would
        be captured by.

        `body` is handled once and plugged at every call, and a plug's
        result shares each subterm its payloads are not free in, so a body
        built by earlier plugs can reach one node by many paths.  While it
        plugs, `sub` keeps its results in `shared` by the identities of node
        and mapping, and walks each such pair once; the mapping is part of
        the key, as a child under a binder gets a smaller one.  `sub` never
        plugs, so the memo is never nested, and an engine out of fuel is not
        used again."""
        if k not in free_vars(t).conts:
            return self.norm(t)
        self.tick()
        match t:
            case S.Bind(S.ContCall(k2, e1, e2), v, rest) if k2 == k:
                self.shared = {}
                plugged = self.subst(body, {xp: e1, yp: e2})
                self.shared = None
                return self.subst_monadic(plugged, v, self.subst_cont(rest, k, xp, yp, body))
        row = SCHEMA[type(t)]
        into = _unshadowed(t, row, CONTS, k)
        bfv = free_vars(body)
        danger = S.FreeVars(bfv.values - {xp, yp}, bfv.modals, bfv.conts)
        args = self._freshen(t, into, danger, bfv)
        return _BUILD[type(t)](_map_into(row, args, into, self.subst_cont, k, xp, yp, body))

    # -- handling

    @staticmethod
    def _tail_path(t: S.Comp, k: str) -> Optional[list[tuple[type, int]]]:
        """The way down to the one call of `k` in `t`, where `k` is free,
        when that call is `v <- k(e1; e2); ret v` and each step goes into
        the only tail of a node (`Row.tails`) where `k` is free: each step
        as the node's class and the tail's position in the node.
        None when `k` is called in a non-tail position or in two branches."""
        path = []
        while True:
            cls = type(t)
            if cls is S.Bind and type(t.stmt) is S.ContCall and t.stmt.kname == k:
                v = t.rest.value if type(t.rest) is S.Ret else None
                return path if type(v) is S.Var and v.name == t.var else None
            row = SCHEMA[cls]
            hot = [i for i, _, _ in row.kids if k in free_vars(t[i]).conts]
            if len(hot) != 1 or hot[0] not in row.tail_at:
                return None
            path.append((cls, hot[0]))
            t = t[hot[0]]

    def _pending(self, t: S.Term, env: Optional[dict[str, S.Expr]]) -> S.Term:
        """`t` with `handle_with`'s pending substitution applied, normalized
        as `subst` leaves it; `t` itself while `env` is None, before the
        first operation.  `sub` gets only the names free in `t`, so its skip
        test does not grow with `env`."""
        if env is None:
            return t
        m = {k: env[k] for k in free_vars(t).values if k in env}
        return self.sub(t, m) if m else self.norm(t)

    def handle_with(self, c: S.Comp, h: S.Handler, state: S.Expr) -> S.Comp:
        """Run handler h over computation c with the given state expression.

        An operation whose plugged clause calls its `k` once, as `v <-
        k(e1; e2); ret v` in tail position (`_tail_path`), is handled in
        place: the clause's statements around the call are kept as holes,
        and the loop goes on with `rest` under the state `e2`, so a concrete
        state stays a value.  A clause whose whole body is the call is not
        plugged: only `e1` and `e2` are substituted into.  The result `y :=
        e1` joins `env`, a pending substitution from names of `c` to
        normalized payloads, in place: the loop does not take the free names
        of `rest`, a walk of the whole chain, so `env` may keep results that
        nothing reads any more.  It is cut down to the names free in a node
        where those names matter.  `env` is applied (`_pending`) where the
        loop emits code: an operation's argument, a `ret` value, the fields
        of a `let box` or `let fix` outside its tail, and all that is left
        when the loop leaves the rule.  The binders of such a hole are
        renamed by `_scope` as in `sub`, once `env` is cut to the names free
        in the hole, and those over its tail away from the free names of `h`
        and the state.  A clause with statements around its call cuts `env`
        to the names free in `rest`, and renames its binders there away from
        those of `h` and of `rest` once `env` is applied.
        A clause that does not call its `k` is the result as it is, and
        `rest` is not handled.  Any other clause handles `rest` under a
        fresh state variable and substitutes the continuation for `k` with
        `subst_cont`.  Handling takes a frame per `if` and per clause that
        is not tail-resumptive, not per operation; the holes are filled,
        innermost first, at the end."""
        holes: list[tuple[type, list, int]] = []
        env: Optional[dict[str, S.Expr]] = None
        while True:
            self.tick()
            match c:
                case S.Ret(e):
                    r = h.ret_clause
                    out = self.subst(r.body, {r.x: self._pending(e, env), r.z: state})
                    break
                case S.Bind(S.OpCall(op, arg), yv, rest):
                    clause = h.clause_for(op)
                    if clause is None:
                        raise SubstitutionError(f"no clause handles operation {op!r}")
                    m = {clause.x: self._pending(arg, env), clause.z: state}
                    if type(clause.body) is S.Bind and self._tail_path(clause.body, clause.k) == []:
                        call = clause.body.stmt
                        env = {} if env is None else env
                        env[yv], state = self.subst(call.arg, m), self.subst(call.state, m)
                        c = rest
                        continue
                    plugged = self.subst(clause.body, m)
                    if clause.k not in free_vars(plugged).conts:
                        out = plugged
                        break
                    path = self._tail_path(plugged, clause.k)
                    if path is None:
                        outside = free_vars(h) | free_vars(state)
                        _, yv, rest, _ = self._freshen(self._pending(c, env), SCHEMA[S.Bind].tail_at, outside)
                        z2 = fresh_name("z", free_vars(rest).values | outside.values | {yv})
                        resumed = self.handle_with(rest, h, S.Var(z2))
                        out = self.subst_cont(plugged, clause.k, yv, z2, resumed)
                        break
                    if path:
                        # The clause's binders around the call stay in the
                        # result, over the rest once `env` is applied.
                        rfv = free_vars(rest)
                        env = {v: env[v] for v in rfv.values if v != yv and v in env} if env else {}
                        danger = free_vars(h) | S.FreeVars(rfv.values.difference((yv,), env), rfv.modals, rfv.conts)
                        for payload in env.values():
                            danger |= free_vars(payload)
                        avoid = S.FreeVars(danger.values | {yv}, danger.modals, danger.conts)
                        for cls, i in path:
                            args = self._freshen(plugged, (i,), danger, avoid)
                            holes.append((cls, args, i))
                            plugged = args[i]
                    env = {} if env is None else env
                    env[yv], state = plugged.stmt.arg, plugged.stmt.state
                    c = rest
                    continue
                case S.Bind(S.ContCall(), _, _):
                    raise SubstitutionError("continuation call in a handled computation")
                case S.Bind(S.Handle(), _, _):
                    # A handle under a handler: the inner handling becomes one
                    # more stage of the sequence, and this handler takes over as
                    # the outermost one.
                    c = self._pending(c, env)
                    inner = c.stmt
                    hseq = S.HSeq(inner.hseq.clauses + (S.HClause(inner.handler, inner.init, c.var, c.rest),))
                    out = S.Bind(S.Handle(inner.uvar, hseq, h, state, c.span), "x", S.Ret(S.Var("x")), c.span)
                    break
            cls = type(c)
            if cls is S.If:
                # Each branch is handled by a call of its own, once `env` is
                # applied; a condition that folds leaves one branch.
                c, env = self._pending(c, env), env and {}
                if type(c) is S.If:
                    out = mk_if(c.cond, self.handle_with(c.then, h, state), self.handle_with(c.els, h, state), c.span)
                    break
                continue
            # A `let box` or `let fix`: `env` goes on into its tail through
            # its binders, renamed as in `sub` and away from `h` and the state.
            row, i = SCHEMA[cls], SCHEMA[cls].tail_at[0]
            if env:
                env = {v: env[v] for v in free_vars(c).values if v in env}
            args, inner = self._scope(c, env or {}, free_vars(h) | free_vars(state))
            for j, _, _ in row.kids:
                if j != i:
                    args[j] = self._pending(args[j], env and inner.get(j, env))
            env = env and inner.get(i, env)
            holes.append((cls, args, i))
            c = args[i]
        for cls, args, i in reversed(holes):
            args[i] = out
            out = _BUILD[cls](args)
        return out

    def handle_seq(self, c: S.Comp, theta: S.HSeq) -> S.Comp:
        for stage in theta.clauses:
            c = self.subst_monadic(self.handle_with(c, stage.handler, stage.init), stage.var, stage.body)
        return c

    # -- modal substitution

    def modal_subst(self, t: S.Term, u: str, c: S.Comp) -> S.Term:
        """Substitute boxed code `c` for the modal variable `u`.  At each
        handle of `u` the code is run through the handling sequence and the
        handler on the spot; at each eval of `u` it is run through the
        sequence and then stripped down to an expression.  Elsewhere the
        walk goes into every child not under a binder of `u`, renaming the
        binders the code would be captured by."""
        if u not in free_vars(t).modals:
            return self.norm(t)
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
        into = _unshadowed(t, row, MODALS, u)
        args = self._freshen(t, into, free_vars(c))
        return _BUILD[type(t)](_map_into(row, args, into, self.modal_subst, u, c))

    # -- running a closed computation down to an expression

    def eval_meta(self, c: S.Comp) -> S.Expr:
        """Strip a computation with no effects left into an expression: a
        returned value is the value itself, and a handle at the head folds
        into an eval with the handling attached to the sequence.  A `let
        box`, `let fix` or `if` keeps its class, with its tails stripped."""
        self.tick()
        match c:
            case S.Ret(e):
                return e
            case S.Bind(S.Handle(u, theta, h, e), x, rest):
                hseq = S.HSeq(theta.clauses + (S.HClause(h, e, x, rest),))
                return S.EvalTerm(hseq, u, c.span)
            case S.Bind(S.OpCall(op, _), _, _):
                raise SubstitutionError(f"operation {op!r} escapes evaluation")
            case S.Bind(S.ContCall(kn, _, _), _, _):
                raise SubstitutionError(f"continuation {kn!r} escapes evaluation")
        args = list(c)
        for i in SCHEMA[type(c)].tail_at:
            args[i] = self.eval_meta(args[i])
        return _BUILD[type(c)](args)


# ---------------------------------------------------------------------------
# Public entry points


def subst_values(t: S.Term, mapping: dict[str, S.Expr]) -> S.Term:
    return _Engine().subst(t, mapping)


def subst_monadic(c: S.Comp, x: str, cont: S.Comp) -> S.Comp:
    return _Engine().subst_monadic(c, x, cont)


def subst_cont(t: S.Term, k: str, x: str, y: str, body: S.Comp) -> S.Term:
    return _Engine().subst_cont(t, k, x, y, body)


def handle_with(c: S.Comp, h: S.Handler, state: S.Expr) -> S.Comp:
    return _Engine().handle_with(c, h, state)


def handle_seq(c: S.Comp, theta: S.HSeq) -> S.Comp:
    return _Engine().handle_seq(c, theta)


def modal_subst(t: S.Term, u: str, c: S.Comp) -> S.Term:
    return _Engine().modal_subst(t, u, c)


def eval_meta(c: S.Comp) -> S.Expr:
    return _Engine().eval_meta(c)


def normalize(t: S.Term) -> S.Term:
    return _Engine().norm(t)


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
    return S.LetBox(uvar, e, S.BoxTerm(theory, inner))
