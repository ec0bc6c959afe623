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
"""

from __future__ import annotations

from typing import Optional, Union

from . import syntax as S
from .syntax import Span, bound_names, free_vars, fresh_name

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


def mk_proj1(arg: S.Expr, span: Optional[Span] = None) -> S.Expr:
    if isinstance(arg, S.Pair) and is_pure_value(arg.left) and is_pure_value(arg.right):
        return arg.left
    return S.Proj1(arg, span=span)


def mk_proj2(arg: S.Expr, span: Optional[Span] = None) -> S.Expr:
    if isinstance(arg, S.Pair) and is_pure_value(arg.left) and is_pure_value(arg.right):
        return arg.right
    return S.Proj2(arg, span=span)


def mk_append(left: S.Expr, right: S.Expr, span: Optional[Span] = None) -> S.Expr:
    spine = value_spine(left)
    if spine is None or value_spine(right) is None:
        return S.Append(left, right, span=span)
    result = right
    for elem in reversed(spine):
        result = S.ConsE(elem, result, span=span)
    return result


def mk_if_e(cond: S.Expr, then: S.Expr, els: S.Expr, span: Optional[Span] = None) -> S.Expr:
    if isinstance(cond, S.BoolLit):
        return then if cond.value else els
    return S.IfE(cond, then, els, span=span)


def mk_if_c(cond: S.Expr, then: S.Comp, els: S.Comp, span: Optional[Span] = None) -> S.Comp:
    if isinstance(cond, S.BoolLit):
        return then if cond.value else els
    return S.IfC(cond, then, els, span=span)


# ---------------------------------------------------------------------------
# The engine


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
        The memo check is here, not in a wrapper, so deep terms take one
        frame per tree level."""
        nf = getattr(t, "_nf", None)
        if nf is not None:
            return nf
        self.tick()
        norm = self.norm
        match t:
            case S.Var() | S.IntLit() | S.BoolLit() | S.UnitLit() | S.Nil():
                out = t
            case S.Lam(p, a, b):
                b2 = norm(b)
                out = t if b2 is b else S.Lam(p, a, b2, span=t.span)
            case S.App(f, a):
                f2, a2 = norm(f), norm(a)
                out = t if f2 is f and a2 is a else S.App(f2, a2, span=t.span)
            case S.BoxTerm(th, b):
                b2 = norm(b)
                out = t if b2 is b else S.BoxTerm(th, b2, span=t.span)
            case S.LetBoxE(u, e, b) | S.LetBoxC(u, e, b):
                e2, b2 = norm(e), norm(b)
                out = t if e2 is e and b2 is b else type(t)(u, e2, b2, span=t.span)
            case S.EvalTerm(hseq, u):
                h2 = norm(hseq)
                out = t if h2 is hseq else S.EvalTerm(h2, u, span=t.span)
            case S.FixE(f, p, a, th, r, rec, sc) | S.FixC(f, p, a, th, r, rec, sc):
                rec2, sc2 = norm(rec), norm(sc)
                out = t if rec2 is rec and sc2 is sc else type(t)(f, p, a, th, r, rec2, sc2, span=t.span)
            case S.Pair(l, r):
                l2, r2 = norm(l), norm(r)
                out = t if l2 is l and r2 is r else S.Pair(l2, r2, span=t.span)
            case S.Proj1(a):
                a2 = norm(a)
                out = mk_proj1(a2, span=t.span)
                out = t if a2 is a and isinstance(out, S.Proj1) else out
            case S.Proj2(a):
                a2 = norm(a)
                out = mk_proj2(a2, span=t.span)
                out = t if a2 is a and isinstance(out, S.Proj2) else out
            case S.ConsE(h, tl):
                h2, tl2 = norm(h), norm(tl)
                out = t if h2 is h and tl2 is tl else S.ConsE(h2, tl2, span=t.span)
            case S.Append(l, r):
                l2, r2 = norm(l), norm(r)
                out = mk_append(l2, r2, span=t.span)
                out = t if l2 is l and r2 is r and isinstance(out, S.Append) else out
            case S.Arith(op, l, r):
                l2, r2 = norm(l), norm(r)
                out = mk_arith(op, l2, r2, span=t.span)
                out = t if l2 is l and r2 is r and isinstance(out, S.Arith) else out
            case S.Cmp(op, l, r):
                l2, r2 = norm(l), norm(r)
                out = mk_cmp(op, l2, r2, span=t.span)
                out = t if l2 is l and r2 is r and isinstance(out, S.Cmp) else out
            case S.IfE(c, a, b) | S.IfC(c, a, b):
                c2, a2, b2 = norm(c), norm(a), norm(b)
                if isinstance(c2, S.BoolLit):
                    out = a2 if c2.value else b2
                elif c2 is c and a2 is a and b2 is b:
                    out = t
                else:
                    out = type(t)(c2, a2, b2, span=t.span)
            case S.Ret(e):
                e2 = norm(e)
                out = t if e2 is e else S.Ret(e2, span=t.span)
            case S.Bind(st, x, rest):
                st2, rest2 = norm(st), norm(rest)
                out = t if st2 is st and rest2 is rest else S.Bind(st2, x, rest2, span=t.span)
            case S.OpCall(op, a):
                a2 = norm(a)
                out = t if a2 is a else S.OpCall(op, a2, span=t.span)
            case S.ContCall(k, a, st):
                a2, st2 = norm(a), norm(st)
                out = t if a2 is a and st2 is st else S.ContCall(k, a2, st2, span=t.span)
            case S.Handle(u, hseq, h, init):
                hseq2, h2, init2 = norm(hseq), norm(h), norm(init)
                if hseq2 is hseq and h2 is h and init2 is init:
                    out = t
                else:
                    out = S.Handle(u, hseq2, h2, init2, span=t.span)
            # Loops, not comprehensions: a comprehension is a frame of its own.
            case S.Handler(th, ops, ret):
                changed = False
                new_ops = []
                for c in ops:
                    b2 = norm(c.body)
                    if b2 is not c.body:
                        c, changed = S.OpClause(c.op, c.x, c.k, c.z, b2), True
                    new_ops.append(c)
                b2 = norm(ret.body)
                if b2 is not ret.body:
                    ret, changed = S.RetClause(ret.x, ret.z, b2), True
                out = S.Handler(th, tuple(new_ops), ret) if changed else t
            case S.HSeq(clauses):
                changed = False
                new_clauses = []
                for c in clauses:
                    h2, i2, b2 = norm(c.handler), norm(c.init), norm(c.body)
                    if h2 is not c.handler or i2 is not c.init or b2 is not c.body:
                        c, changed = S.HClause(h2, i2, c.var, b2), True
                    new_clauses.append(c)
                out = S.HSeq(tuple(new_clauses)) if changed else t
            case _:
                raise AssertionError(f"norm: unhandled node {t!r}")
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

    def _modal_binder(
        self, u: str, m: dict[str, S.Expr], bodies: tuple[S.Term, ...]
    ) -> tuple[str, tuple[S.Term, ...]]:
        if m and any(u in free_vars(v).modals for v in m.values()):
            avoid: set[str] = set()
            for v in m.values():
                avoid |= free_vars(v).modals
            for body in bodies:
                avoid |= free_vars(body).modals
            u2 = fresh_name(u, avoid)
            return u2, tuple(self.rename_modal(body, u, u2) for body in bodies)
        return u, bodies

    def sub(self, t: S.Term, m: dict[str, S.Expr], names: Optional[set[str]] = None) -> S.Term:
        """Substitute normalized payloads for the free value variables of
        `t` (`m` is not empty; `names` holds at least `_names(m)`, and is
        computed here when not given).

        A subterm with no mapped free name that binds none of `names` is
        returned as `norm(t)` without a walk: there the walk would rename no
        binder and keep the whole mapping, so it would rebuild the subterm
        through the smart constructors `norm` uses.  A skipped subterm costs
        no fuel when it is already normal.  When `t` is normal, so is the
        result, and it is marked so, as `norm` marks its own.  The checks
        are here, not in a wrapper, so deep terms take one frame per level."""
        if names is None:
            names = self._names(m)
        if free_vars(t).values.isdisjoint(m) and bound_names(t).isdisjoint(names):
            return self.norm(t)
        self.tick()
        sub = self.sub
        match t:
            case S.Var(name):
                return m[name]
            case S.Lam(p, a, b):
                p2, m2, n2 = self._value_binder(p, m, names, (b,))
                out = S.Lam(p2, a, sub(b, m2, n2) if m2 else b, span=t.span)
            case S.App(f, a):
                out = S.App(sub(f, m, names), sub(a, m, names), span=t.span)
            case S.BoxTerm(th, b):
                out = S.BoxTerm(th, sub(b, m, names), span=t.span)
            case S.LetBoxE(u, e, b) | S.LetBoxC(u, e, b):
                u2, (b2,) = self._modal_binder(u, m, (b,))
                out = type(t)(u2, sub(e, m, names), sub(b2, m, names), span=t.span)
            case S.EvalTerm(hseq, u):
                out = S.EvalTerm(sub(hseq, m, names), u, span=t.span)
            case S.FixE(f, p, a, th, r, rec, sc) | S.FixC(f, p, a, th, r, rec, sc):
                f2, mf, names_f = self._value_binder(f, m, names, (rec, sc))
                p2, mp, names_p = self._value_binder(p, mf, names_f, (rec,))
                rec2 = sub(rec, mp, names_p) if mp else rec
                sc2 = sub(sc, mf, names_f) if mf else sc
                out = type(t)(f2, p2, a, th, r, rec2, sc2, span=t.span)
            case S.Pair(l, r):
                out = S.Pair(sub(l, m, names), sub(r, m, names), span=t.span)
            case S.Proj1(a):
                out = mk_proj1(sub(a, m, names), span=t.span)
            case S.Proj2(a):
                out = mk_proj2(sub(a, m, names), span=t.span)
            case S.ConsE(h, tl):
                out = S.ConsE(sub(h, m, names), sub(tl, m, names), span=t.span)
            case S.Append(l, r):
                out = mk_append(sub(l, m, names), sub(r, m, names), span=t.span)
            case S.Arith(op, l, r):
                out = mk_arith(op, sub(l, m, names), sub(r, m, names), span=t.span)
            case S.Cmp(op, l, r):
                out = mk_cmp(op, sub(l, m, names), sub(r, m, names), span=t.span)
            case S.IfE(c, a, b):
                out = mk_if_e(sub(c, m, names), sub(a, m, names), sub(b, m, names), span=t.span)
            case S.IfC(c, a, b):
                out = mk_if_c(sub(c, m, names), sub(a, m, names), sub(b, m, names), span=t.span)
            case S.Ret(e):
                out = S.Ret(sub(e, m, names), span=t.span)
            case S.Bind(st, x, rest):
                st2 = sub(st, m, names)
                x2, m2, n2 = self._value_binder(x, m, names, (rest,))
                out = S.Bind(st2, x2, sub(rest, m2, n2) if m2 else rest, span=t.span)
            case S.OpCall(op, a):
                out = S.OpCall(op, sub(a, m, names), span=t.span)
            case S.ContCall(k, a, st):
                out = S.ContCall(k, sub(a, m, names), sub(st, m, names), span=t.span)
            case S.Handle(u, hseq, h, init):
                out = S.Handle(u, sub(hseq, m, names), sub(h, m, names), sub(init, m, names), span=t.span)
            case S.Handler(th, ops, ret):
                out = S.Handler(
                    th,
                    tuple(self._sub_op_clause(c, m, names) for c in ops),
                    self._sub_ret_clause(ret, m, names),
                )
            case S.HSeq(clauses):
                new_clauses = []
                for c in clauses:
                    var2, m2, n2 = self._value_binder(c.var, m, names, (c.body,))
                    new_clauses.append(
                        S.HClause(
                            sub(c.handler, m, names),
                            sub(c.init, m, names),
                            var2,
                            sub(c.body, m2, n2) if m2 else c.body,
                        )
                    )
                out = S.HSeq(tuple(new_clauses))
            case _:
                raise AssertionError(f"sub: unhandled node {t!r}")
        if getattr(t, "_nf", None) is t:
            object.__setattr__(out, "_nf", out)
        return out

    def _sub_op_clause(self, c: S.OpClause, m: dict[str, S.Expr], names: set[str]) -> S.OpClause:
        x2, mx, nx = self._value_binder(c.x, m, names, (c.body,))
        z2, mz, nz = self._value_binder(c.z, mx, nx, (c.body,))
        body = c.body
        k2 = c.k
        if mz and any(c.k in free_vars(v).conts for v in mz.values()):
            avoid = free_vars(body).conts
            for v in mz.values():
                avoid |= free_vars(v).conts
            k2 = fresh_name(c.k, avoid)
            body = self.rename_cont(body, c.k, k2)
        return S.OpClause(c.op, x2, k2, z2, self.sub(body, mz, nz) if mz else body)

    def _sub_ret_clause(self, c: S.RetClause, m: dict[str, S.Expr], names: set[str]) -> S.RetClause:
        x2, mx, nx = self._value_binder(c.x, m, names, (c.body,))
        z2, mz, nz = self._value_binder(c.z, mx, nx, (c.body,))
        return S.RetClause(x2, z2, self.sub(c.body, mz, nz) if mz else c.body)

    # -- renaming of modal and continuation names

    def rename_modal(self, t: S.Term, old: str, new: str) -> S.Term:
        """Rename a free modal variable.  `new` must be fresh for `t`.  A
        subterm where `old` is not free comes back as it is, at no fuel."""
        if old not in free_vars(t).modals:
            return t
        self.tick()
        match t:
            case S.LetBoxE(u, e, b) | S.LetBoxC(u, e, b):
                e2 = self.rename_modal(e, old, new)
                b2 = b if u == old else self.rename_modal(b, old, new)
                cls = S.LetBoxE if isinstance(t, S.LetBoxE) else S.LetBoxC
                return cls(u, e2, b2, span=t.span)
            case S.EvalTerm(hseq, u):
                return S.EvalTerm(
                    self.rename_modal(hseq, old, new), new if u == old else u, span=t.span
                )
            case S.Handle(u, hseq, h, init):
                return S.Handle(
                    new if u == old else u,
                    self.rename_modal(hseq, old, new),
                    self.rename_modal(h, old, new),
                    self.rename_modal(init, old, new),
                    span=t.span,
                )
            case _:
                return self._map_children(t, lambda s: self.rename_modal(s, old, new))

    def rename_cont(self, t: S.Term, old: str, new: str) -> S.Term:
        """Rename a free continuation name.  `new` must be fresh for `t`.  A
        subterm where `old` is not free comes back as it is, at no fuel."""
        if old not in free_vars(t).conts:
            return t
        self.tick()
        match t:
            case S.ContCall(k, a, st):
                return S.ContCall(
                    new if k == old else k,
                    self.rename_cont(a, old, new),
                    self.rename_cont(st, old, new),
                    span=t.span,
                )
            case S.Handler(th, ops, ret):
                out = []
                for c in ops:
                    body = c.body if c.k == old else self.rename_cont(c.body, old, new)
                    out.append(S.OpClause(c.op, c.x, c.k, c.z, body))
                return S.Handler(
                    th, tuple(out), S.RetClause(ret.x, ret.z, self.rename_cont(ret.body, old, new))
                )
            case _:
                return self._map_children(t, lambda s: self.rename_cont(s, old, new))

    def _map_children(self, t: S.Term, f) -> S.Term:
        """Apply f to each direct subterm, leaving binders and leaves alone.
        Only correct for namespace-disjoint renamings."""
        match t:
            case S.Var() | S.IntLit() | S.BoolLit() | S.UnitLit() | S.Nil():
                return t
            case S.Lam(p, a, b):
                return S.Lam(p, a, f(b), span=t.span)
            case S.App(fn, a):
                return S.App(f(fn), f(a), span=t.span)
            case S.BoxTerm(th, b):
                return S.BoxTerm(th, f(b), span=t.span)
            case S.LetBoxE(u, e, b):
                return S.LetBoxE(u, f(e), f(b), span=t.span)
            case S.LetBoxC(u, e, b):
                return S.LetBoxC(u, f(e), f(b), span=t.span)
            case S.EvalTerm(hseq, u):
                return S.EvalTerm(f(hseq), u, span=t.span)
            case S.FixE(fn_, p, a, th, r, rec, sc):
                return S.FixE(fn_, p, a, th, r, f(rec), f(sc), span=t.span)
            case S.FixC(fn_, p, a, th, r, rec, sc):
                return S.FixC(fn_, p, a, th, r, f(rec), f(sc), span=t.span)
            case S.Pair(l, r):
                return S.Pair(f(l), f(r), span=t.span)
            case S.Proj1(a):
                return S.Proj1(f(a), span=t.span)
            case S.Proj2(a):
                return S.Proj2(f(a), span=t.span)
            case S.ConsE(h, tl):
                return S.ConsE(f(h), f(tl), span=t.span)
            case S.Append(l, r):
                return S.Append(f(l), f(r), span=t.span)
            case S.Arith(op, l, r):
                return S.Arith(op, f(l), f(r), span=t.span)
            case S.Cmp(op, l, r):
                return S.Cmp(op, f(l), f(r), span=t.span)
            case S.IfE(c, a, b):
                return S.IfE(f(c), f(a), f(b), span=t.span)
            case S.IfC(c, a, b):
                return S.IfC(f(c), f(a), f(b), span=t.span)
            case S.Ret(e):
                return S.Ret(f(e), span=t.span)
            case S.Bind(st, x, rest):
                return S.Bind(f(st), x, f(rest), span=t.span)
            case S.OpCall(op, a):
                return S.OpCall(op, f(a), span=t.span)
            case S.ContCall(k, a, st):
                return S.ContCall(k, f(a), f(st), span=t.span)
            case S.Handle(u, hseq, h, init):
                return S.Handle(u, f(hseq), f(h), f(init), span=t.span)
            case S.Handler(th, ops, ret):
                return S.Handler(
                    th,
                    tuple(S.OpClause(c.op, c.x, c.k, c.z, f(c.body)) for c in ops),
                    S.RetClause(ret.x, ret.z, f(ret.body)),
                )
            case S.HSeq(clauses):
                return S.HSeq(
                    tuple(S.HClause(f(c.handler), f(c.init), c.var, f(c.body)) for c in clauses)
                )
            case _:
                raise AssertionError(f"_map_children: unhandled node {t!r}")

    # -- monadic substitution: plug a continuation in for a computation's result

    def subst_monadic(self, c: S.Comp, x: str, cont: S.Comp) -> S.Comp:
        """Replace each `ret e` leaf of `c` with `cont[e/x]`."""
        self.tick()
        cfv = free_vars(cont)
        match c:
            case S.Ret(e):
                return self.subst(cont, {x: e})
            case S.Bind(st, y, rest):
                y2, rest2 = y, rest
                if y in cfv.values - {x}:
                    y2 = fresh_name(y, cfv.values | free_vars(rest).values | {x})
                    rest2 = self.sub(rest, {y: S.Var(y2)})
                return S.Bind(st, y2, self.subst_monadic(rest2, x, cont), span=c.span)
            case S.LetBoxC(u, e, b):
                u2, b2 = u, b
                if u in cfv.modals:
                    u2 = fresh_name(u, cfv.modals | free_vars(b).modals)
                    b2 = self.rename_modal(b, u, u2)
                return S.LetBoxC(u2, e, self.subst_monadic(b2, x, cont), span=c.span)
            case S.FixC(f, p, a, th, r, rec, sc):
                f2, rec2, sc2 = f, rec, sc
                if f in cfv.values - {x}:
                    f2 = fresh_name(
                        f, cfv.values | free_vars(rec).values | free_vars(sc).values | {x, p}
                    )
                    if p != f:
                        rec2 = self.sub(rec, {f: S.Var(f2)})
                    sc2 = self.sub(sc, {f: S.Var(f2)})
                return S.FixC(f2, p, a, th, r, rec2, self.subst_monadic(sc2, x, cont), span=c.span)
            case S.IfC(cond, a, b):
                return mk_if_c(
                    cond, self.subst_monadic(a, x, cont), self.subst_monadic(b, x, cont), span=c.span
                )
            case _:
                raise AssertionError(f"subst_monadic: unhandled computation {c!r}")

    # -- continuation substitution

    def subst_cont(self, t: S.Term, k: str, xp: str, yp: str, body: S.Comp) -> S.Term:
        """Substitute the parametrized continuation (xp, yp).body for calls
        of `k`.  A call `v <- k(e1; e2); c` becomes the body at e1/e2 with
        the rest of the computation, itself still rewritten, plugged in for
        v.  `body` must not call `k` itself."""
        self.tick()
        bfv = free_vars(body)
        cap_values = bfv.values - {xp, yp}

        def rec(s: S.Term) -> S.Term:
            return self.subst_cont(s, k, xp, yp, body)

        match t:
            case S.Ret():
                return t
            case S.Bind(S.ContCall(k2, e1, e2), v, rest) if k2 == k:
                plugged = self.subst(body, {xp: e1, yp: e2})
                return self.subst_monadic(plugged, v, rec(rest))
            case S.Bind(st, v, rest):
                v2, rest2 = v, rest
                if v in cap_values:
                    v2 = fresh_name(v, bfv.values | free_vars(rest).values)
                    rest2 = self.sub(rest, {v: S.Var(v2)})
                return S.Bind(self._subst_cont_stmt(st, k, xp, yp, body), v2, rec(rest2), span=t.span)
            case S.LetBoxC(u, e, b):
                u2, b2 = u, b
                if u in bfv.modals:
                    u2 = fresh_name(u, bfv.modals | free_vars(b).modals)
                    b2 = self.rename_modal(b, u, u2)
                return S.LetBoxC(u2, e, rec(b2), span=t.span)
            case S.FixC(f, p, a, th, r, rec_body, sc):
                f2, rec2, sc2 = f, rec_body, sc
                if f in cap_values:
                    f2 = fresh_name(
                        f, bfv.values | free_vars(rec_body).values | free_vars(sc).values | {p}
                    )
                    if p != f:
                        rec2 = self.sub(rec_body, {f: S.Var(f2)})
                    sc2 = self.sub(sc, {f: S.Var(f2)})
                p2, rec3 = p, rec2
                if p in cap_values:
                    p2 = fresh_name(p, bfv.values | free_vars(rec2).values | {f2})
                    rec3 = self.sub(rec2, {p: S.Var(p2)})
                return S.FixC(f2, p2, a, th, r, rec(rec3), rec(sc2), span=t.span)
            case S.IfC(cond, a, b):
                return mk_if_c(cond, rec(a), rec(b), span=t.span)
            case _:
                raise AssertionError(f"subst_cont: unhandled computation {t!r}")

    def _subst_cont_stmt(self, st: S.Stmt, k: str, xp: str, yp: str, body: S.Comp) -> S.Stmt:
        match st:
            case S.OpCall() | S.ContCall():
                return st
            case S.Handle(u, hseq, h, init):
                # The handling sequence and the initial state are left alone;
                # only the top handler's clauses can call this continuation.
                return S.Handle(u, hseq, self._subst_cont_handler(h, k, xp, yp, body), init, span=st.span)
            case _:
                raise AssertionError(f"_subst_cont_stmt: unhandled statement {st!r}")

    def _subst_cont_handler(self, h: S.Handler, k: str, xp: str, yp: str, body: S.Comp) -> S.Handler:
        bfv = free_vars(body)
        cap_values = bfv.values - {xp, yp}
        ops = []
        for c in h.op_clauses:
            if c.k == k:
                ops.append(c)
                continue
            x2, z2, b = c.x, c.z, c.body
            if c.x in cap_values:
                x2 = fresh_name(c.x, bfv.values | free_vars(b).values)
                b = self.sub(b, {c.x: S.Var(x2)})
            if c.z in cap_values:
                z2 = fresh_name(c.z, bfv.values | free_vars(b).values | {x2})
                b = self.sub(b, {c.z: S.Var(z2)})
            k2, b2 = c.k, b
            if c.k in bfv.conts:
                k2 = fresh_name(c.k, bfv.conts | free_vars(b).conts)
                b2 = self.rename_cont(b, c.k, k2)
            ops.append(S.OpClause(c.op, x2, k2, z2, self.subst_cont(b2, k, xp, yp, body)))
        r = h.ret_clause
        x2, z2, b = r.x, r.z, r.body
        if r.x in cap_values:
            x2 = fresh_name(r.x, bfv.values | free_vars(b).values)
            b = self.sub(b, {r.x: S.Var(x2)})
        if r.z in cap_values:
            z2 = fresh_name(r.z, bfv.values | free_vars(b).values | {x2})
            b = self.sub(b, {r.z: S.Var(z2)})
        return S.Handler(h.theory, tuple(ops), S.RetClause(x2, z2, self.subst_cont(b, k, xp, yp, body)))

    # -- handling

    def handle_with(self, c: S.Comp, h: S.Handler, state: S.Expr) -> S.Comp:
        """Run handler h over computation c with the given state expression."""
        self.tick()
        match c:
            case S.Ret(e):
                r = h.ret_clause
                result = self.subst(r.body, {r.x: e, r.z: state})
                assert isinstance(result, S.Comp)
                return result
            case S.Bind(S.OpCall(op, arg), yv, rest):
                clause = h.clause_for(op)
                if clause is None:
                    raise SubstitutionError(f"no clause handles operation {op!r}")
                hfv = free_vars(h)
                if yv in hfv.values | free_vars(state).values:
                    yv2 = fresh_name(yv, hfv.values | free_vars(rest).values | free_vars(state).values)
                    rest = self.sub(rest, {yv: S.Var(yv2)})
                    yv = yv2
                z2 = fresh_name(
                    "z", free_vars(rest).values | hfv.values | free_vars(state).values | {yv}
                )
                plugged = self.subst(clause.body, {clause.x: arg, clause.z: state})
                resumed = self.handle_with(rest, h, S.Var(z2))
                result = self.subst_cont(plugged, clause.k, yv, z2, resumed)
                assert isinstance(result, S.Comp)
                return result
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
            case S.LetBoxC(u, e, b):
                avoid = free_vars(h).modals | free_vars(state).modals
                u2, b2 = u, b
                if u in avoid:
                    u2 = fresh_name(u, avoid | free_vars(b).modals)
                    b2 = self.rename_modal(b, u, u2)
                return S.LetBoxC(u2, e, self.handle_with(b2, h, state), span=c.span)
            case S.FixC(f, p, a, th, r, rec, sc):
                avoid = free_vars(h).values | free_vars(state).values
                f2, rec2, sc2 = f, rec, sc
                if f in avoid:
                    f2 = fresh_name(f, avoid | free_vars(rec).values | free_vars(sc).values | {p})
                    if p != f:
                        rec2 = self.sub(rec, {f: S.Var(f2)})
                    sc2 = self.sub(sc, {f: S.Var(f2)})
                return S.FixC(f2, p, a, th, r, rec2, self.handle_with(sc2, h, state), span=c.span)
            case S.IfC(cond, a, b):
                return mk_if_c(
                    cond, self.handle_with(a, h, state), self.handle_with(b, h, state), span=c.span
                )
            case _:
                raise AssertionError(f"handle_with: unhandled computation {c!r}")

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
        sequence and then stripped down to an expression."""
        self.tick()
        cfv = free_vars(c)

        def rec(s: S.Term) -> S.Term:
            return self.modal_subst(s, u, c)

        match t:
            case S.Var() | S.IntLit() | S.BoolLit() | S.UnitLit() | S.Nil():
                return t
            case S.Bind(S.Handle(u2, theta, h, e), x, rest) if u2 == u:
                theta2 = self._modal_subst_hseq(theta, u, c)
                h2 = rec(h)
                assert isinstance(h2, S.Handler)
                e2 = rec(e)
                handled = self.handle_with(self.handle_seq(c, theta2), h2, e2)
                rest2 = rec(rest)
                assert isinstance(rest2, S.Comp)
                return self.subst_monadic(handled, x, rest2)
            case S.EvalTerm(theta, u2) if u2 == u:
                theta2 = self._modal_subst_hseq(theta, u, c)
                return self.eval_meta(self.handle_seq(c, theta2))
            case S.LetBoxE(u2, e, b) | S.LetBoxC(u2, e, b):
                cls = S.LetBoxE if isinstance(t, S.LetBoxE) else S.LetBoxC
                e2 = rec(e)
                if u2 == u:
                    return cls(u2, e2, b, span=t.span)
                b2 = b
                if u2 in cfv.modals:
                    u3 = fresh_name(u2, cfv.modals | free_vars(b).modals)
                    b2 = self.rename_modal(b, u2, u3)
                    u2 = u3
                return cls(u2, e2, rec(b2), span=t.span)
            case S.Lam(p, a, b):
                p2, b2 = self._msub_value_binder(p, cfv.values, b)
                return S.Lam(p2, a, rec(b2), span=t.span)
            case S.Bind(st, x, rest):
                st2 = rec(st)
                x2, rest2 = self._msub_value_binder(x, cfv.values, rest)
                return S.Bind(st2, x2, rec(rest2), span=t.span)
            case S.FixE(f, p, a, th, r, rec_body, sc) | S.FixC(f, p, a, th, r, rec_body, sc):
                cls = S.FixE if isinstance(t, S.FixE) else S.FixC
                f2, rec2, sc2 = f, rec_body, sc
                if f in cfv.values:
                    f2 = fresh_name(
                        f,
                        cfv.values | free_vars(rec_body).values | free_vars(sc).values | {p},
                    )
                    if p != f:
                        rec2 = self.sub(rec_body, {f: S.Var(f2)})
                    sc2 = self.sub(sc, {f: S.Var(f2)})
                p2, rec3 = p, rec2
                if p in cfv.values:
                    p2 = fresh_name(p, cfv.values | free_vars(rec2).values | {f2})
                    rec3 = self.sub(rec2, {p: S.Var(p2)})
                return cls(f2, p2, a, th, r, rec(rec3), rec(sc2), span=t.span)
            case S.App(f, a):
                return S.App(rec(f), rec(a), span=t.span)
            case S.BoxTerm(th, b):
                return S.BoxTerm(th, rec(b), span=t.span)
            case S.Pair(l, r):
                return S.Pair(rec(l), rec(r), span=t.span)
            case S.Proj1(a):
                return mk_proj1(rec(a), span=t.span)
            case S.Proj2(a):
                return mk_proj2(rec(a), span=t.span)
            case S.ConsE(h, tl):
                return S.ConsE(rec(h), rec(tl), span=t.span)
            case S.Append(l, r):
                return mk_append(rec(l), rec(r), span=t.span)
            case S.Arith(op, l, r):
                return mk_arith(op, rec(l), rec(r), span=t.span)
            case S.Cmp(op, l, r):
                return mk_cmp(op, rec(l), rec(r), span=t.span)
            case S.IfE(cond, a, b):
                return mk_if_e(rec(cond), rec(a), rec(b), span=t.span)
            case S.IfC(cond, a, b):
                return mk_if_c(rec(cond), rec(a), rec(b), span=t.span)
            case S.Ret(e):
                return S.Ret(rec(e), span=t.span)
            case S.OpCall(op, a):
                return S.OpCall(op, rec(a), span=t.span)
            case S.ContCall(kn, a, st):
                return S.ContCall(kn, rec(a), rec(st), span=t.span)
            case S.EvalTerm(theta, u2):
                return S.EvalTerm(self._modal_subst_hseq(theta, u, c), u2, span=t.span)
            case S.Handle(u2, theta, h, e):
                h2 = rec(h)
                assert isinstance(h2, S.Handler)
                return S.Handle(u2, self._modal_subst_hseq(theta, u, c), h2, rec(e), span=t.span)
            case S.Handler(th, ops, ret):
                out = []
                for cl in ops:
                    x2, b = self._msub_value_binder(cl.x, cfv.values, cl.body)
                    z2, b = self._msub_value_binder(cl.z, cfv.values, b)
                    k2 = cl.k
                    if cl.k in cfv.conts:
                        k2 = fresh_name(cl.k, cfv.conts | free_vars(b).conts)
                        b = self.rename_cont(b, cl.k, k2)
                    body2 = rec(b)
                    assert isinstance(body2, S.Comp)
                    out.append(S.OpClause(cl.op, x2, k2, z2, body2))
                x2, b = self._msub_value_binder(ret.x, cfv.values, ret.body)
                z2, b = self._msub_value_binder(ret.z, cfv.values, b)
                body2 = rec(b)
                assert isinstance(body2, S.Comp)
                return S.Handler(th, tuple(out), S.RetClause(x2, z2, body2))
            case S.HSeq():
                return self._modal_subst_hseq(t, u, c)
            case _:
                raise AssertionError(f"modal_subst: unhandled node {t!r}")

    def _msub_value_binder(self, b: str, cvalues: frozenset[str], body: S.Term):
        if b in cvalues:
            b2 = fresh_name(b, cvalues | free_vars(body).values)
            return b2, self.sub(body, {b: S.Var(b2)})
        return b, body

    def _modal_subst_hseq(self, theta: S.HSeq, u: str, c: S.Comp) -> S.HSeq:
        cfv = free_vars(c)
        out = []
        for cl in theta.clauses:
            handler = self.modal_subst(cl.handler, u, c)
            assert isinstance(handler, S.Handler)
            init = self.modal_subst(cl.init, u, c)
            assert isinstance(init, S.Expr)
            var, body = self._msub_value_binder(cl.var, cfv.values, cl.body)
            body2 = self.modal_subst(body, u, c)
            assert isinstance(body2, S.Comp)
            out.append(S.HClause(handler, init, var, body2))
        return S.HSeq(tuple(out))

    # -- running a closed computation down to an expression

    def eval_meta(self, c: S.Comp) -> S.Expr:
        """Strip a computation with no effects left into an expression: a
        returned value is the value itself, and a handle at the head folds
        into an eval with the handling attached to the sequence."""
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
            case S.LetBoxC(u, e, b):
                return S.LetBoxE(u, e, self.eval_meta(b), span=c.span)
            case S.FixC(f, p, a, th, r, rec, sc):
                return S.FixE(f, p, a, th, r, rec, self.eval_meta(sc), span=c.span)
            case S.IfC(cond, a, b):
                return mk_if_e(cond, self.eval_meta(a), self.eval_meta(b), span=c.span)
            case _:
                raise AssertionError(f"eval_meta: unhandled computation {c!r}")


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
