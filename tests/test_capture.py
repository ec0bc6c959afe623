"""Capture avoidance against a reference that does not trust the engine.

The reference renames *every* binder of the term it substitutes into to a
globally fresh name (one no term or payload can contain: it has a `'`), and
then replaces the free occurrences of each key by its payload, or by the new
name of a renamed modal variable or continuation.  Nothing can be captured
then, so there is nothing to check.  Its table of binders is written out
here, apart from `syntax.SCHEMA`, and it never calls the engine.

Three engine operations are checked against it: `subst_values`,
`subst_monadic`, and the engine's renaming of a free name (`_rename`), which
capture avoidance uses in every namespace, here in the modal and
continuation ones.  The terms are random and untyped (substitution is
syntactic): small names drawn from one pool per namespace, so binders shadow
one another, and payloads and new names from the same pools, so they name
the term's own value, modal and continuation binders; payloads carry `let
box`/`let fix` of their own.  The engine's result and the reference's must
be alpha-equal once both are normalized.  Each seed is printed on failure.
Two regression cases follow, a value substitution and a handled program,
where a box variable is renamed to the name of a binder inside.  The file
closes with operation names, which are data: a binder that shares a name
with an operation is renamed, and the operation is not.
"""

import random

import pytest

from ecmtt import syntax as S
from ecmtt.evaluator import Value, evaluate
from ecmtt.parser import parse_source, parse_term
from ecmtt.pretty import pretty, type_text
from ecmtt.subst import _Engine, normalize, subst_monadic, subst_values
from ecmtt.typecheck import infer_term
from ecmtt.syntax import alpha_equal, free_vars

VAL, MOD, CONT = "value", "modal", "cont"

# Per class, each binding field with its namespace and the children it
# scopes over, in order: a later binder shadows an earlier one of a name.
BINDERS = {
    S.Lam: (("param", VAL, ("body",)),),
    S.LetBox: (("uvar", MOD, ("body",)),),
    S.Fix: (("fname", VAL, ("rec_body", "scope")), ("param", VAL, ("rec_body",))),
    S.Bind: (("var", VAL, ("rest",)),),
    S.OpClause: (("x", VAL, ("body",)), ("z", VAL, ("body",)), ("k", CONT, ("body",))),
    S.RetClause: (("x", VAL, ("body",)), ("z", VAL, ("body",))),
    S.HClause: (("var", VAL, ("body",)),),
}
# The fields that name a free modal variable or continuation.
USES = {S.EvalTerm: ("uvar", MOD), S.Handle: ("uvar", MOD), S.ContCall: ("kname", CONT)}
NODES = (S.Expr, S.Comp, S.Stmt, S.Handler, S.HSeq, S.OpClause, S.RetClause, S.HClause)

# ---------------------------------------------------------------------------
# The reference


class Reference:
    def __init__(self) -> None:
        self.count = 0

    def fresh(self, name: str) -> str:
        self.count += 1
        return f"{name}'{self.count}"

    def subst(self, t, env: dict):
        """`t` with every binder renamed fresh and each free name looked up
        in `env`: (namespace, name) to a payload for a value, else a name.
        A node is a tuple too, so nodes are told apart first."""
        if not isinstance(t, NODES):
            return tuple(self.subst(item, env) for item in t) if type(t) is tuple else t
        cls = type(t)
        if cls is S.Var:
            return env.get((VAL, t.name), t)
        fields = {f: getattr(t, f) for f in t.fields()}
        if cls in USES:
            f, ns = USES[cls]
            fields[f] = env.get((ns, fields[f]), fields[f])
        inner: dict[str, dict] = {}
        for f, ns, scope in BINDERS.get(cls, ()):
            old = fields[f]
            fields[f] = new = self.fresh(old)
            for c in scope:
                inner[c] = {**inner.get(c, env), (ns, old): S.Var(new) if ns == VAL else new}
        for name, value in fields.items():
            fields[name] = self.subst(value, inner.get(name, env))
        return cls(**fields)

    def plug(self, c: S.Comp, x: str, cont: S.Comp) -> S.Comp:
        """Each `ret e` leaf of `c`, whose binders are already fresh, replaced
        by `cont` with `e` for `x`."""
        match c:
            case S.Ret(e):
                return self.subst(cont, {(VAL, x): e})
            case S.Bind(stmt, v, rest):
                return S.Bind(stmt, v, self.plug(rest, x, cont))
            case S.LetBox(u, e, body):
                return S.LetBox(u, e, self.plug(body, x, cont))
            case S.Fix():
                return c.replace(scope=self.plug(c.scope, x, cont))
            case S.If(cond, then, els):
                return S.If(cond, self.plug(then, x, cont), self.plug(els, x, cont))
        raise AssertionError(f"not a computation: {c!r}")


def reference_subst(t: S.Term, mapping: dict[str, S.Expr]) -> S.Term:
    return Reference().subst(t, {(VAL, k): v for k, v in mapping.items()})


def reference_monadic(c: S.Comp, x: str, cont: S.Comp) -> S.Comp:
    ref = Reference()
    return ref.plug(ref.subst(c, {}), x, cont)


# ---------------------------------------------------------------------------
# Random terms over small name pools

VALUE_NAMES = ("a", "a1", "b", "x")
MODAL_NAMES = ("u", "u1")
CONT_NAMES = ("k", "k1")
THEORY = S.make_theory([S.OpDecl("op", S.INT, S.INT)])


class Gen:
    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    def value(self) -> str:
        return self.rng.choice(VALUE_NAMES)

    def modal(self) -> str:
        return self.rng.choice(MODAL_NAMES)

    def cont(self) -> str:
        return self.rng.choice(CONT_NAMES)

    def expr(self, depth: int) -> S.Expr:
        rng = self.rng
        if depth <= 0:
            return rng.choice([S.Var(self.value()), S.Var(self.value()), S.IntLit(rng.randint(0, 9))])
        d = depth - 1
        pick = rng.randrange(10)
        if pick == 0:
            return S.Lam(self.value(), S.INT, self.expr(d))
        if pick == 1:
            return S.LetBox(self.modal(), self.expr(d), self.expr(d))
        if pick == 2:
            return S.EvalTerm(self.hseq(d), self.modal())
        if pick == 3:
            return S.Fix(self.value(), self.value(), S.INT, THEORY, S.INT, self.comp(d), self.expr(d))
        if pick == 4:
            return S.BoxTerm(THEORY, self.comp(d))
        if pick == 5:
            return S.Pair(self.expr(d), self.expr(d))
        if pick == 6:
            return S.Arith("+", self.expr(d), self.expr(d))
        if pick == 7:
            return S.If(S.Cmp("<", self.expr(d), self.expr(d)), self.expr(d), self.expr(d))
        return S.App(self.expr(d), self.expr(d))

    def stmt(self, depth: int) -> S.Stmt:
        d = max(depth - 1, 0)
        pick = self.rng.randrange(3)
        if pick == 0:
            return S.OpCall("op", self.expr(d))
        if pick == 1:
            return S.ContCall(self.cont(), self.expr(d), self.expr(d))
        return S.Handle(self.modal(), self.hseq(d), self.handler(d), self.expr(d))

    def comp(self, depth: int) -> S.Comp:
        rng = self.rng
        if depth <= 0:
            return S.Ret(self.expr(0))
        d = depth - 1
        pick = rng.randrange(6)
        if pick == 0:
            return S.Ret(self.expr(d))
        if pick == 1:
            return S.LetBox(self.modal(), self.expr(d), self.comp(d))
        if pick == 2:
            return S.Fix(self.value(), self.value(), S.INT, THEORY, S.INT, self.comp(d), self.comp(d))
        if pick == 3:
            return S.If(S.Cmp("<", self.expr(d), self.expr(d)), self.comp(d), self.comp(d))
        return S.Bind(self.stmt(d), self.value(), self.comp(d))

    def handler(self, depth: int) -> S.Handler:
        clause = S.OpClause("op", self.value(), self.cont(), self.value(), self.comp(depth))
        return S.Handler(THEORY, (clause,), S.RetClause(self.value(), self.value(), self.comp(depth)))

    def hseq(self, depth: int) -> S.HSeq:
        if depth <= 0 or self.rng.random() < 0.5:
            return S.EMPTY_HSEQ
        return S.HSeq((S.HClause(self.handler(depth - 1), self.expr(0), self.value(), self.comp(depth - 1)),))

    def mapping(self, t: S.Term) -> dict[str, S.Expr]:
        """Payloads for one or two of the value names free in `t`."""
        free = sorted(free_vars(t).values)
        keys = self.rng.sample(free, min(len(free), self.rng.randint(1, 2)))
        return {k: self.expr(self.rng.randint(0, 2)) for k in keys}


def bound_names(t, namespace: str = VAL) -> set[str]:
    """The names of one namespace bound anywhere in `t`."""
    if not isinstance(t, NODES):
        return set().union(*(bound_names(item, namespace) for item in t)) if type(t) is tuple else set()
    names = {getattr(t, f) for f, ns, _ in BINDERS.get(type(t), ()) if ns == namespace}
    for f in t.fields():
        names |= bound_names(getattr(t, f), namespace)
    return names


def same(got: S.Term, expected: S.Term) -> bool:
    return alpha_equal(normalize(got), normalize(expected))


# ---------------------------------------------------------------------------
# Tests


def test_subst_values_agrees_with_renaming_every_binder():
    exposed = 0
    for seed in range(800):
        gen = Gen(random.Random(seed))
        t = gen.comp(4) if seed % 2 else gen.expr(4)
        m = gen.mapping(t)
        if not m:
            continue
        got = subst_values(t, m)
        assert same(got, reference_subst(t, m)), (
            f"seed {seed}: {pretty(t)}\n  with {({k: pretty(v) for k, v in m.items()})}\n  gave {pretty(got)}"
        )
        payload_names = set().union(*(free_vars(v).values for v in m.values()))
        exposed += bool(payload_names & bound_names(t))
    # Most cases put a payload under a binder of a name it mentions.
    assert exposed >= 500


def test_subst_monadic_agrees_with_renaming_every_binder():
    exposed = 0
    for seed in range(800):
        gen = Gen(random.Random(seed))
        c, x, cont = gen.comp(4), gen.value(), gen.comp(3)
        got = subst_monadic(c, x, cont)
        assert same(got, reference_monadic(c, x, cont)), (
            f"seed {seed}: {pretty(c)}\n  into {x}. {pretty(cont)}\n  gave {pretty(got)}"
        )
        exposed += bool((free_vars(cont).values - {x}) & bound_names(c))
    assert exposed >= 600


def test_the_reference_renames_binders_and_not_free_names():
    t = S.Lam("a", S.INT, S.Arith("+", S.Var("a"), S.Var("b")))
    out = reference_subst(t, {"b": S.Var("a")})
    assert out == S.Lam("a'1", S.INT, S.Arith("+", S.Var("a'1"), S.Var("a")))
    fix = S.Fix("f", "f", S.INT, THEORY, S.INT, S.Ret(S.Var("f")), S.Ret(S.Var("f")))
    out = reference_subst(fix, {})
    assert (out.rec_body, out.scope) == (S.Ret(S.Var("f'2")), S.Ret(S.Var("f'1")))


# The engine's namespaces that a rename reaches, each with the reference's
# name for it and the pool its random names come from.
RENAMED = ((S.MODALS, MOD, MODAL_NAMES), (S.CONTS, CONT, CONT_NAMES))


def test_rename_agrees_with_renaming_every_binder():
    # `_rename` turns a free name into one that is not free in the term but
    # may be bound in it: a binder of the new name over the old one must be
    # renamed itself.
    cases = exposed = 0
    for seed in range(800):
        gen = Gen(random.Random(seed))
        t = gen.comp(4) if seed % 2 else gen.expr(4)
        for ns, ref_ns, pool in RENAMED:
            free = getattr(free_vars(t), ns)
            if not free:
                continue
            old = gen.rng.choice(sorted(free))
            new = gen.rng.choice(sorted({*pool, *(name + "1" for name in pool)} - free))
            got = _Engine()._rename(t, ns, old, new)
            assert same(got, Reference().subst(t, {(ref_ns, old): new})), (
                f"seed {seed}: {pretty(t)}\n  {ns} {old} to {new}\n  gave {pretty(got)}"
            )
            cases += 1
            exposed += new in bound_names(t, ref_ns)
    assert cases >= 850
    assert exposed >= 150


_NO_OP = "handler for {} { return(x;z) -> ret x }"


def test_a_value_substitution_does_not_capture_the_box_variable_it_renames():
    # The payload names the outer `u`, so that binder is renamed, to `u1`;
    # the inner `let box u1` must not then capture the renamed `handle u`.
    t = parse_term(
        f"let box u = box {{}}. ret 1 in let box u1 = box {{}}. ret 2 in y <- handle u with {_NO_OP} init (); ret (y, a)"
    )
    m = {"a": S.EvalTerm(S.EMPTY_HSEQ, "u")}
    got = subst_values(t, m)
    assert same(got, reference_subst(t, m)), pretty(got)
    outcome = evaluate(S.LetBox("u", S.BoxTerm(S.EMPTY_THEORY, S.Ret(S.IntLit(7))), got))
    assert outcome.final == Value(S.Ret(S.Pair(S.IntLit(1), S.IntLit(7))))


def test_a_handled_box_variable_is_not_captured_by_a_clause_binder():
    # The handled rest, read by the return clause, names the outer `b`, so
    # the clause's own `let box b` around its `k` call is renamed, to `b1`;
    # the clause's `let box b1` must not then capture the renamed `handle b`.
    source = parse_source(
        "def Ch = {op:unit=>int}\n"
        f"def Hb = {_NO_OP}\n"
        "let box a = box Ch. (r <- op(); ret r) in\n"
        "let box b = box {}. ret 100 in\n"
        "x <- handle a with handler for Ch {\n"
        "    op(x;k;z) -> let box b = box {}. ret 1 in let box b1 = box {}. ret 2 in"
        " (p <- handle b with Hb init (); q <- k(p; z); ret q),\n"
        "    return(x;z) -> (w <- handle b with Hb init (); ret (x + w))\n"
        "} init (); ret x"
    )
    assert type_text(infer_term(source.main)) == "int"
    assert evaluate(source.main).final == Value(S.Ret(S.IntLit(101)))


_CLAUSE_TEXT = (
    "x <- handle u with handler for {{get:unit=>int}} "
    "{{ get(x; {k}; z) -> {body}, return(x; z) -> ret x }} init 0; ret x"
)


@pytest.mark.parametrize(
    "text, walk, expected",
    [
        pytest.param(
            "box {get:unit=>int}. get <- get(); ret (get + y)",
            lambda t: subst_values(t, {"y": S.Var("get")}),
            "box {get:unit=>int}. get1 <- get(); ret get1 + get",
            id="value-binder",
        ),
        pytest.param(
            _CLAUSE_TEXT.format(k="get", body="(a <- get(); b <- k(a; z); c <- get(b; z); ret c)"),
            lambda t: _Engine()._rename(t, S.CONTS, "k", "get"),
            _CLAUSE_TEXT.format(k="get1", body="a <- get(); b <- get(a; z); c <- get1(b; z); ret c"),
            id="continuation-binder",
        ),
    ],
)
def test_an_operation_name_is_never_renamed(text, walk, expected):
    # The payload or the new name is `get`, so the binder `get` is renamed
    # to `get1`; the operation `get`, its declaration and its clause keep
    # their name.
    got = walk(parse_term(text))
    assert pretty(got) == expected
    assert alpha_equal(got, parse_term(expected))
