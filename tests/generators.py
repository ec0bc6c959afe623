"""Seeded random generators for types, theories, handlers, and programs.

Every generator is type-directed: a term is built together with the type it
is guaranteed to synthesize, so the property suites can check the checker
and the evaluator against the construction rather than against themselves.
Generation is bounded (depth at most six, theories of at most three
operations) and fully determined by the supplied random.Random.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ecmtt import syntax as S
from ecmtt.corpus import CASES
from ecmtt.parser import ParseError, parse_source
from ecmtt.typecheck import TypeCheckError, infer_term

BASE_TYPES = (S.INT, S.BOOL, S.UNIT)

Env = list[tuple[str, S.Type]]


class NameSupply:
    """Identifiers, one counter per program.  They are fresh and
    collision-free, unless `shadow` is set: then every base name but `op`
    cycles through a pool of two (`x0`, `x1`), so nested binders, clause
    parameters and sequence variables shadow one another.  Operation names
    stay unique either way."""

    def __init__(self, shadow: bool = False) -> None:
        self.counter = 0
        self.shadow = shadow

    def fresh(self, base: str) -> str:
        self.counter += 1
        if self.shadow and base != "op":
            return f"{base}{self.counter % 2}"
        return f"{base}{self.counter}"


def gen_data_type(rng: random.Random, depth: int = 2) -> S.Type:
    """A first-order value type: base, pair, or list."""
    if depth <= 0 or rng.random() < 0.6:
        return rng.choice(BASE_TYPES)
    if rng.random() < 0.6:
        return S.ProdT(gen_data_type(rng, depth - 1), gen_data_type(rng, depth - 1))
    return S.ListT(gen_data_type(rng, depth - 1))


def gen_literal(rng: random.Random, ty: S.Type) -> S.Expr:
    """A closed literal of the given first-order type.

    Lists are built as non-empty cons chains over an unannotated nil, the
    only empty-list form the surface syntax has.
    """
    match ty:
        case S.IntT():
            return S.IntLit(rng.randint(-9, 99))
        case S.BoolT():
            return S.BoolLit(rng.random() < 0.5)
        case S.UnitT():
            return S.UnitLit()
        case S.ProdT(left, right):
            return S.Pair(gen_literal(rng, left), gen_literal(rng, right))
        case S.ListT(elem):
            return S.ListE(tuple(gen_literal(rng, elem) for _ in range(rng.randint(1, 2))))
    raise ValueError(f"no literal for type {ty!r}")


def gen_expr(rng: random.Random, sup: NameSupply, env: Env, ty: S.Type, depth: int) -> S.Expr:
    """An expression of type `ty` using only value variables from `env`."""
    matching = [name for name, t in env if S.type_equal(t, ty)]
    options = ["lit", "lit"]
    if matching:
        options += ["var", "var"]
    if depth > 0:
        options.append("if")
        options.append("proj")
        if isinstance(ty, S.IntT):
            options.append("arith")
        if isinstance(ty, S.BoolT):
            options.append("cmp")
        if isinstance(ty, S.ProdT):
            options.append("pair")
        if isinstance(ty, S.ListT):
            options += ["cons", "append"]
    if depth > 1:
        options.append("beta")

    match rng.choice(options):
        case "var":
            return S.Var(rng.choice(matching))
        case "if":
            return S.If(
                gen_expr(rng, sup, env, S.BOOL, depth - 1),
                gen_expr(rng, sup, env, ty, depth - 1),
                gen_expr(rng, sup, env, ty, depth - 1),
            )
        case "proj":
            other = gen_data_type(rng, 1)
            if rng.random() < 0.5:
                pair = gen_expr(rng, sup, env, S.ProdT(ty, other), depth - 1)
                return S.Proj1(pair)
            pair = gen_expr(rng, sup, env, S.ProdT(other, ty), depth - 1)
            return S.Proj2(pair)
        case "arith":
            op = rng.choice(("+", "-", "*"))
            return S.Arith(
                op,
                gen_expr(rng, sup, env, S.INT, depth - 1),
                gen_expr(rng, sup, env, S.INT, depth - 1),
            )
        case "cmp":
            op = rng.choice(("=", "<"))
            return S.Cmp(
                op,
                gen_expr(rng, sup, env, S.INT, depth - 1),
                gen_expr(rng, sup, env, S.INT, depth - 1),
            )
        case "pair":
            assert isinstance(ty, S.ProdT)
            return S.Pair(
                gen_expr(rng, sup, env, ty.left, depth - 1),
                gen_expr(rng, sup, env, ty.right, depth - 1),
            )
        case "cons":
            # The surface syntax has no cons operator: prepend by appending
            # a one-element literal.
            assert isinstance(ty, S.ListT)
            head = S.ListE((gen_expr(rng, sup, env, ty.elem, depth - 1),))
            return S.Append(head, gen_expr(rng, sup, env, ty, depth - 1))
        case "append":
            assert isinstance(ty, S.ListT)
            return S.Append(
                gen_expr(rng, sup, env, ty, depth - 1),
                gen_expr(rng, sup, env, ty, depth - 1),
            )
        case "beta":
            dom = gen_data_type(rng, 1)
            param = sup.fresh("a")
            body = gen_expr(rng, sup, env + [(param, dom)], ty, depth - 1)
            return S.App(S.Lam(param, dom, body), gen_expr(rng, sup, env, dom, depth - 1))
    return gen_literal(rng, ty)


def gen_theory(rng: random.Random, sup: NameSupply) -> S.EffectContext:
    """A theory of one to three operations over base types."""
    ops = [
        S.OpDecl(sup.fresh("op"), rng.choice(BASE_TYPES), rng.choice(BASE_TYPES))
        for _ in range(rng.randint(1, 3))
    ]
    return S.make_theory(ops)


@dataclass(frozen=True)
class GeneratedHandler:
    handler: S.Handler
    init: S.Expr
    state_type: S.Type
    in_type: S.Type
    out_type: S.Type


def gen_handler(rng: random.Random, sup: NameSupply, theory: S.EffectContext, in_type: S.Type) -> GeneratedHandler:
    """A handler for `theory` consuming computations of `in_type`.

    Clause bodies are pure apart from continuation calls, so the handler is
    well formed under any ambient theory.
    """
    state_type = rng.choice(BASE_TYPES)
    rx, rz = sup.fresh("x"), sup.fresh("z")
    if rng.random() < 0.5:
        out_type: S.Type = S.ProdT(in_type, state_type)
        ret_clause = S.RetClause(rx, rz, S.Ret(S.Pair(S.Var(rx), S.Var(rz))))
    else:
        out_type = in_type
        ret_clause = S.RetClause(rx, rz, S.Ret(S.Var(rx)))

    clauses = []
    for decl in theory.ops:
        cx, ck, cz = sup.fresh("x"), sup.fresh("k"), sup.fresh("z")
        clause_env: Env = [(cx, decl.in_type), (cz, state_type)]
        if rng.random() < 0.75:
            y = sup.fresh("y")
            resume = S.ContCall(
                ck,
                gen_expr(rng, sup, clause_env, decl.out_type, 1),
                gen_expr(rng, sup, clause_env, state_type, 1),
            )
            body: S.Comp = S.Bind(resume, y, S.Ret(S.Var(y)))
        else:
            body = S.Ret(gen_expr(rng, sup, clause_env, out_type, 1))
        clauses.append(S.OpClause(decl.name, cx, ck, cz, body))
    handler = S.Handler(theory, tuple(clauses), ret_clause)
    return GeneratedHandler(handler, gen_literal(rng, state_type), state_type, in_type, out_type)


def gen_comp(
    rng: random.Random,
    sup: NameSupply,
    env: Env,
    theory: S.EffectContext,
    ty: S.Type,
    depth: int,
) -> S.Comp:
    """A computation of type `ty` over `theory`."""
    options = ["ret", "ret"]
    if depth > 0:
        options.append("ifc")
        if theory.ops:
            options += ["bind-op", "bind-op", "bind-op"]
    if depth > 1:
        options.append("pipeline")
    match rng.choice(options):
        case "ifc":
            return S.If(
                gen_expr(rng, sup, env, S.BOOL, depth - 1),
                gen_comp(rng, sup, env, theory, ty, depth - 1),
                gen_comp(rng, sup, env, theory, ty, depth - 1),
            )
        case "bind-op":
            decl = rng.choice(theory.ops)
            arg = gen_expr(rng, sup, env, decl.in_type, min(depth - 1, 2))
            x = sup.fresh("v")
            rest = gen_comp(rng, sup, env + [(x, decl.out_type)], theory, ty, depth - 1)
            return S.Bind(S.OpCall(decl.name, arg), x, rest)
        case "pipeline":
            inner_theory = gen_theory(rng, sup)
            inner_ty = gen_data_type(rng, 1)
            body = gen_comp(rng, sup, env, inner_theory, inner_ty, depth - 1)
            gh = gen_handler(rng, sup, inner_theory, inner_ty)
            u, x = sup.fresh("u"), sup.fresh("w")
            rest = gen_comp(rng, sup, env + [(x, gh.out_type)], theory, ty, depth - 1)
            return S.LetBox(
                u,
                S.BoxTerm(inner_theory, body),
                S.Bind(S.Handle(u, S.EMPTY_HSEQ, gh.handler, gh.init), x, rest),
            )
    return S.Ret(gen_expr(rng, sup, env, ty, depth))


def gen_handle_comp(
    rng: random.Random,
    sup: NameSupply,
    env: Env,
    ambient: S.EffectContext,
    depth: int,
) -> tuple[S.Comp, S.Type]:
    """`let box u = box T. c in x <- handle u with h init e; rest`."""
    theory = gen_theory(rng, sup)
    in_type = gen_data_type(rng, 1)
    body = gen_comp(rng, sup, env, theory, in_type, depth)
    gh = gen_handler(rng, sup, theory, in_type)
    u, x = sup.fresh("u"), sup.fresh("r")
    rest = gen_comp(rng, sup, env + [(x, gh.out_type)], ambient, gh.out_type, 1)
    comp = S.LetBox(
        u,
        S.BoxTerm(theory, body),
        S.Bind(S.Handle(u, S.EMPTY_HSEQ, gh.handler, gh.init), x, rest),
    )
    return comp, gh.out_type


def gen_staged_comp(
    rng: random.Random,
    sup: NameSupply,
    env: Env,
    ambient: S.EffectContext,
    depth: int,
) -> tuple[S.Comp, S.Type]:
    """A two-stage handling sequence: the first handler's result feeds a
    computation over a second theory, which the main handler consumes."""
    theory1 = gen_theory(rng, sup)
    a1 = gen_data_type(rng, 1)
    c1 = gen_comp(rng, sup, env, theory1, a1, depth)
    gh1 = gen_handler(rng, sup, theory1, a1)

    theory2 = gen_theory(rng, sup)
    a2 = gen_data_type(rng, 1)
    y = sup.fresh("s")
    mid = gen_comp(rng, sup, env + [(y, gh1.out_type)], theory2, a2, depth)
    gh2 = gen_handler(rng, sup, theory2, a2)

    u, x = sup.fresh("u"), sup.fresh("r")
    theta = S.HSeq((S.HClause(gh1.handler, gh1.init, y, mid),))
    comp = S.LetBox(
        u,
        S.BoxTerm(theory1, c1),
        S.Bind(S.Handle(u, theta, gh2.handler, gh2.init), x, S.Ret(S.Var(x))),
    )
    return comp, gh2.out_type


def gen_eval_comp(
    rng: random.Random,
    sup: NameSupply,
    env: Env,
    depth: int,
) -> tuple[S.Comp, S.Type]:
    """`ret (let box u = box {}. c in eval u)` over the empty theory."""
    ty = gen_data_type(rng, 1)
    body = gen_comp(rng, sup, env, S.EMPTY_THEORY, ty, depth)
    u = sup.fresh("u")
    return S.Ret(S.LetBox(u, S.BoxTerm(S.EMPTY_THEORY, body), S.EvalTerm(S.EMPTY_HSEQ, u))), ty


def gen_fix_comp(
    rng: random.Random,
    sup: NameSupply,
    env: Env,
    depth: int,
) -> tuple[S.Comp, S.Type]:
    """A non-recursive `let fix` whose scope applies the function once."""
    dom = rng.choice(BASE_TYPES)
    ret_ty = gen_data_type(rng, 1)
    f, p = sup.fresh("f"), sup.fresh("n")
    rec_body = gen_comp(rng, sup, env + [(p, dom)], S.EMPTY_THEORY, ret_ty, depth)
    u, x = sup.fresh("u"), sup.fresh("r")
    scope = S.LetBox(
        u,
        S.App(S.Var(f), gen_literal(rng, dom)),
        S.Bind(
            S.Handle(
                u,
                S.EMPTY_HSEQ,
                S.Handler(
                    S.EMPTY_THEORY,
                    (),
                    S.RetClause("x", "z", S.Ret(S.Var("x"))),
                ),
                S.UnitLit(),
            ),
            x,
            S.Ret(S.Var(x)),
        ),
    )
    comp = S.Fix(f, p, dom, S.EMPTY_THEORY, ret_ty, rec_body, scope)
    return comp, ret_ty


def gen_program(rng: random.Random, shadow: bool = False) -> tuple[S.Comp, S.Type]:
    """A closed top-level computation together with its type.  It is well
    typed unless `shadow` is set: a reused name can then hide a variable of
    another type that the generator still picks, so check before use."""
    sup = NameSupply(shadow)
    roll = rng.random()
    if roll < 0.45:
        return gen_handle_comp(rng, sup, [], S.EMPTY_THEORY, rng.randint(1, 4))
    if roll < 0.65:
        return gen_staged_comp(rng, sup, [], S.EMPTY_THEORY, rng.randint(1, 3))
    if roll < 0.8:
        return gen_eval_comp(rng, sup, [], rng.randint(1, 3))
    if roll < 0.9:
        return gen_fix_comp(rng, sup, [], rng.randint(1, 2))
    ty = gen_data_type(rng, 2)
    return gen_comp(rng, sup, [], S.EMPTY_THEORY, ty, rng.randint(1, 4)), ty


def gen_roundtrip_term(rng: random.Random) -> S.Term:
    """A term for printer/parser round-trips: programs plus bare expressions."""
    roll = rng.random()
    if roll < 0.6:
        return gen_program(rng)[0]
    sup = NameSupply()
    if roll < 0.8:
        dom = gen_data_type(rng, 1)
        cod = gen_data_type(rng, 1)
        param = sup.fresh("a")
        return S.Lam(param, dom, gen_expr(rng, sup, [(param, dom)], cod, rng.randint(1, 3)))
    return gen_expr(rng, sup, [], gen_data_type(rng, 2), rng.randint(1, 4))


def corpus_mains() -> list[S.Term]:
    """The main terms of the corpus cases that parse and typecheck: the
    hand-written programs the properties run beside the generated ones."""
    mains = []
    for case in CASES:
        try:
            main = parse_source(case.source).main
            infer_term(main)
        except (ParseError, TypeCheckError):
            continue
        mains.append(main)
    return mains
