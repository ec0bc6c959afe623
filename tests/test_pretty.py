"""The printer lays every node out in one loop.

`pretty` prints terms, statements, handlers, handling sequences, types and
theories through one explicit stack, so it takes no Python frame per level
of nesting.  The recursive printer it replaced, one function per kind of
node, is kept below as the reference: the loop must print every term, type
and theory exactly as it did.
"""

import random
import re
from pathlib import Path

import pytest

from ecmtt import pretty as P
from ecmtt import syntax as S
from ecmtt.corpus import CASES, PRELUDE
from ecmtt.evaluator import Value, evaluate
from ecmtt.parser import ParseError, parse_source, parse_type
from ecmtt.record import Record
from ecmtt.typecheck import TypeCheckError, infer_term

from generators import gen_program, gen_roundtrip_term

SAMPLES = sorted((Path(__file__).parent.parent / "samples").glob("*.ecmtt"))


# ---------------------------------------------------------------------------
# The recursive printer, kept as the reference


def _wrap(text: str, prec: int, ctx: int) -> str:
    return f"({text})" if prec < ctx else text


def theory_text(ctx: S.EffectContext) -> str:
    parts = []
    for entry in ctx.entries:
        if isinstance(entry, S.OpDecl):
            parts.append(f"{entry.name}:{type_text(entry.in_type)}=>{type_text(entry.out_type)}")
        else:
            parts.append(
                f"{entry.name}~:{type_text(entry.in_type)}/{type_text(entry.state_type)}"
                f"=>{type_text(entry.out_type)}"
            )
    return "{" + ", ".join(parts) + "}"


def type_text(ty: S.Type, prec: int = 0) -> str:
    match ty:
        case S.BaseT(name):
            return name
        case S.ArrowT(dom, cod):
            return _wrap(f"{type_text(dom, 2)} -> {type_text(cod, 1)}", 1, prec)
        case S.ProdT(left, right):
            return _wrap(f"{type_text(left, 3)} * {type_text(right, 2)}", 2, prec)
        case S.ListT(elem):
            return _wrap(f"list {type_text(elem, 3)}", 3, prec)
        case S.BoxT(theory, body):
            return _wrap(f"[ {theory_text(theory)} ] {type_text(body, 3)}", 3, prec)
        case _:
            raise AssertionError(f"type_text: unhandled type {ty!r}")


def _stmt_text(s: S.Stmt) -> str:
    match s:
        case S.OpCall(op, arg):
            if isinstance(arg, S.UnitLit):
                return f"{op}()"
            return f"{op}({pretty(arg, 0)})"
        case S.ContCall(kname, arg, state):
            return f"{kname}({pretty(arg, 0)}; {pretty(state, 0)})"
        case S.Handle(uvar, hseq, handler, init):
            seq = "" if not hseq.clauses else f" [{_hseq_text(hseq)}]"
            return f"handle {uvar}{seq} with {_handler_text(handler)} init {pretty(init, 5)}"
        case _:
            raise AssertionError(f"_stmt_text: unhandled statement {s!r}")


def _clause_body_text(c: S.Comp) -> str:
    # Handling-sequence clause bodies are parenthesized when they contain a
    # bind, since the bind separator would otherwise collide with the clause
    # separator.
    text = pretty(c, 0)
    if isinstance(c, S.Bind):
        return f"({text})"
    return text


def _hseq_text(hseq: S.HSeq) -> str:
    parts = []
    for clause in hseq.clauses:
        parts.append(
            f"{_handler_text(clause.handler)} init {pretty(clause.init, 5)}"
            f" as {clause.var}. {_clause_body_text(clause.body)}"
        )
    return "; ".join(parts)


def _handler_text(h: S.Handler) -> str:
    clauses = []
    for c in h.op_clauses:
        clauses.append(f"{c.op}({c.x}; {c.k}; {c.z}) -> {pretty(c.body, 0)}")
    r = h.ret_clause
    clauses.append(f"return({r.x}; {r.z}) -> {pretty(r.body, 0)}")
    return f"handler for {theory_text(h.theory)} {{ {', '.join(clauses)} }}"


def pretty(t: S.Term, prec: int = 0) -> str:
    match t:
        case S.Var(name):
            return name
        case S.IntLit(value):
            # A negative literal reads as an operand of binary minus in
            # argument position, so it gets parens anywhere tighter than a
            # multiplication operand.
            return _wrap(S.int_text(value), 5 if value >= 0 else 3, prec)
        case S.BoolLit(value):
            return "true" if value else "false"
        case S.UnitLit():
            return "()"
        case S.Pair(left, right):
            return f"({pretty(left, 0)}, {pretty(right, 0)})"
        case S.ListE(elems):
            return "[" + ", ".join(pretty(e, 0) for e in elems) + "]"
        case S.Lam(param, annot, body):
            return _wrap(f"fn {param}:{type_text(annot)}. {pretty(body, 0)}", 0, prec)
        case S.App(fn, arg):
            return _wrap(f"{pretty(fn, 4)} {pretty(arg, 5)}", 4, prec)
        case S.BoxTerm(theory, body):
            return _wrap(f"box {theory_text(theory)}. {pretty(body, 0)}", 0, prec)
        case S.LetBox(uvar, bound, body):
            return _wrap(f"let box {uvar} = {pretty(bound, 0)} in {pretty(body, 0)}", 0, prec)
        case S.EvalTerm(hseq, uvar):
            seq = "" if not hseq.clauses else f"[{_hseq_text(hseq)}] "
            return _wrap(f"eval {seq}{uvar}", 4, prec)
        case S.Fix(fname, param, annot, theory, ret_type, rec_body, scope):
            head = f"let fix {fname}({param}:{type_text(annot)}):[ {theory_text(theory)} ] {type_text(ret_type, 3)}"
            return _wrap(f"{head} = {pretty(rec_body, 0)} in {pretty(scope, 0)}", 0, prec)
        case S.Proj1(arg) | S.Proj2(arg):
            word = "fst" if isinstance(t, S.Proj1) else "snd"
            return _wrap(f"{word} {pretty(arg, 5)}", 4, prec)
        case S.Append() | S.Arith() | S.Cmp():
            op = "++" if type(t) is S.Append else t.op
            level = S.BINARY[op]
            # Left grouping, but a comparison takes one operator only.
            left = pretty(t.left, level + (level == 1))
            return _wrap(f"{left} {op} {pretty(t.right, level + 1)}", level, prec)
        case S.If(cond, then, els):
            return _wrap(
                f"if {pretty(cond, 1)} then {pretty(then, 0)} else {pretty(els, 0)}", 0, prec
            )
        case S.Ret(value):
            return _wrap(f"ret {pretty(value, 1)}", 0, prec)
        case S.Bind(stmt, var, rest):
            return _wrap(f"{var} <- {_stmt_text(stmt)}; {pretty(rest, 0)}", 0, prec)
        case S.OpCall() | S.ContCall() | S.Handle():
            return _stmt_text(t)
        case S.Handler():
            return _handler_text(t)
        case S.HSeq():
            return _hseq_text(t)
        case _:
            raise AssertionError(f"pretty: unhandled node {t!r}")


def reference(node, prec: int) -> str:
    if isinstance(node, S.Type):
        return type_text(node, prec)
    if isinstance(node, S.EffectContext):
        return theory_text(node)
    return pretty(node, prec)


# ---------------------------------------------------------------------------
# Same output as the reference


def printable_nodes(root) -> list:
    """Every term, statement, handler, handling sequence, type and theory
    in `root`, `root` included."""
    found, todo = [], [root]
    while todo:
        x = todo.pop()
        # A record is a tuple too, so records are told apart first.
        if isinstance(x, Record):
            if isinstance(x, (S.Expr, S.Comp, S.Stmt, S.Handler, S.HSeq, S.Type, S.EffectContext)):
                found.append(x)
            todo += (getattr(x, f) for f in x.fields())
        elif type(x) is tuple:
            todo += x
    return found


def test_printable_nodes_finds_each_term_type_and_theory():
    # The reference checks below see only what this walk finds.
    box = S.BoxTerm(
        S.make_theory([S.OpDecl("get", S.UNIT, S.INT)]),
        S.Bind(S.OpCall("get", S.UnitLit()), "y", S.Ret(S.Var("y"))),
    )
    found = [type(x).__name__ for x in printable_nodes(S.Lam("x", S.INT, S.Arith("+", S.Var("x"), box)))]
    # `int`, and the theory's `unit` and `int`, are three types.
    expected = ["Lam", "Arith", "Var", "BoxTerm", "EffectContext", "Bind", "OpCall", "UnitLit", "Ret", "Var"]
    assert sorted(found) == sorted(expected + ["BaseT"] * 3)


def printed_at(text: str, node, prec: int) -> str:
    """`text`, the printer's text of `node`, as it stands where a node of
    level `prec` is expected: whole, or parenthesized if its own level is
    looser."""
    return f"({text})" if P._layout(node)[0] < prec else text


def assert_prints_as_reference(node, precs=(0,)) -> None:
    for prec in precs:
        assert printed_at(P.pretty(node), node, prec) == reference(node, prec)
    if isinstance(node, S.Type):
        for prec in range(6):
            assert printed_at(P.type_text(node), node, prec) == type_text(node, prec)
    if isinstance(node, S.EffectContext):
        assert P.theory_text(node) == theory_text(node)


def assert_every_node_prints_as_reference(root) -> None:
    """Every node of `root` at every level, and the types and theories in
    it once more through `type_text` and `theory_text`."""
    for node in printable_nodes(root):
        assert_prints_as_reference(node, range(6))


def assert_term_prints_as_reference(term) -> None:
    """The whole term, and every type and theory in it."""
    assert_prints_as_reference(term, (0, 5))
    for node in printable_nodes(term):
        if isinstance(node, (S.Type, S.EffectContext)):
            assert_prints_as_reference(node)


def definitions(source) -> list:
    table = source.table
    return [*table.theories.values(), *table.handlers.values(), *table.terms.values()]


def test_corpus_and_samples_print_as_the_reference():
    roots = definitions(parse_source(PRELUDE))
    for case in CASES:
        try:
            roots.append(parse_source(case.source).main)
        except ParseError:
            continue
    for path in SAMPLES:
        source = parse_source(path.read_text(encoding="utf-8"))
        roots += [*definitions(source), source.main]
    assert len(roots) > 50
    for root in roots:
        assert_every_node_prints_as_reference(root)
        if isinstance(root, (S.Expr, S.Comp)):
            try:
                assert_prints_as_reference(infer_term(root))
            except TypeCheckError:
                pass


@pytest.mark.parametrize("shadow", [False, True], ids=["plain", "shadowing"])
def test_generated_programs_and_their_steps_print_as_the_reference(shadow):
    steps = 0
    for seed in range(400):
        term, _ = gen_program(random.Random(seed), shadow)
        assert_term_prints_as_reference(term)
        try:
            assert_prints_as_reference(infer_term(term))
        except TypeCheckError:
            assert shadow
            continue
        trace = evaluate(term, record=True)
        for step in trace.steps:
            assert_term_prints_as_reference(step.term)
        if isinstance(trace.final, Value):
            assert_term_prints_as_reference(trace.final.term)
        steps += len(trace.steps)
    assert steps > 700


def test_round_trip_terms_print_as_the_reference():
    for seed in range(1000):
        term = gen_roundtrip_term(random.Random(seed))
        if seed < 100:
            assert_every_node_prints_as_reference(term)
        else:
            assert_term_prints_as_reference(term)
        try:
            assert_prints_as_reference(infer_term(term))
        except TypeCheckError:
            pass


ONE, MINUS_ONE, X, F = S.IntLit(1), S.IntLit(-1), S.Var("x"), S.Var("f")
LESS = S.Cmp("<", X, ONE)
ST = parse_type("[ {get:unit=>int, set:int=>unit} ] int").theory
NO_CLAUSES = S.Handler(S.EMPTY_THEORY, (), S.RetClause("r", "z", S.Ret(S.Var("r"))))
GET = S.Handler(
    ST,
    (S.OpClause("get", "a", "k", "z", S.Bind(S.ContCall("k", S.Var("z"), S.Var("z")), "y", S.Ret(S.Var("y")))),),
    S.RetClause("r", "z", S.Ret(S.Var("r"))),
)
SEQ = S.HSeq(
    (
        S.HClause(NO_CLAUSES, S.UnitLit(), "v", S.Ret(S.Var("v"))),
        S.HClause(GET, ONE, "w", S.Bind(S.OpCall("get", S.UnitLit()), "y", S.Ret(S.Var("w")))),
    )
)
GET_TEXT = "handler for {get:unit=>int, set:int=>unit} { get(a; k; z) -> y <- k(z; z); ret y, return(r; z) -> ret r }"


def binary(op: str, left, right):
    return S.Append(left, right) if op == "++" else (S.Cmp if S.BINARY[op] == 1 else S.Arith)(op, left, right)


def operand_cases(inner, text: str, wrapped: str) -> list:
    """`inner` in each operand position, with the text it prints as there:
    `text` where it needs no parentheses, `wrapped` where it does."""
    level = {"-1": 3, "x < 1": 1}[text]
    cases = [
        (S.App(F, inner), f"f {wrapped}"),
        (S.App(inner, X), f"{wrapped} x"),
        (S.Proj1(inner), f"fst {wrapped}"),
        (S.Ret(inner), f"ret {text if level >= 1 else wrapped}"),
        (S.If(inner, ONE, X), f"if {text} then 1 else x"),
        (S.Pair(inner, inner), f"({text}, {text})"),
        (S.ListE((inner, ONE)), f"[{text}, 1]"),
        (S.OpCall("set", inner), f"set({text})"),
        (S.Lam("y", S.INT, inner), f"fn y:int. {text}"),
    ]
    for op, op_level in S.BINARY.items():
        left = text if level >= op_level + (op_level == 1) else wrapped
        right = text if level >= op_level + 1 else wrapped
        cases.append((binary(op, inner, X), f"{left} {op} x"))
        cases.append((binary(op, X, inner), f"x {op} {right}"))
    return cases


CORNERS = [
    *operand_cases(MINUS_ONE, "-1", "(-1)"),
    *operand_cases(LESS, "x < 1", "(x < 1)"),
    (S.Arith("-", ONE, MINUS_ONE), "1 - -1"),
    (S.Ret(MINUS_ONE), "ret -1"),
    (S.ArrowT(S.INT, S.ArrowT(S.BOOL, S.UNIT)), "int -> bool -> unit"),
    (S.ArrowT(S.ArrowT(S.INT, S.BOOL), S.UNIT), "(int -> bool) -> unit"),
    (S.ProdT(S.INT, S.ProdT(S.BOOL, S.UNIT)), "int * bool * unit"),
    (S.ProdT(S.ProdT(S.INT, S.BOOL), S.UNIT), "(int * bool) * unit"),
    (S.ProdT(S.ArrowT(S.INT, S.INT), S.ListT(S.ProdT(S.INT, S.INT))), "(int -> int) * list (int * int)"),
    (S.ArrowT(S.BoxT(S.EMPTY_THEORY, S.INT), S.INT), "[ {} ] int -> int"),
    (S.BoxT(ST, S.ArrowT(S.INT, S.INT)), "[ {get:unit=>int, set:int=>unit} ] (int -> int)"),
    (S.ListT(S.BoxT(S.EMPTY_THEORY, S.BOTTOM)), "list [ {} ] bot"),
    (S.BaseT("T"), "T"),
    (S.EMPTY_THEORY, "{}"),
    (S.EffectContext((S.ContDecl("k", S.INT, S.BOOL, S.UNIT), S.OpDecl("get", S.UNIT, S.INT))), "{k~:int/bool=>unit, get:unit=>int}"),
    (S.ListE(()), "[]"),
    (NO_CLAUSES, "handler for {} { return(r; z) -> ret r }"),
    (GET, GET_TEXT),
    (S.Handle("u", S.EMPTY_HSEQ, NO_CLAUSES, MINUS_ONE), "handle u with handler for {} { return(r; z) -> ret r } init (-1)"),
    (
        S.Handle("u", SEQ, GET, ONE),
        "handle u [handler for {} { return(r; z) -> ret r } init () as v. ret v; "
        f"{GET_TEXT} init 1 as w. (y <- get(); ret w)] with {GET_TEXT} init 1",
    ),
    (S.EvalTerm(S.EMPTY_HSEQ, "u"), "eval u"),
    (S.App(F, S.EvalTerm(S.EMPTY_HSEQ, "u")), "f (eval u)"),
    (S.EvalTerm(S.HSeq(SEQ.clauses[:1]), "u"), "eval [handler for {} { return(r; z) -> ret r } init () as v. ret v] u"),
    (S.Bind(S.ContCall("k", ONE, MINUS_ONE), "y", S.Ret(S.Proj2(S.Var("y")))), "y <- k(1; -1); ret snd y"),
    (
        S.Fix("g", "n", S.INT, S.EMPTY_THEORY, S.ArrowT(S.INT, S.INT), S.Ret(X), S.Ret(ONE)),
        "let fix g(n:int):[ {} ] (int -> int) = ret x in ret 1",
    ),
    (S.App(F, S.LetBox("u", X, S.EvalTerm(S.EMPTY_HSEQ, "u"))), "f (let box u = x in eval u)"),
    (S.App(F, S.BoxTerm(ST, S.OpCall("get", S.UnitLit()))), "f (box {get:unit=>int, set:int=>unit}. get())"),
    (S.Append(S.ListE((ONE,)), S.Append(S.ListE(()), X)), "[1] ++ ([] ++ x)"),
    (S.Cmp("=", S.BoolLit(True), S.BoolLit(False)), "true = false"),
]


@pytest.mark.parametrize("node, text", CORNERS, ids=[text for _, text in CORNERS])
def test_corner_cases_print_as_the_reference(node, text):
    assert P.pretty(node) == text
    assert_every_node_prints_as_reference(node)


def _unhandled_id(node) -> str:
    """The case's id: a bare object's repr holds its address, which changes from run to run."""
    return "object" if type(node) is object else repr(node)


@pytest.mark.parametrize(
    "node", [object(), NO_CLAUSES.ret_clause, GET.op_clauses[0], SEQ.clauses[0]], ids=_unhandled_id
)
def test_an_unhandled_object_raises_naming_it(node):
    with pytest.raises(AssertionError, match=r"^pretty: unhandled node " + re.escape(repr(node))):
        P.pretty(node)


# ---------------------------------------------------------------------------
# No frame per level

DEPTH = 10_000


def nest(make, leaf, depth: int = DEPTH):
    """`make` applied `depth` times around `leaf`, built bottom-up."""
    for _ in range(depth):
        leaf = make(leaf)
    return leaf


def test_a_deep_sum_prints_at_a_recursion_limit_of_1000(recursion_limit_1000):
    term = nest(lambda t: S.Arith("+", ONE, t), ONE)
    assert P.pretty(term) == "1 + (" * (DEPTH - 1) + "1 + 1" + ")" * (DEPTH - 1)


def test_a_deep_else_if_prints_at_a_recursion_limit_of_1000(recursion_limit_1000):
    term = nest(lambda t: S.If(S.BoolLit(True), ONE, t), X)
    assert P.pretty(term) == "if true then 1 else " * DEPTH + "x"


def test_a_deep_list_type_prints_at_a_recursion_limit_of_1000(recursion_limit_1000):
    assert P.type_text(nest(S.ListT, S.INT)) == "list " * DEPTH + "int"


def test_a_deep_arrow_prints_at_a_recursion_limit_of_1000(recursion_limit_1000):
    ty = nest(lambda t: S.ArrowT(S.INT, t), S.BOOL)
    assert P.type_text(ty) == "int -> " * DEPTH + "bool"
    assert P.type_text(S.ProdT(ty, S.INT)) == "(" + "int -> " * DEPTH + "bool) * int"
