"""Type synthesis for expressions, computations, handlers, and sequences."""

import sys

import pytest

from ecmtt import syntax as S
from ecmtt.corpus import PRELUDE
from ecmtt.parser import parse_source, parse_term, parse_type
from ecmtt.pretty import type_text
from ecmtt.syntax import EMPTY_MODAL, EMPTY_THEORY, type_equal
from ecmtt.typecheck import (
    HandlerSig,
    TypeCheckError,
    check_handler,
    infer_comp,
    infer_expr,
    infer_hseq,
    infer_stmt,
    infer_term,
)

TABLE = parse_source(PRELUDE).table
ST = TABLE.theories["St"]
EXN = TABLE.theories["Exn"]
STEXN = TABLE.theories["StExn"]
HANDLER_ST = TABLE.handlers["handlerSt"]
HANDLER_EXN = TABLE.handlers["handlerExn"]
HANDLER_EXPLOSIVE = TABLE.handlers["handlerExplosiveSt"]


def type_of(text: str) -> str:
    return type_text(infer_term(parse_term(text, TABLE)))


def reject(text: str) -> TypeCheckError:
    with pytest.raises(TypeCheckError) as exc:
        infer_term(parse_term(text, TABLE))
    return exc.value


def test_literals():
    assert type_of("1") == "int"
    assert type_of("true") == "bool"
    assert type_of("()") == "unit"
    assert type_of("(1, false)") == "int * bool"
    assert type_of("[1, 2]") == "list int"


def test_lambda_and_application():
    assert type_of("fn x:int. x + 1") == "int -> int"
    assert type_of("(fn x:int. x + 1) 3") == "int"


def test_projections():
    assert type_of("fst (1, true)") == "int"
    assert type_of("snd (1, true)") == "bool"


def test_append_and_comparison():
    assert type_of("[1] ++ [2, 3]") == "list int"
    assert type_of("1 < 2") == "bool"
    assert type_of("if 1 = 1 then 3 else 4") == "int"


def test_box_synthesizes_modal_type():
    got = infer_term(parse_term("box St. get()", TABLE))
    assert type_equal(got, S.BoxT(ST, S.INT))


def test_unbound_variable():
    err = reject("x + 1")
    assert err.kind == "unbound-variable"


def test_op_not_in_context():
    err = reject("box St. ret (box {}. get())")
    assert err.kind == "op-not-in-context"


def test_not_a_function():
    err = reject("1 2")
    assert err.kind == "not-a-function"


def test_not_a_box():
    err = reject("let box u = 1 in eval u")
    assert err.kind == "not-a-box"


def test_argument_mismatch_on_application():
    err = reject("(fn x:int. x) true")
    assert err.kind == "argument-mismatch"


def test_base_types_are_equal_by_name():
    assert type_of("fn f:int -> int. fn a:int. f a") == "(int -> int) -> int -> int"
    err = reject("fn f:int -> int. fn b:bool. f b")
    assert err.kind == "argument-mismatch"


def test_branches_must_agree():
    err = reject("if true then 1 else false")
    assert err.kind == "argument-mismatch"


def test_handle_requires_matching_theory():
    err = reject(
        "let box u = box Exn. (w <- raise(); ret w) in (handle u with handlerSt init 0)"
    )
    assert err.kind == "theory-mismatch"


def test_handler_must_cover_every_operation():
    err = reject(
        "let box u = box St. get() in "
        "(handle u with handler for St { get(x;k;z) -> k(z;z), "
        "return(x;z) -> ret (x, z) } init 0)"
    )
    assert err.kind == "clause-coverage"


def test_clause_coverage_errors_carry_the_handler_span():
    clauses = "get(x;k;z) -> k(z;z), set(x;k;z) -> k(();x), return(x;z) -> ret (x, z)"
    head = "let box u = box St. get() in\n (handle u with "
    missing = reject(head + "handler for St { get(x;k;z) -> k(z;z), return(x;z) -> ret (x, z) } init 0)")
    outside = reject(head + "handler for St { " + clauses + ", raise(x;k;z) -> k(z;z) } init 0)")
    handler = parse_source(PRELUDE + "\n\n  def h = handler for St { " + clauses + " }").table.handlers["h"]
    duplicate = handler.replace(op_clauses=handler.op_clauses + handler.op_clauses[:1])
    with pytest.raises(TypeCheckError) as exc:
        check_handler(EMPTY_MODAL, EMPTY_THEORY, duplicate, S.INT, S.INT)
    assert missing.render() == "2:17: clause-coverage: missing clause for operation set"
    assert outside.render() == "2:17: clause-coverage: clause for operation raise outside the handler theory"
    line = PRELUDE.count("\n") + 3
    assert exc.value.render() == f"{line}:11: clause-coverage: duplicate clause for operation get"


def test_continuation_state_must_match():
    err = reject(
        "let box u = box St. get() in "
        "(handle u with handler for St { get(x;k;z) -> k(z;true), "
        "set(x;k;z) -> k(();x), return(x;z) -> ret (x, z) } init 0)"
    )
    assert err.kind == "state-type-mismatch"


def test_calling_an_unknown_continuation():
    err = reject(
        "let box u = box St. get() in "
        "(handle u with handler for St { get(x;k;z) -> q(z;z), "
        "set(x;k;z) -> k(();x), return(x;z) -> ret (x, z) } init 0)"
    )
    assert err.kind == "unbound-variable"


def test_eval_demands_the_empty_theory():
    err = reject("let box u = box St. get() in eval u")
    assert err.kind == "theory-mismatch"


def test_error_renders_position_kind_and_sides():
    err = reject("(fn x:int. x) true")
    text = str(err)
    assert "argument-mismatch" in text
    assert "expected int, found bool" in text
    line, col = text.split(":")[:2]
    assert line.isdigit() and col.strip().isdigit()


def test_check_handler_returns_full_signature():
    sig = check_handler(EMPTY_MODAL, EMPTY_THEORY, HANDLER_ST, S.INT, S.INT)
    assert sig == HandlerSig(S.INT, ST, S.INT, S.ProdT(S.INT, S.INT))


def test_check_handler_exception_shape():
    sig = check_handler(EMPTY_MODAL, EMPTY_THEORY, HANDLER_EXN, S.INT, S.UNIT)
    assert sig == HandlerSig(S.INT, EXN, S.UNIT, S.INT)


def test_reperforming_handler_needs_its_ambient():
    sig = check_handler(EMPTY_MODAL, EXN, HANDLER_EXPLOSIVE, S.INT, S.INT)
    assert sig.out_type == S.ProdT(S.INT, S.INT)
    with pytest.raises(TypeCheckError) as exc:
        check_handler(EMPTY_MODAL, EMPTY_THEORY, HANDLER_EXPLOSIVE, S.INT, S.INT)
    assert exc.value.kind == "op-not-in-context"


def test_handling_sequence_checks_right_to_left():
    theta = S.HSeq(
        (
            S.HClause(
                HANDLER_EXPLOSIVE,
                S.IntLit(12),
                "x",
                S.Ret(S.Proj1(S.Var("x"))),
            ),
        )
    )
    got = infer_hseq(EMPTY_MODAL, EXN, theta, S.INT, ST)
    assert type_equal(got, S.INT)


def test_handle_with_sequence_statement():
    theta = S.HSeq(
        (
            S.HClause(
                HANDLER_EXPLOSIVE,
                S.IntLit(12),
                "x",
                S.Ret(S.Proj1(S.Var("x"))),
            ),
        )
    )
    delta = EMPTY_MODAL.with_modal("u", S.INT, ST)
    stmt = S.Handle("u", theta, HANDLER_EXN, S.UnitLit())
    got = infer_stmt(delta, EMPTY_THEORY, stmt)
    assert type_equal(got, S.INT)


def test_modal_variable_must_be_bound():
    stmt = S.Handle("u", S.EMPTY_HSEQ, HANDLER_ST, S.IntLit(0))
    with pytest.raises(TypeCheckError) as exc:
        infer_stmt(EMPTY_MODAL, EMPTY_THEORY, stmt)
    assert exc.value.kind == "unbound-variable"


def test_abort_branch_joins_with_value_branch():
    # One conditional arm can only raise, so it types at bot and the
    # conditional takes its type from the other arm.
    got = infer_term(
        parse_term("box Exn. (if true then (w <- raise(); ret w) else ret 3)", TABLE)
    )
    assert type_equal(got, S.BoxT(EXN, S.INT))


def test_abort_component_fits_inside_a_pair():
    handler = parse_source(
        PRELUDE
        + "\ndef pairUp = handler for Exn {"
        "\n  raise(x;k;z) -> ret ((0, 0), z),"
        "\n  return(x;z) -> ret (x, z)"
        "\n}\n"
    ).table.handlers["pairUp"]
    # The return clause sees `(bot * int) * int` while the raise clause
    # produces `(int * int) * int`; the join must absorb the bottom inside
    # the nested pair, not just at the top of a type.
    boxed = parse_term("box Exn. (w <- raise(); ret (w, 1))", TABLE)
    assert isinstance(boxed, S.BoxTerm)
    assert type_equal(
        infer_comp(EMPTY_MODAL, EXN, boxed.body), S.ProdT(S.BOTTOM, S.INT)
    )
    sig = check_handler(
        EMPTY_MODAL,
        EMPTY_THEORY,
        handler,
        S.ProdT(S.BOTTOM, S.INT),
        S.INT,
    )
    assert type_equal(sig.out_type, S.ProdT(S.ProdT(S.INT, S.INT), S.INT))


def test_a_separately_built_bot_is_the_least_type():
    # The least type is told by `==`, not by object identity, so a `bot`
    # built apart from `S.BOTTOM` is absorbed and eliminated alike.
    bot = S.BaseT("bot")
    assert bot is not S.BOTTOM and type_equal(bot, S.BOTTOM)
    delta = EMPTY_MODAL.with_value("b", bot)
    assert infer_expr(delta, parse_term("if true then 1 else b", TABLE)) == S.INT
    assert infer_expr(delta, parse_term("fst b", TABLE)) == S.BOTTOM


def test_fix_checks_recursive_calls_at_annotated_type():
    got = type_of(
        "let fix f(n:int) : [{}] int = "
        "if n = 0 then ret 1 else (let box u = f (n - 1) in ret ((eval u) * n)) "
        "in f 3"
    )
    assert got == "[ {} ] int"


def test_infer_comp_requires_ambient_operations():
    comp = parse_term("x <- get(); ret x", TABLE)
    assert isinstance(S.last_part(comp), S.Comp)
    got = infer_comp(EMPTY_MODAL, ST, comp)
    assert type_equal(got, S.INT)
    with pytest.raises(TypeCheckError) as exc:
        infer_comp(EMPTY_MODAL, EMPTY_THEORY, comp)
    assert exc.value.kind == "op-not-in-context"


def test_infer_expr_rejects_division_only_statically_never():
    # Division is total in the type system; only evaluation can fail on zero.
    assert type_of("1 / 0") == "int"


def test_infer_term_dispatches_on_syntax_class():
    assert type_text(infer_term(parse_term("ret 1"))) == "int"
    assert type_text(infer_term(parse_term("fn x:int. x"))) == "int -> int"



def test_an_unknown_error_kind_is_refused():
    with pytest.raises(ValueError, match="unknown error kind 'no-such-kind'"):
        TypeCheckError("no-such-kind")


_GET = S.OpCall("get", S.UnitLit())


@pytest.mark.parametrize(
    "term",
    [
        # `ret 1` as a function argument
        S.App(S.Lam("x", S.INT, S.Var("x")), S.Ret(S.IntLit(1))),
        # `1` as a bind's rest
        S.BoxTerm(ST, S.Bind(_GET, "x", S.IntLit(1))),
        # `get()` as a bind's rest
        S.BoxTerm(ST, S.Bind(_GET, "x", _GET)),
        # `ret 1` as a bind's statement
        S.BoxTerm(ST, S.Bind(S.Ret(S.IntLit(1)), "x", S.Ret(S.Var("x")))),
        # a `let box` whose body is `ret 2`, as a function argument
        S.App(
            S.Lam("x", S.INT, S.Var("x")),
            S.LetBox("u", S.BoxTerm(EMPTY_THEORY, S.Ret(S.IntLit(1))), S.Ret(S.IntLit(2))),
        ),
        # an `if` whose `else` branch, `2`, makes it an expression, and
        # whose `then` branch is `ret 1`
        S.If(S.BoolLit(True), S.Ret(S.IntLit(1)), S.IntLit(2)),
    ],
    ids=["ret-as-argument", "expr-as-rest", "stmt-as-rest", "comp-as-stmt", "comp-as-letbox-body", "comp-as-then"],
)
def test_a_term_of_the_wrong_category_is_rejected(term):
    # The parser never builds these, but a term built by hand can; the
    # checker rejects an expression where a computation belongs and the
    # reverse, as well as either where a statement belongs.
    with pytest.raises(TypeCheckError) as exc:
        infer_term(term)
    assert exc.value.kind == "argument-mismatch"


def test_a_twin_is_of_the_category_of_its_last_part():
    box = S.BoxTerm(EMPTY_THEORY, S.Ret(S.IntLit(1)))
    comp = S.LetBox("u", box, S.If(S.BoolLit(True), S.Ret(S.IntLit(2)), S.Ret(S.IntLit(3))))
    expr = S.LetBox("u", box, S.If(S.BoolLit(True), S.IntLit(2), S.IntLit(3)))
    assert type_equal(infer_term(comp), S.INT)
    assert type_equal(infer_term(expr), S.INT)
    # In an expression position the computation is rejected at its last part.
    with pytest.raises(TypeCheckError, match="unrecognized expression Ret"):
        infer_term(S.App(S.Lam("x", S.INT, S.Var("x")), comp))


def _shadowed_chain(pairs: int, last: S.Comp) -> S.Comp:
    """`x <- get(); x <- set(x + 1);` repeated, then `last`."""
    comp = last
    for _ in range(pairs):
        comp = S.Bind(S.OpCall("set", S.Arith("+", S.Var("x"), S.IntLit(1))), "x", comp)
        comp = S.Bind(S.OpCall("get", S.UnitLit()), "x", comp)
    return comp


def test_a_2000_deep_chain_of_shadowed_binds():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 6000))
    try:
        # Each `set` sees the `x` of the `get` just before it, not an outer one.
        assert type_equal(infer_comp(EMPTY_MODAL, ST, _shadowed_chain(1000, S.Ret(S.Var("x")))), S.UNIT)
        with pytest.raises(TypeCheckError) as exc:
            infer_comp(EMPTY_MODAL, ST, _shadowed_chain(1000, S.Ret(S.Arith("+", S.Var("x"), S.IntLit(1)))))
    finally:
        sys.setrecursionlimit(limit)
    assert str(exc.value) == "argument-mismatch: expected int, found unit (arithmetic operand)"


def test_a_binding_links_to_the_context_it_extends():
    ctx = EMPTY_MODAL.with_modal("u", S.INT, ST)
    for i in range(2000):
        ctx = ctx.with_value("x", S.BOOL if i % 2 else S.INT)
    assert ctx.with_value("y", S.INT).parent is ctx
    assert ctx.lookup_value("x").type == S.BOOL
    assert ctx.lookup_modal("u").theory is ST
    assert ctx.lookup_value("u") is None and ctx.lookup_modal("x") is None
    assert len(ctx.entries) == 2001 and ctx.entries[0].name == "u"


@pytest.mark.parametrize("text", ["fn b:bot. b 1", "fn b:bot. let box u = b in eval u", "fn b:bot. fst b"])
def test_bottom_eliminates_into_any_form(text):
    assert type_text(infer_term(parse_term(text))) == "bot -> bot"


@pytest.mark.parametrize(
    "text, message",
    [
        ("[]", "1:1: argument-mismatch: cannot infer an element type for []"),
        ("fst 1", "1:1: argument-mismatch: expected a pair type, found int"),
        ("[1] ++ 2", "1:5: argument-mismatch: expected a list type, found int"),
        ("eval u", "1:1: unbound-variable: modal variable u"),
        (
            "if true then box {a:unit=>int}. ret 1 else box {}. ret 1",
            "1:1: argument-mismatch: expected [ {a:unit=>int} ] int, found [ {} ] int"
            " (conditional branches disagree)",
        ),
    ],
)
def test_rare_type_errors_keep_their_texts(text, message):
    with pytest.raises(TypeCheckError) as exc:
        infer_term(parse_term(text))
    assert str(exc.value) == message


def test_a_bare_operation_call_is_not_in_context():
    with pytest.raises(TypeCheckError) as exc:
        infer_term(S.OpCall("get", S.UnitLit()))
    assert exc.value.kind == "op-not-in-context"


def test_a_handler_is_not_a_term():
    with pytest.raises(ValueError, match="cannot type a Handler at top level"):
        infer_term(HANDLER_ST)
