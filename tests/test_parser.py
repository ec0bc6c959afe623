"""Surface syntax: parsing, definitions, diagnostics, and printing round trips."""

import itertools

import pytest

from ecmtt import syntax as S
from ecmtt.parser import (
    DefTable,
    ParseError,
    parse_handler,
    parse_source,
    parse_term,
    parse_type,
)
from ecmtt.pretty import pretty, type_text
from ecmtt.syntax import alpha_equal, type_equal
from ecmtt.typecheck import infer_term


def roundtrip(text: str) -> S.Term:
    term = parse_term(text)
    again = parse_term(pretty(term))
    assert alpha_equal(term, again), pretty(term)
    return term


def test_integer_literals_including_negative():
    assert parse_term("42") == S.IntLit(42)
    assert parse_term("-7") == S.IntLit(-7)


def test_application_is_left_associative():
    term = parse_term("f x y")
    assert isinstance(term, S.App)
    assert isinstance(term.fn, S.App)


def test_arithmetic_precedence():
    term = parse_term("1 + 2 * 3")
    assert isinstance(term, S.Arith)
    assert term.op == "+"
    assert isinstance(term.right, S.Arith)
    assert term.right.op == "*"


def test_additive_operators_are_left_associative():
    term = parse_term("1 - 2 - 3")
    assert isinstance(term, S.Arith)
    assert isinstance(term.left, S.Arith)
    assert term.left.op == "-"
    assert term.right == S.IntLit(3)


def test_append_is_left_associative():
    term = parse_term("[1] ++ [2] ++ [3]")
    assert isinstance(term, S.Append)
    assert isinstance(term.left, S.Append)


# The operator levels, modelled without the parser: a higher level binds
# tighter, every level groups to the left, a comparison takes one operator.
LEVELS = {"=": 1, "<": 1, "++": 2, "+": 2, "-": 2, "*": 3, "/": 3}


def _binary(op: str, left: S.Expr, right: S.Expr) -> S.Expr:
    if op == "++":
        return S.Append(left, right)
    return (S.Cmp if LEVELS[op] == 1 else S.Arith)(op, left, right)


@pytest.mark.parametrize("op1, op2", itertools.product(LEVELS, repeat=2))
def test_two_operators_group_by_their_levels(op1, op2):
    a, b, c = S.Var("a"), S.Var("b"), S.Var("c")
    text = f"a {op1} b {op2} c"
    left, right = _binary(op2, _binary(op1, a, b), c), _binary(op1, a, _binary(op2, b, c))
    if LEVELS[op1] == LEVELS[op2] == 1:
        with pytest.raises(ParseError) as exc:
            parse_term(text)
        assert str(exc.value) == f"1:7: parse error: expected end of input, found {op2!r}"
    else:
        assert parse_term(text) == (left if LEVELS[op1] >= LEVELS[op2] else right)
    for term in (left, right):
        assert alpha_equal(parse_term(pretty(term)), term), pretty(term)


def test_list_literal_is_one_flat_node():
    term = parse_term("[1, 2]")
    assert term == S.ListE((S.IntLit(1), S.IntLit(2)))


def test_empty_list_literal():
    assert parse_term("[]") == S.ListE(())


def test_comments_run_to_end_of_line():
    term = parse_term("1 + 2  -- ignored trailing text\n")
    assert isinstance(term, S.Arith)


def test_bare_statement_expands_to_a_bind():
    term = parse_term("box {get:unit=>int}. get()")
    assert isinstance(term, S.BoxTerm)
    body = term.body
    assert isinstance(body, S.Bind)
    assert isinstance(body.stmt, S.OpCall)
    assert body.rest == S.Ret(S.Var(body.var))


def test_binding_a_ret_still_evaluates_in_order():
    # `x <- ret 1; c` has no primitive form; the parser encodes it with a
    # trivial empty-theory handler whose return clause feeds x.
    term = parse_term("box {}. (x <- ret 1; ret (x + 1))")
    assert isinstance(term, S.BoxTerm)
    from ecmtt.evaluator import Value, evaluate
    from ecmtt.typecheck import infer_term

    assert type_equal(infer_term(term.body), S.INT)
    outcome = evaluate(term.body)
    assert isinstance(outcome.final, Value)
    assert pretty(outcome.final.term) == "ret 2"


def test_pairs_and_projections():
    roundtrip("fst (1, (2, 3))")
    roundtrip("snd (1, true)")


def test_lambda_requires_annotation():
    with pytest.raises(ParseError):
        parse_term("fn x. x")


def test_box_let_box_eval():
    term = roundtrip("let box u = box {}. ret 1 in eval u")
    assert isinstance(term, S.LetBox)
    assert isinstance(term.bound, S.BoxTerm)
    assert isinstance(term.body, S.EvalTerm)


def test_let_fix_parses_both_layers():
    term = roundtrip(
        "let fix f(n:int) : [{}] int = if n = 0 then ret 1 else ret 2 "
        "in let box u = f 3 in eval u"
    )
    assert isinstance(term, S.Fix) and isinstance(S.last_part(term), S.Expr)
    assert term.fname == "f"
    assert type_equal(term.ret_type, S.INT)


def test_eval_requires_a_box_variable():
    with pytest.raises(ParseError):
        parse_term("eval (box {}. ret 1)")


def test_handle_with_initial_state():
    term = parse_term(
        "let box u = box {get:unit=>int}. get() in "
        "(handle u with handler for {get:unit=>int} "
        "{ get(x;k;z) -> k(z;z), return(x;z) -> ret (x, z) } init 0)"
    )
    assert isinstance(term, S.LetBox)


def test_handling_sequence_brackets():
    table = DefTable()
    parse_source(
        "def T = {op:unit=>int}\n"
        "def h = handler for T { op(x;k;z) -> k(1;z), return(x;z) -> ret (x, z) }",
        table,
    )
    term = parse_term(
        "let box u = box T. op() in "
        "(handle u [h init 0 as w. ret (fst w)] with "
        "handler for {} { return(x;z) -> ret x } init ())",
        table,
    )
    assert isinstance(term, S.LetBox)


def test_parse_type_forms():
    cases = [
        "int",
        "bool",
        "unit",
        "bot",
        "int * bool",
        "list int",
        "int -> int -> bool",
        "[ {get:unit=>int} ] int",
        "[ {} ] (int -> int)",
    ]
    for text in cases:
        ty = parse_type(text)
        assert type_equal(parse_type(type_text(ty)), ty), text


def test_arrow_is_right_associative():
    ty = parse_type("int -> int -> int")
    assert isinstance(ty, S.ArrowT)
    assert isinstance(ty.cod, S.ArrowT)


def test_product_binds_tighter_than_arrow():
    ty = parse_type("int * bool -> int")
    assert isinstance(ty, S.ArrowT)
    assert isinstance(ty.dom, S.ProdT)


def test_parse_handler_standalone():
    h = parse_handler(
        "handler for {tick:unit=>unit} "
        "{ tick(x;k;z) -> k((); z + 1), return(x;z) -> ret (x, z) }"
    )
    assert isinstance(h, S.Handler)
    assert len(h.op_clauses) == 1
    assert h.ret_clause.x == "x"


def test_defs_splice_into_later_terms():
    src = parse_source(
        "def St = {get:unit=>int, set:int=>unit}\n"
        "def double = fn n:int. n + n\n"
        "ret (double 4)"
    )
    assert src.main is not None
    assert "St" in src.table.theories
    assert "double" in src.table.terms


def test_lambda_binder_shadows_a_term_definition():
    src = parse_source("def one = 1\nfn one:int. one + one")
    assert isinstance(src.main, S.Lam)
    assert isinstance(src.main.body, S.Arith)
    assert src.main.body.left == S.Var("one")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_term("ret (1 + 2")
    msg = str(exc.value)
    assert msg.startswith("1:")
    assert "parse error" in msg



def test_let_without_box_or_fix_expects_box():
    # `let` opens `let box` and `let fix` alike; the error names `box`, in
    # either category.
    with pytest.raises(ParseError) as exc:
        parse_term("let x = 1 in x")
    assert str(exc.value) == "1:5: parse error: expected 'box', found 'x'"
    with pytest.raises(ParseError) as exc:
        parse_term("box {}. let x = 1 in ret x")
    assert str(exc.value) == "1:13: parse error: expected 'box', found 'x'"

def test_parse_error_on_unexpected_character():
    with pytest.raises(ParseError):
        parse_term("1 ? 2")


def test_source_without_main_has_none():
    src = parse_source("def St = {get:unit=>int}")
    assert src.main is None


def test_roundtrip_handler_heavy_term():
    roundtrip(
        "let box u = box {get:unit=>int, set:int=>unit}. "
        "(x <- get(); w <- set(x + 1); ret x) in "
        "(handle u with handler for {get:unit=>int, set:int=>unit} "
        "{ get(x;k;z) -> k(z;z), set(x;k;z) -> k(();x), "
        "return(x;z) -> ret (x, z) } init 0)"
    )


def test_roundtrip_fix_and_eval():
    table = DefTable()
    parse_source("def eval_f = fn x:[{}]int. let box u = x in eval u", table)
    term = parse_term(
        "let fix fact(n:int) : [{}] int = "
        "if n = 0 then ret 1 else ret (n * eval_f (fact (n - 1))) "
        "in eval_f (fact 3)",
        table,
    )
    again = parse_term(pretty(term))
    assert alpha_equal(term, again)


def test_roundtrip_nested_conditionals():
    roundtrip("if 1 < 2 then (if true then 1 else 2) else 3")


def test_roundtrip_squaring_pipeline():
    roundtrip("box {}. (x <- ret 2; ret (x * x))")


def test_non_decimal_digits_are_unexpected_characters():
    # '²' is a digit to str.isdigit but int() rejects it.
    with pytest.raises(ParseError) as exc:
        parse_term("ret ²")
    assert str(exc.value) == "1:5: parse error: unexpected character '²'"
    with pytest.raises(ParseError):
        parse_term("1²")
    assert parse_term("x²") == S.Var("x²")
    assert parse_term("٣") == S.IntLit(3)


def test_end_of_input_after_a_trailing_comment_has_its_column():
    with pytest.raises(ParseError) as exc:
        parse_term("ret (1 -- unclosed")
    assert str(exc.value) == "1:19: parse error: expected ')', found 'end of input'"


def test_integers_past_the_conversion_limit_parse_and_print():
    # CPython converts at most 4,300 digits between int and str at once.
    sevens = 7 * (10**5000 - 1) // 9
    source = parse_source(f"ret {'7' * 5000}")
    assert source.main == S.Ret(S.IntLit(sevens))
    assert parse_term(f"-{'7' * 5000}") == S.IntLit(-sevens)
    assert pretty(S.IntLit(sevens)) == "7" * 5000
    assert pretty(S.IntLit(-(10**4300))) == "-1" + "0" * 4300
    assert pretty(S.IntLit(10**9001 - 1)) == "9" * 9001
    for n in (sevens, -sevens, 10**4300, 10**4301 - 1, -(10**9000) + 1):
        assert parse_term(pretty(S.IntLit(n))) == S.IntLit(n)
    assert S.int_of_text("0" * 4999 + "1") == 1
    # A piece too short to split is not digits: int's own error stands.
    with pytest.raises(ValueError):
        S.int_of_text("x")


# Error texts and productions no other test reaches, pinned exactly.


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_source, "def T = {a:int=>int, a:int=>int}", "1:22: parse error: duplicate operation 'a' in theory"),
        (
            parse_handler,
            "handler for {} { return(x;z) -> ret x, return(x;z) -> ret x }",
            "1:40: parse error: a handler has exactly one return clause",
        ),
        (
            parse_handler,
            "handler for {a:unit=>int} { a(x;k;z) -> ret x, a(x;k;z) -> ret x }",
            "1:48: parse error: duplicate clause for operation 'a'",
        ),
        (
            parse_handler,
            "handler for {a:unit=>int} { a(x;k;z) -> ret x }",
            "1:47: parse error: a handler needs a return clause",
        ),
        (
            parse_handler,
            "handler for {} { 1 }",
            "1:18: parse error: expected an operation clause or return clause, found '1'",
        ),
        (
            parse_handler,
            "handler for {} {",
            "1:17: parse error: expected an operation clause or return clause, found 'end of input'",
        ),
        # The type keyword `int` is not an integer literal.
        (parse_term, "ret int", "1:5: parse error: expected an expression, found 'int'"),
        (parse_term, "box Nope. ret 1", "1:5: parse error: unknown theory name 'Nope'"),
        (
            parse_source,
            "def x = box {}. (y <- handle u with nope init (); ret y)",
            "1:37: parse error: unknown handler name 'nope'",
        ),
        (parse_term, "fn x:. x", "1:6: parse error: expected a type, found '.'"),
        (
            parse_source,
            "def x = ret 1",
            "1:5: parse error: definition 'x' must be an expression, a theory, or a handler",
        ),
        (parse_term, "box {}. (x <- ; ret 1)", "1:15: parse error: expected a statement, found ';'"),
    ],
)
def test_rare_parse_errors_keep_their_texts(parse, text, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == message


def test_a_named_base_type_is_its_own_type():
    assert type_text(infer_term(parse_term("fn x:A. x"))) == "A -> A"


def test_eval_with_a_two_clause_sequence():
    h = "handler for {} { return(x;z) -> ret x }"
    text = f"let box u = box {{}}. ret 1 in eval [{h} init () as y. ret y; {h} init () as w. ret (w, w)] u"
    term = parse_term(text)
    assert isinstance(term, S.LetBox)
    assert isinstance(term.body, S.EvalTerm)
    assert [c.var for c in term.body.hseq.clauses] == ["y", "w"]
    assert parse_term(pretty(term)) == term


def test_a_statement_without_a_binder_binds_a_fresh_name():
    term = parse_term("a(); ret 1")
    assert term == S.Bind(S.OpCall("a", S.UnitLit()), "_", S.Ret(S.IntLit(1)))
    assert pretty(term) == "_ <- a(); ret 1"


def test_statements_sequences_types_and_terms_print_on_their_own():
    h = "handler for {} { return(x; z) -> ret x }"
    term = parse_term(f"x <- handle u [{h} init 0 as y. ret y] with {h} init 1; ret x")
    assert pretty(term.stmt) == f"handle u [{h} init 0 as y. ret y] with {h} init 1"
    assert pretty(term.stmt.hseq) == f"{h} init 0 as y. ret y"
    assert str(term) == pretty(term)
    assert str(parse_type("int -> [ {} ] bool")) == "int -> [ {} ] bool"
    # A clause is printed only as a part of its handler.
    with pytest.raises(AssertionError, match="unhandled node"):
        pretty(term.stmt.handler.ret_clause)


# The type grammar: `->` loosest, then `*`, both grouping to the right, then
# the `list` and `[Ψ]` prefixes, whose operand is again a prefix type.


def test_product_groups_to_the_right():
    unit = S.UNIT
    assert parse_type("unit*unit*unit") == S.ProdT(unit, S.ProdT(unit, unit))


def test_products_and_prefixes_around_arrows():
    assert parse_type("int * int -> bool * unit -> int") == S.ArrowT(
        S.ProdT(S.INT, S.INT), S.ArrowT(S.ProdT(S.BOOL, S.UNIT), S.INT)
    )
    assert parse_type("list int * [{}] int -> bot") == S.ArrowT(
        S.ProdT(S.ListT(S.INT), S.BoxT(S.EMPTY_THEORY, S.INT)), S.BOTTOM
    )


@pytest.mark.parametrize(
    "text, message",
    [
        # The return type of `let fix` is a prefix type: a product needs parens.
        (
            "let fix f(n:int):[{}] int * int = ret (n, n) in f",
            "1:27: parse error: expected '=', found '*'",
        ),
        ("let fix f(n:int): int = ret n in f", "1:19: parse error: expected a boxed return type, found 'int'"),
        ("let fix f(n:int):[{}] = ret n in f", "1:23: parse error: expected a type, found '='"),
        ("fn x: . x", "1:7: parse error: expected a type, found '.'"),
        ("fn x:int -> . x", "1:13: parse error: expected a type, found '.'"),
        ("fn x:int -> -> int. x", "1:13: parse error: expected a type, found '->'"),
        ("fn x:[{}]. x", "1:10: parse error: expected a type, found '.'"),
    ],
)
def test_type_errors_keep_their_texts_and_columns(text, message):
    with pytest.raises(ParseError) as exc:
        parse_term(text)
    assert str(exc.value) == message


def _type_forms(inner: S.Type) -> list[S.Type]:
    """Every type operator with `inner` in each of its operand positions."""
    return [
        S.ArrowT(inner, S.INT),
        S.ArrowT(S.INT, inner),
        S.ProdT(inner, S.BOOL),
        S.ProdT(S.BOOL, inner),
        S.ListT(inner),
        S.BoxT(S.EMPTY_THEORY, inner),
    ]


@pytest.mark.parametrize("ty", [outer for inner in _type_forms(S.UNIT) for outer in _type_forms(inner)])
def test_each_pair_of_type_operators_prints_and_parses_back(ty):
    assert parse_type(type_text(ty)) == ty


# Separated lists: a separator must be followed by an item, and a missing
# separator ends the list.


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_source, "def T = {a:int=>int,}", "1:21: parse error: expected an operation name, found '}'"),
        (parse_source, "def T = {a:int=>int b:int=>int}", "1:21: parse error: expected '}', found 'b'"),
        (parse_term, "[1,]", "1:4: parse error: expected an expression, found ']'"),
        (parse_term, "[,]", "1:2: parse error: expected an expression, found ','"),
        (
            parse_handler,
            "handler for {} { return(x;z) -> ret x, }",
            "1:40: parse error: expected an operation clause or return clause, found '}'",
        ),
        (
            parse_handler,
            "handler for {} { return(x;z) -> ret x,",
            "1:39: parse error: expected an operation clause or return clause, found 'end of input'",
        ),
        (
            parse_source,
            "def h = handler for {} { return(x;z) -> ret x }\n"
            "let box u = box {}. ret 0 in (y <- handle u [h init 0 as x. ret x;] with h init 0; ret y)",
            "2:67: parse error: expected a handler, found ']'",
        ),
        (
            parse_source,
            "def h = handler for {} { return(x;z) -> ret x }\n"
            "let box u = box {}. ret 0 in eval [h init 0 as x. ret x;] u",
            "2:57: parse error: expected a handler, found ']'",
        ),
        # A duplicate is reported before the item after it is read.
        (parse_source, "def T = {a:int=>int, a:int=>int, 1}", "1:22: parse error: duplicate operation 'a' in theory"),
        (
            parse_handler,
            "handler for {a:unit=>int} { a(x;k;z) -> ret x, a(x;k;z) -> ret x, 1 }",
            "1:48: parse error: duplicate clause for operation 'a'",
        ),
        (
            parse_handler,
            "handler for {} { return(x;z) -> ret x, return(x;z) -> ret x, 1 }",
            "1:40: parse error: a handler has exactly one return clause",
        ),
    ],
)
def test_separated_list_errors_keep_their_texts(parse, text, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == message
