"""The front end reads each token once.

The lexer reads each line with one `findall` of a lexeme pattern into four
parallel lists (kinds, texts, lines and columns), the stream the parser
reads by index; `tokenize` gives the same tokens as tuples.  The seed's
tokenizer, a character loop with frozen-dataclass tokens, is kept below as
the reference.  `parse_term` reads a whole term as an expression and as a
computation, and the two readings share every expression through the
parser's position memo; a parser whose memo keeps nothing is the reference
for that.
"""

import gc
import random
from dataclasses import astuple, dataclass
from pathlib import Path

import pytest

from ecmtt import parser as P
from ecmtt import syntax as S
from ecmtt.corpus import CASES
from ecmtt.parser import ParseError, parse_source, parse_term, tokenize
from ecmtt.pretty import pretty, type_text
from ecmtt.syntax import Span
from ecmtt.typecheck import TypeCheckError, infer_term

from generators import gen_roundtrip_term

SAMPLES = sorted((Path(__file__).parent.parent / "samples").glob("*.ecmtt"))


# ---------------------------------------------------------------------------
# The seed's tokenizer, kept as the reference


@dataclass(frozen=True)
class RefToken:
    kind: str
    text: str
    line: int
    col: int


def reference_tokenize(text: str) -> list[RefToken]:
    tokens: list[RefToken] = []
    i = 0
    line = 1
    col = 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            word = text[i:j]
            kind = word if word in P.KEYWORDS else "ident"
            tokens.append(RefToken(kind, word, line, col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(RefToken("num", text[i:j], line, col))
            col += j - i
            i = j
            continue
        two = text[i : i + 2]
        if two in P.PUNCT2:
            tokens.append(RefToken(two, two, line, col))
            i += 2
            col += 2
            continue
        if ch in P.PUNCT1:
            tokens.append(RefToken(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", Span(line, col, 1))
    tokens.append(RefToken("eof", "", line, col))
    return tokens


def _outcome(tok, text: str):
    try:
        return [astuple(t) if isinstance(t, RefToken) else tuple(t) for t in tok(text)]
    except ParseError as e:
        return str(e)


def assert_tokens_match(text: str) -> None:
    """Same tokens or the same error as the reference, except where the
    reference was wrong: a non-decimal digit (it made an int token that
    `int()` rejects) and the end-of-input column after a comment on the last
    line (it did not advance the column over the comment)."""
    if any(ch.isdigit() and not ch.isdecimal() for ch in text):
        return
    ref = _outcome(reference_tokenize, text)
    new = _outcome(tokenize, text)
    last_line = text.rsplit("\n", 1)[-1]
    if "--" in last_line and isinstance(ref, list):
        assert new[:-1] == ref[:-1], text
        assert new[-1] == ("eof", "", ref[-1][2], len(last_line) + 1), text
    else:
        assert new == ref, text


def test_tokenize_matches_the_reference_on_samples_and_corpus():
    for path in SAMPLES:
        assert_tokens_match(path.read_text())
    for case in CASES:
        assert_tokens_match(case.source)


def test_tokenize_matches_the_reference_on_printed_terms():
    for seed in range(300):
        assert_tokens_match(pretty(gen_roundtrip_term(random.Random(seed))))


FRAGMENTS = (
    "a", "x1", "f'", "_", "let", "ret", "fn", "7", "42", "٣", "é", "λ",
    " ", "  ", "\n", "\t", "\r", "-", "--", "->", "<-", "=>", "++", ">", "=",
    "<", "+", "*", "/", "(", ")", "[", "]", "{", "}", ".", ",", ";", ":",
    "'", "?", "#", "-->", "<--", "\x0b", "\f",
)


def test_tokenize_matches_the_reference_on_random_strings():
    rng = random.Random(7)
    for _ in range(3000):
        assert_tokens_match("".join(rng.choice(FRAGMENTS) for _ in range(rng.randint(0, 12))))


def test_a_word_may_go_on_with_a_non_decimal_digit():
    assert tokenize("x²") == [P.Token("ident", "x²", 1, 1), P.Token("eof", "", 1, 3)]


@pytest.mark.parametrize("digit", ["²", "½"])
def test_a_non_decimal_digit_cannot_start_a_token(digit):
    # Both are word characters to `\w`, so the word `²abc` is refused by its
    # first character.
    for text in (f"f {digit}", f"f {digit}abc"):
        with pytest.raises(ParseError) as exc:
            tokenize(text)
        assert exc.value.message == f"unexpected character {digit!r}"
        assert exc.value.span == Span(1, 3, 1)


def test_tokenize_gives_the_tokens_the_parser_reads():
    # The benchmark divides parse time by `len(tokenize(...))`, so it must
    # count the tokens the parser reads: those of `_lex`, then one more `eof`.
    for text in [path.read_text() for path in SAMPLES] + [case.source for case in CASES]:
        tokens = tokenize(text)
        assert tokens == list(zip(*P._lex(text)))
        assert [t.kind for t in tokens].index("eof") == len(tokens) - 1
        parser = P._Parser(text)
        assert list(zip(parser.kinds, parser.texts, parser.lines, parser.cols)) == tokens + tokens[-1:]


def test_tokens_are_tuples_with_spans():
    tok = tokenize("  abc")[0]
    assert isinstance(tok, tuple)
    assert (tok.kind, tok.text, tok.line, tok.col) == ("ident", "abc", 1, 3)
    assert tok.span == Span(1, 3, 3)


# ---------------------------------------------------------------------------
# One shared reading of whole terms

PRELUDE = """\
def St = {get:unit=>int, set:int=>unit}
def handlerSt = handler for St {
  get(x;k;z) -> k(z;z),
  set(x;k;z) -> k(();x),
  return(x;z) -> ret (x, z)
}
"""


NAMED_PAIR = "a{i} <- get(); b{i} <- set(a{i} + 1); "
BARE_PAIR = "get(); set({i}); "


def chain_program(pairs: int, pair: str = NAMED_PAIR) -> str:
    chain = "".join(pair.format(i=i) for i in range(pairs))
    return PRELUDE + f"let box u = box St. ({chain}ret 0) in x <- handle u with handlerSt init 0; ret x\n"


@pytest.mark.parametrize("pair", [NAMED_PAIR, BARE_PAIR], ids=["named", "bare"])
def test_a_5000_pair_chain_parses_and_typechecks_at_a_recursion_limit_of_1000(pair, recursion_limit_1000):
    # The parser and `infer` read a chain of statements in a loop, so the
    # chain's length takes no frames.
    source = parse_source(chain_program(5000, pair))
    assert type_text(infer_term(source.main)) == "int * int"
    chain, statements = source.main.bound.body, 0
    while isinstance(chain, S.Bind):
        chain, statements = chain.rest, statements + 1
    assert (statements, chain) == (10000, S.Ret(S.IntLit(0)))


def test_a_3000_deep_let_box_chain_parses_and_typechecks_at_a_recursion_limit_of_1000(recursion_limit_1000):
    chain = "".join(f"let box v{i} = box {{}}. ret {i} in " for i in range(3000))
    term = parse_term(f"box {{}}. ({chain}ret (eval v0 + eval v2999))")
    body, depth = term.body, 0
    while isinstance(body, S.LetBox):
        body, depth = body.body, depth + 1
    assert depth == 3000
    assert type_text(infer_term(term)) == "[ {} ] int"


def test_an_ill_typed_call_deep_in_a_chain_reports_its_own_span(recursion_limit_1000):
    text = chain_program(5000).replace("a2500 <- get(); ", "e <- raise(); a2500 <- get(); ")
    at = text.index("raise()")
    source = parse_source(text)
    with pytest.raises(TypeCheckError) as exc:
        infer_term(source.main)
    assert exc.value.kind == "op-not-in-context"
    assert exc.value.span == Span(text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at), 5)


@pytest.mark.parametrize("pairs", [10, 200])
def test_each_statement_is_parsed_once(monkeypatch, pairs):
    # 2N chain statements, the `handle`, and the two `k(...)` in handlerSt.
    # Reading the whole main term twice without sharing gives 4N + 3.
    calls = 0
    inner = P._Parser.parse_stmt

    def counting(self):
        nonlocal calls
        calls += 1
        return inner(self)

    monkeypatch.setattr(P._Parser, "parse_stmt", counting)
    source = parse_source(chain_program(pairs))
    assert isinstance(source.main, S.LetBox) and isinstance(S.last_part(source.main), S.Comp)
    assert calls == 2 * pairs + 3


def test_no_free_names_walk_without_term_definitions(monkeypatch):
    calls = 0
    inner = S.free_vars

    def counting(term):
        nonlocal calls
        calls += 1
        return inner(term)

    monkeypatch.setattr(S, "free_vars", counting)
    assert parse_source(chain_program(5)).main is not None
    assert calls == 0
    source = parse_source("def one = 1\nfn y:int. y + one")
    assert calls > 0
    assert source.main == S.Lam("y", S.INT, S.Arith("+", S.Var("y"), S.IntLit(1)))


def test_a_parse_leaves_no_reference_cycle():
    # `ret 1` fails as an expression before it parses as a computation; the
    # error kept from that reading must not hold the parser's frames.
    gc.collect()
    gc.disable()
    try:
        assert parse_term("ret 1") == S.Ret(S.IntLit(1))
        assert gc.collect() == 0
    finally:
        gc.enable()


class _Forgetful(dict):
    """A memo that keeps nothing: every expression is read afresh."""

    def __setitem__(self, key, value):
        pass


def parse_term_unshared(text: str) -> S.Term:
    parser = P._Parser(text)
    parser._exprs = _Forgetful()
    term = parser.parse_term()
    parser.expect("eof", "end of input")
    return parser._resolve(term)


TIES = (
    # Both readings consume everything: the expression wins.
    "f(1)",
    "if c then f(1) else g(2)",
    "let box u = box {op:int=>int}. op(1) in f(2)",
    # The computation reading is longer and reuses the bound expression.
    "let box u = box {op:int=>int}. op(1) in x <- handle u with "
    "handler for {op:int=>int} { op(x;k;z) -> k(x;z), return(x;z) -> ret x } init (); ret x",
    # The expression reading is longer.
    "f(1) + 2",
    "let box u = b in f(1) ++ [2]",
)


def category(t: S.Term) -> type:
    """`S.Expr` or `S.Comp`: the category of `t`, which a twin takes from
    its last part."""
    return S.Expr if isinstance(S.last_part(t), S.Expr) else S.Comp


@pytest.mark.parametrize("text", TIES)
def test_sharing_does_not_change_the_reading(text):
    shared = parse_term(text)
    unshared = parse_term_unshared(text)
    assert shared == unshared
    assert category(shared) is category(unshared)
    assert pretty(shared) == pretty(unshared)


def test_ties_go_to_the_expression():
    assert isinstance(parse_term("f(1)"), S.App)
    term = parse_term("let box u = b in f(2)")
    assert isinstance(term, S.LetBox) and category(term) is S.Expr


# A bare `f(a)` reads as an application or as an operation call, so the
# category of a twin form, and the reading of the branches before its last
# part, can hang on tokens after that last part: each text with its class,
# its category and printed form, or `None` for a parse error at `;`.
WHOLE_TERMS = (
    ("if true then f(1) else g(2); ret 3", S.If, S.Comp, "if true then x <- f(1); ret x else _ <- g(2); ret 3"),
    ("if true then f(1) else g(2)", S.If, S.Expr, "if true then f 1 else g 2"),
    ("let box u = x in f(1); ret 1", S.LetBox, S.Comp, "let box u = x in _ <- f(1); ret 1"),
    ("(f(1)); ret 2", None, None, None),
    ("(f(1); ret 2)", S.Bind, S.Comp, "_ <- f(1); ret 2"),
)


@pytest.mark.parametrize("text, cls, cat, printed", WHOLE_TERMS)
def test_the_category_of_a_whole_term_can_hang_on_its_last_tokens(text, cls, cat, printed):
    if cls is None:
        with pytest.raises(ParseError, match="^1:7: .*found ';'"):
            parse_term(text)
        return
    term = parse_term(text)
    assert (type(term), category(term), pretty(term)) == (cls, cat, printed)


def test_sharing_does_not_change_printed_terms():
    for seed in range(200):
        text = pretty(gen_roundtrip_term(random.Random(seed)))
        assert pretty(parse_term(text)) == pretty(parse_term_unshared(text)), text
