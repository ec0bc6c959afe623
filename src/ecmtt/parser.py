"""Lexer, one regular expression per line, and recursive-descent parser for
the surface syntax.

A source file is a sequence of `def` bindings followed by one main term.
Definitions come in three kinds, told apart by their first token: theories
(`{...}`), handlers (`handler for ...`), and plain expressions.  Theory and
handler names are spliced where the grammar expects a theory or handler;
expression names are resolved by substitution after parsing, so a local
binder of the same name shadows the definition.

Terms are ambiguous between expressions and computations only at whole-term
positions (a file's main term, a definition body, one REPL line).  There the
parser runs both grammars from the same spot and keeps the parse that
consumed more input, preferring the expression on a tie.  A term that
reads as an expression but fails as a computation beyond the point where
the expression ended reports the computation's error; when both readings
fail, the one that got further reports.  Everywhere else the grammar fixes
the category.  `parse_comp` reads a chain of binds, `;` sequences and twins
in a loop, so a chain of any length takes one Python frame.
`parse_binary` reads the binary operators by precedence climbing over the
level table `syntax.BINARY`, and `parse_type` the type operators the same
way over `syntax.TYPE_BINARY`.  `_sep` reads every separated list.
"""

from __future__ import annotations

import re
from typing import Callable, Iterator, NamedTuple, Optional, TypeVar, Union

from . import syntax as S
from .record import Record, record
from .syntax import Span

KEYWORDS = frozenset(
    "fn box let in ret handle with init as eval fix if then else return "
    "handler for fst snd true false list def".split()
) | frozenset(S.TYPE_WORDS)

PUNCT2 = ("->", "=>", "<-", "++")
PUNCT1 = "()[]{}.,;:=<+-*/"

# The kind of every lexeme that is a keyword or a punctuation mark.
_KINDS = {k: k for k in (*KEYWORDS, *PUNCT2, *PUNCT1)}

# One lexeme of a line: blanks, a comment, a number (`\d` is a decimal digit,
# as int() wants), a word, a two-character mark, or any one character.
_LEXEME = "|".join((r"[ \t\r]+", "--.*", r"\d+", r"\w[\w']*", *map(re.escape, PUNCT2), "."))


class Token(NamedTuple):
    kind: str  # "ident", "num", "eof", or the literal text of a keyword/punct
    text: str
    line: int
    col: int

    @property
    def span(self) -> Span:
        # `Span(...)` would run the NamedTuple's Python-level `__new__`.
        return tuple.__new__(Span, (self.line, self.col, len(self.text)))


class ParseError(Exception):
    """The first error in the input: its message, and where it was found.
    Prints as `LINE:COL: parse error: MESSAGE`."""

    def __init__(self, message: str, span: Optional[Span] = None):
        self.message = message
        self.span = span
        super().__init__(f"{span}: parse error: {message}" if span else f"parse error: {message}")


def tokenize(text: str) -> list[Token]:
    # `re.compile` compiles the pattern once and then finds it in its cache;
    # `tuple.__new__` skips the Python frame of `Token`'s constructor.
    lexemes = re.compile(_LEXEME).findall
    new = tuple.__new__
    tokens: list[Token] = []
    emit = tokens.append
    lines = text.split("\n")
    for line, chars in enumerate(lines, 1):
        col = 1
        for lexeme in lexemes(chars):
            kind = _KINDS.get(lexeme)
            if kind is None:
                first = lexeme[0]
                if first.isalpha() or first == "_":
                    kind = "ident"
                elif first.isdecimal():
                    kind = "num"
                elif first in " \t\r-":  # blanks, or a comment: `-` alone is a mark
                    col += len(lexeme)
                    continue
                else:
                    raise ParseError(f"unexpected character {first!r}", Span(line, col, 1))
            emit(new(Token, (kind, lexeme, line, col)))
            col += len(lexeme)
    emit(Token("eof", "", len(lines), len(lines[-1]) + 1))
    return tokens


class DefTable:
    """The definitions in scope, by kind: theories, handlers and terms."""

    def __init__(
        self,
        theories: Optional[dict[str, S.EffectContext]] = None,
        handlers: Optional[dict[str, S.Handler]] = None,
        terms: Optional[dict[str, S.Expr]] = None,
    ):
        self.theories = {} if theories is None else theories
        self.handlers = {} if handlers is None else handlers
        self.terms = {} if terms is None else terms

    def define(self, name: str, value: Union[S.EffectContext, S.Handler, S.Expr]) -> None:
        # A redefinition replaces the old entry whatever its kind was.
        self.theories.pop(name, None)
        self.handlers.pop(name, None)
        self.terms.pop(name, None)
        if isinstance(value, S.EffectContext):
            self.theories[name] = value
        elif isinstance(value, S.Handler):
            self.handlers[name] = value
        else:
            self.terms[name] = value


@record
class SourceFile(Record):
    table: DefTable
    main: Optional[S.Term]


_T = TypeVar("_T")


class _Parser:
    def __init__(self, tokens: list[Token], table: Optional[DefTable] = None):
        # One extra `eof` lets `at(kind, 1)` look past the end without a
        # bound check; `advance` never moves beyond the first `eof`.
        self.tokens = tokens + tokens[-1:]
        self.pos = 0
        self.table = table if table is not None else DefTable()
        # Successful `parse_expr` results by start position, as (expr, end).
        self._exprs: dict[int, tuple[S.Expr, int]] = {}

    # -- token plumbing

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def at(self, kind: str, ahead: int = 0) -> bool:
        return self.tokens[self.pos + ahead].kind == kind

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str = "") -> Token:
        if not self.at(kind):
            raise self._expected(what or f"'{kind}'")
        return self.advance()

    def _expected(self, what: str) -> ParseError:
        """The error at the next token, which is not the `what` wanted."""
        tok = self.peek()
        return ParseError(f"expected {what}, found {tok.text or 'end of input'!r}", tok.span)

    def _sep(self, item: Callable[[], _T], sep: str) -> Iterator[_T]:
        """The items `item` reads with `sep` between two, the inverse of
        `pretty._joined`: each is yielded before the next is read, so the
        caller can reject it first."""
        yield item()
        while self.at(sep):
            self.advance()
            yield item()

    def _attempt(self, f: Callable[[], _T]) -> tuple[Optional[_T], int, Optional[ParseError]]:
        start = self.pos
        try:
            result = f()
            return result, self.pos, None
        except ParseError as e:
            failed_at = self.pos
            self.pos = start
            # The traceback's frames would reach back to the caller that
            # keeps the error, tying parser and tokens into a cycle.
            return None, failed_at, e.with_traceback(None)

    # -- types

    def parse_type(self, floor: int = 1) -> S.Type:
        """Precedence climbing over `S.TYPE_BINARY` from level `floor` up; a
        right operand is read at its operator's own level: right grouping."""
        left = self.parse_type_prefix()
        while True:
            tok = self.peek()
            level = S.TYPE_BINARY.get(tok.kind, 0)
            if level < floor:
                return left
            self.advance()
            right = self.parse_type(level)
            left = S.ArrowT(left, right) if tok.kind == "->" else S.ProdT(left, right)

    def parse_type_prefix(self) -> S.Type:
        tok = self.peek()
        match tok.kind:
            case "list":
                self.advance()
                return S.ListT(self.parse_type_prefix())
            case "[":
                self.advance()
                theory = self.parse_theory_ref()
                self.expect("]")
                return S.BoxT(theory, self.parse_type_prefix())
            case "(":
                self.advance()
                ty = self.parse_type()
                self.expect(")")
                return ty
            case kind if kind in S.TYPE_WORDS:
                self.advance()
                return S.TYPE_WORDS[kind]
        raise self._expected("a type")

    # -- theories and handlers

    def parse_theory_literal(self) -> S.EffectContext:
        self.expect("{")
        ops: list[S.OpDecl] = []
        if not self.at("}"):
            for name, in_type, out_type in self._sep(self.parse_op_decl, ","):
                if any(o.name == name.text for o in ops):
                    raise ParseError(f"duplicate operation {name.text!r} in theory", name.span)
                ops.append(S.OpDecl(name.text, in_type, out_type))
        self.expect("}")
        return S.make_theory(ops)

    def parse_op_decl(self) -> tuple[Token, S.Type, S.Type]:
        name = self.expect("ident", "an operation name")
        self.expect(":")
        in_type = self.parse_type()
        self.expect("=>")
        return name, in_type, self.parse_type()

    def _ref(self, start: str, literal: Callable[[], _T], what: str, named: dict[str, _T]) -> _T:
        """A theory or a handler: a literal, read by `literal` when the next
        token is `start`, or the name of a definition in `named`."""
        if self.at(start):
            return literal()
        tok = self.expect("ident", f"a {what}")
        value = named.get(tok.text)
        if value is None:
            raise ParseError(f"unknown {what} name {tok.text!r}", tok.span)
        return value

    def parse_theory_ref(self) -> S.EffectContext:
        return self._ref("{", self.parse_theory_literal, "theory", self.table.theories)

    def parse_handler_ref(self) -> S.Handler:
        return self._ref("handler", self.parse_handler_literal, "handler", self.table.handlers)

    def parse_handler_literal(self) -> S.Handler:
        start = self.expect("handler")
        self.expect("for")
        theory = self.parse_theory_ref()
        self.expect("{")
        op_clauses: list[S.OpClause] = []
        ret_clause: Optional[S.RetClause] = None
        for tok, names, body in self._sep(self.parse_clause, ","):
            if tok.kind == "return":
                if ret_clause is not None:
                    raise ParseError("a handler has exactly one return clause", tok.span)
                ret_clause = S.RetClause(*names, body)
            else:
                if any(c.op == tok.text for c in op_clauses):
                    raise ParseError(f"duplicate clause for operation {tok.text!r}", tok.span)
                op_clauses.append(S.OpClause(tok.text, *names, body))
        close = self.expect("}")
        if ret_clause is None:
            raise ParseError("a handler needs a return clause", close.span)
        return S.Handler(theory, tuple(op_clauses), ret_clause, span=start.span)

    def parse_clause(self) -> tuple[Token, list[str], S.Comp]:
        """`return(x; z) -> c` or `op(x; k; z) -> c`: its first token, its
        names and its body."""
        tok = self.peek()
        if tok.kind not in ("return", "ident"):
            raise self._expected("an operation clause or return clause")
        self.advance()
        self.expect("(")
        names = [self.expect("ident").text]
        while len(names) < (2 if tok.kind == "return" else 3):
            self.expect(";")
            names.append(self.expect("ident").text)
        self.expect(")")
        self.expect("->")
        return tok, names, self.parse_comp()

    def parse_hseq(self) -> S.HSeq:
        """The handling sequence of `handle` and `eval`: none, or its stages
        in brackets."""
        if not self.at("["):
            return S.EMPTY_HSEQ
        self.advance()
        hseq = S.HSeq(tuple(self._sep(self.parse_stage, ";")))
        self.expect("]")
        return hseq

    def parse_stage(self) -> S.HClause:
        handler = self.parse_handler_ref()
        self.expect("init")
        init = self.parse_atom()
        self.expect("as")
        var = self.expect("ident").text
        self.expect(".")
        return S.HClause(handler, init, var, self.parse_comp())

    # -- statements

    def parse_stmt(self) -> S.Stmt:
        tok = self.peek()
        if tok.kind == "handle":
            self.advance()
            uvar = self.expect("ident", "a box variable").text
            hseq = self.parse_hseq()
            self.expect("with")
            handler = self.parse_handler_ref()
            self.expect("init")
            init = self.parse_atom()
            return S.Handle(uvar, hseq, handler, init, span=tok.span)
        if tok.kind == "ident" and self.at("(", 1):
            self.advance()
            self.advance()
            if self.at(")"):
                close = self.advance()
                return S.OpCall(tok.text, S.UnitLit(span=close.span), span=tok.span)
            first = self.parse_expr()
            if self.at(";"):
                self.advance()
                state = self.parse_expr()
                self.expect(")")
                return S.ContCall(tok.text, first, state, span=tok.span)
            self.expect(")")
            return S.OpCall(tok.text, first, span=tok.span)
        raise self._expected("a statement")

    def _starts_stmt(self) -> bool:
        return self.at("handle") or (self.at("ident") and self.at("(", 1))

    # -- computations

    def parse_comp(self) -> S.Comp:
        # The loop keeps each head of a chain as a hole (a builder and its
        # fields) and builds the nodes from the innermost rest outwards.
        holes: list[tuple[Callable[..., S.Comp], tuple, Optional[Span]]] = []
        while True:
            tok = self.peek()
            match tok.kind:
                case "ret":
                    self.advance()
                    comp: S.Comp = S.Ret(self.parse_expr(), span=tok.span)
                    break
                case "let" | "if":
                    holes.append(self.parse_twin(self.parse_comp))
                case "(":
                    self.advance()
                    comp = self.parse_comp()
                    self.expect(")")
                    break
                case "ident" if self.at("<-", 1):
                    var = self.advance().text
                    self.advance()
                    if self.at("ret"):  # a pure computation: see `_bind_pure`
                        ret_tok = self.advance()
                        value = self.parse_expr()
                        self.expect(";")
                        holes.append((_bind_pure, (var, value), ret_tok.span))
                        continue
                    stmt = self.parse_stmt()
                    self.expect(";")
                    holes.append((S.Bind, (stmt, var), tok.span))
                case _ if self._starts_stmt():
                    stmt = self.parse_stmt()
                    if not self.at(";"):
                        comp = S.Bind(stmt, "x", S.Ret(S.Var("x"), span=tok.span), span=tok.span)
                        break
                    self.advance()
                    holes.append((_bind_fresh, (stmt,), tok.span))
                case _:
                    raise self._expected("a computation")
        # Bare and pure holes read the free names of the rest: below the
        # outermost one, fill them node by node so no read recurses.
        fill = next((i for i, h in enumerate(holes) if h[0] in (_bind_fresh, _bind_pure)), len(holes))
        for i in range(len(holes) - 1, -1, -1):
            build, fields, span = holes[i]
            if i > fill:
                S.free_vars(comp)
            comp = build(*fields, comp, span=span)
        return comp

    def parse_twin(self, branch: Callable[[], S.Term]) -> tuple[type, tuple, Span]:
        """`let box`, `let fix` or `if`, the forms that exist in both
        categories, up to their last part: the class, the fields before that
        part, and the span.  `branch` parses a branch in the category of the
        whole.  The caller parses the last part, so that `parse_comp` reads a
        chain of these forms (`else if`, `in let box`) in its loop."""
        tok = self.advance()
        if tok.kind == "if":
            cond = self.parse_expr()
            self.expect("then")
            then = branch()
            self.expect("else")
            return S.If, (cond, then), tok.span
        if not self.at("fix"):
            self.expect("box")
            uvar = self.expect("ident").text
            self.expect("=")
            bound = self.parse_expr()
            self.expect("in")
            return S.LetBox, (uvar, bound), tok.span
        self.advance()
        fname = self.expect("ident").text
        self.expect("(")
        param = self.expect("ident").text
        self.expect(":")
        annot = self.parse_type()
        self.expect(")")
        self.expect(":")
        if not self.at("["):
            raise self._expected("a boxed return type")
        boxed = self.parse_type_prefix()
        self.expect("=")
        rec_body = self.parse_comp()
        self.expect("in")
        return S.Fix, (fname, param, annot, boxed.theory, boxed.body, rec_body), tok.span

    # -- expressions

    def parse_expr(self) -> S.Expr:
        # `parse_term` reads a whole term twice, as an expression and as a
        # computation, and the two readings meet the same expressions (the
        # bound of `let box u = E in ...`, every argument).  While one term is
        # parsed the definition table is fixed, so the expression starting at
        # a token is always the same and is built once.  Errors are not kept.
        # The check sits here, not in a wrapper, to keep one frame per level.
        start = self.pos
        done = self._exprs.get(start)
        if done is not None:
            self.pos = done[1]
            return done[0]
        tok = self.tokens[start]
        match tok.kind:
            case "fn":
                self.advance()
                param = self.expect("ident").text
                self.expect(":")
                annot = self.parse_type()
                self.expect(".")
                body = self.parse_expr()
                expr: S.Expr = S.Lam(param, annot, body, span=tok.span)
            case "box":
                self.advance()
                theory = self.parse_theory_ref()
                self.expect(".")
                body = self.parse_comp()
                expr = S.BoxTerm(theory, body, span=tok.span)
            case "let" | "if":
                cls, fields, span = self.parse_twin(self.parse_expr)
                expr = cls(*fields, self.parse_expr(), span=span)
            case _:
                expr = self.parse_binary()
        self._exprs[start] = (expr, self.pos)
        return expr

    def parse_binary(self, floor: int = 1) -> S.Expr:
        """Precedence climbing over `S.BINARY`: the operators of level `floor`
        and above, each with its right operand read one level higher."""
        left = self.parse_application()
        while True:
            tok = self.peek()
            level = S.BINARY.get(tok.kind, 0)
            if level < floor:
                return left
            self.advance()
            right = self.parse_binary(level + 1)
            if level == 1:
                return S.Cmp(tok.kind, left, right, span=tok.span)
            if tok.kind == "++":
                left = S.Append(left, right, span=tok.span)
            else:
                left = S.Arith(tok.kind, left, right, span=tok.span)

    def parse_application(self) -> S.Expr:
        tok = self.peek()
        if tok.kind in ("fst", "snd"):
            self.advance()
            proj = S.Proj1 if tok.kind == "fst" else S.Proj2
            return proj(self.parse_atom(), span=tok.span)
        if tok.kind == "eval":
            self.advance()
            hseq = self.parse_hseq()
            uvar = self.expect("ident", "a box variable").text
            return S.EvalTerm(hseq, uvar, span=tok.span)
        expr = self.parse_atom()
        while self._starts_atom():
            arg = self.parse_atom()
            expr = S.App(expr, arg, span=tok.span)
        return expr

    def _starts_atom(self) -> bool:
        kind = self.peek().kind
        return kind in ("ident", "num", "true", "false", "(", "[")

    def parse_atom(self) -> S.Expr:
        tok = self.peek()
        match tok.kind:
            case "ident":
                self.advance()
                return S.Var(tok.text, span=tok.span)
            case "num":
                self.advance()
                return S.IntLit(S.int_of_text(tok.text), span=tok.span)
            case "-" if self.at("num", 1):
                self.advance()
                num = self.advance()
                return S.IntLit(-S.int_of_text(num.text), span=tok.span)
            case "true" | "false":
                self.advance()
                return S.BoolLit(tok.kind == "true", span=tok.span)
            case "(":
                self.advance()
                if self.at(")"):
                    self.advance()
                    return S.UnitLit(span=tok.span)
                first = self.parse_expr()
                if self.at(","):
                    self.advance()
                    second = self.parse_expr()
                    self.expect(")")
                    return S.Pair(first, second, span=tok.span)
                self.expect(")")
                return first
            case "[":
                self.advance()
                elems = () if self.at("]") else tuple(self._sep(self.parse_expr, ","))
                self.expect("]")
                return S.ListE(elems, span=tok.span)
            case _:
                raise self._expected("an expression")

    # -- whole terms

    def parse_term(self) -> S.Term:
        start = self.pos
        expr_result, expr_pos, expr_err = self._attempt(self.parse_expr)
        self.pos = start
        comp_result, comp_pos, comp_err = self._attempt(self.parse_comp)
        # Keep the reading that consumed more, the expression on a tie; a
        # computation that fails beyond where the expression ended reports
        # its own error.
        if expr_err is None and comp_pos <= expr_pos:
            self.pos = expr_pos
            return expr_result
        if comp_err is None:
            self.pos = comp_pos
            return comp_result
        raise comp_err if expr_err is None or comp_pos > expr_pos else expr_err

    def _resolve(self, term: S.Term) -> S.Term:
        if not self.table.terms:
            return term
        names = S.free_vars(term).values & self.table.terms.keys()
        if not names:
            return term
        from .subst import subst_values

        return subst_values(term, {n: self.table.terms[n] for n in names})

    def parse_def(self) -> tuple[str, Union[S.EffectContext, S.Handler, S.Expr]]:
        self.expect("def")
        name = self.expect("ident", "a definition name")
        self.expect("=")
        if self.at("{"):
            return name.text, self.parse_theory_literal()
        if self.at("handler"):
            handler = self.parse_handler_literal()
            resolved = self._resolve(handler)
            assert isinstance(resolved, S.Handler)
            return name.text, resolved
        body = self._resolve(self.parse_term())
        if not isinstance(S.last_part(body), S.Expr):
            raise ParseError(
                f"definition {name.text!r} must be an expression, a theory, or a handler",
                name.span,
            )
        return name.text, body

    def parse_source(self) -> SourceFile:
        while self.at("def"):
            name, value = self.parse_def()
            self.table.define(name, value)
            self._exprs.clear()  # kept expressions were read under the old table
        if self.at("eof"):
            return SourceFile(self.table, None)
        main = self._resolve(self.parse_term())
        self.expect("eof", "end of input")
        return SourceFile(self.table, main)


def _bind_pure(var: str, value: S.Expr, rest: S.Comp, span: Optional[Span]) -> S.Comp:
    """Encode `x <- ret e; c` with a box at the empty theory handled by the
    trivial handler, whose return clause hands `e` straight to `x`."""
    avoid = S.free_vars(rest).modals | S.free_vars(value).modals
    uvar = S.fresh_name("u", avoid)
    trivial = S.Handler(
        S.EMPTY_THEORY,
        (),
        S.RetClause("x", "z", S.Ret(S.Var("x", span=span), span=span)),
    )
    handle = S.Handle(uvar, S.EMPTY_HSEQ, trivial, S.UnitLit(span=span), span=span)
    boxed = S.BoxTerm(S.EMPTY_THEORY, S.Ret(value, span=span), span=span)
    return S.LetBox(uvar, boxed, S.Bind(handle, var, rest, span=span), span=span)


def _bind_fresh(stmt: S.Stmt, rest: S.Comp, span: Optional[Span]) -> S.Comp:
    """`s; c`: bind the result of `s` to a name that `c` does not read."""
    return S.Bind(stmt, S.fresh_name("_", S.free_vars(rest).values), rest, span=span)


def _finish(parser: _Parser, result: _T) -> _T:
    parser.expect("eof", "end of input")
    return result


def parse_type(text: str, table: Optional[DefTable] = None) -> S.Type:
    parser = _Parser(tokenize(text), table)
    return _finish(parser, parser.parse_type())


def parse_handler(text: str, table: Optional[DefTable] = None) -> S.Handler:
    parser = _Parser(tokenize(text), table)
    return _finish(parser, parser.parse_handler_literal())


def parse_term(text: str, table: Optional[DefTable] = None) -> S.Term:
    parser = _Parser(tokenize(text), table)
    return parser._resolve(_finish(parser, parser.parse_term()))


def parse_source(text: str, table: Optional[DefTable] = None) -> SourceFile:
    parser = _Parser(tokenize(text), table)
    return parser.parse_source()
