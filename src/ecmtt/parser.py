"""Lexer and recursive-descent parser for the surface syntax.

A source file is a sequence of `def` bindings followed by one main term.
Definitions come in three kinds, told apart by their first token: theories
(`{...}`), handlers (`handler for ...`), and plain expressions.  Theory and
handler names are spliced where the grammar expects a theory or handler;
expression names are resolved by substitution after parsing, so a local
binder of the same name shadows the definition.

Terms are ambiguous between expressions and computations only at whole-term
positions (a file's main term, a definition body, one REPL line).  There the
parser runs both grammars from the same spot and keeps the parse that
consumed more input, preferring the expression on a tie.  Everywhere else
the grammar fixes the category.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, TypeVar, Union

from . import syntax as S
from .syntax import Span

KEYWORDS = frozenset(
    "fn box let in ret handle with init as eval fix if then else return "
    "handler for fst snd true false unit int bool bot list def".split()
)

PUNCT2 = ("->", "=>", "<-", "++")
PUNCT1 = "()[]{}.,;:=<+-*/"


class Token(NamedTuple):
    kind: str  # "ident", "int", "eof", or the literal text of a keyword/punct
    text: str
    line: int
    col: int

    @property
    def span(self) -> Span:
        return Span(self.line, self.col, len(self.text))


class ParseError(Exception):
    """The first error in the input: its message, and where it was found.
    Prints as `LINE:COL: parse error: MESSAGE`."""

    def __init__(self, message: str, span: Optional[Span] = None):
        self.message = message
        self.span = span
        super().__init__(f"{span}: parse error: {message}" if span else f"parse error: {message}")


def _err(message: str, span: Optional[Span]) -> ParseError:
    return ParseError(message, span)


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    emit = tokens.append
    i = 0
    line = 1
    line_start = 0  # index of the current line's first character
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r":
            i += 1
        elif ch == "\n":
            i += 1
            line += 1
            line_start = i
        elif ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            word = text[i:j]
            emit(Token(word if word in KEYWORDS else "ident", word, line, i - line_start + 1))
            i = j
        elif ch.isdecimal():
            # isdecimal, not isdigit: int() rejects digits such as '²'.
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            emit(Token("int", text[i:j], line, i - line_start + 1))
            i = j
        elif ch == "-" and text.startswith("--", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
        else:
            two = text[i : i + 2]
            if two in PUNCT2:
                emit(Token(two, two, line, i - line_start + 1))
                i += 2
            elif ch in PUNCT1:
                emit(Token(ch, ch, line, i - line_start + 1))
                i += 1
            else:
                raise _err(f"unexpected character {ch!r}", Span(line, i - line_start + 1, 1))
    emit(Token("eof", "", line, n - line_start + 1))
    return tokens


@dataclass
class DefTable:
    theories: dict[str, S.EffectContext] = field(default_factory=dict)
    handlers: dict[str, S.Handler] = field(default_factory=dict)
    terms: dict[str, S.Expr] = field(default_factory=dict)

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


@dataclass(frozen=True)
class SourceFile:
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
        tok = self.peek()
        if tok.kind != kind:
            want = what or f"'{kind}'"
            found = tok.text if tok.kind != "eof" else "end of input"
            raise _err(f"expected {want}, found {found!r}", tok.span)
        return self.advance()

    def _attempt(self, f: Callable[[], _T]) -> tuple[Optional[_T], int, Optional[ParseError]]:
        start = self.pos
        try:
            result = f()
            return result, self.pos, None
        except ParseError as e:
            failed_at = self.pos
            self.pos = start
            return None, failed_at, e

    # -- types

    def parse_type(self) -> S.Type:
        left = self.parse_type_prod()
        if self.at("->"):
            self.advance()
            return S.ArrowT(left, self.parse_type())
        return left

    def parse_type_prod(self) -> S.Type:
        left = self.parse_type_prefix()
        if self.at("*"):
            self.advance()
            return S.ProdT(left, self.parse_type_prod())
        return left

    def parse_type_prefix(self) -> S.Type:
        tok = self.peek()
        if tok.kind == "list":
            self.advance()
            return S.ListT(self.parse_type_prefix())
        if tok.kind == "[":
            self.advance()
            theory = self.parse_theory_ref()
            self.expect("]")
            return S.BoxT(theory, self.parse_type_prefix())
        return self.parse_type_atom()

    def parse_type_atom(self) -> S.Type:
        tok = self.peek()
        match tok.kind:
            case "unit":
                self.advance()
                return S.UNIT
            case "int":
                self.advance()
                return S.INT
            case "bool":
                self.advance()
                return S.BOOL
            case "bot":
                self.advance()
                return S.BOTTOM
            case "ident":
                self.advance()
                return S.BaseT(tok.text)
            case "(":
                self.advance()
                ty = self.parse_type()
                self.expect(")")
                return ty
            case _:
                raise _err(f"expected a type, found {tok.text or 'end of input'!r}", tok.span)

    # -- theories and handlers

    def parse_theory_literal(self) -> S.EffectContext:
        self.expect("{")
        ops: list[S.OpDecl] = []
        if not self.at("}"):
            while True:
                name = self.expect("ident", "an operation name")
                self.expect(":")
                in_type = self.parse_type()
                self.expect("=>")
                out_type = self.parse_type()
                if any(o.name == name.text for o in ops):
                    raise _err(f"duplicate operation {name.text!r} in theory", name.span)
                ops.append(S.OpDecl(name.text, in_type, out_type))
                if self.at(","):
                    self.advance()
                    continue
                break
        self.expect("}")
        return S.make_theory(ops)

    def _ref(self, start: str, literal: Callable[[], _T], what: str, named: dict[str, _T]) -> _T:
        """A theory or a handler: a literal, read by `literal` when the next
        token is `start`, or the name of a definition in `named`."""
        if self.at(start):
            return literal()
        tok = self.expect("ident", f"a {what}")
        value = named.get(tok.text)
        if value is None:
            raise _err(f"unknown {what} name {tok.text!r}", tok.span)
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
        while True:
            # `return(x; z) -> c` or `op(x; k; z) -> c`
            tok = self.peek()
            if tok.kind not in ("return", "ident"):
                raise _err(
                    f"expected an operation clause or return clause, found {tok.text!r}",
                    tok.span,
                )
            self.advance()
            self.expect("(")
            names = [self.expect("ident").text]
            while len(names) < (2 if tok.kind == "return" else 3):
                self.expect(";")
                names.append(self.expect("ident").text)
            self.expect(")")
            self.expect("->")
            body = self.parse_comp()
            if tok.kind == "return":
                if ret_clause is not None:
                    raise _err("a handler has exactly one return clause", tok.span)
                ret_clause = S.RetClause(*names, body)
            else:
                if any(c.op == tok.text for c in op_clauses):
                    raise _err(f"duplicate clause for operation {tok.text!r}", tok.span)
                op_clauses.append(S.OpClause(tok.text, *names, body))
            if self.at(","):
                self.advance()
                continue
            break
        close = self.expect("}")
        if ret_clause is None:
            raise _err("a handler needs a return clause", close.span)
        return S.Handler(theory, tuple(op_clauses), ret_clause, span=start.span)

    def parse_hseq_clauses(self) -> S.HSeq:
        clauses: list[S.HClause] = []
        while True:
            handler = self.parse_handler_ref()
            self.expect("init")
            init = self.parse_atom()
            self.expect("as")
            var = self.expect("ident").text
            self.expect(".")
            body = self.parse_comp()
            clauses.append(S.HClause(handler, init, var, body))
            if self.at(";"):
                self.advance()
                continue
            break
        return S.HSeq(tuple(clauses))

    # -- statements

    def parse_stmt(self) -> S.Stmt:
        tok = self.peek()
        if tok.kind == "handle":
            self.advance()
            uvar = self.expect("ident", "a box variable").text
            hseq = S.EMPTY_HSEQ
            if self.at("["):
                self.advance()
                hseq = self.parse_hseq_clauses()
                self.expect("]")
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
        raise _err(f"expected a statement, found {tok.text or 'end of input'!r}", tok.span)

    def _starts_stmt(self) -> bool:
        return self.at("handle") or (self.at("ident") and self.at("(", 1))

    # -- computations

    def parse_comp(self) -> S.Comp:
        tok = self.peek()
        match tok.kind:
            case "ret":
                self.advance()
                return S.Ret(self.parse_expr(), span=tok.span)
            case "let" | "if":
                cls, fields, span = self.parse_twin(self.parse_comp, S.LetBoxC, S.FixC, S.IfC)
                return cls(*fields, self.parse_comp(), span=span)
            case "(":
                self.advance()
                body = self.parse_comp()
                self.expect(")")
                return body
            case "ident" if self.at("<-", 1):
                var = self.advance().text
                self.advance()
                if self.at("ret"):
                    # Binding a pure computation: box it at the empty theory
                    # and immediately handle with the trivial handler.
                    ret_tok = self.advance()
                    value = self.parse_expr()
                    self.expect(";")
                    rest = self.parse_comp()
                    return _bind_pure(var, value, rest, ret_tok.span)
                stmt = self.parse_stmt()
                self.expect(";")
                rest = self.parse_comp()
                return S.Bind(stmt, var, rest, span=tok.span)
            case _ if self._starts_stmt():
                stmt = self.parse_stmt()
                if self.at(";"):
                    self.advance()
                    rest = self.parse_comp()
                    fv = S.free_vars(rest).values
                    var = S.fresh_name("_", fv)
                    return S.Bind(stmt, var, rest, span=tok.span)
                var = "x"
                return S.Bind(stmt, var, S.Ret(S.Var(var), span=tok.span), span=tok.span)
            case _:
                raise _err(
                    f"expected a computation, found {tok.text or 'end of input'!r}", tok.span
                )

    def parse_twin(
        self, branch: Callable[[], S.Term], let_box: type, fix: type, if_: type
    ) -> tuple[type, tuple, Span]:
        """`let box`, `let fix` or `if`, the forms that exist in both
        categories, up to their last part: the class, the fields before that
        part, and the span.  `branch` parses a branch in the category of the
        whole, and the three classes are that category's.  The caller parses
        the last part itself, so a chain of these forms (`else if`, `in let
        box`) takes one Python frame per form."""
        tok = self.advance()
        if tok.kind == "if":
            cond = self.parse_expr()
            self.expect("then")
            then = branch()
            self.expect("else")
            return if_, (cond, then), tok.span
        if not self.at("fix"):
            self.expect("box")
            uvar = self.expect("ident").text
            self.expect("=")
            bound = self.parse_expr()
            self.expect("in")
            return let_box, (uvar, bound), tok.span
        self.advance()
        fname = self.expect("ident").text
        self.expect("(")
        param = self.expect("ident").text
        self.expect(":")
        annot = self.parse_type()
        self.expect(")")
        self.expect(":")
        self.expect("[", "a boxed return type")
        theory = self.parse_theory_ref()
        self.expect("]")
        ret_type = self.parse_type_prefix()
        self.expect("=")
        rec_body = self.parse_comp()
        self.expect("in")
        return fix, (fname, param, annot, theory, ret_type, rec_body), tok.span

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
                cls, fields, span = self.parse_twin(self.parse_expr, S.LetBoxE, S.FixE, S.IfE)
                expr = cls(*fields, self.parse_expr(), span=span)
            case _:
                expr = self.parse_cmp()
        self._exprs[start] = (expr, self.pos)
        return expr

    def parse_cmp(self) -> S.Expr:
        left = self.parse_additive()
        tok = self.peek()
        if tok.kind in ("=", "<"):
            self.advance()
            right = self.parse_additive()
            return S.Cmp(tok.kind, left, right, span=tok.span)
        return left

    def parse_additive(self) -> S.Expr:
        left = self.parse_multiplicative()
        while True:
            tok = self.peek()
            if tok.kind == "++":
                self.advance()
                left = S.Append(left, self.parse_multiplicative(), span=tok.span)
            elif tok.kind in ("+", "-"):
                self.advance()
                left = S.Arith(tok.kind, left, self.parse_multiplicative(), span=tok.span)
            else:
                return left

    def parse_multiplicative(self) -> S.Expr:
        left = self.parse_application()
        while True:
            tok = self.peek()
            if tok.kind in ("*", "/"):
                self.advance()
                left = S.Arith(tok.kind, left, self.parse_application(), span=tok.span)
            else:
                return left

    def parse_application(self) -> S.Expr:
        tok = self.peek()
        if tok.kind in ("fst", "snd"):
            self.advance()
            proj = S.Proj1 if tok.kind == "fst" else S.Proj2
            return proj(self.parse_atom(), span=tok.span)
        if tok.kind == "eval":
            self.advance()
            hseq = S.EMPTY_HSEQ
            if self.at("["):
                self.advance()
                hseq = self.parse_hseq_clauses()
                self.expect("]")
            uvar = self.expect("ident", "a box variable").text
            return S.EvalTerm(hseq, uvar, span=tok.span)
        expr = self.parse_atom()
        while self._starts_atom():
            arg = self.parse_atom()
            expr = S.App(expr, arg, span=tok.span)
        return expr

    def _starts_atom(self) -> bool:
        kind = self.peek().kind
        return kind in ("ident", "int", "true", "false", "(", "[")

    def parse_atom(self) -> S.Expr:
        tok = self.peek()
        match tok.kind:
            case "ident":
                self.advance()
                return S.Var(tok.text, span=tok.span)
            case "int":
                self.advance()
                return S.IntLit(S.int_of_text(tok.text), span=tok.span)
            case "-" if self.at("int", 1):
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
                elems: list[S.Expr] = []
                if not self.at("]"):
                    elems.append(self.parse_expr())
                    while self.at(","):
                        self.advance()
                        elems.append(self.parse_expr())
                self.expect("]")
                result: S.Expr = S.Nil(span=tok.span)
                for elem in reversed(elems):
                    result = S.ConsE(elem, result, span=tok.span)
                return result
            case _:
                raise _err(
                    f"expected an expression, found {tok.text or 'end of input'!r}", tok.span
                )

    # -- whole terms

    def parse_term(self) -> S.Term:
        start = self.pos
        expr_result, expr_pos, expr_err = self._attempt(self.parse_expr)
        self.pos = start
        comp_result, comp_pos, comp_err = self._attempt(self.parse_comp)
        if expr_err is None and comp_err is None:
            # Both grammars accept a prefix; keep whichever consumed more,
            # with ties going to the expression reading.
            if expr_pos >= comp_pos:
                self.pos = expr_pos
                return expr_result
            self.pos = comp_pos
            return comp_result
        if expr_err is None:
            self.pos = expr_pos
            return expr_result
        if comp_err is None:
            self.pos = comp_pos
            return comp_result
        raise comp_err if comp_pos > expr_pos else expr_err

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
        if not isinstance(body, S.Expr):
            raise _err(
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
    return S.LetBoxC(uvar, boxed, S.Bind(handle, var, rest, span=span), span=span)


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
