"""Lexer, one regular expression per line, and recursive-descent parser for
the surface syntax.

`_lex` gives the tokens as parallel lists of kinds, texts, lines and
columns, which the parser reads by index: a token is its position, and a
`Span` is built only for a node or an error that keeps one.

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
        return Span(self.line, self.col, len(self.text))


class ParseError(Exception):
    """The first error in the input: its message, and where it was found.
    Prints as `LINE:COL: parse error: MESSAGE`."""

    def __init__(self, message: str, span: Optional[Span] = None):
        self.message = message
        self.span = span
        super().__init__(f"{span}: parse error: {message}" if span else f"parse error: {message}")


def _lex(text: str) -> tuple[list[str], list[str], list[int], list[int]]:
    """The tokens of `text`, `eof` last, as lists of kinds, texts, lines, columns."""
    # `re.compile` compiles the pattern once and then finds it in its cache.
    lexemes = re.compile(_LEXEME).findall
    kinds, texts, lines, cols = columns = ([], [], [], [])
    for line, chars in enumerate(text.split("\n"), 1):
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
            kinds.append(kind)
            texts.append(lexeme)
            lines.append(line)
            cols.append(col)
            col += len(lexeme)
    # The lexemes cover the last line, so `eof` sits just after it.
    for column, value in zip(columns, ("eof", "", line, col)):
        column.append(value)
    return columns


def tokenize(text: str) -> list[Token]:
    return list(map(Token._make, zip(*_lex(text))))


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
    def __init__(self, text: str, table: Optional[DefTable] = None):
        # One more `eof` lets `kinds[tok + 2]` look past the end without a
        # bound check; `advance` never moves beyond the first `eof`.
        self.kinds, self.texts, self.lines, self.cols = columns = _lex(text)
        for column in columns:
            column.append(column[-1])
        self.pos = 0
        self.table = table if table is not None else DefTable()
        # Successful `parse_expr` results by start position, as (expr, end).
        self._exprs: dict[int, tuple[S.Expr, int]] = {}

    # -- token plumbing

    def at(self, kind: str) -> bool:
        return self.kinds[self.pos] == kind

    def advance(self) -> int:
        tok = self.pos
        if self.kinds[tok] != "eof":
            self.pos = tok + 1
        return tok

    def expect(self, kind: str, what: str = "") -> int:
        if self.kinds[self.pos] != kind:
            raise self._expected(what or f"'{kind}'")
        return self.advance()

    def name(self, what: str = "") -> str:
        return self.texts[self.expect("ident", what)]

    def span(self, tok: int) -> Span:
        # `Span(...)` would run the NamedTuple's Python-level `__new__`.
        return tuple.__new__(Span, (self.lines[tok], self.cols[tok], len(self.texts[tok])))

    def _expected(self, what: str) -> ParseError:
        """The error at the next token, which is not the `what` wanted."""
        tok = self.pos
        return ParseError(f"expected {what}, found {self.texts[tok] or 'end of input'!r}", self.span(tok))

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
            # keeps the error, tying the parser and its lists into a cycle.
            return None, failed_at, e.with_traceback(None)

    # -- types

    def parse_type(self, floor: int = 1) -> S.Type:
        """Precedence climbing over `S.TYPE_BINARY` from level `floor` up; a
        right operand is read at its operator's own level: right grouping."""
        left = self.parse_type_prefix()
        while True:
            op = self.kinds[self.pos]
            level = S.TYPE_BINARY.get(op, 0)
            if level < floor:
                return left
            self.advance()
            right = self.parse_type(level)
            left = S.ArrowT(left, right) if op == "->" else S.ProdT(left, right)

    def parse_type_prefix(self) -> S.Type:
        match self.kinds[self.pos]:
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
                op = self.texts[name]
                if any(o.name == op for o in ops):
                    raise ParseError(f"duplicate operation {op!r} in theory", self.span(name))
                ops.append(S.OpDecl(op, in_type, out_type))
        self.expect("}")
        return S.EffectContext(tuple(ops))

    def parse_op_decl(self) -> tuple[int, S.Type, S.Type]:
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
        value = named.get(self.texts[tok])
        if value is None:
            raise ParseError(f"unknown {what} name {self.texts[tok]!r}", self.span(tok))
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
            if self.kinds[tok] == "return":
                if ret_clause is not None:
                    raise ParseError("a handler has exactly one return clause", self.span(tok))
                ret_clause = S.RetClause(*names, body)
            else:
                op = self.texts[tok]
                if any(c.op == op for c in op_clauses):
                    raise ParseError(f"duplicate clause for operation {op!r}", self.span(tok))
                op_clauses.append(S.OpClause(op, *names, body))
        close = self.expect("}")
        if ret_clause is None:
            raise ParseError("a handler needs a return clause", self.span(close))
        return S.Handler._make((theory, tuple(op_clauses), ret_clause, self.span(start)))

    def parse_clause(self) -> tuple[int, list[str], S.Comp]:
        """`return(x; z) -> c` or `op(x; k; z) -> c`: its first token, its
        names and its body."""
        tok = self.pos
        if self.kinds[tok] not in ("return", "ident"):
            raise self._expected("an operation clause or return clause")
        self.advance()
        self.expect("(")
        names = [self.name()]
        while len(names) < (2 if self.kinds[tok] == "return" else 3):
            self.expect(";")
            names.append(self.name())
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
        var = self.name()
        self.expect(".")
        return S.HClause(handler, init, var, self.parse_comp())

    # -- statements

    def parse_stmt(self) -> S.Stmt:
        tok = self.pos
        if self.kinds[tok] == "handle":
            self.pos = tok + 1
            uvar = self.name("a box variable")
            hseq = self.parse_hseq()
            self.expect("with")
            handler = self.parse_handler_ref()
            self.expect("init")
            init = self.parse_atom()
            return S.Handle._make((uvar, hseq, handler, init, self.span(tok)))
        if self.kinds[tok] == "ident" and self.kinds[tok + 1] == "(":
            op = self.texts[tok]
            self.pos = tok + 2
            if self.at(")"):
                close = self.advance()
                return S.OpCall._make((op, S.UnitLit._make((self.span(close),)), self.span(tok)))
            first = self.parse_expr()
            if self.at(";"):
                self.advance()
                state = self.parse_expr()
                self.expect(")")
                return S.ContCall._make((op, first, state, self.span(tok)))
            self.expect(")")
            return S.OpCall._make((op, first, self.span(tok)))
        raise self._expected("a statement")

    # -- computations

    def parse_comp(self) -> S.Comp:
        # The loop keeps each head of a chain as a hole (a builder of all the
        # fields as one sequence, and the fields before the rest) and builds
        # the nodes from the innermost rest outwards.
        holes: list[tuple[Callable[[tuple], S.Comp], tuple, Optional[Span]]] = []
        while True:
            tok = self.pos
            match self.kinds[tok]:
                case "ret":
                    self.pos = tok + 1
                    comp: S.Comp = S.Ret._make((self.parse_expr(), self.span(tok)))
                    break
                case "let" | "if":
                    holes.append(self.parse_twin(self.parse_comp))
                case "(":
                    self.pos = tok + 1
                    comp = self.parse_comp()
                    self.expect(")")
                    break
                case "ident" if self.kinds[tok + 1] == "<-":
                    var = self.texts[tok]
                    if self.kinds[tok + 2] == "ret":  # a pure computation: see `_bind_pure`
                        self.pos = tok + 3
                        value = self.parse_expr()
                        self.expect(";")
                        holes.append((_bind_pure, (var, value), self.span(tok + 2)))
                        continue
                    self.pos = tok + 2
                    stmt = self.parse_stmt()
                    self.expect(";")
                    holes.append((S.Bind._make, (stmt, var), self.span(tok)))
                case "handle" | "ident" as kind if kind == "handle" or self.kinds[tok + 1] == "(":
                    stmt = self.parse_stmt()
                    if not self.at(";"):
                        comp = S.Bind._make((stmt, "x", S.Ret._make((S.Var("x"), self.span(tok))), self.span(tok)))
                        break
                    self.advance()
                    holes.append((_bind_fresh, (stmt,), self.span(tok)))
                case _:
                    raise self._expected("a computation")
        # Bare and pure holes read the free names of the rest: below the
        # outermost one, fill them node by node so no read recurses.
        fill = next((i for i, h in enumerate(holes) if h[0] in (_bind_fresh, _bind_pure)), len(holes))
        for i in range(len(holes) - 1, -1, -1):
            build, fields, span = holes[i]
            if i > fill:
                S.free_vars(comp)
            comp = build((*fields, comp, span))
        return comp

    def parse_twin(self, branch: Callable[[], S.Term]) -> tuple[Callable[[tuple], S.Twin], tuple, Span]:
        """`let box`, `let fix` or `if`, the forms that exist in both
        categories, up to their last part: the class's `_make`, the fields
        before that part, and the span.  `branch` parses a branch in the
        category of the whole.  The caller parses the last part, so that
        `parse_comp` reads a chain of these forms (`else if`, `in let box`)."""
        tok = self.advance()
        if self.kinds[tok] == "if":
            cond = self.parse_expr()
            self.expect("then")
            then = branch()
            self.expect("else")
            return S.If._make, (cond, then), self.span(tok)
        if not self.at("fix"):
            self.expect("box")
            uvar = self.name()
            self.expect("=")
            bound = self.parse_expr()
            self.expect("in")
            return S.LetBox._make, (uvar, bound), self.span(tok)
        self.advance()
        fname = self.name()
        self.expect("(")
        param = self.name()
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
        return S.Fix._make, (fname, param, annot, boxed.theory, boxed.body, rec_body), self.span(tok)

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
        match self.kinds[start]:
            case "fn":
                self.pos = start + 1
                param = self.name()
                self.expect(":")
                annot = self.parse_type()
                self.expect(".")
                body = self.parse_expr()
                expr: S.Expr = S.Lam._make((param, annot, body, self.span(start)))
            case "box":
                self.pos = start + 1
                theory = self.parse_theory_ref()
                self.expect(".")
                body = self.parse_comp()
                expr = S.BoxTerm._make((theory, body, self.span(start)))
            case "let" | "if":
                make, fields, span = self.parse_twin(self.parse_expr)
                expr = make((*fields, self.parse_expr(), span))
            case _:
                expr = self.parse_binary()
        self._exprs[start] = (expr, self.pos)
        return expr

    def parse_binary(self, floor: int = 1) -> S.Expr:
        """Precedence climbing over `S.BINARY`: the operators of level `floor`
        and above, each with its right operand read one level higher."""
        left = self.parse_application()
        while True:
            tok = self.pos
            op = self.kinds[tok]
            level = S.BINARY.get(op, 0)
            if level < floor:
                return left
            self.pos = tok + 1
            right = self.parse_binary(level + 1)
            if level == 1:
                return S.Cmp._make((op, left, right, self.span(tok)))
            if op == "++":
                left = S.Append._make((left, right, self.span(tok)))
            else:
                left = S.Arith._make((op, left, right, self.span(tok)))

    def parse_application(self) -> S.Expr:
        tok = self.pos
        if self.kinds[tok] in ("fst", "snd"):
            self.pos = tok + 1
            proj = S.Proj1 if self.kinds[tok] == "fst" else S.Proj2
            return proj._make((self.parse_atom(), self.span(tok)))
        if self.kinds[tok] == "eval":
            self.pos = tok + 1
            hseq = self.parse_hseq()
            uvar = self.name("a box variable")
            return S.EvalTerm._make((hseq, uvar, self.span(tok)))
        expr = self.parse_atom()
        while self.kinds[self.pos] in ("ident", "num", "true", "false", "(", "["):
            arg = self.parse_atom()
            expr = S.App._make((expr, arg, self.span(tok)))
        return expr

    def parse_atom(self) -> S.Expr:
        tok = self.pos
        match self.kinds[tok]:
            case "ident":
                self.pos = tok + 1
                return S.Var._make((self.texts[tok], self.span(tok)))
            case "num":
                self.pos = tok + 1
                return S.IntLit._make((S.int_of_text(self.texts[tok]), self.span(tok)))
            case "-" if self.kinds[tok + 1] == "num":
                self.pos = tok + 2
                return S.IntLit._make((-S.int_of_text(self.texts[tok + 1]), self.span(tok)))
            case "true" | "false" as kind:
                self.pos = tok + 1
                return S.BoolLit._make((kind == "true", self.span(tok)))
            case "(":
                self.pos = tok + 1
                if self.at(")"):
                    self.advance()
                    return S.UnitLit._make((self.span(tok),))
                first = self.parse_expr()
                if self.at(","):
                    self.advance()
                    second = self.parse_expr()
                    self.expect(")")
                    return S.Pair._make((first, second, self.span(tok)))
                self.expect(")")
                return first
            case "[":
                self.pos = tok + 1
                elems = () if self.at("]") else tuple(self._sep(self.parse_expr, ","))
                self.expect("]")
                return S.ListE._make((elems, self.span(tok)))
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

    def _resolve(self, term: S.Term, start: int = 0) -> S.Term:
        """`term`, read from token `start` on, with the term definitions it
        reads put in for their names.  Its free names come from its tokens
        or the handlers they name: if neither names one, it is not walked."""
        terms, handlers = self.table.terms, self.table.handlers
        if not terms:
            return term
        named = set(self.texts[start : self.pos])
        if terms.keys().isdisjoint(named) and all(
            S.free_vars(handlers[n]).values.isdisjoint(terms) for n in handlers.keys() & named
        ):
            return term
        names = S.free_vars(term).values & terms.keys()
        if not names:
            return term
        from .subst import subst_values

        return subst_values(term, {n: self.table.terms[n] for n in names})

    def parse_def(self) -> tuple[str, Union[S.EffectContext, S.Handler, S.Expr]]:
        self.expect("def")
        tok = self.expect("ident", "a definition name")
        name = self.texts[tok]
        self.expect("=")
        if self.at("{"):
            return name, self.parse_theory_literal()
        start = self.pos
        if self.at("handler"):
            resolved = self._resolve(self.parse_handler_literal(), start)
            assert isinstance(resolved, S.Handler)
            return name, resolved
        body = self._resolve(self.parse_term(), start)
        if not isinstance(S.last_part(body), S.Expr):
            raise ParseError(
                f"definition {name!r} must be an expression, a theory, or a handler",
                self.span(tok),
            )
        return name, body

    def parse_source(self) -> SourceFile:
        while self.at("def"):
            name, value = self.parse_def()
            self.table.define(name, value)
            self._exprs.clear()  # kept expressions were read under the old table
        if self.at("eof"):
            return SourceFile(self.table, None)
        start = self.pos
        main = self._resolve(self.parse_term(), start)
        self.expect("eof", "end of input")
        return SourceFile(self.table, main)


def _bind_pure(fields: tuple[str, S.Expr, S.Comp, Optional[Span]]) -> S.Comp:
    """`x <- ret e; c`, given as `(x, e, c, span)`: a box at the empty theory
    handled by the trivial handler, whose return clause hands `e` to `x`."""
    var, value, rest, span = fields
    avoid = S.free_vars(rest).modals | S.free_vars(value).modals
    uvar = S.fresh_name("u", avoid)
    ret = S.RetClause("x", "z", S.Ret._make((S.Var._make(("x", span)), span)))
    trivial = S.Handler._make((S.EMPTY_THEORY, (), ret, None))
    handle = S.Handle._make((uvar, S.EMPTY_HSEQ, trivial, S.UnitLit._make((span,)), span))
    boxed = S.BoxTerm._make((S.EMPTY_THEORY, S.Ret._make((value, span)), span))
    return S.LetBox._make((uvar, boxed, S.Bind._make((handle, var, rest, span)), span))


def _bind_fresh(fields: tuple[S.Stmt, S.Comp, Optional[Span]]) -> S.Comp:
    """`s; c`, given as `(s, c, span)`: `s` bound to a name `c` does not read."""
    stmt, rest, span = fields
    return S.Bind._make((stmt, S.fresh_name("_", S.free_vars(rest).values), rest, span))


def _finish(parser: _Parser, result: _T) -> _T:
    parser.expect("eof", "end of input")
    return result


def parse_type(text: str, table: Optional[DefTable] = None) -> S.Type:
    parser = _Parser(text, table)
    return _finish(parser, parser.parse_type())


def parse_handler(text: str, table: Optional[DefTable] = None) -> S.Handler:
    parser = _Parser(text, table)
    return _finish(parser, parser.parse_handler_literal())


def parse_term(text: str, table: Optional[DefTable] = None) -> S.Term:
    parser = _Parser(text, table)
    return parser._resolve(_finish(parser, parser.parse_term()))


def parse_source(text: str, table: Optional[DefTable] = None) -> SourceFile:
    parser = _Parser(text, table)
    return parser.parse_source()
