"""Printing of types, theories, and terms.

The output is valid surface syntax: anything printed here re-parses to an
alpha-equivalent term.  Precedence levels (looser binds lower):

types   1 arrow   2 product   3 list/box prefix   4 atom
terms   0 binder forms (fn, box, let, if, ret, binds)
        1-3 binary operators, at their levels in `syntax.BINARY`
        4 application   5 atom
"""

from __future__ import annotations

from . import syntax as S


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
        case S.UnitT():
            return "unit"
        case S.IntT():
            return "int"
        case S.BoolT():
            return "bool"
        case S.BottomT():
            return "bot"
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
