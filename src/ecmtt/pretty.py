"""Printing of terms, types and theories.

The output is valid surface syntax: anything printed here re-parses to an
alpha-equivalent term.  Levels (looser binds lower; the operators at
their levels in `syntax.BINARY` and `syntax.TYPE_BINARY`):

0   binder forms: fn, box, let box, let fix, if, ret, binds
1   arrow types; comparisons
2   product types; `++`, `+`, `-`
3   the `list` and box type prefixes; `*`, `/`; a negative literal
4   application, `fst`, `snd`, `eval`
5   atoms: base types, names, other literals, pairs, lists, theories,
    handlers, handling sequences and statements

`_layout` gives every node its level and its text as pieces: strings, and
each child followed by the level it is printed at.  `pretty` lays the
pieces out in one loop over an explicit stack, and parenthesizes a node
where it is printed at a tighter level than its own, so printing takes no
Python frame per level.  A child and its level are two pieces, not a pair,
so that pending children allocate nothing the cyclic collector counts.
"""

from __future__ import annotations

from . import syntax as S

ATOM = 5


def _joined(parts, sep: str) -> list:
    """The pieces of every part, with `sep` between two parts."""
    pieces = []
    for part in parts:
        pieces += part
        pieces.append(sep)
    return pieces[:-1]


def _layout(t: S.Term | S.Type | S.EffectContext) -> tuple[int, list]:
    """The level of `t` and its text as pieces."""
    # Each case compares the class itself, which is faster than a class
    # pattern's `isinstance`; the most frequent classes come first.
    match type(t):
        case S.Var:
            return ATOM, [t.name]
        case S.IntLit:
            # A negative literal in argument position would read as binary
            # minus: parens anywhere tighter than a multiplication operand.
            return ATOM if t.value >= 0 else 3, [S.int_text(t.value)]
        case S.Append | S.Arith | S.Cmp:
            op = "++" if type(t) is S.Append else t.op
            level = S.BINARY[op]
            # Left grouping, but a comparison takes one operator only.
            return level, [t.left, level + (level == 1), f" {op} ", t.right, level + 1]
        case S.Ret:
            return 0, ["ret ", t.value, 1]
        case S.Bind:
            return 0, [f"{t.var} <- ", t.stmt, 0, "; ", t.rest, 0]
        case S.BoolLit:
            return ATOM, ["true" if t.value else "false"]
        case S.UnitLit:
            return ATOM, ["()"]
        case S.Pair:
            return ATOM, ["(", t.left, 0, ", ", t.right, 0, ")"]
        case S.EffectContext:
            decls = [
                [f"{e.name}:", e.in_type, 0, "=>", e.out_type, 0] if isinstance(e, S.OpDecl)
                else [f"{e.name}~:", e.in_type, 0, "/", e.state_type, 0, "=>", e.out_type, 0]
                for e in t.entries
            ]
            return ATOM, ["{", *_joined(decls, ", "), "}"]
        case S.ListE:
            return ATOM, ["[", *_joined(((e, 0) for e in t.elems), ", "), "]"]
        case S.If:
            return 0, ["if ", t.cond, 1, " then ", t.then, 0, " else ", t.els, 0]
        case S.App:
            return 4, [t.fn, 4, " ", t.arg, 5]
        case S.Lam:
            return 0, [f"fn {t.param}:", t.annot, 0, ". ", t.body, 0]
        case S.BoxTerm:
            return 0, ["box ", t.theory, 0, ". ", t.body, 0]
        case S.LetBox:
            return 0, [f"let box {t.uvar} = ", t.bound, 0, " in ", t.body, 0]
        case S.Proj1 | S.Proj2:
            return 4, ["fst " if isinstance(t, S.Proj1) else "snd ", t.arg, 5]
        case S.OpCall:
            return ATOM, [f"{t.op}()"] if isinstance(t.arg, S.UnitLit) else [f"{t.op}(", t.arg, 0, ")"]
        case S.ContCall:
            return ATOM, [f"{t.kname}(", t.arg, 0, "; ", t.state, 0, ")"]
        case S.Handle:
            seq = [" [", t.hseq, 0, "]"] if t.hseq.clauses else []
            return ATOM, [f"handle {t.uvar}", *seq, " with ", t.handler, 0, " init ", t.init, 5]
        case S.Handler:
            clauses = [[f"{c.op}({c.x}; {c.k}; {c.z}) -> ", c.body, 0] for c in t.op_clauses]
            r = t.ret_clause
            clauses.append([f"return({r.x}; {r.z}) -> ", r.body, 0])
            return ATOM, ["handler for ", t.theory, 0, " { ", *_joined(clauses, ", "), " }"]
        case S.HSeq:
            # A bind as a clause body is parenthesized: its `;` would end the clause.
            parts = (
                [c.handler, 0, " init ", c.init, 5, f" as {c.var}. "]
                + (["(", c.body, 0, ")"] if isinstance(c.body, S.Bind) else [c.body, 0])
                for c in t.clauses
            )
            return ATOM, _joined(parts, "; ")
        case S.EvalTerm:
            return 4, ["eval [", t.hseq, 0, f"] {t.uvar}"] if t.hseq.clauses else [f"eval {t.uvar}"]
        case S.Fix:
            head = [f"let fix {t.fname}({t.param}:", t.annot, 0, "):[ ", t.theory, 0, " ] ", t.ret_type, 3]
            return 0, [*head, " = ", t.rec_body, 0, " in ", t.scope, 0]
        case S.BaseT:
            return ATOM, [t.name]
        case S.ArrowT | S.ProdT:
            op, left, right = ("->", t.dom, t.cod) if type(t) is S.ArrowT else ("*", t.left, t.right)
            level = S.TYPE_BINARY[op]
            # Right grouping: the left operand is printed one level tighter.
            return level, [left, level + 1, f" {op} ", right, level]
        case S.ListT:
            return 3, ["list ", t.elem, 3]
        case S.BoxT:
            return 3, ["[ ", t.theory, 0, " ] ", t.body, 3]
        case S.BottomT:
            return ATOM, ["bot"]
        case _:
            raise AssertionError(f"pretty: unhandled node {t!r}")


def pretty(t: S.Term | S.Type | S.EffectContext, prec: int = 0) -> str:
    """The text of `t`, parenthesized if its level is looser than `prec`."""
    # The pieces are taken from the right, so `out` holds the text backwards.
    out = []
    todo: list = [t, prec]
    while todo:
        piece = todo.pop()
        if type(piece) is str:
            out.append(piece)
            continue
        node = todo.pop()  # `piece` is the level `node` is printed at
        level, pieces = _layout(node)
        if level < piece:
            todo += ["(", *pieces, ")"]
        elif len(pieces) == 1:  # a leaf: its one piece is its text
            out.append(pieces[0])
        else:
            todo += pieces
    out.reverse()
    return "".join(out)


def type_text(ty: S.Type, prec: int = 0) -> str:
    return pretty(ty, prec)


def theory_text(ctx: S.EffectContext) -> str:
    return pretty(ctx)
