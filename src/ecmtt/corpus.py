"""Built-in corpus of checked example programs.

Each case is a complete source file with a stated expectation: the type its
main term synthesizes, the value it evaluates to, the kind of type error it
must be rejected with, or a parse failure.  The cases double as executable
documentation of the surface language and as a regression surface for the
checker and the evaluator.  `ecmtt corpus` (in `cli.py`) runs them all on the
path `check` and `run` take, compares each outcome with its case's
expectation, and prints a table.

All sources share one prelude of theories, handlers, and helper functions so
the cases stay short enough to read at a glance.
"""

from __future__ import annotations

from typing import Optional, Union

from .record import Record, record

__all__ = [
    "PRELUDE",
    "CASES",
    "CorpusCase",
    "TypeIs",
    "TypeErrorExpected",
    "EvaluatesTo",
    "ParseErrorExpected",
]


@record
class TypeIs(Record):
    """The main term must synthesize exactly this rendered type."""

    text: str


@record
class TypeErrorExpected(Record):
    """The main term must be rejected; `kind` pins the diagnostic kind."""

    kind: Optional[str] = None


@record
class EvaluatesTo(Record):
    """The main term must typecheck and reduce to exactly this value."""

    text: str


@record
class ParseErrorExpected(Record):
    """The source must fail to parse."""


Expectation = Union[TypeIs, TypeErrorExpected, EvaluatesTo, ParseErrorExpected]


@record
class CorpusCase(Record):
    name: str
    source: str
    expectation: Expectation


PRELUDE = """\
def St = {get:unit=>int, set:int=>unit}
def Exn = {raise:unit=>bot}
def StExn = {get:unit=>int, set:int=>unit, raise:unit=>bot}
def T2 = {op:unit=>int, stop:unit=>int}
def Cnt = {a:unit=>int, b:unit=>int}
def Ch = {choice:unit=>bool}

def handlerSt = handler for St {
  get(x;k;z) -> k(z;z),
  set(x;k;z) -> k(();x),
  return(x;z) -> ret (x, z)
}

def handlerExn = handler for Exn {
  raise(x;k;z) -> ret 42,
  return(x;z) -> ret x
}

def handlerExplosiveSt = handler for St {
  get(x;k;z) -> k(z;z),
  set(x;k;z) -> if x = 13 then (y <- raise(); ret y) else k(();x),
  return(x;z) -> ret (x, z)
}

def idSt = handler for St {
  get(x;k;z) -> (y <- get(x); w <- k(y;z); ret w),
  set(x;k;z) -> (y <- set(x); w <- k(y;z); ret w),
  return(x;z) -> ret x
}

def idExn = handler for Exn {
  raise(x;k;z) -> (y <- raise(x); w <- k(y;z); ret w),
  return(x;z) -> ret x
}

def handlerStExn = handler for StExn {
  get(x;k;z) -> k(z;z),
  set(x;k;z) -> k(();x),
  raise(x;k;z) -> ret (0 - 1, z),
  return(x;z) -> ret (x, z)
}

def incr_n = fn n:int. box St. (y <- get(); w <- set(y+n); ret y)
def explode = fn m:int. let box u = incr_n 1 in box Exn. (x <- handle u with handlerExplosiveSt init m; ret (fst x))
def eval_f = fn x:[{}]int. let box u = x in eval u
def safeDiv = fn x:int. fn y:int. box Exn. (if y = 0 then raise() else ret (x / y))
def divFromState = box StExn. (y <- get(); let box u = safeDiv 42 y in (w <- handle u with idExn init (); ret w))
"""

_ST_INT = "[ {get:unit=>int, set:int=>unit} ] int"
_STEXN_INT = "[ {get:unit=>int, set:int=>unit, raise:unit=>bot} ] int"


def _case(name: str, main: str, expectation: Expectation) -> CorpusCase:
    return CorpusCase(name, PRELUDE + "\n" + main + "\n", expectation)


CASES: tuple[CorpusCase, ...] = (
    # Typing: boxes, functions over boxes, and the modal elimination forms.
    _case(
        "box-performs-declared-op",
        "box St. get()",
        TypeIs(_ST_INT),
    ),
    _case(
        "state-increment-function",
        "fn n:int. box St. (x <- get(); y <- set(x+n); ret x)",
        TypeIs(f"int -> {_ST_INT}"),
    ),
    _case(
        "op-escapes-empty-box",
        "box St. ret (box {}. get())",
        TypeErrorExpected("op-not-in-context"),
    ),
    _case(
        "handle-synthesizes-final-state-pair",
        "let box u = box St. (y <- get(); w <- set(y+1); ret y) in (handle u with handlerSt init 0)",
        TypeIs("int * int"),
    ),
    _case(
        "catch-handler-keeps-value-type",
        "let box u = box Exn. ret 5 in (handle u with handlerExn init ())",
        TypeIs("int"),
    ),
    _case(
        "abort-on-thirteen-function",
        "explode",
        TypeIs("int -> [ {raise:unit=>bot} ] int"),
    ),
    _case(
        "staged-handling-type",
        "let box u = box St. (y <- get(); w <- set(y+1); ret y) in"
        " x <- handle u [handlerExplosiveSt init 12 as y. ret (fst y)] with handlerExn init (); ret x",
        TypeIs("int"),
    ),
    _case(
        "reperform-preserves-type",
        "let box u = box St. (y <- get(); ret y) in box StExn. (x <- handle u with idSt init (); ret x)",
        TypeIs(_STEXN_INT),
    ),
    _case(
        "reperform-into-wider-theory",
        "fn e:[St]int. let box u = e in box StExn. (x <- handle u with idSt init (); ret x)",
        TypeIs(f"{_ST_INT} -> {_STEXN_INT}"),
    ),
    _case(
        "pure-value-boxing",
        "fn x:int. box St. ret x",
        TypeIs(f"int -> {_ST_INT}"),
    ),
    _case(
        "application-under-box",
        "fn f:[St](int -> bool). fn x:[St]int. let box u = f in let box v = x in"
        " box St. (a <- handle u with idSt init (); b <- handle v with idSt init (); ret (a b))",
        TypeIs(
            "[ {get:unit=>int, set:int=>unit} ] (int -> bool)"
            f" -> {_ST_INT} -> [ {{get:unit=>int, set:int=>unit}} ] bool"
        ),
    ),
    _case(
        "collapse-nested-boxes",
        "fn x:[St][St]int. let box u = x in"
        " box St. (a <- handle u with idSt init (); let box v = a in (handle v with idSt init ()))",
        TypeIs(f"[ {{get:unit=>int, set:int=>unit}} ] {_ST_INT} -> {_ST_INT}"),
    ),
    _case(
        "unbox-pure-function",
        "eval_f",
        TypeIs("[ {} ] int -> int"),
    ),
    _case(
        "guarded-division-function",
        "safeDiv",
        TypeIs("int -> int -> [ {raise:unit=>bot} ] int"),
    ),
    _case(
        "delayed-division-over-state",
        "divFromState",
        TypeIs(_STEXN_INT),
    ),
    # Evaluation: handlers that resume, discard, re-run, and re-perform.
    _case(
        "state-increment-pipeline",
        "let box u = box St. (y <- get(); w <- set(y+1); ret y) in x <- handle u with handlerSt init 0; ret x",
        EvaluatesTo("ret (0, 1)"),
    ),
    _case(
        "constant-return-keeps-state",
        "let box u = box St. ret 42 in x <- handle u with handlerSt init 5; ret x",
        EvaluatesTo("ret (42, 5)"),
    ),
    _case(
        "empty-theory-return-only",
        "let box u = box {}. ret 7 in x <- handle u with handler for {} { return(x;z) -> ret x } init (); ret x",
        EvaluatesTo("ret 7"),
    ),
    _case(
        "abort-handler-normal-path",
        "let box u = explode 0 in x <- handle u with handlerExn init (); ret x",
        EvaluatesTo("ret 0"),
    ),
    _case(
        "abort-handler-caught",
        "let box u = explode 12 in x <- handle u with handlerExn init (); ret x",
        EvaluatesTo("ret 42"),
    ),
    _case(
        "op-resumed-three-times",
        "let box u = box T2. (x1 <- op(); x2 <- op(); x3 <- op(); ret (x1+x2+x3)) in"
        " w <- handle u with handler for T2 {"
        " op(x;k;z) -> k(1;z+4), stop(x;k;z) -> ret (42,z), return(x;z) -> ret (x,z)"
        " } init 5; ret w",
        EvaluatesTo("ret (3, 17)"),
    ),
    _case(
        "stop-discards-continuation",
        "let box u = box T2. (x1 <- op(); x2 <- stop(); x3 <- op(); ret (x1+x2+x3)) in"
        " w <- handle u with handler for T2 {"
        " op(x;k;z) -> k(1;z+4), stop(x;k;z) -> ret (42,z), return(x;z) -> ret (x,z)"
        " } init 5; ret w",
        EvaluatesTo("ret (42, 9)"),
    ),
    _case(
        "continuation-call-counting",
        "let box u = box Cnt. (x1 <- a(); x2 <- a(); x3 <- b(); ret x1) in"
        " w <- handle u with handler for Cnt {"
        " a(x;k;z) -> (y <- k(1;z); ret (fst y + 1, snd y)),"
        " b(x;k;z) -> (y <- k(1;z); ret (fst y, snd y + 1)),"
        " return(x;z) -> ret (0,0)"
        " } init 0; ret w",
        EvaluatesTo("ret (2, 1)"),
    ),
    _case(
        "nondet-collects-both-branches",
        "let box u = box Ch. (b <- choice(); if b then ret 4 else ret 5) in"
        " w <- handle u with handler for Ch {"
        " choice(x;k;z) -> (y1 <- k(true;z); y2 <- k(false;z); ret (y1 ++ y2)),"
        " return(x;z) -> ret [x]"
        " } init (); ret w",
        EvaluatesTo("ret [4, 5]"),
    ),
    _case(
        "staged-inner-abort-caught",
        "let box u = box St. (y <- get(); w <- set(y+1); ret y) in"
        " x <- handle u [handlerExplosiveSt init 12 as y. ret (fst y)] with handlerExn init (); ret x",
        EvaluatesTo("ret 42"),
    ),
    _case(
        "staged-inner-normal-path",
        "let box u = box St. (y <- get(); w <- set(y+1); ret y) in"
        " x <- handle u [handlerExplosiveSt init 5 as y. ret (fst y)] with handlerExn init (); ret x",
        EvaluatesTo("ret 5"),
    ),
    _case(
        "factorial-via-unboxing",
        "let fix fact(n:int):[{}]int = if n = 0 then ret 1 else ret (n * eval_f (fact (n - 1))) in eval_f (fact 3)",
        EvaluatesTo("6"),
    ),
    _case(
        "unbox-closed-box",
        "let box u = box {}. ret 1 in eval u",
        EvaluatesTo("1"),
    ),
    _case(
        "division-guard-passes",
        "let box u = safeDiv 42 7 in x <- handle u with handlerExn init (); ret x",
        EvaluatesTo("ret 6"),
    ),
    _case(
        "division-guard-trips",
        "let box u = safeDiv 42 0 in x <- handle u with handlerExn init (); ret x",
        EvaluatesTo("ret 42"),
    ),
    _case(
        "state-then-division",
        "let box d = divFromState in x <- handle d with handlerStExn init 7; ret x",
        EvaluatesTo("ret (6, 7)"),
    ),
    _case(
        "state-then-division-aborts",
        "let box d = divFromState in x <- handle d with handlerStExn init 0; ret x",
        EvaluatesTo("ret (-1, 0)"),
    ),
    # Rejections: one case per diagnostic kind the checker can produce.
    _case(
        "handler-misses-declared-op",
        "let box u = box St. get() in"
        " (handle u with handler for St { get(x;k;z) -> k(z;z), return(x;z) -> ret x } init 0)",
        TypeErrorExpected("clause-coverage"),
    ),
    _case(
        "continuation-state-wrong-type",
        "let box u = box St. get() in"
        " (handle u with handler for St { get(x;k;z) -> k(z;true), set(x;k;z) -> k(();x), return(x;z) -> ret x } init 0)",
        TypeErrorExpected("state-type-mismatch"),
    ),
    _case(
        "unboxing-impure-box",
        "let box u = box St. get() in eval u",
        TypeErrorExpected("theory-mismatch"),
    ),
    _case(
        "handler-theory-disagrees",
        "let box u = box Exn. (w <- raise(); ret w) in (handle u with handlerSt init 0)",
        TypeErrorExpected("theory-mismatch"),
    ),
    _case(
        "applying-a-number",
        "3 4",
        TypeErrorExpected("not-a-function"),
    ),
    _case(
        "opening-a-non-box",
        "let box u = 5 in ret 1",
        TypeErrorExpected("not-a-box"),
    ),
    _case(
        "conditional-branches-disagree",
        "if true then ret 1 else ret false",
        TypeErrorExpected("argument-mismatch"),
    ),
    _case(
        "calling-an-unbound-continuation",
        "box St. (w <- k(1;2); ret w)",
        TypeErrorExpected("unbound-variable"),
    ),
    # Parse failures.
    _case(
        "unterminated-parenthesis",
        "ret (1 + 2",
        ParseErrorExpected(),
    ),
    _case(
        "missing-binder-annotation",
        "fn x. x",
        ParseErrorExpected(),
    ),
)

