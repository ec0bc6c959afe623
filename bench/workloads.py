"""Seeded ecmtt programs for the benchmark, each with an independent reference.

A workload is a fixed list of programs drawn from a seed.  The sizes, and
the features that change a program's cost (where a staged program explodes,
which checked programs are ill-typed), come from a fixed grid per family, so
every seed yields the same mix of costs and only the program contents
(constants, return expressions, initial states, order) vary.  That keeps
run-to-run spread down to the machine's own noise.

Nothing here imports ecmtt.  Each expected output is computed from a small
Python model of the program: state and exceptions are simulated directly,
the recursion family uses `math`, nondeterminism enumerates
`itertools.product` with the true branch first, and the typing workload
knows the type text or error kind it generated.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

# Every program stays below the sizes at which the seed, at the default
# recursion limit, raises RecursionError (NOTES.md gives the bands): a
# benchmark run has no failing programs.
NONDET_MAX_N = 9  # collectAll with N = 10 fails in `evaluate`
CHECK_MAX_PAIRS = 450  # one chain fails in the parser at 470-490 pairs


@dataclass(frozen=True)
class Program:
    pid: int
    family: str
    size: int
    source: str
    expected: str
    check_only: bool = False


THEORIES = """\
def St = {get:unit=>int, set:int=>unit}
def Exn = {raise:unit=>bot}
def StExn = {get:unit=>int, set:int=>unit, raise:unit=>bot}
"""

HANDLER_ST = """\
def handlerSt = handler for St {
  get(x;k;z) -> k(z;z),
  set(x;k;z) -> k(();x),
  return(x;z) -> ret (x, z)
}
"""

HANDLER_EXN = """\
def handlerExn = handler for Exn {
  raise(x;k;z) -> ret 42,
  return(x;z) -> ret x
}
"""

HANDLER_EXPLOSIVE = """\
def handlerExplosiveSt = handler for St {
  get(x;k;z) -> k(z;z),
  set(x;k;z) -> if x = 13 then (y <- raise(); ret y) else k(();x),
  return(x;z) -> ret (x, z)
}
"""

HANDLER_ID_ST = """\
def idSt = handler for St {
  get(x;k;z) -> (y <- get(x); w <- k(y;z); ret w),
  set(x;k;z) -> (y <- set(x); w <- k(y;z); ret w),
  return(x;z) -> ret x
}
"""

HANDLER_ST_EXN = """\
def handlerStExn = handler for StExn {
  get(x;k;z) -> k(z;z),
  set(x;k;z) -> k(();x),
  raise(x;k;z) -> ret (0 - 1, z),
  return(x;z) -> ret (x, z)
}
"""

STATE_PRELUDE = THEORIES + HANDLER_ST + HANDLER_EXN + HANDLER_EXPLOSIVE + HANDLER_ID_ST + HANDLER_ST_EXN

EXPLOSIVE_VALUE = 13
EXN_RESULT = 42

ST_TYPE_TEXT = "{get:unit=>int, set:int=>unit}"


def size_grid(lo: int, hi: int, count: int) -> list[int]:
    """`count` sizes from `lo` to `hi`, evenly spaced on a log scale, so that
    the costly large programs do not dominate a run."""
    if count == 1:
        return [lo]
    return [round(lo * (hi / lo) ** (i / (count - 1))) for i in range(count)]


def linear_grid(lo: int, hi: int, count: int) -> list[int]:
    if count == 1:
        return [lo]
    return [round(lo + (hi - lo) * i / (count - 1)) for i in range(count)]


# ---------------------------------------------------------------------------
# State programs and their model


@dataclass(frozen=True)
class StateOps:
    """N get/set pairs: pair i reads the state into y_i, then writes either
    y_i + add or a constant.  The program returns y_a + y_b."""

    sets: tuple[tuple[str, int], ...]
    ret: tuple[int, int]


def random_state_ops(
    rng: random.Random, n: int, s0: int = 0, staged: bool = False, explode_at: int | None = None
) -> StateOps:
    """Random pairs, starting from state s0.  For the staged shape no set
    writes 13 except the one at `explode_at`, if given: where a program
    explodes sets its cost, so the size grid fixes it, not the seed."""
    sets = []
    s = s0
    for i in range(n):
        if i == explode_at:
            sets.append(("const", EXPLOSIVE_VALUE))
            s = EXPLOSIVE_VALUE
            continue
        while True:
            if rng.random() < 0.2:
                op = ("const", rng.randrange(0, 13))
            else:
                op = ("add", rng.randrange(1, 4))
            value = op[1] if op[0] == "const" else s + op[1]
            if not staged or value != EXPLOSIVE_VALUE:
                break
        sets.append(op)
        s = value
    return StateOps(tuple(sets), (rng.randrange(n), rng.randrange(n)))


def state_chain(ops: StateOps, inject: dict[int, str] | None = None) -> str:
    parts = []
    for i, (kind, c) in enumerate(ops.sets):
        if inject and i in inject:
            parts.append(inject[i].format(i=i))
            continue
        value = f"y{i} + {c}" if kind == "add" else str(c)
        parts.append(f"y{i} <- get(); w{i} <- set({value})")
    a, b = ops.ret
    parts.append(f"ret (y{a} + y{b})")
    return "; ".join(parts)


def run_state_model(ops: StateOps, s0: int, explosive: bool) -> tuple[int, int] | None:
    """(result, final state), or None when an explosive set hits 13 and the
    exception handler discards the rest of the computation."""
    s = s0
    ys = []
    for kind, c in ops.sets:
        ys.append(s)
        value = s + c if kind == "add" else c
        if explosive and value == EXPLOSIVE_VALUE:
            return None
        s = value
    a, b = ops.ret
    return ys[a] + ys[b], s


def state_program(pid: int, rng: random.Random, family: str, n: int, explodes: bool = False) -> Program:
    s0 = rng.randrange(0, 13)
    staged = family == "staged"
    ops = random_state_ops(rng, n, s0, staged, explode_at=(2 * n) // 3 if explodes else None)
    body = f"box St. ({state_chain(ops)})"
    if family == "plain":
        main = f"let box u = {body}\nin x <- handle u with handlerSt init {s0}; ret x\n"
        result, state = run_state_model(ops, s0, explosive=False)
        expected = f"ret ({result}, {state})"
    elif family == "staged":
        main = (
            f"let box u = {body}\n"
            f"in x <- handle u [handlerExplosiveSt init {s0} as y. ret (fst y)]"
            " with handlerExn init (); ret x\n"
        )
        outcome = run_state_model(ops, s0, explosive=True)
        expected = f"ret {EXN_RESULT if outcome is None else outcome[0]}"
    elif family == "reperformed":
        main = (
            f"let box v = (let box u = {body}\n"
            "  in box StExn. (x <- handle u with idSt init (); ret x))\n"
            f"in r <- handle v with handlerStExn init {s0}; ret r\n"
        )
        result, state = run_state_model(ops, s0, explosive=False)
        expected = f"ret ({result}, {state})"
    else:
        raise ValueError(f"unknown state family {family!r}")
    return Program(pid, family, n, STATE_PRELUDE + main, expected)


# ---------------------------------------------------------------------------
# Boxed recursion

EVAL_F = "def eval_f = fn x:[{}]int. let box u = x in eval u\n"


def recursion_program(pid: int, rng: random.Random, family: str, n: int) -> Program:
    if family == "factorial":
        step, base, expected = "n * eval_f (f (n - 1))", 1, math.factorial(n)
    elif family == "sum":
        c = rng.randrange(0, 10)
        step, base = f"n + {c} + eval_f (f (n - 1))", 0
        expected = math.comb(n + 1, 2) + c * n
    elif family == "power":
        b = rng.randrange(2, 4)
        step, base, expected = f"{b} * eval_f (f (n - 1))", 1, b**n
    else:
        raise ValueError(f"unknown recursion family {family!r}")
    source = (
        EVAL_F
        + "let fix f(n:int):[{}]int =\n"
        + f"  if n = 0 then ret {base} else ret ({step})\n"
        + f"in eval_f (f {n})\n"
    )
    return Program(pid, family, n, source, str(expected))


# ---------------------------------------------------------------------------
# Multi-shot nondeterminism

NONDET_PRELUDE = """\
def Ch = {choice:unit=>bool}
def collectAll = handler for Ch {
  choice(x;k;z) -> (y1 <- k(true;z); y2 <- k(false;z); ret (y1 ++ y2)),
  return(x;z) -> ret [x]
}
"""


def nondet_program(pid: int, rng: random.Random, n: int) -> Program:
    weights = [(rng.randrange(0, 10), rng.randrange(0, 10)) for _ in range(n)]
    binds = "; ".join(f"b{i} <- choice()" for i in range(n))
    value = " + ".join(f"(if b{i} then {t} else {f})" for i, (t, f) in enumerate(weights))
    main = (
        f"let box u = box Ch. ({binds}; ret ({value}))\n"
        "in w <- handle u with collectAll init (); ret w\n"
    )
    results = [
        sum(t if bit else f for bit, (t, f) in zip(bits, weights))
        for bits in itertools.product((True, False), repeat=n)
    ]
    expected = "ret [" + ", ".join(map(str, results)) + "]"
    return Program(pid, "collectAll", n, NONDET_PRELUDE + main, expected)


# ---------------------------------------------------------------------------
# Large programs for the check path

CHECK_PRELUDE = THEORIES + HANDLER_ST + HANDLER_EXN + HANDLER_EXPLOSIVE + HANDLER_ID_ST

# Each ill-typed program carries one defect; the kind is what the checker
# must report.
DEFECTS = ("op-not-in-context", "argument-mismatch", "theory-mismatch")


def check_program(pid: int, rng: random.Random, pairs: int, defect: str | None, shape: int) -> Program:
    ops = random_state_ops(rng, pairs)
    # A defect sits halfway down the chain, so the checker always walks half
    # of the program before it stops.
    inject = None
    if defect == "op-not-in-context":
        inject = {pairs // 2: "y{i} <- get(); w{i} <- raise()"}
    elif defect == "argument-mismatch":
        inject = {pairs // 2: "y{i} <- get(); w{i} <- set(y{i} = 1)"}
    # The boxed chain sits inside a function literal in the main term: a
    # term definition would be substituted in by the parser, and that
    # substitution, not the front end, would dominate the run.
    prog = f"(fn n:int. box St. ({state_chain(ops, inject)}))"
    arg = rng.randrange(0, 13)
    if defect == "theory-mismatch":
        main = f"let box u = {prog} {arg} in x <- handle u with handlerExn init (); ret x\n"
    elif shape == 0:
        main = f"let box u = {prog} {arg} in x <- handle u with handlerSt init {arg}; ret x\n"
        type_text = "int * int"
    elif shape == 1:
        main = (
            f"let box u = {prog} {arg} in x <- handle u "
            f"[handlerExplosiveSt init {arg} as y. ret (fst y)] with handlerExn init (); ret x\n"
        )
        type_text = "int"
    else:
        main = f"fn m:int. let box u = {prog} m in box St. (x <- handle u with idSt init (); ret (x + 1))\n"
        type_text = f"int -> [ {ST_TYPE_TEXT} ] int"
    expected = f"type-error {defect}" if defect else type_text
    return Program(pid, "check", pairs, CHECK_PRELUDE + main, expected, check_only=True)


# ---------------------------------------------------------------------------
# Workloads


def _oneshot(seed: int, small: bool) -> list[Program]:
    rng = random.Random(seed)
    if small:
        grids = {"plain": [1, 2, 3], "staged": [1, 1, 2, 2, 3, 3], "reperformed": [1, 2, 3]}
    else:
        grids = {"plain": size_grid(10, 60, 34), "staged": size_grid(8, 24, 34), "reperformed": size_grid(5, 14, 34)}
    # Every other staged program sets 13 two thirds of the way in, and the
    # exception handler discards the rest.
    plan = [(f, n, f == "staged" and i % 2 == 1) for f, sizes in grids.items() for i, n in enumerate(sizes)]
    rng.shuffle(plan)
    return [state_program(pid, rng, family, n, explodes) for pid, (family, n, explodes) in enumerate(plan)]


def _boxed_recursion(seed: int, small: bool) -> list[Program]:
    rng = random.Random(seed)
    sizes = [0, 1, 2, 3] if small else size_grid(10, 64, 34)
    plan = [(f, n) for f in ("factorial", "sum", "power") for n in sizes]
    rng.shuffle(plan)
    return [recursion_program(pid, rng, family, n) for pid, (family, n) in enumerate(plan)]


def _multishot(seed: int, small: bool) -> list[Program]:
    rng = random.Random(seed)
    # A program's cost doubles with N, so the sorted latencies fall into one
    # band per N.  The counts put the nearest ranks 50 and 90 in the middle of
    # the N = 7 and N = 9 bands: a rank at a band's edge would read the
    # slowest program of its band, the one the machine's noise moves most.
    counts = {4: 12, 5: 12, 6: 12, 7: 28, 8: 16, NONDET_MAX_N: 20}
    sizes = [1, 2, 3] if small else [n for n, count in counts.items() for _ in range(count)]
    rng.shuffle(sizes)
    return [nondet_program(pid, rng, n) for pid, n in enumerate(sizes)]


def _check_large(seed: int, small: bool) -> list[Program]:
    rng = random.Random(seed)
    if small:
        plan = [(n, d, shape) for n in (1, 3) for d in (None,) + DEFECTS for shape in range(3)]
    else:
        # Every fifth size is ill-typed, cycling through the defects, and the
        # three shapes cycle along the sizes too, so the seed does not decide
        # which sizes are cheap.
        plan = [
            (n, DEFECTS[(i // 5) % len(DEFECTS)] if i % 5 == 2 else None, i % 3)
            for i, n in enumerate(linear_grid(200, CHECK_MAX_PAIRS, 100))
        ]
    rng.shuffle(plan)
    return [check_program(pid, rng, n, d, shape) for pid, (n, d, shape) in enumerate(plan)]


WORKLOADS = {
    "oneshot_handlers": _oneshot,
    "boxed_recursion": _boxed_recursion,
    "multishot_nondet": _multishot,
    "check_large": _check_large,
}


def programs(workload: str, seed: int, small: bool = False) -> list[Program]:
    """The workload's programs for `seed`; `small` gives the smallest sizes,
    for testing the generators."""
    return WORKLOADS[workload](seed, small)
