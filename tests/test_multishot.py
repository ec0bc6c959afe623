"""Multi-shot handlers against a Python model.

Each handler below resumes its continuation more than once, or not at all,
with payloads that differ in argument and in state, so evaluation plugs a
handled continuation into itself again and again.  The expected results
come from a model written in plain Python that uses no part of ecmtt: it
walks the same tree of choices the handler does and lists the leaves in the
handler's order, each as the pair (value, state) the return clause makes.
"""

import pytest

from ecmtt.evaluator import Value, evaluate
from ecmtt.parser import parse_source
from ecmtt.pretty import pretty
from ecmtt.typecheck import infer_term

EFFECT = "def Ch = {choice:int=>bool, fail:unit=>int}\n"

# Resumed twice, with true and a state one higher, then with false and the
# state as it was; the return clause reads the state.
TWO_STATES = """\
def h = handler for Ch {
  choice(x;k;z) -> (y1 <- k(true; z + 1); y2 <- k(false; z); ret (y1 ++ y2)),
  fail(x;k;z) -> ret [(0 - 1, z)],
  return(x;z) -> ret [(x, z)]
}
"""

# Resumed twice in one branch of an `if` on the argument and once in the
# other, with an argument read from the state.  (An `if` on the state could
# not fold while the rest is handled under a symbolic state, and its cost
# would grow far faster than the tree: N = 6 runs out of fuel.)
IF_BRANCHES = """\
def h = handler for Ch {
  choice(x;k;z) -> if x = 0
    then (y1 <- k(true; z + 1); y2 <- k(false; z + 2); ret (y1 ++ y2))
    else (y <- k(z < 4; z - 1); ret y),
  fail(x;k;z) -> ret [(0 - 1, z)],
  return(x;z) -> ret [(x, z)]
}
"""


def weight(i: int) -> int:
    return i + 1


def program(handler: str, n: int, fail_at: int = -1) -> str:
    """`n` choices `b0 ... b(n-1)`, the i-th with argument i mod 2, and `ret`
    the sum of `weight(i)` over the true ones.  With `fail_at` = j, the path
    fails right after choice j when that choice is true.  (A condition on
    earlier choices as well would not fold while the rest of the path is
    handled, at the same cost as an `if` on the state.)"""

    def choices(lo, hi):
        return "".join(f"b{i} <- choice({i % 2}); " for i in range(lo, hi))

    total = " + ".join(f"(if b{i} then {weight(i)} else 0)" for i in range(n)) or "0"
    if fail_at < 0:
        body = f"{choices(0, n)}ret ({total})"
    else:
        j = fail_at
        body = f"{choices(0, j + 1)}if b{j} then (f <- fail(); ret f) else ({choices(j + 1, n)}ret ({total}))"
    return EFFECT + handler + f"let box u = box Ch. ({body})\nin w <- handle u with h init 0; ret w"


# -- the model


def two_states(n: int, fail_at: int = -1) -> list[tuple[int, int]]:
    def go(i, z, value):
        if i == n:
            return [(value, z)]
        if i == fail_at:
            return [(-1, z + 1)] + go(i + 1, z, value)
        return go(i + 1, z + 1, value + weight(i)) + go(i + 1, z, value)

    return go(0, 0, 0)


def if_branches(n: int) -> list[tuple[int, int]]:
    def go(i, z, value):
        if i == n:
            return [(value, z)]
        if i % 2 == 0:
            return go(i + 1, z + 1, value + weight(i)) + go(i + 1, z + 2, value)
        return go(i + 1, z - 1, value + (weight(i) if z < 4 else 0))

    return go(0, 0, 0)


def shown(leaves: list[tuple[int, int]]) -> str:
    return "[" + ", ".join(f"({v}, {z})" for v, z in leaves) + "]"


def run(source: str) -> str:
    term = parse_source(source).main
    infer_term(term)
    outcome = evaluate(term)
    assert isinstance(outcome.final, Value), outcome.final
    return pretty(outcome.final.term)


@pytest.mark.parametrize("n", range(11))
def test_two_resumptions_with_different_states(n):
    assert run(program(TWO_STATES, n)) == f"ret {shown(two_states(n))}"


@pytest.mark.parametrize("n", range(11))
def test_resumed_twice_in_one_branch_and_once_in_the_other(n):
    assert run(program(IF_BRANCHES, n)) == f"ret {shown(if_branches(n))}"


@pytest.mark.parametrize("n", range(1, 11))
def test_a_clause_that_discards_its_continuation(n):
    j = n // 2
    assert run(program(TWO_STATES, n, j)) == f"ret {shown(two_states(n, j))}"
