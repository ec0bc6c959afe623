"""The shape of the engine's cost: handling N operations costs O(N) engine
ticks in every handling family, and unrolling a `let fix` costs the same
ticks per step at every depth.

Ticks are counted by wrapping `subst._Engine.tick`, one frame per tick, so
the counts are deterministic.  A linear cost roughly doubles when N
doubles; a quadratic term would push the ratio towards 4.
"""

import pytest

from ecmtt import subst
from ecmtt.corpus import PRELUDE
from ecmtt.evaluator import Value, evaluate
from ecmtt.parser import parse_source

# Measured ratios per doubling from N = 20: 1.86-1.95 for the three state
# families (233 / 433 / 833 ticks plain, 333 / 633 / 1,233 staged,
# 716 / 1,356 / 2,636 re-performed).  The bound leaves a margin of 0.25 over
# the largest, and stays far below the 4 of a quadratic cost.
MAX_DOUBLING = 2.2
# Measured ticks per step for factorial: 4.424 / 4.412 / 4.406 at
# N = 32 / 64 / 128, a drift of 0.4 %.
MAX_PER_STEP_DRIFT = 0.05


def chain(n: int) -> str:
    pairs = "".join(f"y{i} <- get(); w{i} <- set(y{i} + 1); " for i in range(n))
    return f"{pairs}ret y{n - 1}"


def plain(n: int) -> str:
    return f"let box u = box St. ({chain(n)}) in x <- handle u with handlerSt init 0; ret x"


def staged(n: int) -> str:
    # Counting up from 14, the state never reaches the explosive 13.
    return (
        f"let box u = box St. ({chain(n)})"
        " in x <- handle u [handlerExplosiveSt init 14 as y. ret (fst y)] with handlerExn init (); ret x"
    )


def reperformed(n: int) -> str:
    return (
        f"let box v = (let box u = box St. ({chain(n)})"
        " in box StExn. (x <- handle u with idSt init (); ret x))"
        " in r <- handle v with handlerStExn init 0; ret r"
    )


def factorial(n: int) -> str:
    return (
        "let fix f(n:int):[{}]int = if n = 0 then ret 1 else ret (n * eval_f (f (n - 1)))"
        f" in eval_f (f {n})"
    )


@pytest.fixture
def cost(monkeypatch):
    """A function from a main term, under the corpus prelude, to the engine
    ticks and the steps its evaluation takes."""
    ticks = 0
    tick = subst._Engine.tick

    def counting(self):
        nonlocal ticks
        ticks += 1
        tick(self)

    monkeypatch.setattr(subst._Engine, "tick", counting)

    def measure(main: str) -> tuple[int, int]:
        nonlocal ticks
        term = parse_source(PRELUDE + main).main
        ticks = 0
        outcome = evaluate(term)
        assert isinstance(outcome.final, Value), outcome.final
        return ticks, outcome.step_count

    return measure


@pytest.mark.parametrize("family", [plain, staged, reperformed], ids=lambda f: f.__name__)
def test_handling_a_chain_costs_ticks_linear_in_its_length(cost, family):
    ticks = [cost(family(n))[0] for n in (20, 40, 80)]
    for smaller, larger in zip(ticks, ticks[1:]):
        assert larger <= MAX_DOUBLING * smaller, ticks


def test_recursion_costs_the_same_ticks_per_step_at_every_depth(cost):
    per_step = {}
    for n in (32, 64, 128):
        ticks, steps = cost(factorial(n))
        per_step[n] = ticks / steps
    assert abs(per_step[128] - per_step[32]) <= MAX_PER_STEP_DRIFT * per_step[32], per_step
