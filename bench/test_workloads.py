"""Tests of the benchmark's own generators, references and tracer.

Run from the root of a checkout:

    python3 -m pytest -q bench/test_workloads.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import measure  # noqa: E402
import workloads  # noqa: E402

MODS = measure.import_ecmtt()
PIPELINE = measure.Pipeline(MODS)
SEEDS = range(5)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", SEEDS)
def test_smallest_programs_match_their_references(workload, seed):
    for prog in workloads.programs(workload, seed, small=True):
        out = PIPELINE.run(prog)
        assert out.text == prog.expected, (seed, prog.pid, prog.source, out)


@pytest.mark.parametrize("seed", SEEDS)
def test_check_programs_are_well_typed_or_have_their_error_kind(seed):
    kinds = set()
    for prog in workloads.programs("check_large", seed, small=True):
        out = PIPELINE.run(prog)
        assert out.layer is None, (prog.source, out)
        if prog.expected.startswith("type-error "):
            kinds.add(prog.expected.split()[1])
            assert out.text == prog.expected
        else:
            assert not out.text.startswith("type-error"), (prog.source, out)
    assert kinds == set(workloads.DEFECTS)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_programs(workload):
    assert workloads.programs(workload, 7) == workloads.programs(workload, 7)
    assert workloads.programs(workload, 7) != workloads.programs(workload, 8)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_full_size_mix(workload):
    progs = workloads.programs(workload, 3)
    assert len(progs) >= 100, "p90 needs at least ten programs beyond it"
    if workload == "check_large":
        assert max(p.size for p in progs) == workloads.CHECK_MAX_PAIRS
        ill = [p for p in progs if p.expected.startswith("type-error")]
        assert len(ill) == 20
    if workload == "multishot_nondet":
        assert max(p.size for p in progs) == workloads.NONDET_MAX_N


@pytest.mark.parametrize("workload", ["multishot_nondet", "check_large"])
def test_largest_programs_pass_below_the_depth_limits(workload):
    prog = max(workloads.programs(workload, 3), key=lambda p: p.size)
    assert PIPELINE.run(prog).text == prog.expected


def test_state_model():
    ops = workloads.StateOps((("add", 1), ("const", 13), ("add", 2)), (0, 2))
    assert workloads.run_state_model(ops, 4, explosive=False) == (4 + 13, 15)
    assert workloads.run_state_model(ops, 4, explosive=True) is None


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_pass_repeats_and_matches_untraced(workload):
    progs = workloads.programs(workload, 2, small=True)
    first = measure.traced_run(MODS, PIPELINE, progs)
    second = measure.traced_run(MODS, PIPELINE, progs)
    keys = [o.key() for o in first.outcomes]
    assert keys == [o.key() for o in first.untraced_outcomes]
    assert keys == [o.key() for o in second.outcomes]
    counts = {n: v for n, (v, unit) in first.metrics.items() if measure.is_count(n, unit)}
    assert counts == {n: second.metrics[n][0] for n in counts}
    assert counts["parser.failures"] == counts["typecheck.failures"] == counts["evaluator.failures"] == 0
    assert first.spans, "top-level calls are recorded as spans"

