"""What the benchmark under `bench/` reads of the program.

A traced benchmark run (`bench/run.py --trace 1`) hooks library functions
by name (`evaluator.step`, `subst.normalize`, `pretty.type_text`, ...),
tokenizes each source and counts the nodes of parsed terms.  A change that
deletes or renames one of those names crashes that run, and nothing else in
this suite would notice.  These tests load `bench/` as the benchmark does
and go through the same path on the smallest program of each workload.
The node count the benchmark reports is checked against one read from
`syntax.SCHEMA`, so a change to how nodes are held that moves it shows.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import measure  # noqa: E402
import workloads  # noqa: E402
from test_cost_shape import node_count  # noqa: E402

MODS = measure.import_ecmtt()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_a_traced_pass_runs_on_the_smallest_program(workload):
    assert measure.make_hooks(MODS)
    pipeline = measure.Pipeline(MODS)
    prog = workloads.programs(workload, 0, small=True)[0]
    assert MODS["parser"].tokenize(prog.source)
    main = MODS["parser"].parse_source(prog.source).main
    assert measure.NodeCounter(MODS["syntax"]).count(main) > 1
    traced = measure.traced_run(MODS, pipeline, [prog])
    assert [o.key() for o in traced.outcomes] == [o.key() for o in traced.untraced_outcomes]
    assert measure.is_ok(prog, traced.outcomes[0]), traced.outcomes[0]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_the_benchmark_counts_the_nodes_of_the_schema(workload):
    # Types and theories are tuples as nodes are; the counter must not take
    # them, or anything else in a field, for nodes.
    prog = workloads.programs(workload, 0, small=True)[0]
    main = MODS["parser"].parse_source(prog.source).main
    final = MODS["evaluator"].evaluate(main).final
    counter = measure.NodeCounter(MODS["syntax"])
    assert counter.count(main) == node_count(main) > 1
    assert counter.count(final.term) == node_count(final.term)
