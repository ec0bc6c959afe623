"""Running workload programs through ecmtt's public path, timed or traced.

The path is the library's: `parser.parse_source`, `typecheck.infer_term`,
`evaluator.evaluate`, `pretty.pretty` (or `pretty.type_text` for the check
workload).  ecmtt runs with its own defaults: no change to the recursion
limit, no step budget from the environment, the default fuel.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import importlib
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from speed import CALIBRATION_REF_S, speed_scale
from tracer import Hook, Tracer
from workloads import Program

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
LAYERS = ("parser", "typecheck", "evaluator", "subst", "syntax", "pretty")


class MissingProgram(Exception):
    pass


def import_ecmtt() -> dict:
    """Import the layers from this checkout's `src/`, and from nowhere else."""
    package = SRC / "ecmtt"
    if not (package / "__init__.py").is_file():
        raise MissingProgram(f"no ecmtt package under {SRC}")
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"ecmtt.{name}") for name in LAYERS}
    for mod in mods.values():
        if Path(mod.__file__).resolve().parent != package.resolve():
            raise MissingProgram(f"ecmtt was imported from {mod.__file__}, not from {package}")
    return mods


# A fresh interpreter times the calibration task, the import of the layers,
# then the task again, and prints the three times.
SETUP_CODE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "from speed import probe_seconds\n"
    "before = probe_seconds()\n"
    "t = time.perf_counter()\n"
    "import " + ", ".join(f"ecmtt.{m}" for m in LAYERS) + "\n"
    "took = time.perf_counter() - t\n"
    "print(took, before, probe_seconds())\n"
)


def setup_seconds(repeats: int) -> float:
    """Median time a fresh interpreter takes to import the layers, scaled to
    the reference speed by the calibration task timed in the same process
    just before and just after the import (see `speed`).  One unmeasured
    import first, so every measured one reads compiled bytecode, as a
    user's second start-up would."""
    times = []
    for i in range(repeats + 1):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(BENCH_DIR)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        took, before, after = map(float, done.stdout.split())
        if i:
            times.append(took * CALIBRATION_REF_S / ((before + after) / 2))
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# One program


@dataclass(frozen=True)
class Outcome:
    text: str | None  # the printed result, type text, or "type-error <kind>"
    layer: str | None = None  # the layer that failed
    reason: str = ""
    steps: int = 0

    def key(self) -> str:
        return self.text if self.text is not None else f"FAIL {self.layer}: {self.reason}"


class Pipeline:
    def __init__(self, mods: dict):
        self.parse_source = mods["parser"].parse_source
        self.infer_term = mods["typecheck"].infer_term
        self.TypeCheckError = mods["typecheck"].TypeCheckError
        self.evaluate = mods["evaluator"].evaluate
        self.Value = mods["evaluator"].Value
        self.pretty = mods["pretty"].pretty
        self.type_text = mods["pretty"].type_text

    def run(self, prog: Program) -> Outcome:
        layer = "parser"
        try:
            main = self.parse_source(prog.source).main
            if main is None:
                return Outcome(None, layer, "no main term")
            layer = "typecheck"
            try:
                ty = self.infer_term(main)
            except self.TypeCheckError as e:
                if prog.check_only:
                    return Outcome(f"type-error {e.kind}")
                raise
            if prog.check_only:
                layer = "pretty"
                return Outcome(self.type_text(ty))
            layer = "evaluator"
            trace = self.evaluate(main)
            if not isinstance(trace.final, self.Value):
                return Outcome(None, layer, repr(trace.final), trace.step_count)
            layer = "pretty"
            return Outcome(self.pretty(trace.final.term), steps=trace.step_count)
        except RecursionError:
            return Outcome(None, layer, "RecursionError")
        except Exception as e:  # any other raise is a failed program, not a crash of the benchmark
            return Outcome(None, layer, f"{type(e).__name__}: {e}")


def is_ok(prog: Program, out: Outcome) -> bool:
    return out.text == prog.expected


def outputs_digest(outcomes: list[Outcome]) -> str:
    h = hashlib.sha256()
    for out in outcomes:
        h.update(out.key().encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# Untraced: the end-to-end metrics


@dataclass
class TimedResult:
    outcomes: list[Outcome]
    latencies_s: list[float]  # per program: median scaled sample; inf when it failed
    executions: int
    failed: int  # failed programs; each runs once
    consistent: bool
    scale: float  # median speed scale over the run


BLOCK = 4  # programs per speed probe


def timed_run(pipeline: Pipeline, progs: list[Program], seconds: float) -> TimedResult:
    """Closed loop, one program at a time: one full pass over the list, then
    more passes over the programs that succeeded until `seconds` have gone
    by.  A program that failed is not run again; its latency is infinite.

    A program's latency is the median of its samples, each scaled to the
    reference speed by the probe made just before its block (see
    `speed_scale`).  Each sample starts from a collected heap, so the
    collector's work inside it does not depend on which program ran
    before."""
    samples: list[list[float]] = [[] for _ in progs]
    scales: list[float] = []
    consistent = True
    clock = time.perf_counter

    def run_block(ks: list[int]) -> list[Outcome]:
        scale = speed_scale()
        scales.append(scale)
        outs = []
        for k in ks:
            gc.collect()
            t0 = clock()
            outs.append(pipeline.run(progs[k]))
            samples[k].append((clock() - t0) * scale)
        return outs

    # Objects that outlive the run (modules, the programs) are left out of
    # every collection, so a collection costs what the last program left.
    gc.collect()
    gc.freeze()
    start = clock()
    outcomes: list[Outcome] = []
    for b in range(0, len(progs), BLOCK):
        outcomes += run_block(list(range(b, min(b + BLOCK, len(progs)))))
    again = [k for k, (p, o) in enumerate(zip(progs, outcomes)) if is_ok(p, o)]
    executions, pos = len(progs), 0
    while again and clock() - start < seconds:
        ks = [again[(pos + j) % len(again)] for j in range(min(BLOCK, len(again)))]
        pos += len(ks)
        for k, out in zip(ks, run_block(ks)):
            consistent = consistent and out == outcomes[k]
        executions += len(ks)
    failed = len(progs) - len(again)
    latencies = [
        statistics.median(s) if is_ok(p, o) else math.inf for p, o, s in zip(progs, outcomes, samples)
    ]
    return TimedResult(outcomes, latencies, executions, failed, consistent, statistics.median(scales))


def end_to_end_metrics(result: TimedResult, setup_s: float) -> dict:
    return {
        "latency_p50_ms": (nearest_rank(result.latencies_s, 0.5) * 1e3, "ms"),
        "latency_p90_ms": (nearest_rank(result.latencies_s, 0.9) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


# ---------------------------------------------------------------------------
# Traced: the per-layer metrics

SPAN_HOOKS = {
    "parser": ["parse_source"],
    "typecheck": ["infer_term"],
    "evaluator": ["evaluate"],
    "subst": [
        "subst_values",
        "subst_monadic",
        "subst_cont",
        "handle_with",
        "handle_seq",
        "modal_subst",
        "eval_meta",
        "normalize",
    ],
    "pretty": ["pretty", "type_text"],
}
AGGREGATE_HOOKS = {
    "evaluator": ["step", "is_value"],
    "subst": ["mk_append"],
    "syntax": ["free_vars", "fresh_name"],
}
KEEP_RETURNS = {"parser.parse_source", "subst.modal_subst"}


def make_hooks(mods: dict) -> list[Hook]:
    hooks = []
    for table, aggregate in ((SPAN_HOOKS, False), (AGGREGATE_HOOKS, True)):
        for module, names in table.items():
            for fn in names:
                name = f"{module}.{fn}"
                code = getattr(mods[module], fn).__code__
                hooks.append(Hook(name, code, aggregate, name in KEEP_RETURNS))
    return hooks


class NodeCounter:
    """Counts syntax nodes of a term as a tree (shared subterms count once per
    occurrence, as they would print).  Types, theories and spans are not
    nodes."""

    def __init__(self, syntax):
        S = syntax
        self.node_types = (S.Expr, S.Comp, S.Stmt, S.Handler, S.HSeq, S.OpClause, S.RetClause, S.HClause)
        self._fields: dict[type, tuple[str, ...]] = {}

    def count(self, term) -> int:
        node_types = self.node_types
        n = 0
        stack = [term]
        while stack:
            t = stack.pop()
            n += 1
            names = self._fields.get(type(t))
            if names is None:
                names = tuple(f.name for f in dataclasses.fields(t))
                self._fields[type(t)] = names
            for name in names:
                v = getattr(t, name)
                if isinstance(v, node_types):
                    stack.append(v)
                elif isinstance(v, tuple):
                    stack.extend(x for x in v if isinstance(x, node_types))
        return n


@dataclass
class TracedResult:
    metrics: dict
    outcomes: list[Outcome]
    untraced_outcomes: list[Outcome]
    spans: list
    program_rows: list


def traced_run(mods: dict, pipeline: Pipeline, progs: list[Program]) -> TracedResult:
    """One untraced pass (for the tracing overhead and the output check), then
    one traced pass over the same programs."""
    clock = time.perf_counter
    untraced_lat, untraced_out = [], []
    for p in progs:
        gc.collect()
        t0 = clock()
        untraced_out.append(pipeline.run(p))
        untraced_lat.append(clock() - t0)

    hooks = make_hooks(mods)
    tracer = Tracer(hooks)
    counter = NodeCounter(mods["syntax"])
    aggregates = [i for i, h in enumerate(hooks) if h.aggregate]
    traced_lat, traced_out, program_rows = [], [], []
    modal_nodes = parse_nodes = tokens = 0
    # Nodes and infer_term time of the programs that typecheck: the checker
    # stops early on an ill-typed one, so its nodes were not all checked.
    checked_nodes, checked_s = 0, 0.0
    infer = next(i for i, h in enumerate(hooks) if h.name == "typecheck.infer_term")
    tokenize = mods["parser"].tokenize
    for p in progs:
        gc.collect()
        before = [(tracer.calls[i], tracer.total[i], tracer.self_time[i]) for i in aggregates]
        infer_before = tracer.total[infer]
        t0 = clock()
        out = tracer.run(p.pid, pipeline.run, p)
        traced_lat.append(clock() - t0)
        traced_out.append(out)
        for (c0, t_0, s0), i in zip(before, aggregates):
            if tracer.calls[i] != c0:
                program_rows.append(
                    [p.pid, hooks[i].name, tracer.calls[i] - c0, tracer.total[i] - t_0, tracer.self_time[i] - s0]
                )
        for i, value in tracer.take_returns():
            if hooks[i].name == "subst.modal_subst":
                modal_nodes += counter.count(value)
            elif value.main is not None:
                nodes = counter.count(value.main)
                parse_nodes += nodes
                if out.layer not in ("parser", "typecheck") and not (out.text or "").startswith("type-error "):
                    checked_nodes += nodes
                    checked_s += tracer.total[infer] - infer_before
        tokens += len(tokenize(p.source))

    stats = tracer.by_name()

    def calls(name):
        return stats[name][0]

    def ms(name):
        return stats[name][1] * 1e3

    def self_ms(name):
        return stats[name][2] * 1e3

    layer_self = {layer: sum(s[2] for n, s in stats.items() if n.startswith(layer + ".")) for layer in LAYERS}
    traced_total = sum(layer_self.values()) or 1.0
    steps = sum(o.steps for o in traced_out)
    evaluate_ms = ms("evaluator.evaluate")
    failures = {layer: sum(o.layer == layer for o in traced_out) for layer in ("parser", "typecheck", "evaluator")}

    def per_step(n):
        return n / steps if steps else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {
        "syntax.free_vars.calls": (calls("syntax.free_vars"), "count"),
        "syntax.free_vars.ms": (ms("syntax.free_vars"), "ms"),
        "syntax.free_vars.share": (ratio(ms("syntax.free_vars"), evaluate_ms), "frac"),
        "syntax.fresh_name.calls": (calls("syntax.fresh_name"), "count"),
        "syntax.fresh_name.rename_ratio": (ratio(tracer.renames, calls("syntax.fresh_name")), "frac"),
        "syntax.fresh_name.renames": (tracer.renames, "count"),
        "subst.modal_subst.calls": (calls("subst.modal_subst"), "count"),
        "subst.modal_subst.ms": (ms("subst.modal_subst"), "ms"),
        "subst.subst_values.calls": (calls("subst.subst_values"), "count"),
        "subst.subst_values.ms": (ms("subst.subst_values"), "ms"),
        "subst.self_ms": (layer_self["subst"] * 1e3, "ms"),
        "subst.out_nodes": (modal_nodes, "count"),
        "subst.mk_append.calls": (calls("subst.mk_append"), "count"),
        "subst.mk_append.ms": (ms("subst.mk_append"), "ms"),
        "pretty.pretty.ms": (ms("pretty.pretty"), "ms"),
        "pretty.chars_out": (sum(len(o.text) for o in traced_out if o.text is not None), "count"),
        "evaluator.evaluate.ms": (evaluate_ms, "ms"),
        "evaluator.steps": (steps, "count"),
        "evaluator.step.calls_per_step": (per_step(calls("evaluator.step")), "calls/step"),
        "evaluator.is_value.calls_per_step": (per_step(calls("evaluator.is_value")), "calls/step"),
        "evaluator.step.self_ms": (self_ms("evaluator.step"), "ms"),
        "evaluator.is_value.self_ms": (self_ms("evaluator.is_value"), "ms"),
        "evaluator.stepper.share": (
            (stats["evaluator.step"][2] + stats["evaluator.is_value"][2]) / traced_total,
            "frac",
        ),
        "parser.parse_source.ms": (ms("parser.parse_source"), "ms"),
        "parser.tokens_per_s": (ratio(tokens, stats["parser.parse_source"][1]), "1/s"),
        "parser.nodes_out": (parse_nodes, "count"),
        "typecheck.infer_term.ms": (ms("typecheck.infer_term"), "ms"),
        "typecheck.nodes_per_s": (ratio(checked_nodes, checked_s), "1/s"),
        "parser.failures": (failures["parser"], "count"),
        "typecheck.failures": (failures["typecheck"], "count"),
        "evaluator.failures": (failures["evaluator"], "count"),
        "trace.overhead": (
            ratio(nearest_rank(traced_lat, 0.5), nearest_rank(untraced_lat, 0.5)),
            "ratio",
        ),
    }
    for layer in LAYERS:
        metrics[f"{layer}.share"] = (layer_self[layer] / traced_total, "frac")
    return TracedResult(metrics, traced_out, untraced_out, list(tracer.span_rows()), program_rows)


def is_count(name: str, unit: str) -> bool:
    """Metrics of a traced run that must repeat exactly for the same seed."""
    return unit in ("count", "calls/step") or name.endswith(".rename_ratio")
