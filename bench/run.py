"""The ecmtt benchmark.

One workload run, as BENCHMARK.json's command is called:

    python3 bench/run.py --workload oneshot_handlers --seed 1 --seconds 24 --trace 0

prints the end-to-end metrics (`--trace 0`) or the per-layer metrics from a
traced pass (`--trace 1`) as the last line, one JSON object.  Every workload
in one go, with output checks, the determinism check of the traced counts
and every metric with its unit:

    python3 bench/run.py --all

Steadiness: two sets of ten runs per workload on fresh seeds, compared
against the bounds in BENCHMARK.json:

    python3 bench/run.py --steadiness

Run from the root of a checkout; the benchmark imports ecmtt from `src/`.
See NOTES.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import measure
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 21
DEFAULT_SECONDS = 24
STEADY_SETS = 2
STEADY_RUNS = 10  # per workload and set


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
    )


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    try:
        mods = measure.import_ecmtt()
    except (measure.MissingProgram, ImportError) as e:
        print(f"cannot load ecmtt: {e}", file=sys.stderr)
        return 2
    progs = workloads.programs(workload, seed)
    pipeline = measure.Pipeline(mods)
    if not trace:
        setup_s = measure.setup_seconds(SETUP_REPEATS)
        result = measure.timed_run(pipeline, progs, seconds)
        correct = result.consistent and all(measure.is_ok(p, o) for p, o in zip(progs, result.outcomes))
        metrics = measure.end_to_end_metrics(result, setup_s)
        if math.isinf(metrics["latency_p90_ms"][0]):
            print("more than a tenth of the programs failed; p90 is undefined", file=sys.stderr)
            return 1
        print(f"machine speed scale {result.scale:.4f}")
        print(f"outputs {measure.outputs_digest(result.outcomes)}")
        print(result_line(correct, result.executions, result.failed, metrics))
        return 0

    traced = measure.traced_run(mods, pipeline, progs)
    same = [o.key() for o in traced.outcomes] == [o.key() for o in traced.untraced_outcomes]
    if not same:
        print("traced outputs differ from untraced ones", file=sys.stderr)
    correct = same and all(measure.is_ok(p, o) for p, o in zip(progs, traced.outcomes))
    failed = sum(not measure.is_ok(p, o) for p, o in zip(progs, traced.outcomes))
    write_trace(workload, seed, traced)
    print(f"outputs {measure.outputs_digest(traced.outcomes)}")
    print(result_line(correct, len(progs), failed, traced.metrics))
    return 0


def write_trace(workload: str, seed: int, traced: measure.TracedResult) -> None:
    """Spans and per-program aggregates, one JSON array per line."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace_{workload}_seed{seed}.jsonl"
    with path.open("w") as f:
        f.write('["span", "id", "name", "start", "end", "parent", "program"]\n')
        for row in traced.spans:
            f.write(json.dumps(["span"] + row) + "\n")
        f.write('["aggregate", "program", "name", "calls", "total_s", "self_s"]\n')
        for row in traced.program_rows:
            f.write(json.dumps(["aggregate"] + row) + "\n")


# ---------------------------------------------------------------------------
# Runs in fresh processes, for --all and --steadiness


def spawn(workload: str, seed: int, seconds: float, trace: bool) -> tuple[str, dict]:
    cmd = [
        sys.executable,
        str(BENCH_DIR / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        "1" if trace else "0",
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr.strip()}")
    digest = lines[-2].split()[1] if len(lines) > 1 and lines[-2].startswith("outputs ") else ""
    return digest, json.loads(lines[-1])


def run_all(seed: int, seconds: float) -> int:
    ok = True
    for workload in workloads.WORKLOADS:
        digest, plain = spawn(workload, seed, seconds, trace=False)
        digest1, traced1 = spawn(workload, seed, seconds, trace=True)
        digest2, traced2 = spawn(workload, seed, seconds, trace=True)
        counts = {
            name: m["value"] for name, m in traced1["metrics"].items() if measure.is_count(name, m["unit"])
        }
        counts2 = {name: traced2["metrics"][name]["value"] for name in counts}
        checks = {
            "outputs correct": plain["correct"] and traced1["correct"] and traced2["correct"],
            "traced outputs equal untraced": digest == digest1 == digest2,
            "traced counts repeat": counts == counts2,
        }
        print(f"== {workload} (seed {seed})")
        print(f"  programs run {plain['attempted']}, failed {plain['failed']}")
        for result in (plain, traced1):
            for name, m in result["metrics"].items():
                print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
        for name, passed in checks.items():
            print(f"  check: {name}: {'ok' if passed else 'FAILED'}")
            ok = ok and passed
        if counts != counts2:
            for name in counts:
                if counts[name] != counts2[name]:
                    print(f"    {name}: {counts[name]} then {counts2[name]}")
    return 0 if ok else 1


def quartile_spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


def run_steadiness(seconds: float) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    values: dict[tuple[int, str, str], list[float]] = {}
    for s in range(STEADY_SETS):
        for workload in workloads.WORKLOADS:
            for r in range(STEADY_RUNS):
                seed = 1000 * (s + 1) + r
                t0 = time.perf_counter()
                _, result = spawn(workload, seed, seconds, trace=False)
                took = time.perf_counter() - t0
                if not result["correct"]:
                    print(f"set {s + 1} {workload} seed {seed}: incorrect outputs")
                    return 1
                for m in metrics:
                    values.setdefault((s, workload, m["name"]), []).append(result["metrics"][m["name"]]["value"])
                shown = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.6g}" for m in metrics)
                print(f"set {s + 1} {workload} seed {seed} ({took:.1f} s): {shown}", flush=True)
    ok = True
    print(f"{'workload':18s} {'metric':16s} {'bound':>6s} " + " ".join(f"{'median' + str(s + 1):>12s} {'spread' + str(s + 1):>8s}" for s in range(STEADY_SETS)) + "   verdict")
    for workload in workloads.WORKLOADS:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            cells, verdict = [], "ok"
            medians = []
            for s in range(STEADY_SETS):
                vals = values[(s, workload, name)]
                spread = quartile_spread(vals)
                medians.append(statistics.median(vals))
                cells.append(f"{medians[-1]:12.6g} {spread:8.4f}")
                if spread > bound:
                    verdict = "SPREAD OVER BOUND"
                elif spread > bound / 3 and verdict == "ok":
                    verdict = "spread over bound/3"
            for later in medians[1:]:
                worse = (later - medians[0]) / medians[0]
                if m["better"] == "higher":
                    worse = -worse
                if worse > bound:
                    verdict = f"MEDIAN DRIFT {worse:.3f}"
            ok = ok and verdict in ("ok", "spread over bound/3")
            print(f"{workload:18s} {name:16s} {bound:6.3f} " + " ".join(cells) + f"   {verdict}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--all", action="store_true", help="every workload, checked, every metric")
    mode.add_argument("--steadiness", action="store_true", help="compare two sets of runs against the bounds")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.steadiness:
        return run_steadiness(args.seconds)
    if not args.workload:
        ap.error("give --workload, or --all, or --steadiness")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
