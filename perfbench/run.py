#!/usr/bin/env python3
"""carfield benchmark: run one workload in a closed loop and print its metrics.

    python3 perfbench/run.py --workload report_default --seed 7 --seconds 30 --trace 0

One client, one process, one thread: each operation starts when the previous
one returns.  With --trace 0 the run times untraced operations and reports the
end-to-end metrics; with --trace 1 it alternates untraced and traced
operations and reports the per-layer metrics.  Every operation's output is
checked by the workload's gate.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from spans import LAYER_METRICS, Tracer, layer_metrics, summarize, tracing, unsteady_counts

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("report_default", "sweep_exact")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# the end-to-end metrics BENCHMARK.json lists; op_s_p50 and fail_ratio are
# printed and recorded too, but not listed (see README.md)
END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
SETUP_RUNS = 5
MIN_OPS = 3


@dataclass
class LoopResult:
    attempted: int = 0
    failed: int = 0
    items: int = 0
    times: list[float] = field(default_factory=list)
    traced_times: list[float] = field(default_factory=list)
    layers: list[dict] = field(default_factory=list)
    spans: list[list] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)


def attempt(workload, inputs, result: LoopResult, tracer: Tracer | None = None) -> bool:
    """Run one operation, gate its output, and record its wall time; True if it passed."""
    result.attempted += 1
    error = None
    with tracing(tracer) if tracer is not None else nullcontext():
        start = perf_counter()
        try:
            output = workload.operate(inputs)
        except Exception as exc:  # a raise fails this operation, not the run
            error = exc
        elapsed = perf_counter() - start
    (result.times if tracer is None else result.traced_times).append(elapsed)
    if error is None:
        try:
            result.items += workload.check(inputs, output)
            return True
        except Exception as exc:  # a gate failure or a malformed output
            error = exc
    result.failed += 1
    result.failures.append(f"op {result.attempted}: {type(error).__name__}: {error}")
    if result.failed == 1:
        traceback.print_exception(error, file=sys.stderr)
    return False


def closed_loop(workload, inputs, seconds: float, trace: bool) -> LoopResult:
    """One warm-up operation, gated but not timed, then operations back to back for `seconds`.

    In a traced run each untraced operation is followed by a traced one, so
    the overhead ratio compares neighbours.  Layer metrics are kept only for
    traced operations that passed.
    """
    result = LoopResult()
    attempt(workload, inputs, result)
    result.times.clear()
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(result.times) < MIN_OPS:
        attempt(workload, inputs, result)
        if trace:
            tracer = Tracer()
            if attempt(workload, inputs, result, tracer):
                result.layers.append(layer_metrics(tracer.spans))
                result.spans.append(tracer.spans)
    return result


def probe_setup(workload: str, seed: int, runs: int) -> list[float]:
    """Set-up times of fresh interpreters; the first run, which fills caches, is dropped."""
    times = []
    for _ in range(runs + 1):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed), str(OUT_DIR)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times[1:]


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest of p99 and p90 that has at least ten samples beyond it."""
    for pct in (99, 90):
        if len(values) * (100 - pct) >= 1000:
            return pct, statistics.quantiles(values, n=100)[pct - 1]
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 reports per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def traced_metrics(args, setup_spans: list, result: LoopResult, record: dict) -> dict:
    """Per-layer values of a traced run; also writes its spans."""
    values = summarize(layer_metrics(setup_spans), result.layers,
                       result.traced_times, result.times)
    record["traced_ops"] = len(result.traced_times)
    record["unsteady_counts"] = unsteady_counts(result.layers)
    trace_path = OUT_DIR / f"spans_{args.workload}_seed{args.seed}.json"
    trace_path.write_text(json.dumps({"fields": ["name", "parent", "start", "end", "attr"],
                                      "setup": setup_spans, "ops": result.spans}))
    print(f"spans of {len(result.spans)} traced ops written to {trace_path}")
    if result.layers:
        traced_p50 = statistics.median(result.traced_times)
        share = {key: statistics.median(op[key] for op in result.layers) / traced_p50
                 for key in ("modes.embed_s", "noscillator.convergence_s")}
        print("share of the median traced op: "
              + ", ".join(f"{key} {value:.3f}" for key, value in share.items()))
    if record["unsteady_counts"]:
        print(f"warning: counts differ between ops: {record['unsteady_counts']}")
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}


def untraced_metrics(setup: list[float], result: LoopResult) -> dict:
    values = {
        "setup_s": statistics.median(setup),
        "items_per_s": result.items / sum(result.times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "carfield" / "__init__.py").is_file():
        print(f"error: carfield sources not found under {SRC}", file=sys.stderr)
        return 2
    # BLAS and OpenMP pools are sized when numpy loads, here and in the set-up probes
    os.environ.update({var: "1" for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)

    setup = [] if args.trace else probe_setup(args.workload, args.seed, SETUP_RUNS)

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    setup_tracer = Tracer()
    with tracing(setup_tracer) if args.trace else nullcontext():
        inputs = workload.build(args.seed, OUT_DIR)
    result = closed_loop(workload, inputs, args.seconds, bool(args.trace))

    env = environment(args.seed)
    q1, p50, q3 = statistics.quantiles(result.times, n=4)
    tail = tail_percentile(result.times)
    record = {"workload": args.workload, "trace": args.trace, "environment": env,
              "attempted": result.attempted, "failed": result.failed,
              "fail_ratio": result.failed / result.attempted,
              "op_s": {"p25": q1, "p50": p50, "p75": q3, "n": len(result.times),
                       "tail": tail, "values": result.times},
              "setup_s": setup, "failures": result.failures}
    if args.trace:
        metrics = traced_metrics(args, setup_tracer.spans, result, record)
    else:
        metrics = untraced_metrics(setup, result)
    record["metrics"] = metrics
    (OUT_DIR / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  env {json.dumps(env)}")
    for name, metric in metrics.items():
        print(f"  {name:44s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'op_s_p50':44s} {p50:.6g} s  (p25 {q1:.6g}, p75 {q3:.6g}, n = {len(result.times)})")
    if tail is None:
        print(f"  {'op_s tail':44s} none: fewer than 10 ops lie beyond p90")
    else:
        print(f"  {f'op_s_p{tail[0]}':44s} {tail[1]:.6g} s")
    print(f"  {'fail_ratio':44s} {result.failed / result.attempted:.6g} ratio  "
          f"({result.failed} of {result.attempted} ops failed)")
    for line in result.failures[:10]:
        print(f"  failed {line}")
    print(json.dumps({"correct": result.failed == 0, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
