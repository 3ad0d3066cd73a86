#!/usr/bin/env python3
"""Run the benchmark once per seed and summarize each metric across the runs.

    python3 perfbench/spread.py --workload sweep_exact --seeds 0-9 --seconds 30
    python3 perfbench/spread.py --workload sweep_exact --seeds 0-9 --out perfbench/baseline.json

For every metric it prints the median, the quartiles (statistics.quantiles,
n=4) and the spread, (q3 - q1) / median.  Untraced runs add op_s_p50 from
each run's record.  With --out the summary is stored under the workload's
name in that JSON file, next to other workloads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR.parent / ".perfbench_out"


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name, first in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else None, "values": values}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-9"),
                        help="inclusive range, e.g. 0-9")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="JSON file to store the summary in, keyed by workload")
    args = parser.parse_args(argv)

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True,
        )
        run = json.loads(proc.stdout.strip().splitlines()[-1])
        if not args.trace:
            record = json.loads(
                (OUT_DIR / f"result_{args.workload}_seed{seed}_trace0.json").read_text())
            run["metrics"]["op_s_p50"] = {"value": record["op_s"]["p50"], "unit": "s"}
        if not run["correct"]:
            print(f"seed {seed}: {run['failed']} of {run['attempted']} operations failed")
        runs.append(run)
        print(f"seed {seed}: " + ", ".join(
            f"{k} {v['value']:.6g}" for k, v in run["metrics"].items()), flush=True)

    summary = summarize(runs)
    for name, s in summary.items():
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{name:44s} median {s['median']:.6g} {s['unit']}  "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {spread}")
    if args.out:
        path = Path(args.out)
        stored = json.loads(path.read_text()) if path.exists() else {}
        stored[args.workload] = {
            "seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": summary,
        }
        path.write_text(json.dumps(stored, indent=2) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
