#!/usr/bin/env python3
"""Sweep the finite-N vacuum matrix elements against the determinant limit.

For each requested order M the script draws seeded random smearing
amplitudes, evaluates <O_N| c(f_M)..c(f_1) c(g_1)'..c(g_M)' |O_N> for each
N in the sweep list, and compares with det of the Z-weighted Gram matrix.
On a one-mode lattice the evaluation is exact (Gaussian integers over a
power of two) and the deviation is identically zero at every N; with two or
three modes the deviation decays like 1/N, which is the regime worth
plotting.  Above M = 2 x modes the Gram matrix is singular and the limit
is 0; the script notes such orders on stderr.

Typical use:

    python3 scripts/determinant_limit_sweep.py --modes 2 --orders 2,3 --n 2,4,8,16
    python3 scripts/determinant_limit_sweep.py --modes 3 --orders 2,3,4 --n 100,10000,1000000
    python3 scripts/determinant_limit_sweep.py --modes 1 --out sweep.json
"""

import argparse
import json
import sys

from carfield.draws import default_rng
from carfield.errors import CarfieldError, exit_unfinished
from carfield.modes import (
    SingleOscillatorSpace,
    rapidity_lattice,
    restricted_lattice,
    uniform_profile,
)
from carfield.noscillator import determinant_limit_convergence


def parse_int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def build_space(modes: int) -> SingleOscillatorSpace:
    if modes == 1:
        return SingleOscillatorSpace(rapidity_lattice(0, 0.4, 1.0))
    if modes == 2:
        return SingleOscillatorSpace(restricted_lattice(rapidity_lattice(1, 0.4, 1.0), (0, 2)))
    return SingleOscillatorSpace(rapidity_lattice(1, 0.4, 1.0))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--orders", type=parse_int_list, default=[2, 3],
                        help="comma-separated product orders M (default 2,3)")
    parser.add_argument("--n", type=parse_int_list, default=[2, 4, 8, 16, 32, 64],
                        help="comma-separated oscillator numbers N (default 2,4,8,16,32,64)")
    parser.add_argument("--modes", type=int, default=2, choices=(1, 2, 3),
                        help="lattice modes; 1 runs the exact-arithmetic path, "
                        "3 the full J = 1 rapidity lattice")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", help="write the records as JSON to this path")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    space = build_space(args.modes)
    profile = uniform_profile(space.lattice)
    rng = default_rng(args.seed)
    shape = (space.lattice.size, 2)

    rows = []
    for m in args.orders:
        fs = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(m)]
        gs = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(m)]
        try:
            report = determinant_limit_convergence(space, profile, fs, gs, args.n)
        except CarfieldError as exc:
            return exit_unfinished(exc)
        print(f"M={m}  limit={report.limit:.12g}  exact={report.exact}  "
              f"monotone={report.monotone}  final_ratio={report.final_ratio}")
        for rec in report.records:
            print(f"    N={rec.n:3d}  lhs={rec.lhs:.12g}  deviation={rec.deviation:.3e}")
            rows.append({
                "M": rec.m,
                "N": rec.n,
                "lhs": [rec.lhs.real, rec.lhs.imag],
                "limit": [rec.limit.real, rec.limit.imag],
                "deviation": rec.deviation,
            })
        if not report.monotone:
            print("    warning: deviation sequence is not monotone", file=sys.stderr)

    # each mode carries two spin states, so the Gram matrix has rank <= 2 x modes
    rank_bound = 2 * space.lattice.size
    degenerate = [m for m in args.orders if m > rank_bound]
    if degenerate:
        print(f"note: the Gram matrix of {space.lattice.size} mode(s) has rank at most "
              f"{rank_bound}, so at M = {', '.join(map(str, degenerate))} the limit is 0 "
              "up to rounding and the deviations measure no convergence", file=sys.stderr)

    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump({"seed": args.seed, "modes": args.modes, "records": rows},
                          handle, indent=2)
                handle.write("\n")
        except OSError as exc:
            print(f"cannot write records to {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
        print(f"wrote {len(rows)} records to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
