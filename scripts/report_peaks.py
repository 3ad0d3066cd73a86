#!/usr/bin/env python3
"""Print each suite's wall time and tracemalloc peak for one report config.

Each suite runs three times in one process: once to warm the caches (its
checks are counted from this run), once untraced for its wall time, and once
under tracemalloc for its peak, the most memory it held at once above what
was held when it started.  The peaks count what Python and numpy allocate,
so each adds to the process's resident size at import, not to that of the
suites before it.

    python3 scripts/report_peaks.py
    python3 scripts/report_peaks.py --config configs/default.json --suite symmetries

The exit code is 0 when every check passed and 1 when one failed. A config
the report refuses (a bad file, an unknown suite) exits 2 with one line on
stderr, as the carfield CLI does.
"""

import argparse
import time
import tracemalloc

from carfield.config import default_config, load_config
from carfield.errors import CarfieldError, exit_unfinished
from carfield.suites import SUITE_ORDER, run_suite


def measure(name: str, config) -> tuple[int, int, float, int]:
    """(passed, checks, wall seconds, traced peak bytes) of one suite on a warm process."""
    records = run_suite(name, config)
    start = time.perf_counter()
    run_suite(name, config)
    wall = time.perf_counter() - start
    tracemalloc.start()
    try:
        run_suite(name, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return sum(r.passed for r in records), len(records), wall, peak


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", metavar="PATH", default=None,
                        help="JSON run configuration; defaults are used when omitted")
    parser.add_argument("--suite", action="append", default=None, metavar="NAME",
                        help=f"suite to measure, repeatable; choices: {', '.join(SUITE_ORDER)} "
                        "(default: all)")
    args = parser.parse_args(argv)

    rows = []
    try:
        config = load_config(args.config) if args.config else default_config()
        for name in args.suite or SUITE_ORDER:
            rows.append((name, *measure(name, config)))
    except CarfieldError as exc:
        return exit_unfinished(exc)

    print(f"{'suite':<14} {'checks':>7} {'wall_ms':>9} {'peak_MB':>8}")
    for name, passed, checks, wall, peak in rows:
        print(f"{name:<14} {f'{passed}/{checks}':>7} {wall * 1e3:9.1f} {peak / 1e6:8.2f}")
    return 0 if all(passed == checks for _, passed, checks, _, _ in rows) else 1


if __name__ == "__main__":
    raise SystemExit(main())
