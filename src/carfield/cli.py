"""Command-line harness: run verification suites and emit a report."""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

from .config import default_config, load_config
from .errors import CarfieldError, exit_unfinished
from .suites import SUITE_ORDER, render_text, run_report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carfield",
        description="Verify the oscillator representation of the fermionic field "
        "on a momentum lattice and report per-identity residuals.",
    )
    parser.add_argument("--config", metavar="PATH", default=None,
                        help="JSON run configuration; defaults are used when omitted")
    parser.add_argument("--suite", action="append", default=None, metavar="NAME",
                        help=f"suite to run, repeatable or comma-separated; "
                        f"choices: {', '.join(SUITE_ORDER)} (default: all)")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write the report here instead of stdout")
    parser.add_argument("--format", choices=("json", "text"), default="json",
                        help="report format (default: json)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the configured random seed")
    return parser


def _selected_suites(raw: list[str] | None) -> list[str] | None:
    if raw is None:
        return None
    names = []
    for chunk in raw:
        names.extend(part.strip() for part in chunk.split(",") if part.strip())
    return names


# built once per process: parsing leaves a parser unchanged
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else default_config()
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        report = run_report(config, _selected_suites(args.suite))
    except CarfieldError as exc:
        return exit_unfinished(exc)

    if args.format == "json":
        payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        payload = render_text(report) + "\n"
    if args.out:
        try:
            Path(args.out).write_text(payload)
        except OSError as exc:
            print(f"cannot write report to {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(payload)
    return 0 if report["overall_pass"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
