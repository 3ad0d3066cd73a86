"""Workloads of the carfield benchmark: seeded inputs, one operation, its gate.

Each workload builds its inputs from the seed alone, runs one operation on
them through carfield's public functions, and checks the operation's output
with a gate that does not depend on the seed.  A gate returns the number of
verified items, or raises GateFailure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import carfield
from carfield import cli

REFERENCE_CHECKS = Path(__file__).with_name("reference_checks.json")

SWEEP_ORDERS = (1, 2, 3, 4)
SWEEP_N = (2, 4, 8, 16, 32, 64)


class GateFailure(Exception):
    """An operation returned an output that fails the workload's gate."""


@dataclass(frozen=True)
class ReportInputs:
    argv: tuple[str, ...]
    out: Path
    reference: tuple[tuple[str, str], ...]


class ReportDefault:
    """One full default-config report through the CLI entry point."""

    name = "report_default"

    def build(self, seed: int, out_dir: Path) -> ReportInputs:
        out = out_dir / f"report_seed{seed}.json"
        reference = tuple(tuple(pair) for pair in json.loads(REFERENCE_CHECKS.read_text()))
        return ReportInputs(argv=("--seed", str(seed), "--out", str(out)), out=out,
                            reference=reference)

    def operate(self, inputs: ReportInputs) -> int:
        inputs.out.unlink(missing_ok=True)
        return cli.main(list(inputs.argv))

    def check(self, inputs: ReportInputs, exit_code: int) -> int:
        if exit_code != 0:
            raise GateFailure(f"exit code {exit_code}")
        report = json.loads(inputs.out.read_text())
        records = report["records"]
        names = tuple((r["suite"], r["check"]) for r in records)
        if names != inputs.reference:
            raise GateFailure("check list differs from reference_checks.json")
        failed = [f"{r['suite']}.{r['check']}" for r in records if not r["passed"]]
        if failed or report["counts"] != {"total": len(names), "passed": len(names)}:
            raise GateFailure(f"failed checks: {failed}")
        return len(records)


@dataclass(frozen=True)
class SweepInputs:
    space: carfield.SingleOscillatorSpace
    profile: carfield.VacuumProfile
    tables: tuple[tuple[list[np.ndarray], list[np.ndarray]], ...]  # (fs, gs) per order
    n_list: tuple[int, ...]


def amplitude_tables(seed: int, modes: int) -> tuple:
    """Seeded complex (fs, gs) tables per order, drawn as the sweep script does."""
    rng = np.random.default_rng(seed)
    shape = (modes, 2)
    tables = []
    for m in SWEEP_ORDERS:
        fs = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(m)]
        gs = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(m)]
        tables.append((fs, gs))
    return tuple(tables)


class ExactSweep:
    """determinant_limit_convergence over orders 1..4 and N = 2..64 on one mode.

    On a one-mode lattice the call routes through the exact rational walk and
    the rational determinant, where the finite-N element equals its limit.
    """

    name = "sweep_exact"

    def build(self, seed: int, out_dir: Path) -> SweepInputs:
        lattice = carfield.rapidity_lattice(0, 0.4, 1.0)
        return SweepInputs(
            space=carfield.SingleOscillatorSpace(lattice),
            profile=carfield.uniform_profile(lattice),
            tables=amplitude_tables(seed, lattice.size),
            n_list=SWEEP_N,
        )

    def operate(self, inputs: SweepInputs) -> list:
        return [
            carfield.determinant_limit_convergence(inputs.space, inputs.profile, fs, gs,
                                                   list(inputs.n_list))
            for fs, gs in inputs.tables
        ]

    def check(self, inputs: SweepInputs, reports: list) -> int:
        items = 0
        for m, rep in zip(SWEEP_ORDERS, reports, strict=True):
            devs = rep.deviations()
            if rep.m != m or [r.n for r in rep.records] != list(inputs.n_list):
                raise GateFailure(f"M={m}: report covers M={rep.m}, N={[r.n for r in rep.records]}")
            if not rep.exact or any(d != 0 for d in devs) or not rep.monotone:
                raise GateFailure(f"M={m}: exact={rep.exact}, deviations {devs}")
            items += len(rep.records)
        return items


WORKLOADS = {w.name: w for w in (ReportDefault(), ExactSweep())}
