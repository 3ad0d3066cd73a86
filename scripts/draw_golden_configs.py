#!/usr/bin/env python3
"""Draw report configs at random and print their pinned rows as JSON.

Config k takes the lattice kind k mod 2 of (rapidity1d, grid3d) and the
profile kind k mod 3 of (uniform, gaussian, point), so six configs cover
every pair.  The other parameters are drawn from Python's `random.Random`
with the fixed seed SEED, over ranges that reach each bound config load has;
a draw that config load refuses is dropped and drawn again.  Grid configs
run without the symmetries suite, which needs a rapidity lattice.  Every
row is printed as the report gives it, failures included.

    python3 scripts/draw_golden_configs.py > tests/data/report_golden_drawn.json
"""

import json
import random

from carfield import run_report
from carfield.config import MAX_MODES, RunConfig, config_from_dict
from carfield.errors import ConfigError
from carfield.modes import GRID_3D, RAPIDITY_1D
from carfield.suites import SUITE_ORDER

LATTICE_KINDS = (RAPIDITY_1D, GRID_3D)
PROFILE_KINDS = ("uniform", "gaussian", "point")
SEED = 2029


def _log_uniform(rng: random.Random, low: float, high: float) -> float:
    return float(f"{low * (high / low) ** rng.random():.4g}")


def _vector(rng: random.Random) -> list[float]:
    return [float(f"{rng.uniform(-1, 1):.4g}") for _ in range(4)]


def _draw_once(rng: random.Random, lattice_kind: str, profile_kind: str) -> dict:
    lattice = {"mode": lattice_kind, "m": _log_uniform(rng, 0.05, 20)}
    if lattice_kind == RAPIDITY_1D:
        lattice["j_max"] = rng.randint(1, (MAX_MODES - 1) // 2)
        lattice["delta_eta"] = _log_uniform(rng, 0.02, 3.6)
        modes, steps = 2 * lattice["j_max"] + 1, lattice["j_max"]
    else:
        lattice["grid_n"] = rng.randint(1, round(MAX_MODES ** (1 / 3)))
        lattice["grid_spacing"] = _log_uniform(rng, 0.01, 20)
        modes, steps = lattice["grid_n"] ** 3, 3
    profile = {"kind": profile_kind}
    if profile_kind == "gaussian":
        profile["width"] = _log_uniform(rng, 0.05, 20)
        profile["center"] = float(f"{rng.uniform(-3, 3):.4g}")
    elif profile_kind == "point":
        profile["index"] = rng.randrange(modes)
    return {
        "lattice": lattice,
        "profile": profile,
        "seed": rng.randrange(2**31),
        "boost_steps": rng.choice([s for s in range(-steps, steps + 1) if s]),
        "displacement": _vector(rng),
        "field_point": _vector(rng),
    }


def draw_config(rng: random.Random, k: int) -> tuple[dict, RunConfig]:
    """Config k as a dict and as loaded; draws that config load refuses are dropped."""
    kinds = LATTICE_KINDS[k % 2], PROFILE_KINDS[k % 3]
    while True:
        data = _draw_once(rng, *kinds)
        try:
            return data, config_from_dict(data)
        except ConfigError:
            continue


def main() -> int:
    rng = random.Random(SEED)
    cases = []
    for k in range(len(LATTICE_KINDS) * len(PROFILE_KINDS)):
        data, config = draw_config(rng, k)
        suites = [s for s in SUITE_ORDER
                  if s != "symmetries" or config.lattice.mode == RAPIDITY_1D]
        report = run_report(config, suites)
        rows = [[r["suite"], r["check"], float.hex(r["residual"]), r["tolerance"], r["passed"]]
                for r in report["records"]]
        cases.append((data, suites, rows))
    # one row per line, as the other golden files are laid out
    print("[")
    for n, (data, suites, rows) in enumerate(cases):
        print("  {")
        print(f'    "config": {json.dumps(data, sort_keys=True)},')
        print(f'    "suites": {json.dumps(suites)},')
        print('    "rows": [')
        print(",\n".join(f"      {json.dumps(row)}" for row in rows))
        print("    ]")
        print("  }" + ("," if n + 1 < len(cases) else ""))
    print("]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
