"""The default-config report, pinned check by check.

`data/report_golden.json` holds, for seeds 1, 7 and 42, every record of the
default report as (suite, check, float.hex(residual), tolerance, passed).
`data/report_golden_boosts.json` pins the `spinor` and `symmetries` rows
the same way for boosts other than the default one step: backward, up to
the lattice edge, and on 7- and 3-mode lattices, where the interior and
the modes shifted off the lattice cover the most of it.
`data/report_golden_drawn.json` pins every row of six configs drawn at
random, with a fixed seed, from the ranges config load accepts, by
`scripts/draw_golden_configs.py`: each pair of lattice kind and profile
kind once, failing rows included.
A change that moves any residual, even by one ulp, fails here and has to
name the move.  The environment block of the report is not pinned.  The
pinned values do not depend on the number of BLAS or OpenMP threads.
"""

import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import carfield
from carfield import default_config, run_report
from carfield.config import config_from_dict

DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "report_golden.json").read_text())
BOOST_GOLDEN = json.loads((DATA / "report_golden_boosts.json").read_text())
DRAWN_GOLDEN = json.loads((DATA / "report_golden_drawn.json").read_text())


def _pinned_rows(report):
    return [
        [r["suite"], r["check"], float.hex(r["residual"]), r["tolerance"], r["passed"]]
        for r in report["records"]
    ]


@pytest.mark.parametrize("seed", sorted(GOLDEN, key=int))
def test_default_report_matches_golden(seed):
    report = run_report(replace(default_config(), seed=int(seed)))
    assert _pinned_rows(report) == GOLDEN[seed]
    assert report["counts"] == {"total": 69, "passed": 69}


@pytest.mark.parametrize("case", BOOST_GOLDEN,
                         ids=[json.dumps(c["config"], sort_keys=True) for c in BOOST_GOLDEN])
def test_boost_reports_match_golden(case):
    report = run_report(config_from_dict(case["config"]), ["spinor", "symmetries"])
    assert _pinned_rows(report) == case["rows"]
    assert report["overall_pass"]


@pytest.mark.parametrize("case", DRAWN_GOLDEN,
                         ids=[json.dumps(c["config"], sort_keys=True) for c in DRAWN_GOLDEN])
def test_drawn_reports_match_golden(case):
    report = run_report(config_from_dict(case["config"]), case["suites"])
    assert _pinned_rows(report) == case["rows"]


def test_drawn_configs_are_the_seeded_draws():
    # the pinned configs are the script's draws at its fixed seed, not a choice
    path = Path(__file__).resolve().parents[1] / "scripts" / "draw_golden_configs.py"
    spec = importlib.util.spec_from_file_location("draw_golden_configs", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    rng = script.random.Random(script.SEED)
    assert len(DRAWN_GOLDEN) == len(script.LATTICE_KINDS) * len(script.PROFILE_KINDS)
    drawn = [script.draw_config(rng, k)[0] for k in range(len(DRAWN_GOLDEN))]
    assert drawn == [case["config"] for case in DRAWN_GOLDEN]


def _run_child(script, **env):
    """Run a Python script in a fresh interpreter that imports this carfield; its stdout."""
    src = str(Path(carfield.__file__).resolve().parents[1])
    env = dict(os.environ, **env,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    return done.stdout


def test_single_thread_report_matches_golden():
    # the thread counts must be set before numpy loads, so the report runs in
    # a child process
    script = (
        "import json\n"
        "from dataclasses import replace\n"
        "from carfield import default_config, run_report\n"
        "print(json.dumps(run_report(replace(default_config(), seed=1))))\n"
    )
    out = _run_child(script, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    assert _pinned_rows(json.loads(out)) == GOLDEN["1"]


@pytest.fixture(scope="module")
def report_modules():
    """The modules a fresh process holds after `import carfield.cli` and a default report."""
    script = (
        "import json, sys\n"
        "import carfield.cli\n"
        "from carfield import default_config, run_report\n"
        "report = run_report(default_config())\n"
        "print(json.dumps([report['counts'], sorted(sys.modules)]))\n"
    )
    counts, modules = json.loads(_run_child(script))
    assert counts == {"total": 69, "passed": 69}
    return modules


def test_report_loads_no_scipy(report_modules):
    # carfield owns its CSR type and exponentials; scipy.sparse
    # alone held about 22 MB of a report's 60 MB resident memory
    assert [name for name in report_modules if name.split(".")[0] == "scipy"] == []


def test_report_loads_no_numpy_random(report_modules):
    # carfield owns its seeded draws; numpy's random package loaded 11
    # extension modules and, through secrets and hashlib, OpenSSL's libcrypto
    assert [name for name in report_modules
            if name.startswith("numpy.random") or name in ("secrets", "hashlib")] == []


def test_report_loads_no_fractions(report_modules):
    # the exact path runs in Gaussian integers over a power of two; fractions
    # would load decimal and its C extension into every report
    assert [name for name in report_modules if name in ("fractions", "decimal")] == []
