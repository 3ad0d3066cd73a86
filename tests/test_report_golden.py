"""The default-config report, pinned check by check.

`data/report_golden.json` holds, for seeds 1, 7 and 42, every record of the
default report as (suite, check, float.hex(residual), tolerance, passed).
A change that moves any residual, even by one ulp, fails here and has to
name the move.  The environment block of the report is not pinned.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from carfield import default_config, run_report

GOLDEN = json.loads((Path(__file__).parent / "data" / "report_golden.json").read_text())


@pytest.mark.parametrize("seed", sorted(GOLDEN, key=int))
def test_default_report_matches_golden(seed):
    report = run_report(replace(default_config(), seed=int(seed)))
    got = [
        [r["suite"], r["check"], float.hex(r["residual"]), r["tolerance"], r["passed"]]
        for r in report["records"]
    ]
    assert got == GOLDEN[seed]
    assert report["counts"] == {"total": 69, "passed": 69}
