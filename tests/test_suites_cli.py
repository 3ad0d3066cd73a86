"""Report plumbing: suite registry, determinism, config I/O, CLI exit codes."""

import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from carfield import modes, noscillator, register, sparse, spinors, suites, symmetries
from carfield.cli import main
from carfield.config import (
    MAX_ENERGY,
    MAX_RAPIDITY,
    LatticeConfig,
    ProfileConfig,
    RunConfig,
    config_from_dict,
    default_config,
    load_config,
)
from carfield.errors import ConfigError
from carfield.register import REGISTER_DIM, conjugation_report
from carfield.suites import SUITE_ORDER, _rec, render_text, run_report, run_suite


@pytest.fixture(scope="module")
def fast_config():
    # register-level suite only needs the lattice for bookkeeping, so a small
    # one keeps the plumbing tests quick
    return RunConfig(lattice=LatticeConfig(j_max=2), profile=ProfileConfig())


# --- configuration


def test_default_config_roundtrip():
    config = default_config()
    assert config_from_dict(config.to_dict()) == config


def test_config_rejects_unknown_keys():
    data = default_config().to_dict()
    data["typo"] = 1
    with pytest.raises(ConfigError):
        config_from_dict(data)
    data = default_config().to_dict()
    data["lattice"]["typo"] = 1
    with pytest.raises(ConfigError):
        config_from_dict(data)


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(seed=-1)
    with pytest.raises(ConfigError):
        RunConfig(boost_steps=0)
    with pytest.raises(ConfigError):
        RunConfig(displacement=(1.0, 2.0))
    with pytest.raises(ConfigError):
        LatticeConfig(mode="weird")
    with pytest.raises(ConfigError):
        ProfileConfig(kind="bumpy")


def test_profile_config_builds_each_kind():
    lattice = LatticeConfig(j_max=2).build()
    for kind in ("uniform", "gaussian", "point"):
        profile = ProfileConfig(kind=kind, index=1).build(lattice)
        assert np.sum(lattice.weights * profile.z) == pytest.approx(1.0)


def test_load_config(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"seed": 11, "lattice": {"j_max": 2}}))
    config = load_config(str(path))
    assert config.seed == 11
    assert config.lattice.j_max == 2
    with pytest.raises(ConfigError) as missing:
        load_config(str(tmp_path / "missing.json"))
    assert str(missing.value).count("missing.json") == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad))


# --- suite runner


def test_unknown_suite_rejected(fast_config):
    with pytest.raises(ConfigError):
        run_suite("nope", fast_config)
    with pytest.raises(ConfigError):
        run_report(fast_config, ["jw_car", "nope"])


def test_report_structure(fast_config):
    report = run_report(fast_config, ["jw_car"])
    assert report["suites"] == ["jw_car"]
    assert report["counts"]["total"] == len(report["records"])
    assert report["counts"]["passed"] == report["counts"]["total"]
    assert report["overall_pass"] is True
    for rec in report["records"]:
        assert set(rec) == {"suite", "check", "identity", "residual", "tolerance", "passed"}
        assert rec["passed"] == (rec["residual"] <= rec["tolerance"])
    assert report["config"]["seed"] == fast_config.seed
    assert set(report["environment"]) == {"numpy", "python"}


def test_suites_run_in_canonical_order(fast_config):
    report = run_report(fast_config, ["mode_space", "jw_car"])
    assert report["suites"] == ["jw_car", "mode_space"]
    seen = [r["suite"] for r in report["records"]]
    assert seen == sorted(seen, key=lambda n: SUITE_ORDER.index(n))


def test_reports_are_deterministic_and_subset_stable(fast_config):
    once = run_report(fast_config, ["jw_car"])
    twice = run_report(fast_config, ["jw_car"])
    assert json.dumps(once, sort_keys=True) == json.dumps(twice, sort_keys=True)
    # per-suite seeding: the same records appear when more suites run
    both = run_report(fast_config, ["jw_car", "mode_space"])
    jw_only = [r for r in both["records"] if r["suite"] == "jw_car"]
    assert jw_only == once["records"]


def test_seed_changes_draws(fast_config):
    base = run_report(fast_config, ["mode_space"])
    import dataclasses

    other = run_report(dataclasses.replace(fast_config, seed=99), ["mode_space"])
    r0 = [r["residual"] for r in base["records"]]
    r1 = [r["residual"] for r in other["records"]]
    assert r0 != r1  # different draws, same verdicts
    assert base["overall_pass"] and other["overall_pass"]


def test_render_text(fast_config):
    report = run_report(fast_config, ["jw_car"])
    text = render_text(report)
    lines = text.splitlines()
    assert len(lines) == len(report["records"]) + 1
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert lines[-1].startswith("PASS: ")


# --- command line


def test_nan_residual_fails_its_check(monkeypatch, fast_config):
    assert not _rec("s", "c", "identity", float("nan"), 1e-12).passed
    # the 16 anticommutator blocks are one stacked residual, the first
    # max_abs of the suite; a NaN in the second block must reach the record
    real_max_abs = sparse.max_abs
    calls = []

    def nan_in_second_block(a):
        calls.append(a)
        if len(calls) == 1:
            a = np.array(a)
            assert a.shape == (4, 4, REGISTER_DIM, REGISTER_DIM)
            a[0, 1, 0, 0] = np.nan
        return real_max_abs(a)

    monkeypatch.setattr(sparse, "max_abs", nan_in_second_block)
    record = run_suite("jw_car", fast_config)[0]
    assert record.check == "anticommutator"
    assert np.isnan(record.residual)
    assert not record.passed


@pytest.mark.parametrize("values", [(0.5, 0.5, 0.9), (0.0, 0.5, 0.9)])
def test_a_flat_or_zero_orthonormal_overlap_fails_its_flag(monkeypatch, fast_config, values):
    # a plateau is no rise, and 0 lies outside (0, 1]: both gates are strict
    real = suites.determinant_limit_convergence

    def doctored(space, profile, fs, gs, n_list):
        rep = real(space, profile, fs, gs, n_list)
        if fs is not gs:  # only the orthonormal call passes one list twice
            return rep
        records = tuple(dataclasses.replace(record, lhs=complex(value))
                        for record, value in zip(rep.records, values, strict=True))
        return dataclasses.replace(rep, records=records)

    monkeypatch.setattr(suites, "determinant_limit_convergence", doctored)
    records = {r.check: r for r in run_suite("n_oscillator", fast_config)}
    assert not records["orthonormal_rising"].passed
    assert records["orthonormal_limit"].passed


def test_cli_json_output(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["--suite", "jw_car", "--out", str(out), "--seed", "3"])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["overall_pass"] is True
    assert report["config"]["seed"] == 3
    assert capsys.readouterr().out == ""


def test_cli_text_output(capsys):
    code = main(["--suite", "jw_car", "--format", "text"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.strip().endswith("checks passed")


def test_cli_comma_separated_suites(tmp_path):
    out = tmp_path / "r.json"
    assert main(["--suite", "jw_car,mode_space", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["suites"] == ["jw_car", "mode_space"]


def test_cli_refuses_an_empty_suite_selection(capsys):
    # zero checks run would read as a pass
    for raw in ("", " , "):
        assert main(["--suite", raw]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("configuration error: no suites selected")
        assert captured.err.count("\n") == 1
    with pytest.raises(ConfigError, match="no suites selected"):
        run_report(default_config(), [])


def test_cli_config_error_exit_code(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "absent.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"seed": -5}))
    assert main(["--config", str(bad)]) == 2
    assert main(["--suite", "nope"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_unwritable_out_exits_2_with_one_line(tmp_path, capsys):
    # the checks ran and passed; the report could not be written
    for out in (tmp_path / "no_such_dir" / "r.json", tmp_path):
        assert main(["--suite", "jw_car", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"cannot write report to {out}: ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def _config_file(tmp_path, data):
    """Write a config given as a mapping, or as raw file text or bytes."""
    path = tmp_path / "cfg.json"
    if isinstance(data, dict):
        data = json.dumps(data)
    path.write_bytes(data.encode() if isinstance(data, str) else data)
    return path


def _run_with_config(tmp_path, data, *args):
    return main(["--config", str(_config_file(tmp_path, data)), *args])


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("data", [
    # a NaN residual passes max(), so non-finite inputs would fake a pass
    {"lattice": {"m": NAN}},
    {"lattice": {"delta_eta": INF}},
    {"lattice": {"mode": "grid3d", "grid_spacing": NAN}},
    {"profile": {"width": INF}},
    {"profile": {"width": "a"}},
    {"profile": {"center": NAN}},
    {"displacement": [NAN, 0, 0, 0]},
    {"field_point": [0, 0, -INF, 0]},
    # past j_max the interior projector is empty and covariance checks are vacuous
    {"boost_steps": 7},
    {"boost_steps": -7},
    # the report's own N grids, matrix N and charge unit are fixed: keys that
    # set them are unknown, at their old defaults and at the values that made
    # a check vacuous (e0 = 0, matrix_check_n = 1) or fail for the wrong
    # reason (e0 = 1e6, a two-mode N grid spanning less than a factor 4), and
    # the least one-mode grid the quarter checks allowed
    {"e0": 1.0},
    {"matrix_check_n": 2},
    {"n_values_single": [2, 4, 8, 16, 32, 64]},
    {"n_values_double": [2, 4, 8]},
    {"e0": 0.0},
    {"e0": 1e6},
    {"matrix_check_n": 1},
    {"n_values_double": [2]},
    {"n_values_double": [2, 4]},
    {"n_values_double": [4, 8]},
    {"n_values_double": [64, 128]},
    {"n_values_single": [8, 64]},
    # off-lattice point index, momenta that overflow a float, and bools or
    # floats where an integer belongs
    {"profile": {"kind": "point", "index": 99}},
    {"profile": {"kind": "point", "index": -1}},
    {"lattice": {"delta_eta": 400}},
    {"lattice": {"delta_eta": 800, "j_max": 1}},
    {"lattice": {"m": 1e160}},
    {"lattice": {"mode": "grid3d", "grid_spacing": 1e200}},
    {"seed": True},
    {"lattice": {"j_max": True}},
    {"lattice": {"mode": "grid3d", "grid_n": 2.0}},
    {"profile": {"index": False}},
    {"boost_steps": 1.5},
    # sections of the wrong JSON type
    {"lattice": None},
    {"lattice": []},
    {"profile": 3},
    {"displacement": 5},
    # a displacement with y.p = 0 on every mode: translation is the identity
    # and its checks compare a state or operator with itself
    {"displacement": [0, 0.3, 0.2, 0]},
    # an integer past the float range, and lattices too large to build or to
    # exponentiate densely
    {"lattice": {"delta_eta": 10**400}},
    {"lattice": {"j_max": 10**400}},
    {"lattice": {"mode": "grid3d", "grid_n": 10**400}},
    # values echoed in the message, past the float range or the digit limit
    {"seed": -10**400},
    {"boost_steps": -10**400},
    {"profile": {"kind": "point", "index": 10**4000}},
    {"x" * 5000: 1},
    {"lattice": {"j_max": 128}},
    {"lattice": {"mode": "grid3d", "grid_n": 7}},
    # more than 64 modes: the N-slot matrices (16 M)^2 pass the size cap
    {"lattice": {"j_max": 32}},
    {"lattice": {"j_max": 40}},
    {"lattice": {"mode": "grid3d", "grid_n": 5}},
    # an integer rapidity step past int64, whose momenta overflow a float
    {"lattice": {"delta_eta": 2**63}},
    # edge rapidities past MAX_RAPIDITY, where boost residuals fail by rounding
    {"lattice": {"j_max": 31}},
    {"lattice": {"delta_eta": 0.9}},
    {"lattice": {"j_max": 10}},
    {"lattice": {"mode": "grid3d", "grid_spacing": 30.0}},
    {"lattice": {"mode": "grid3d", "m": 0.1, "grid_spacing": 3.0}},
    # lattice energies past MAX_ENERGY, where spinor.dirac_kernel and
    # spinor.classical_covariance fail by rounding
    {"lattice": {"m": 1000}},
    {"lattice": {"m": 64, "delta_eta": 0.6}},
    {"lattice": {"m": 12}},
    {"lattice": {"mode": "grid3d", "m": 65}},
    # Gaussian profiles that underflow to 0 on every lattice mode, which the
    # mode_space suite would meet only after jw_car and spinor had run
    {"profile": {"kind": "gaussian", "width": 0.02, "center": 40}},
    {"profile": {"kind": "gaussian", "width": 0.1, "center": 5.2}},
    # files json.loads cannot turn into a value: an integer past the
    # int-to-str digit limit, nesting past the recursion limit, and bytes
    # that are not UTF-8
    pytest.param('{"seed": 1' + "0" * 5000 + "}", id="int-digit-limit"),
    pytest.param("[" * 100_000 + "]" * 100_000, id="deep-nesting"),
    pytest.param(b"\xff\xfe{", id="not-utf8"),
])
def test_cli_rejects_misleading_configs_at_load(tmp_path, capsys, data):
    if isinstance(data, dict):
        with pytest.raises(ConfigError):
            config_from_dict(data)
    else:
        with pytest.raises(ConfigError):
            load_config(_config_file(tmp_path, data))
    assert _run_with_config(tmp_path, data) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    # echoed values are cut short; the file path is the caller's own text
    assert len(err.replace(str(tmp_path), "")) < 120


def test_config_refuses_a_displacement_that_moves_no_lattice_mode():
    # rapidity momenta lie in the (E, pz) plane, so y.p reads only y0 and y3;
    # grid momenta reach every axis, and one mode at rest reads only y0
    with pytest.raises(ConfigError, match=r"^the displacement moves no lattice mode: y.p = 0"):
        config_from_dict({"displacement": [0, 0.3, 0.2, 0]})
    with pytest.raises(ConfigError, match="moves no lattice mode"):
        RunConfig(displacement=(0.0, 0.0, 0.0, 0.0))
    rest = LatticeConfig(mode="grid3d", grid_n=1)
    with pytest.raises(ConfigError, match="moves no lattice mode"):
        RunConfig(lattice=rest, displacement=(0.0, 1.0, 0.0, 0.0))
    for y in ((0.0, 0.3, 0.2, 1e-3), (1e-3, 0.3, 0.2, 0.0)):
        assert RunConfig(displacement=y).displacement == y
    grid = LatticeConfig(mode="grid3d")
    assert RunConfig(lattice=grid, displacement=(0.0, 0.3, 0.2, 0.0)).lattice == grid


def test_config_accepts_boost_steps_up_to_j_max():
    for steps in (6, -6):
        assert RunConfig(boost_steps=steps).boost_steps == steps
    grid = LatticeConfig(mode="grid3d")
    assert RunConfig(lattice=grid, boost_steps=7).boost_steps == 7


def test_config_accepts_lattices_up_to_64_modes():
    assert LatticeConfig(j_max=31, delta_eta=0.11).build().size == 63
    assert LatticeConfig(mode="grid3d", grid_n=4).build().size == 64


def test_config_accepts_lattices_up_to_the_rapidity_bound():
    # edge rapidity j_max delta_eta on a rapidity lattice, asinh(|p|/m) on a grid
    assert LatticeConfig(j_max=9, delta_eta=0.4).build().size == 19
    assert LatticeConfig(j_max=1, delta_eta=0.999 * MAX_RAPIDITY).build().size == 3
    # the 2-point grid's corners sit at |p| = spacing sqrt(3) / 2
    edge_spacing = 2 * np.sinh(MAX_RAPIDITY) / np.sqrt(3)
    assert LatticeConfig(mode="grid3d", grid_spacing=0.999 * edge_spacing).build().size == 8
    with pytest.raises(ConfigError):
        LatticeConfig(mode="grid3d", grid_spacing=1.001 * edge_spacing)


def test_config_accepts_lattices_up_to_the_energy_bound():
    # the largest energy is m cosh(j_max delta_eta) on a rapidity lattice, and
    # sqrt(m^2 + 3 spacing^2 / 4) at the corners of the 2-point grid
    edge_mass = MAX_ENERGY / np.cosh(6 * 0.4)
    assert LatticeConfig(m=0.999 * edge_mass).build().size == 13
    with pytest.raises(ConfigError, match="energy"):
        LatticeConfig(m=1.001 * edge_mass)
    corner = np.sqrt(3) / 2
    edge_mass = np.sqrt(MAX_ENERGY**2 - corner**2)
    assert LatticeConfig(mode="grid3d", m=0.999 * edge_mass).build().size == 8
    with pytest.raises(ConfigError, match="energy"):
        LatticeConfig(mode="grid3d", m=1.001 * edge_mass)


def test_example_config_is_the_default():
    path = Path(__file__).resolve().parents[1] / "configs" / "default.json"
    assert json.loads(path.read_text()) == default_config().to_dict()


def test_report_passes_below_unit_mass():
    # the least mismatched Dirac residual is sqrt(2) m, below 1 at m = 0.5
    report = run_report(RunConfig(lattice=LatticeConfig(m=0.5)))
    assert report["counts"] == {"total": 69, "passed": 69}


def test_cli_run_error_exits_2_with_one_line(monkeypatch, capsys):
    # the run stops, no check has failed: comb(10^200, 2) is past the float
    # range of the walk
    monkeypatch.setattr(suites, "N_VALUES_DOUBLE", (2, 4, 10**200))
    assert main(["--suite", "n_oscillator"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ResourceLimitError:") and captured.err.count("\n") == 1
    assert len(captured.err) < 120


def _count_calls(monkeypatch, module, name):
    """Count calls of module.name, a function or a class's method, also where a carfield module imports it by name."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "carfield" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_report_suites_build_no_kron_chain(monkeypatch):
    # the N-slot extensions and the spectral field are single CSR assemblies,
    # and the classical solutions do not depend on the field component
    krons = _count_calls(monkeypatch, sparse, "tensor_product")
    solutions = _count_calls(monkeypatch, spinors, "classical_solution")
    config = default_config()
    run_suite("mode_space", config)
    assert len(solutions) == 2
    run_suite("n_oscillator", config)
    run_suite("symmetries", config)
    assert krons == []


def test_report_builds_n_slot_matrices_only_at_the_identity_dimension(monkeypatch):
    # the N = 2 operator identities on the 2-mode lattice are the report's only
    # explicit N-slot matrices; every lattice-sized extension acts on states
    # slot by slot, so none reaches the matrix route
    dims = []
    original = noscillator._slot_sum

    def recorded(nreg, op, twist):
        dims.append(nreg.dim)
        return original(nreg, op, twist)

    monkeypatch.setattr(noscillator, "_slot_sum", recorded)
    run_report(default_config())
    assert len(dims) == 5
    assert max(dims) <= (16 * 2) ** noscillator.MATRIX_CHECK_N == 1024


def test_report_runs_its_small_matrix_samples_as_stacks(monkeypatch):
    # the premise of the stacked kernels: each sample set of 2x2 or 16x16
    # matrices is one call, and block builds are not repeated per item; a
    # per-item loop brought back raises these counts (141 mode_blocks, 25
    # dense_exponential and 18 pair_unitary calls before the stacks).  Each
    # mode-diagonal operator of a check is one assembly, not a per-mode sum
    # (69 mode_sum and 35 additions before), each field operator is built
    # once (36 before), and single-oscillator states are acted on by
    # apply_extension, not by an embedded CSR (19 embed calls before).  Each
    # linear combination is one stack sum, not a chain of additions from
    # zero (14 before); the field covariance conjugates by one Poincare
    # unitary (4 before), the creator commutators read the creator sums, not
    # adjoints of ladder sums (43 adjoints before), and the N-slot checks
    # build each smeared operator and each N-slot adjoint once (20 smeared
    # annihilators, 63 mode_blocks and 3 N-slot adjoints before)
    builds = _count_calls(monkeypatch, modes, "mode_blocks")
    sums = _count_calls(monkeypatch, modes, "mode_sum")
    additions = _count_calls(monkeypatch, modes.ModeBlocks, "__add__")
    adjoints = _count_calls(monkeypatch, modes.ModeBlocks, "adjoint")
    embeds = _count_calls(monkeypatch, modes.SingleOscillatorSpace, "embed")
    fields = _count_calls(monkeypatch, modes, "field_operator")
    smeared = _count_calls(monkeypatch, modes, "smeared_annihilator")
    actions = _count_calls(monkeypatch, noscillator, "apply_extension")
    slot_adjoints = _count_calls(monkeypatch, sparse, "adjoint")
    poincare = _count_calls(monkeypatch, symmetries, "poincare_unitary")
    exponentials = _count_calls(monkeypatch, sparse, "dense_exponential")
    unitaries = _count_calls(monkeypatch, register, "pair_unitary")
    closed_forms = _count_calls(monkeypatch, spinors, "exponential")
    run_report(default_config())
    assert (len(builds), len(sums), len(additions), len(adjoints)) == (61, 44, 0, 34)
    assert (len(embeds), len(fields), len(smeared), len(actions)) == (15, 32, 18, 63)
    assert (len(slot_adjoints), len(poincare)) == (2, 3)
    assert (len(exponentials), len(unitaries), len(closed_forms)) == (3, 2, 4)


def test_cli_refuses_a_grid_report_before_any_suite_runs(tmp_path, monkeypatch, capsys):
    # the symmetries suite needs a rapidity lattice; a full report on a grid
    # must say so before it spends time on the other four suites
    called = []
    for name in SUITE_ORDER:
        monkeypatch.setitem(suites.SUITE_FUNCS, name, lambda config, name=name: called.append(name))
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"lattice": {"mode": "grid3d"}}))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err == "configuration error: the symmetries suite needs a rapidity lattice\n"
    assert called == []
    assert not (tmp_path / "r.json").exists()
    with pytest.raises(ConfigError, match="needs a rapidity lattice"):
        run_suite("symmetries", config_from_dict({"lattice": {"mode": "grid3d"}}))
    assert called == []
    # the peaks script refuses the same config before it measures any suite
    assert _peaks_script().main(["--config", str(cfg)]) == 2
    assert capsys.readouterr().err == err
    assert called == []


def test_cli_reads_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 21, "lattice": {"j_max": 2}}))
    out = tmp_path / "r.json"
    assert main(["--config", str(cfg), "--suite", "jw_car", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["seed"] == 21


def test_nan_conjugation_residual_fails_su2_check(monkeypatch, fast_config):
    # the first conjugation of a report is the su2 one, every ladder of every
    # sample in one stack (..., species, s, 16, 16); a NaN in the second su2
    # term of the first sample must reach its residual, whatever the other
    # terms read, and the su2 record
    real_conjugate = register._conjugate
    calls = []

    def nan_in_second_su2_term(inv, op, conj):
        out = real_conjugate(inv, op, conj)
        calls.append(out.shape)
        if len(calls) == 1:
            assert out.shape[-4:] == (2, 2, REGISTER_DIM, REGISTER_DIM)
            out.reshape(-1, REGISTER_DIM, REGISTER_DIM)[1, 0, 0] = np.nan
        return out

    a = np.array([[0.3j, 0.2 + 0.1j], [-0.2 + 0.1j, -0.3j]])
    monkeypatch.setattr(register, "_conjugate", nan_in_second_su2_term)
    report = conjugation_report(a, 0.4, -0.7)
    assert np.isnan(report.su2_residual)
    assert report.phase_residual < 1e-10 and report.parity_residual < 1e-10

    calls.clear()
    records = {r.check: r for r in run_suite("jw_car", fast_config)}
    assert calls[0][:-4] == (5,)
    assert np.isnan(records["su2_conjugation"].residual)
    assert not records["su2_conjugation"].passed
    assert records["phase_conjugation"].passed


@pytest.mark.parametrize("faulty_conjugate", [False, True])
def test_a_pulled_back_field_fault_fails_only_its_covariance(monkeypatch, fast_config,
                                                             faulty_conjugate):
    # one call returns the field and the conjugate field residuals; a fault
    # in the fields of one kind at the pulled-back point L^-1 (x - y) must
    # reach that kind's record alone
    real_field = symmetries.field_operator
    x = np.asarray(fast_config.field_point)

    def faulty(space, point, alpha, conjugate=False):
        psi = real_field(space, point, alpha, conjugate=conjugate)
        if np.array_equal(point, x) or conjugate != faulty_conjugate:
            return psi
        return psi * (1 + 1e-6)

    monkeypatch.setattr(symmetries, "field_operator", faulty)
    failed = {r.check for r in run_suite("symmetries", fast_config) if not r.passed}
    assert failed == {"conjugate_field_covariance" if faulty_conjugate else "field_covariance"}


def test_nan_dirac_mismatch_fails_its_flag(monkeypatch, fast_config):
    # the suite asks for the two matching residual stacks and then the two
    # mismatched ones, so the third call is a mismatched branch; one NaN row
    # in it must fail the flag
    real_residual = spinors.dirac_residual
    calls = []

    def nan_on_third_call(*args):
        calls.append(args)
        residuals = real_residual(*args)
        if len(calls) == 3:
            residuals[1, 0] = np.nan
        return residuals

    monkeypatch.setattr(spinors, "dirac_residual", nan_on_third_call)
    records = {r.check: r for r in run_suite("spinor", fast_config)}
    assert records["dirac_kernel"].passed
    assert not records["dirac_mismatch"].passed


def test_swapped_branches_fail_dirac_mismatch(monkeypatch, fast_config):
    # a negative branch equal to the positive one solves the wrong Dirac system
    real_bispinors = spinors.eigen_bispinors

    def positive_twice(frame):
        pos, _ = real_bispinors(frame)
        return pos, pos

    monkeypatch.setattr(spinors, "eigen_bispinors", positive_twice)
    records = {r.check: r for r in run_suite("spinor", fast_config)}
    assert not records["dirac_mismatch"].passed


def _sweep_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "determinant_limit_sweep.py"
    spec = importlib.util.spec_from_file_location("determinant_limit_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, argv", [
    ("modes1", ["--modes", "1", "--orders", "1,2,3,4,5,6,7,8"]),
    ("modes3", ["--modes", "3", "--orders", "2,3,4,5"]),
])
def test_sweep_script_stdout_matches_golden(name, argv, capsys):
    # pinned orders 5..8 lie past the reach of the expansion's Hypothesis draws
    assert _sweep_script().main(argv) == 0
    golden = Path(__file__).parent / "data" / f"sweep_golden_{name}.txt"
    assert capsys.readouterr().out == golden.read_text()


def test_sweep_script_budget_stop_exits_2(monkeypatch, capsys):
    # an order-2 determinant meets a bound of order 1
    monkeypatch.setattr(noscillator, "MAX_SLATER_ORDER", 1)
    code = _sweep_script().main(["--modes", "1", "--orders", "2", "--n", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("ResourceLimitError: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_sweep_script_unwritable_out_exits_2(tmp_path, capsys):
    sweep = _sweep_script()
    for out in (tmp_path / "no_such_dir" / "sweep.json", tmp_path):
        code = sweep.main(["--modes", "1", "--orders", "2", "--n", "2", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"cannot write records to {out}: ")
        assert err.count("\n") == 1 and "Traceback" not in err


def test_sweep_script_notes_zero_limit_by_rank(capsys):
    # one mode has two spin states: the Gram matrix has rank <= 2, so det = 0 from M = 3
    sweep = _sweep_script()
    assert sweep.main(["--modes", "1", "--orders", "3", "--n", "2,4"]) == 0
    noted = capsys.readouterr()
    assert sweep.main(["--modes", "1", "--orders", "2", "--n", "2,4"]) == 0
    plain = capsys.readouterr()
    notes = [line for line in noted.err.splitlines() if line.startswith("note:")]
    assert len(notes) == 1 and "M = 3" in notes[0]
    assert "note:" not in plain.err
    assert noted.out.startswith("M=3  limit=0+0j")


def _balance_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "vacuum_energy_balance.py"
    spec = importlib.util.spec_from_file_location("vacuum_energy_balance", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv", [["--j-max", "-1"], ["--n-boson", "0"], ["--mass", "0"]])
def test_balance_script_bad_parameter_exits_2(argv, capsys):
    code = _balance_script().main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("configuration error: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert out == ""


def test_balance_script_default_run_balances(capsys):
    assert _balance_script().main([]) == 0
    out = capsys.readouterr().out
    assert "fermion-only vacuum energy : -6.000000000000" in out
    assert out.rstrip().endswith("balanced sign check        : zero")


def _peaks_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "report_peaks.py"
    spec = importlib.util.spec_from_file_location("report_peaks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_peaks_script_measures_one_suite(capsys):
    assert _peaks_script().main(["--suite", "jw_car"]) == 0
    header, row, *rest = capsys.readouterr().out.splitlines()
    assert header.split() == ["suite", "checks", "wall_ms", "peak_MB"]
    name, checks, wall_ms, peak_mb = row.split()
    passed, total = checks.split("/")
    assert name == "jw_car" and passed == total and not rest
    assert float(wall_ms) > 0 and float(peak_mb) > 0


def test_peaks_script_takes_comma_separated_suites(capsys):
    # the suites are named as the carfield CLI names them: repeated or
    # comma-separated, each measured once, in report order
    assert _peaks_script().main(["--suite", "spinor,jw_car", "--suite", "jw_car"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split()[0] for row in rows] == ["jw_car", "spinor"]


@pytest.mark.parametrize("argv", [["--suite", "nope"], ["--config", "no_such_config.json"],
                                  ["--suite", "jw_car,nope"], ["--suite", " , "]])
def test_peaks_script_bad_config_exits_2(argv, capsys):
    code = _peaks_script().main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("configuration error: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert out == ""


# --- exit contract: 0 all passed, 1 a check failed, 2 the run could not finish

_JUNK = st.one_of(
    st.sampled_from([float("nan"), float("inf"), -float("inf"), True, False, None,
                     10**400, -(10**400), 2**63, "1", "", [], {}, [1.0, 2.0]]),
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300),
    st.integers(-(2**64), 2**64),
)


def _small_floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False)


_FOUR_VECTORS = st.lists(_small_floats(-1.0, 1.0), min_size=4, max_size=4)
_VALID = {
    ("lattice", "mode"): st.sampled_from(["rapidity1d", "grid3d"]),
    ("lattice", "m"): _small_floats(0.5, 2.0),
    ("lattice", "j_max"): st.integers(0, 3),
    ("lattice", "delta_eta"): _small_floats(0.1, 0.6),
    ("lattice", "grid_n"): st.integers(1, 2),
    ("lattice", "grid_spacing"): _small_floats(0.5, 2.0),
    ("profile", "kind"): st.sampled_from(["uniform", "gaussian", "point"]),
    ("profile", "width"): _small_floats(0.3, 3.0),
    ("profile", "center"): _small_floats(-1.0, 1.0),
    ("profile", "index"): st.integers(0, 6),
    (None, "seed"): st.integers(0, 2**32),
    (None, "boost_steps"): st.integers(-3, 3),
    (None, "displacement"): _FOUR_VECTORS,
    (None, "field_point"): _FOUR_VECTORS,
}
# a whole section, or any key, may also hold a value of the wrong kind
_TARGETS = sorted(_VALID, key=str) + [(None, "lattice"), (None, "profile"), (None, "unknown")]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_exit_contract_on_random_configs(tmp_path, capsys, data):
    config: dict = {}
    for (section, key), values in _VALID.items():
        if data.draw(st.booleans()):
            config.setdefault(section, {})[key] = data.draw(values)
    config = {**config.pop(None, {}), **config}
    if data.draw(st.booleans()):
        section, key = data.draw(st.sampled_from(_TARGETS))
        (config.setdefault(section, {}) if section else config)[key] = data.draw(_JUNK)
    suite = data.draw(st.sampled_from(SUITE_ORDER))
    code = _run_with_config(tmp_path, config, "--suite", suite)
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    assert "Traceback" not in captured.err
    if code == 2:
        assert captured.out == ""
        assert captured.err.count("\n") == 1
    else:
        assert json.loads(captured.out)["overall_pass"] == (code == 0)
