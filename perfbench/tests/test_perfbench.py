"""The benchmark's own tests: seeded inputs, span arithmetic, failure counting."""

import json

import numpy as np
import pytest

import run
import spans
import workloads
from carfield import modes

ROOT = run.ROOT


def test_seed_fixes_sweep_inputs(tmp_path):
    workload = workloads.WORKLOADS["sweep_exact"]
    first, again, other = (workload.build(seed, tmp_path) for seed in (3, 3, 4))
    assert first.n_list == again.n_list == workloads.SWEEP_N
    flat = [np.concatenate([t.ravel() for fs, gs in i.tables for t in fs + gs])
            for i in (first, again, other)]
    assert np.array_equal(flat[0], flat[1])
    assert not np.array_equal(flat[0], flat[2])
    assert [len(fs) for fs, gs in first.tables] == list(workloads.SWEEP_ORDERS)


def test_seed_fixes_report_inputs(tmp_path):
    workload = workloads.WORKLOADS["report_default"]
    assert workload.build(5, tmp_path) == workload.build(5, tmp_path)
    assert workload.build(5, tmp_path).argv[:2] == ("--seed", "5")
    assert len(workload.build(5, tmp_path).reference) == 69


def span(name, parent, start, end, attr=None):
    return [name, parent, float(start), float(end), attr]


def test_self_time_subtracts_covered_child_time():
    tree = [
        span("root", -1, 0, 10),
        span("a", 0, 1, 4),
        span("b", 0, 5, 6),
        span("a.child", 1, 2, 3),
    ]
    assert spans.self_times(tree) == [6.0, 2.0, 1.0, 1.0]


def test_covered_length_merges_overlaps_and_clips():
    assert spans.covered_length([(1, 3), (2, 5), (7, 12)], 0, 10) == 7.0
    assert spans.covered_length([], 0, 10) == 0.0


def test_layer_metrics_on_synthetic_tree():
    tree = [
        span("cli.main", -1, 0, 10),
        span("suites.run_suite", 0, 1, 4, "mode_space"),
        span("modes.embed", 1, 1.5, 2.5),
        span("modes.embed", 1, 3, 3.5),
        span("suites.run_suite", 0, 5, 9, "n_oscillator"),
        span("noscillator.convergence", 4, 5, 8, 3),
        span("noscillator.walk", 5, 6, 7, False),
        span("noscillator.walk", 4, 8, 8.5, True),
    ]
    out = spans.layer_metrics(tree)
    assert out["cli.self_s"] == 3.0
    assert out["suites.mode_space_s"] == 3.0
    assert out["suites.n_oscillator_s"] == 4.0
    assert out["modes.embed_calls"] == 2
    assert out["modes.embed_s"] == 1.5
    assert out["noscillator.convergence_s"] == 3.0
    assert out["noscillator.convergence_self_s.M3"] == 2.0
    assert out["noscillator.walk_float_calls"] == 1
    assert out["noscillator.walk_float_s"] == 1.0
    assert out["noscillator.walk_exact_s"] == 0.5


def test_tracing_wraps_imported_names_and_restores_them():
    from carfield import suites, symmetries

    originals = (modes.field_operator, suites.field_operator, symmetries.field_operator)
    space = modes.SingleOscillatorSpace(modes.rapidity_lattice(1, 0.4, 1.0))
    tracer = spans.Tracer()
    with spans.tracing(tracer):
        assert suites.field_operator is not originals[1]
        assert symmetries.field_operator is suites.field_operator
        modes.field_operator(space, np.zeros(4), 0)
    assert (modes.field_operator, suites.field_operator, symmetries.field_operator) == originals
    out = spans.layer_metrics(tracer.spans)
    assert out["modes.field_operator_calls"] == 1
    # one embed per nonzero (mode, spin, branch) coefficient, one kron per embed
    assert 0 < out["modes.embed_calls"] <= 4 * space.lattice.size
    assert out["sparse.tensor_product_calls"] == out["modes.embed_calls"]


class Raising:
    name = "raising"

    def operate(self, inputs):
        raise RuntimeError("stub failure")

    def check(self, inputs, output):
        raise AssertionError("not reached")


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail_percentile([1.0] * 99) is None
    assert run.tail_percentile([float(i) for i in range(100)])[0] == 90
    assert run.tail_percentile([float(i) for i in range(1000)])[0] == 99


@pytest.mark.parametrize("trace", [False, True])
def test_raising_operation_counts_as_failed(trace):
    result = run.closed_loop(Raising(), None, seconds=0, trace=trace)
    assert result.attempted == (1 + trace) * run.MIN_OPS + 1
    assert result.failed == result.attempted
    assert result.items == 0
    assert result.layers == []


def test_failing_report_counts_as_failed(tmp_path, monkeypatch):
    workload = workloads.WORKLOADS["report_default"]
    inputs = workload.build(7, tmp_path)
    records = [{"suite": s, "check": c, "passed": True} for s, c in inputs.reference]
    records[3]["passed"] = False

    def stub_main(argv):
        report = {"records": records, "counts": {"total": 69, "passed": 68}}
        inputs.out.write_text(json.dumps(report))
        return 1

    monkeypatch.setattr(workloads.cli, "main", stub_main)
    result = run.closed_loop(workload, inputs, seconds=0, trace=False)
    assert result.failed == result.attempted == run.MIN_OPS + 1
    assert "exit code 1" in result.failures[0]

    monkeypatch.setattr(workloads.cli, "main", lambda argv: stub_main(argv) and 0)
    with pytest.raises(workloads.GateFailure, match="failed checks"):
        workload.check(inputs, workload.operate(inputs))


def test_missing_sources_exit_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "sweep_exact", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
