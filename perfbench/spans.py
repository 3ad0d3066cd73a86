"""Span tracing for the benchmark's traced run, and per-layer metrics from spans.

Tracing wraps the public functions of each carfield layer from outside the
package: a wrapper replaces the function in every carfield module namespace
that holds it (where it is defined and where it is imported by name), and
class methods are replaced on the class.  Each call records one span
[name, parent, start, end, attribute] in memory; the wrappers are removed
when the traced operation returns.  Nothing under src/ changes.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

NAME, PARENT, START, END, ATTR = range(5)


def _csr_size(args, kwargs, out):
    """Output nnz, and the CSR bytes computed from it (data + indices + indptr)."""
    return out.nnz, out.data.nbytes + out.indices.nbytes + out.indptr.nbytes


def _dim(args, kwargs, out):
    return out.shape[0]


def _suite_name(args, kwargs, out):
    return args[0] if args else kwargs["name"]


def _walk_exact(args, kwargs, out):
    return bool(args[3] if len(args) > 3 else kwargs.get("exact", False))


def _order(args, kwargs, out):
    return len(args[2] if len(args) > 2 else kwargs["fs"])


# (module, attribute, span name, attribute recorder); "Class.method" targets a method
TARGETS = (
    ("carfield.cli", "main", "cli.main", None),
    ("carfield.suites", "run_suite", "suites.run_suite", _suite_name),
    ("carfield.register", "build_register", "register.build_register", None),
    ("carfield.spinors", "build_spin_frame", "spinors.build_spin_frame", None),
    ("carfield.spinors", "wigner_matrix", "spinors.wigner_matrix", None),
    ("carfield.modes", "SingleOscillatorSpace.__init__", "modes.space_init", None),
    ("carfield.modes", "SingleOscillatorSpace.embed", "modes.embed", None),
    ("carfield.modes", "field_operator", "modes.field_operator", None),
    ("carfield.modes", "smeared_annihilator", "modes.smeared_annihilator", None),
    ("carfield.modes", "mode_annihilator", "modes.mode_annihilator", None),
    ("carfield.sparse", "tensor_product", "sparse.tensor_product", _csr_size),
    ("carfield.sparse", "matrix_exponential", "sparse.matrix_exponential", None),
    ("carfield.noscillator", "extend_operator", "noscillator.extend", _dim),
    ("carfield.noscillator", "extend_additive", "noscillator.extend", _dim),
    ("carfield.noscillator", "extend_unitary", "noscillator.extend", _dim),
    ("carfield.noscillator", "vacuum_matrix_element_matrix",
     "noscillator.matrix_element_matrix", None),
    ("carfield.noscillator", "vacuum_matrix_element", "noscillator.walk", _walk_exact),
    ("carfield.noscillator", "determinant_limit_convergence", "noscillator.convergence", _order),
    ("carfield.noscillator", "slater_limit", "noscillator.slater", None),
    ("carfield.symmetries", "field_covariance_residual",
     "symmetries.field_covariance_residual", None),
    ("carfield.symmetries", "gauge_check", "symmetries.gauge_check", None),
    ("carfield.symmetries", "boost_mode_residual", "symmetries.boost_mode_residual", None),
    ("carfield.symmetries", "spin_commutator_residual",
     "symmetries.spin_commutator_residual", None),
    ("carfield.symmetries", "vacuum_energy_expectation",
     "symmetries.vacuum_energy_expectation", None),
)

SUITES = ("jw_car", "spinor", "mode_space", "n_oscillator", "symmetries")
ORDERS = (1, 2, 3, 4)

# every per-layer metric with its unit, in report order
LAYER_METRICS = (
    *((f"suites.{s}_s", "s") for s in SUITES),
    ("cli.self_s", "s"),
    ("register.build_register_calls", "count"),
    ("register.build_register_s", "s"),
    ("spinors.build_spin_frame_calls", "count"),
    ("spinors.build_spin_frame_s", "s"),
    ("spinors.wigner_matrix_s", "s"),
    ("modes.space_init_s", "s"),
    ("modes.embed_calls", "count"),
    ("modes.embed_s", "s"),
    ("modes.field_operator_calls", "count"),
    ("modes.field_operator_s", "s"),
    ("modes.smeared_annihilator_s", "s"),
    ("modes.mode_annihilator_s", "s"),
    ("sparse.tensor_product_calls", "count"),
    ("sparse.tensor_product_s", "s"),
    ("sparse.tensor_product_nnz", "count"),
    ("sparse.tensor_product_computed_bytes", "bytes"),
    ("sparse.matrix_exponential_s", "s"),
    ("noscillator.extend_calls", "count"),
    ("noscillator.extend_s", "s"),
    ("noscillator.extend_max_dim", "count"),
    ("noscillator.matrix_element_matrix_s", "s"),
    ("noscillator.walk_float_calls", "count"),
    ("noscillator.walk_float_s", "s"),
    ("noscillator.walk_exact_s", "s"),
    ("noscillator.convergence_s", "s"),
    *((f"noscillator.convergence_self_s.M{m}", "s") for m in ORDERS),
    ("noscillator.slater_s", "s"),
    ("symmetries.field_covariance_residual_s", "s"),
    ("symmetries.gauge_check_s", "s"),
    ("symmetries.boost_mode_residual_s", "s"),
    ("symmetries.spin_commutator_residual_s", "s"),
    ("symmetries.vacuum_energy_expectation_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

# per-op values that must repeat exactly from one operation to the next
COUNT_METRICS = tuple(name for name, unit in LAYER_METRICS if unit in ("count", "bytes"))


class Tracer:
    """Spans of one operation, kept in memory: [name, parent, start, end, attr]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, fn, name: str, attr=None):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, open_[-1] if open_ else -1, perf_counter(), 0.0, None]
            open_.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                open_.pop()
            if attr is not None:
                span[ATTR] = attr(args, kwargs, out)
            return out

        return traced


@contextmanager
def tracing(tracer: Tracer):
    """Install the tracer's wrappers on every target, and remove them on exit."""
    patched = []
    try:
        for module_name, attribute, name, attr in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                cls_name, method = attribute.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                patched.append((cls, method, original))
                setattr(cls, method, tracer.wrap(original, name, attr))
                continue
            original = getattr(module, attribute)
            wrapper = tracer.wrap(original, name, attr)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "carfield" and not mod_name.startswith("carfield."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patched.append((mod, key, original))
                        setattr(mod, key, wrapper)
        yield tracer
    finally:
        for owner, key, original in reversed(patched):
            setattr(owner, key, original)


def covered_length(intervals, start: float, end: float) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        span[END] - span[START] - covered_length(kids, span[START], span[END])
        for span, kids in zip(spans, children)
    ]


def outermost(spans, index: int) -> bool:
    """True when no ancestor of the span carries the same name."""
    name, parent = spans[index][NAME], spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return False
        parent = spans[parent][PARENT]
    return True


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer values of one traced operation (all but trace.overhead_ratio).

    A `_s` metric is the inclusive time of the layer's outermost spans, except
    `cli.self_s` and `noscillator.convergence_self_s.M*`, which are self times.
    """
    out = {name: 0 for name, _ in LAYER_METRICS if name != "trace.overhead_ratio"}
    selfs = self_times(spans)
    for i, span in enumerate(spans):
        name, duration, attr = span[NAME], span[END] - span[START], span[ATTR]
        layer, _, short = name.partition(".")
        if name == "cli.main":
            out["cli.self_s"] += selfs[i]
        elif name == "noscillator.convergence":
            out[f"noscillator.convergence_self_s.M{attr}"] += selfs[i]
        calls = f"{layer}.{short}_calls"
        if calls in out:
            out[calls] += 1
        if not outermost(spans, i):
            continue
        if name == "suites.run_suite":
            out[f"suites.{attr}_s"] += duration
        elif name == "noscillator.walk":
            out["noscillator.walk_exact_s" if attr else "noscillator.walk_float_s"] += duration
            if not attr:
                out["noscillator.walk_float_calls"] += 1
        elif f"{name}_s" in out:
            out[f"{name}_s"] += duration
        if name == "sparse.tensor_product":
            out["sparse.tensor_product_nnz"] += attr[0]
            out["sparse.tensor_product_computed_bytes"] += attr[1]
        elif name == "noscillator.extend":
            out["noscillator.extend_max_dim"] = max(out["noscillator.extend_max_dim"], attr)
    return out


def summarize(setup: dict[str, float], per_op: list[dict[str, float]],
              traced_times: list[float], untraced_times: list[float]) -> dict[str, float]:
    """Traced set-up plus the median traced operation per layer, and the overhead ratio.

    Counts add; extend_max_dim takes the larger of the two.
    """
    out = {}
    for name, value in setup.items():
        median = statistics.median(op[name] for op in per_op) if per_op else 0
        out[name] = max(value, median) if name.endswith("_max_dim") else value + median
    out["trace.overhead_ratio"] = (statistics.median(traced_times)
                                   / statistics.median(untraced_times))
    return out


def unsteady_counts(per_op: list[dict[str, float]]) -> list[str]:
    """Count metrics whose value differs between traced operations."""
    return [name for name in COUNT_METRICS if len({op[name] for op in per_op}) > 1]
