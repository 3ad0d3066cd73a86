"""The benchmark's traced run wraps carfield functions by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name, attribute", [t[:2] for t in _targets()])
def test_trace_target_resolves(module_name, attribute):
    # a renamed or removed target would leave the traced run without its span
    module = importlib.import_module(module_name)
    if "." in attribute:
        cls_name, method = attribute.split(".")
        assert method in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attribute))
