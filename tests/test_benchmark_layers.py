"""The traced benchmark wraps gielab functions by name; those names must exist."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_layer_and_caller_attribute_exists():
    missing = [
        f"{name}.{attr}"
        for owner, attr, callers in _layers().values()
        for name in (owner, *callers)
        if not hasattr(importlib.import_module(name), attr)
    ]
    assert not missing, f"traced benchmark layers name missing attributes: {missing}"
