"""The benchmark's tracer wraps package functions by name; a rename must fail here."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from axpo.policy import TabularPolicy

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("_benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.WRAPPED


def test_every_wrapped_name_is_bound():
    wrapped = _wrapped()
    assert wrapped
    unbound = [
        f"{module}.{attr}"
        for module, attr, _ in wrapped
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert unbound == []


def test_policy_probs_is_counted_by_name():
    assert list(inspect.signature(TabularPolicy.probs).parameters) == ["self", "ctx"]
