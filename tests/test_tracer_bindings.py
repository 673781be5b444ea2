"""The benchmark's tracer wraps package functions by name; a rename must fail here."""

import importlib
import importlib.util
import inspect
import math
from pathlib import Path

import axpo.cli  # noqa: F401  (the tracer looks its modules up in sys.modules)
import axpo.coverage  # noqa: F401
from axpo import harness
from axpo.config import RunConfig
from axpo.env import make_env
from axpo.policy import TabularPolicy

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("_benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _wrapped():
    return _tracer_module().WRAPPED


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


def test_resample_hooks_count_what_the_audit_log_records():
    """One traced axpo step in this process: the after-hooks read the plan and
    the resample results, and their counters match the step's audit records."""
    cfg = RunConfig(algorithm="axpo", env_preset="gap-env", steps=1)
    env = make_env(cfg.env_preset, seed=0)
    policy = env.initial_policy(cfg.temperature)
    tracer = _tracer_module().Tracer()
    with tracer.root("train_step", "run"):
        _, _, audit = harness.train_step(policy, policy, env, cfg, 0, 1, "run")
    counts = tracer.counts
    assert counts["harness.train_step.calls"] == 1
    assert counts["resample.cap"] == math.floor(
        cfg.resample_ratio * cfg.questions_per_step * cfg.group_size
    )
    assert counts["resample.continuations"] == sum(len(rec["rewards"]) for rec in audit)
    assert counts["resample.recovered"] == sum(rec["recovery"] or 0 for rec in audit)
    assert counts["resample.continuations"] > 0
    # The wrappers are gone once the root span closes.
    assert harness.train_step.__name__ == "train_step"
