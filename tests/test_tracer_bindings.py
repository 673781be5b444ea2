"""The benchmark's tracer wraps package functions by name; a rename must fail here."""

import contextlib
import dataclasses
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
    policy = env.initial_policy()
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


def test_traced_diag_and_resume_match_untraced(tmp_path):
    """Under Tracer.root, diag prints the same rows and a resumed seed writes the same
    bytes as they do untraced: the wrappers forward every call unchanged."""
    cfg = RunConfig(algorithm="axpo", env_preset="mini", questions_per_step=6, group_size=4,
                    eval_every=2, steps=3)
    runs = {}
    for traced in (False, True):
        out = tmp_path / f"traced-{traced}"
        harness.train(dataclasses.replace(cfg, steps=2, out_dir=str(out)))
        sdir = harness.seed_dir(out, 0)
        tracer = _tracer_module().Tracer()
        with tracer.root("op", "run") if traced else contextlib.nullcontext():
            rows = axpo.cli.recompute_metrics(sdir)
            harness.train(dataclasses.replace(cfg, out_dir=str(out)))
        runs[traced] = rows, {name: (sdir / name).read_bytes() for name in
                              (*harness.RUN_LOGS, harness.CHECKPOINT)}
    assert runs[True] == runs[False]
    assert runs[False][0] == (sdir / harness.METRICS_CSV).read_text().splitlines()[:4]
