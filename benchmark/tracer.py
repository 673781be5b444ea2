"""Span tracing for the benchmark's traced runs.

The package is not edited. While a traced operation runs, the tracer replaces
the public functions at the module attributes their callers look up (for
example ``axpo.harness.sample_rollout``, which ``train_step`` and ``run_eval``
call) with wrappers that record one span per call, and restores them after.
``TabularPolicy.probs`` is called thousands of times per step, so it is only
counted. Spans are kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

from axpo.policy import TabularPolicy

# (module, attribute, span name). One span name may cover several functions,
# and one function bound in two modules is wrapped at both bindings.
WRAPPED = (
    ("axpo.harness", "sample_rollout", "env.sample_rollout"),
    ("axpo.resample", "sample_continuation", "env.sample_continuation"),
    ("axpo.harness", "with_metadata", "env.with_metadata"),
    ("axpo.harness", "save_policy", "policy.save_policy"),
    ("axpo.harness", "grpo_advantage", "advantage.grpo_advantage"),
    ("axpo.resample", "grpo_advantage", "advantage.grpo_advantage"),
    ("axpo.harness", "policy_gradient", "advantage.policy_gradient"),
    ("axpo.harness", "surrogate_objective", "advantage.surrogate_objective"),
    ("axpo.harness", "finite_difference_gradient", "harness.finite_difference_gradient"),
    ("axpo.harness", "detect_trigger", "resample.plan"),
    ("axpo.harness", "rank_candidates", "resample.plan"),
    ("axpo.harness", "allocate_budget", "resample.plan"),
    ("axpo.harness", "resample", "resample.resample"),
    ("axpo.harness", "assemble_step_losses", "resample.assemble_step_losses"),
    ("axpo.harness", "write_log", "trajectory.write_log"),
    ("axpo.cli", "read_trajectory_log", "trajectory.read_log"),
    ("axpo.cli", "read_audit_log", "trajectory.read_log"),
    ("axpo.harness", "compute_step_metrics", "diagnostics.compute_step_metrics"),
    ("axpo.cli", "compute_step_metrics", "diagnostics.compute_step_metrics"),
    ("axpo.harness", "run_eval", "harness.run_eval"),
    ("axpo.harness", "train_step", "harness.train_step"),
    ("axpo.coverage", "monte_carlo_coverage", "coverage.monte_carlo_coverage"),
)

# Counters that must repeat exactly when the same operations run again.
EXACT_COUNTS = (
    "policy.probs.calls",
    "trajectory.bytes_written",
    "policy.checkpoint_bytes",
    "resample.continuations",
    "resample.prefixes",
    "resample.recovered",
    "resample.cap",
)


class _CountingWriter:
    """Forwards writes to a text file and counts the characters (the logs are
    ASCII JSON, so characters are bytes)."""

    def __init__(self, fh):
        self.fh = fh
        self.chars = 0

    def write(self, text: str) -> int:
        self.chars += len(text)
        return self.fh.write(text)


class Tracer:
    """Records spans as [name, start, end, parent index, run id] lists."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.cpu_s = 0.0
        self.wall_s = 0.0
        self._stack: list[int] = []
        self._run_id = ""
        self._saved: list[tuple[object, str, object]] = []

    # -- span recording ------------------------------------------------

    def _wrap(self, fn: Callable, name: str, after: Optional[Callable] = None,
              span_if: Optional[Callable] = None) -> Callable:
        """Wrap fn in a span; `after(args, result)` updates counters. A call
        for which span_if(args) is false gets no span and no call count."""
        spans, stack, counts = self.spans, self._stack, self.counts
        calls_key = name + ".calls"

        def traced(*args, **kwargs):
            if span_if is not None and not span_if(args):
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._run_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            counts[calls_key] += 1
            if after is not None:
                after(args, result)
            return result

        return traced

    def _after_resample(self, args, results) -> None:
        plan = args[0]
        self.counts["resample.cap"] += plan.cap
        self.counts["resample.prefixes"] += len(results)
        self.counts["resample.continuations"] += sum(len(r.continuations) for r in results)
        self.counts["resample.recovered"] += sum(r.recovery for r in results)

    def _after_save_policy(self, args, _result) -> None:
        self.counts["policy.checkpoint_bytes"] += Path(args[1]).stat().st_size

    def _counting_write_log(self, write_log: Callable) -> Callable:
        counts = self.counts

        def write_log_counted(trajectories, fh):
            writer = _CountingWriter(fh)
            write_log(trajectories, writer)
            counts["trajectory.bytes_written"] += writer.chars

        return write_log_counted

    def _install(self) -> None:
        after = {
            "resample.resample": self._after_resample,
            "policy.save_policy": self._after_save_policy,
        }
        for module_name, attr, name in WRAPPED:
            module = sys.modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            fn = self._counting_write_log(original) if attr == "write_log" else original
            # An empty plan resamples nothing (the grpo path): its call is step glue.
            span_if = (lambda args: bool(args[0].selected)) if name == "resample.resample" else None
            setattr(module, attr, self._wrap(fn, name, after.get(name), span_if))

        probs = TabularPolicy.probs
        counts = self.counts

        def probs_counted(policy, ctx):
            counts["policy.probs.calls"] += 1
            return probs(policy, ctx)

        self._saved.append((TabularPolicy, "probs", probs))
        TabularPolicy.probs = probs_counted

    def _uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def root(self, name: str, run_id: str):
        """Trace one operation: wrappers are installed only inside this block,
        under a root span that all its spans share the run id of."""
        self._run_id = run_id
        self._install()
        cpu0, wall0 = _cpu_seconds(), perf_counter()
        span = [name, wall0, 0.0, -1, run_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = perf_counter()
            self._stack.pop()
            self._uninstall()
            self.cpu_s += _cpu_seconds() - cpu0
            self.wall_s += span[2] - wall0

    # -- results -------------------------------------------------------

    def self_seconds(self) -> Counter:
        """Self time per span name: duration minus the direct children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - child[i]
        return totals

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def exact_counts(self) -> dict:
        """The counters that must repeat exactly, including every call count."""
        return {
            k: v for k, v in self.counts.items() if k.endswith(".calls") or k in EXACT_COUNTS
        }

    def write(self, path: Path) -> None:
        """Write every span as one JSON line; times are seconds from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start - t0, "end": end - t0,
                         "parent": parent, "run_id": run_id},
                        separators=(",", ":"),
                    )
                )
                fh.write("\n")


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system
