"""The benchmark's workloads and the checks on their outputs.

Every workload drives the package through its public functions only
(``harness.train``, ``harness.run_eval``, ``harness.gradcheck``,
``cli.recompute_metrics`` and ``axpo.coverage``). A workload has a set-up,
a round and a teardown; a fresh set-up comes before every ``rounds_per_setup``
rounds, so set-up is measured throughout the run. Every end-to-end metric is measured on every workload, so each
workload also runs a small slice of the operations that are not its own;
README.md says which are the workload's own.

All run seeds are derived from the workload seed, and a round repeats the
same inputs, so rounds must write byte-identical logs and, when traced,
identical counts.
"""

from __future__ import annotations

import hashlib
import shutil
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import numpy as np

from axpo import cli, coverage, harness
from axpo.config import RunConfig
from axpo.diagnostics import parse_metrics_csv
from axpo.env import make_env
from axpo.policy import load_policy

from tracer import Tracer

# The files resume must reproduce byte for byte (acceptance criterion 10).
LOG_FILES = (
    harness.TRAJECTORY_LOG,
    harness.EVAL_LOG,
    harness.AUDIT_LOG,
    harness.METRICS_CSV,
    harness.CHECKPOINT,
)

TRAIN_STEPS = 10          # per train call; a multiple of eval_every, so the last step is evaluated
EVALS = 2                 # evals of each final checkpoint per round
FIXTURE_STEPS = 20        # the analyze fixture run
FIXTURE_ROUNDS = 3        # analyze rounds per fixture: the fixture costs about a round
TAIL_TRAIN_STEPS = 5      # analyze: the small slice of training
GRADCHECK_CHECKS = 3      # analyze: configurations per gradcheck
COVERAGE_ROWS = 10        # analyze: operating points per sweep
# Train workloads: the small slice of the analysis operations. One gradcheck
# configuration's cost depends on its seed, so a round checks several seeds;
# resume is repeated so that a round's sample is a mean of more than one call.
TAIL_GRADCHECK_SEEDS = 4
TAIL_RESUMES = 2
TAIL_COVERAGE_ROWS = 6
COVERAGE_TRIALS = 200_000  # `axpo coverage` defaults
COVERAGE_N = 4
MC_TOLERANCE_SE = 5.0

# Host probes. A shared host's speed drifts by up to 1.5x within a minute,
# and not by the same factor for every kind of work. Every timing is scaled by
# the speed of a probe of its kind, timed just before and just after it: a
# fixed burst of work that depends on the host, not on axpo.
_PROBE_INPUT = np.linspace(0.0, 1.0, 16)
_PROBE_RNG = np.random.default_rng(0)


def _small_numpy_ops() -> None:
    """What axpo spends its steps on: small numpy operations driven from Python."""
    table = {}
    for i in range(1500):
        x = np.exp(_PROBE_INPUT * (i % 5))
        p = x / x.sum()
        table[i % 64] = float(p[i % 16])


def _large_arrays() -> None:
    """What the coverage Monte Carlo spends its time on: large random arrays."""
    np.any(_PROBE_RNG.random((40_000, 4)) < 0.3, axis=1).mean()


@dataclass(frozen=True)
class Probe:
    work: Callable[[], None]
    nominal_s: float  # its median time on the 2-core x86_64 host of the baseline

    def time(self) -> float:
        start = perf_counter()
        self.work()
        return perf_counter() - start

    def speed(self, before: float, after: float) -> float:
        """The factor that turns a wall time between two probes into normalized
        time: the time on a host where the probe takes its nominal time."""
        return 2.0 * self.nominal_s / (before + after)


STEP_PROBE = Probe(_small_numpy_ops, 0.010)
ARRAY_PROBE = Probe(_large_arrays, 0.0028)


class Recorder:
    """Timing samples, attempted operations and failures of one run.

    Each timed operation and each check counts as one attempted operation;
    an operation that raises or a check that does not hold counts as failed.
    Samples hold normalized times; raw_samples the wall times they came from.
    """

    def __init__(self, tracer: Optional[Tracer]):
        self.tracer = tracer
        self.tracing = False  # set for the traced rounds of a traced run
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.raw_samples: dict[str, list[float]] = defaultdict(list)
        self.traced_samples: dict[str, list[float]] = defaultdict(list)
        self._round: dict[str, list[float]] = defaultdict(list)
        self._raw_round: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0

    def end_round(self, traced: bool) -> None:
        """One sample per metric per round: the mean of the round's timings."""
        target = self.traced_samples if traced else self.samples
        for metric, values in self._round.items():
            target[metric].append(sum(values) / len(values))
            if not traced:
                raw = self._raw_round[metric]
                self.raw_samples[metric].append(sum(raw) / len(raw))
        self._round.clear()
        self._raw_round.clear()

    def op(self, metric: str, scale: float, fn: Callable, *args, root: Optional[str] = None,
           run_id: str = "", probe: Probe = STEP_PROBE, **kwargs):
        """Time fn(*args, **kwargs) and record elapsed seconds * scale under
        metric, normalized by the probe's speed around it.

        In a traced round an operation with a root name runs under the tracer
        and the others are not recorded. Returns None if fn raised.
        """
        self.attempted += 1
        traced = self.tracing and root is not None
        before = probe.time()
        start = perf_counter()
        try:
            if traced:
                with self.tracer.root(root, run_id):
                    result = fn(*args, **kwargs)
            else:
                result = fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None
        elapsed = perf_counter() - start
        if self.tracing and not traced:
            return result  # an untraced operation of a traced round has no comparison
        self._round[metric].append(elapsed * probe.speed(before, probe.time()) * scale)
        self._raw_round[metric].append(elapsed * scale)
        return result

    def check(self, name: str, ok: bool, detail: object = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {name} {detail}", file=sys.stderr)


def derived_seeds(seed: int, count: int) -> list[int]:
    """count independent small seeds derived from the workload seed."""
    return [int(s) % 1_000_000 for s in np.random.SeedSequence(seed).generate_state(count)]


def log_digests(sdir: Path) -> dict[str, str]:
    return {name: hashlib.sha256((sdir / name).read_bytes()).hexdigest() for name in LOG_FILES}


def final_summary(sdir: Path) -> dict:
    summary = harness.seed_summary(sdir)
    return {"pass1_eval": summary["pass1_eval"], "tool_use_rate": summary["tool_use_rate"]}


# -- operations shared by the workloads -------------------------------------


def check_cap(rec: Recorder, cfg: RunConfig, sdir: Path) -> None:
    """Resampled continuations per step stay within floor(r * B * N)."""
    ratio = cfg.resample_ratio if cfg.algorithm == "axpo" else 0.0
    cap = int(ratio * cfg.questions_per_step * cfg.group_size)
    rows = parse_metrics_csv(sdir / harness.METRICS_CSV)
    rec.check("continuations within cap", all(r["extra_continuations"] <= cap for r in rows), sdir)


def diag(rec: Recorder, sdir: Path, run_id: str, traced: bool = True) -> None:
    """`axpo diag`: rebuild metrics.csv from the logs; it must match byte for byte."""
    lines = rec.op("diag_s", 1.0, cli.recompute_metrics, sdir,
                   root="op.diag" if traced else None, run_id=run_id)
    if lines is not None:
        persisted = (sdir / harness.METRICS_CSV).read_text(encoding="utf-8")
        rec.check("diag reproduces metrics.csv", "\n".join(lines) + "\n" == persisted, sdir)


def eval_final(rec: Recorder, cfg: RunConfig, env, seed: int, sdir: Path, run_id: str,
               traced: bool = True) -> None:
    """Evaluate the final checkpoint again; pass@1 must equal the logged value."""
    policy, step = load_policy(sdir / harness.CHECKPOINT)
    out = rec.op("eval_pass_ms", 1000.0, harness.run_eval, policy, env, cfg, seed, step,
                 harness.run_id_for(cfg, seed), root="op.eval" if traced else None, run_id=run_id)
    if out is not None:
        last = parse_metrics_csv(sdir / harness.METRICS_CSV)[-1]
        rec.check("eval reproduces logged pass1_eval",
                  last["step"] == step and last["pass1_eval"] == out[1], (step, last, out[1]))


def resume(rec: Recorder, cfg: RunConfig, interrupted: Path, dest: Path,
           expected: dict[int, dict[str, str]], run_id: str, traced: bool = True) -> None:
    """Resume a copy of an interrupted run; its logs must equal the uninterrupted run's."""
    shutil.copytree(interrupted, dest)
    out = rec.op("resume_s", 1.0, harness.train, replace(cfg, out_dir=str(dest)),
                 root="harness.resume" if traced else None, run_id=run_id)
    if out is not None:
        for seed, digests in expected.items():
            rec.check("resume is byte-identical", log_digests(harness.seed_dir(dest, seed)) == digests,
                      seed)
    shutil.rmtree(dest)


def gradcheck(rec: Recorder, checks: int, seed: int, run_id: str, traced: bool = True) -> None:
    report = rec.op("gradcheck_s", 1.0, harness.gradcheck, num_checks=checks, seed=seed,
                    root="op.gradcheck" if traced else None, run_id=run_id)
    if report is not None:
        rec.check("gradcheck passed", report.passed, report)


def _coverage_sweep(rows: int, seed: int) -> list[tuple]:
    """Shaped like `axpo coverage --random rows`: draw the operating points,
    then the closed forms and a Monte Carlo estimate at each."""
    rng = np.random.default_rng(seed)
    points = [(rng.random(), rng.random(), rng.random()) for _ in range(rows)]
    out = []
    for q, p_tool, p_prefix in points:
        params = coverage.CoverageParams(q=q, p_tool=p_tool, p_prefix=p_prefix, n=COVERAGE_N)
        raw = coverage.coverage_raw(q, p_tool, COVERAGE_N)
        res = coverage.coverage_resample(p_prefix, COVERAGE_N)
        out.append((raw, res, coverage.monte_carlo_coverage(params, COVERAGE_TRIALS, rng)))
    return out


def coverage_sweep(rec: Recorder, rows: int, seed: int, run_id: str, traced: bool = True) -> None:
    out = rec.op("coverage_s", 1.0, _coverage_sweep, rows, seed,
                 root="op.coverage" if traced else None, run_id=run_id, probe=ARRAY_PROBE)
    for raw, res, mc in out or ():
        for closed, estimate in ((raw, mc.raw_estimate), (res, mc.resample_estimate)):
            # The binomial standard error at the closed form, but never below one
            # trial: near 0 or 1 a single hit is already many such errors away.
            se = max(np.sqrt(closed * (1.0 - closed) / COVERAGE_TRIALS), 1.0 / COVERAGE_TRIALS)
            rec.check("Monte Carlo within 5 SE of closed form",
                      abs(estimate - closed) <= MC_TOLERANCE_SE * se, (closed, estimate))


# -- workloads -----------------------------------------------------------


class TrainWorkload:
    """harness.train on gap-env at the RunConfig defaults, two seeds, into a
    fresh directory per round; then the final checkpoints are evaluated and
    the runs diagnosed, followed by a small slice of the analysis operations."""

    overhead_metric = "train_step_ms"
    rounds_per_setup = 1

    def __init__(self, algorithm: str, seed: int, workdir: Path, rec: Recorder):
        base, self.coverage_seed, *self.gradcheck_seeds = derived_seeds(seed, 2 + TAIL_GRADCHECK_SEEDS)
        self.cfg = RunConfig(algorithm=algorithm, env_preset="gap-env", steps=TRAIN_STEPS,
                             seeds=(2 * base, 2 * base + 1))
        self.workdir = workdir
        self.rec = rec
        self.digests: dict[int, dict[str, str]] = {}
        self.final: dict[int, dict] = {}

    def setup(self, rep: int) -> None:
        """Environment tables, and a one-step warm-up run whose interrupted copy
        (step 1 logged, checkpoint still at step 0) the rounds resume."""
        cfg = self.cfg
        self.envs = {s: make_env(cfg.env_preset, seed=s) for s in cfg.seeds}
        self.setup_dir = self.workdir / f"setup-{rep}"
        warm = self.setup_dir / "warmup"
        harness.train(replace(cfg, steps=1, out_dir=str(warm)))
        interrupted = self.setup_dir / "interrupted"
        shutil.copytree(warm, interrupted)
        for s in cfg.seeds:
            sdir = harness.seed_dir(interrupted, s)
            (sdir / harness.CHECKPOINT).write_bytes((sdir / harness.REF_CHECKPOINT).read_bytes())
        self.warmup_cfg = replace(cfg, steps=1)
        self.interrupted = interrupted
        self.warmup_digests = {s: log_digests(harness.seed_dir(warm, s)) for s in cfg.seeds}

    def round(self, index: int) -> None:
        rec, cfg = self.rec, self.cfg
        run_id = f"round{index}"
        out = self.workdir / f"round-{index}"
        steps = cfg.steps * len(cfg.seeds)
        done = rec.op("train_step_ms", 1000.0 / steps, harness.train, replace(cfg, out_dir=str(out)),
                      root="op.train", run_id=run_id)
        if done is not None:
            for s in cfg.seeds:
                sdir = harness.seed_dir(out, s)
                check_cap(rec, cfg, sdir)
                digests = log_digests(sdir)
                rec.check("rounds write identical logs", self.digests.setdefault(s, digests) == digests, s)
                self.final[s] = final_summary(sdir)
                for _ in range(EVALS):
                    eval_final(rec, cfg, self.envs[s], s, sdir, run_id, traced=False)
                diag(rec, sdir, run_id, traced=False)
        shutil.rmtree(out, ignore_errors=True)
        for rep in range(TAIL_RESUMES):
            resume(rec, self.warmup_cfg, self.interrupted, self.workdir / f"resume-{index}-{rep}",
                   self.warmup_digests, run_id, traced=False)
        for gradcheck_seed in self.gradcheck_seeds:
            gradcheck(rec, 1, gradcheck_seed, run_id, traced=False)
        coverage_sweep(rec, TAIL_COVERAGE_ROWS, self.coverage_seed, run_id, traced=False)

    def teardown(self) -> None:
        shutil.rmtree(self.setup_dir)

    def units(self, tracer: Tracer, traced_rounds: int) -> float:
        """Per-layer figures are per training step."""
        return float(tracer.counts["harness.train_step.calls"])

    def context(self) -> dict:
        return {"log_sha256": self.digests, "final": self.final}


class AnalyzeWorkload:
    """The analysis side on a short axpo gap-env fixture run: `axpo diag`,
    resume of an interrupted copy, gradcheck on mini, a random coverage sweep,
    eval passes of the final checkpoint, and a short fresh training run."""

    overhead_metric = "round_ms"
    rounds_per_setup = FIXTURE_ROUNDS

    def __init__(self, seed: int, workdir: Path, rec: Recorder):
        run_seed, self.gradcheck_seed, self.coverage_seed = derived_seeds(seed, 3)
        self.seed = run_seed
        self.cfg = RunConfig(algorithm="axpo", env_preset="gap-env", steps=FIXTURE_STEPS,
                             seeds=(run_seed,))
        self.workdir = workdir
        self.rec = rec
        self.digests: Optional[dict[str, str]] = None

    def setup(self, rep: int) -> None:
        """Train the fixture to one step short, keep that checkpoint, finish the
        run, and make an interrupted copy whose checkpoint is one step behind."""
        rec, cfg = self.rec, self.cfg
        self.setup_dir = self.workdir / f"setup-{rep}"
        out = self.setup_dir / "fixture"
        sdir = harness.seed_dir(out, self.seed)
        harness.train(replace(cfg, steps=cfg.steps - 1, out_dir=str(out)))
        behind = (sdir / harness.CHECKPOINT).read_bytes()
        harness.train(replace(cfg, out_dir=str(out)))
        interrupted = self.setup_dir / "interrupted"
        shutil.copytree(out, interrupted)
        (harness.seed_dir(interrupted, self.seed) / harness.CHECKPOINT).write_bytes(behind)
        digests = log_digests(sdir)
        if self.digests is None:
            self.digests = digests
        rec.check("fixture runs write identical logs", digests == self.digests)
        check_cap(rec, cfg, sdir)
        self.final = final_summary(sdir)
        self.env = make_env(cfg.env_preset, seed=self.seed)
        self.sdir, self.interrupted = sdir, interrupted

    def round(self, index: int) -> None:
        rec, cfg = self.rec, self.cfg
        run_id = f"round{index}"
        diag(rec, self.sdir, run_id)
        resume(rec, cfg, self.interrupted, self.workdir / f"resume-{index}",
               {self.seed: self.digests}, run_id)
        gradcheck(rec, GRADCHECK_CHECKS, self.gradcheck_seed, run_id)
        coverage_sweep(rec, COVERAGE_ROWS, self.coverage_seed, run_id)
        for rep in range(EVALS):
            eval_final(rec, cfg, self.env, self.seed, self.sdir, run_id, traced=rep == 0)
        out = self.workdir / f"train-{index}"
        rec.op("train_step_ms", 1000.0 / TAIL_TRAIN_STEPS, harness.train,
               replace(cfg, steps=TAIL_TRAIN_STEPS, out_dir=str(out)))
        shutil.rmtree(out, ignore_errors=True)

    def teardown(self) -> None:
        shutil.rmtree(self.setup_dir)

    def units(self, tracer: Tracer, traced_rounds: int) -> float:
        """Per-layer figures are per round of the analysis operations."""
        return float(traced_rounds)

    def context(self) -> dict:
        return {"log_sha256": {self.seed: self.digests}, "final": {self.seed: self.final}}


def make_workload(name: str, seed: int, workdir: Path, rec: Recorder):
    if name == "train-axpo":
        return TrainWorkload("axpo", seed, workdir, rec)
    if name == "train-grpo":
        return TrainWorkload("grpo", seed, workdir, rec)
    if name == "analyze":
        return AnalyzeWorkload(seed, workdir, rec)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("train-axpo", "train-grpo", "analyze")
