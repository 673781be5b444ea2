"""Training harness: deterministic runs with full logging, checkpoint/resume
that is byte-identical to an uninterrupted run, a finite-difference gradient
check, and run-to-run comparison.

Determinism contract: every random draw comes from a stream keyed by
(seed, phase, step), consumed in a fixed order within the step. Replaying a
step from its predecessor's checkpoint therefore reproduces the original
bytes in every log file.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, fields
from itertools import repeat, takewhile
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .advantage import (
    LossTable,
    ObjectiveConfig,
    _evaluate,
    _gather,
    apply_update,
    grpo_advantage,  # noqa: F401  (bound here for the benchmark's tracer)
    policy_gradient,
    surrogate_objective,  # noqa: F401  (bound here for the benchmark's tracer)
)
from .config import CONFIG_FILE_NAME, RunConfig, load_config, save_config
from .diagnostics import (
    METRICS_COLUMNS,
    compute_step_metrics,
    eval_passes,
    metrics_row,
    parse_audit_record,
    parse_metrics_csv,
    parse_metrics_row,
    write_audit_records,
)
from .env import (
    ToolEnv,
    draw_continuations,
    draw_rollouts,
    make_env,
    mini_env_spec,
    sample_rollout,  # noqa: F401  (bound here for the benchmark's tracer)
    with_metadata,  # noqa: F401  (bound here for the benchmark's tracer)
)
from .policy import PolicyShape, TabularPolicy, load_policy, save_policy
from .resample import (
    Candidate,
    ResamplePlan,
    ResampleResult,
    allocate_budget,
    assemble_step_losses,
    detect_trigger,
    rank_candidates,
    resample,
)
from .trajectory import DrawTable, ParseError, read_records, record_parser, write_log


class MissingRun(FileNotFoundError):
    """A run directory lacks the files a comparison needs."""


class ConfigMismatch(ValueError):
    """A config that does not fit what it is applied to: two runs that are not
    comparable, a preset too small for it, or a run started under another."""


class BadStepSize(ValueError):
    """A finite-difference step that is not finite and positive."""


TRAJECTORY_LOG = "trajectory_log.jsonl"
EVAL_LOG = "eval_log.jsonl"
AUDIT_LOG = "resample_audit.jsonl"
METRICS_CSV = "metrics.csv"
CHECKPOINT = "policy.json"
REF_CHECKPOINT = "ref_policy.json"

# RNG stream phases.
_PHASE_ROLLOUT = 1
_PHASE_RESAMPLE = 2
_PHASE_EVAL = 3
_PHASE_QUESTIONS = 4


def phase_rng(seed: int, phase: int, step: int) -> np.random.Generator:
    return np.random.default_rng((seed, phase, step))


def run_id_for(cfg: RunConfig, seed: int) -> str:
    """Deterministic id from the sampling-relevant knobs only, so runs that
    must produce identical logs (e.g. a zero resampling budget vs the plain
    baseline) do. The algorithm name lives in the config echo instead."""
    return f"{cfg.env_preset}-seed{seed}"


def seed_dir(out_dir: Path, seed: int) -> Path:
    return out_dir / f"seed_{seed}"


# -- one training step ----------------------------------------------------


@dataclass(frozen=True)
class Batch:
    """One step's draw tables, its loss table, which reads their columns, and
    every intermediate result that built it. `triggered` maps each triggered
    question's group index, in group order, to its ranked candidates; `items`
    holds one loss item per rollout row and then one per continuation row."""

    rollouts: DrawTable
    continuations: DrawTable
    triggered: dict[int, list[Candidate]]
    plan: ResamplePlan
    results: list[ResampleResult]
    items: LossTable


def build_batch(
    policy: TabularPolicy,
    env: ToolEnv,
    qids: Sequence[int],
    cfg: RunConfig,
    rollout_rng: np.random.Generator,
    resample_rng: np.random.Generator,
    run_id: str = "",
    step: int = 0,
) -> Batch:
    """The method's chain for one batch: cfg.group_size rollouts per question,
    trigger detection and candidate ranking, breadth-first allocation of at
    most floor(r*B*N) continuations (none under grpo), K continuations per
    selected prefix, and assembly of the advantage streams. After the draws
    every step reads the two tables' columns, and no Trajectory is built.

    Draw order: every rollout is drawn from rollout_rng, in qids order, into
    one table before any continuation is drawn from resample_rng, in plan
    order, into another; `resample` only splits and scores the second. The
    two generators may be one shared generator, which then serves the
    rollouts first and the continuations after. Both tables are the step's
    log records, under run_id and step; a continuation's source is its
    prefix's rollout row, and its source_prefix_id is
    "step:question_id:source_index".
    """
    n = cfg.group_size
    rollouts = draw_rollouts(policy, env, np.repeat(qids, n), rollout_rng, run_id=run_id, step=step)
    triggered = rank_candidates(rollouts, n, detect_trigger(rollouts, n))
    ratio = cfg.resample_ratio if cfg.algorithm == "axpo" else 0.0
    cap = int(ratio * len(qids) * n)
    plan = allocate_budget(triggered.values(), cfg.resample_k, cap)
    k, sources, prefix_ids = plan.continuations_per_prefix, [], []
    question = rollouts.question.tolist()
    for sel in plan.selected:
        row = sel.group_index * n + sel.source_index
        sources += [row] * k
        prefix_ids += [f"{step}:{question[row]}:{sel.source_index}"] * k
    continuations = draw_continuations(policy, env, rollouts, sources, resample_rng, run_id=run_id,
                                       step=step, is_resample=True, source_prefix_ids=prefix_ids)
    results = resample(plan, continuations)
    items = assemble_step_losses(rollouts, continuations, n, results)
    return Batch(rollouts=rollouts, continuations=continuations, triggered=triggered, plan=plan,
                 results=results, items=items)


def train_step(
    policy: TabularPolicy,
    ref_policy: TabularPolicy,
    env: ToolEnv,
    cfg: RunConfig,
    seed: int,
    step: int,
    run_id: str,
) -> tuple[TabularPolicy, tuple[DrawTable, DrawTable], list[dict]]:
    """Run one step; returns the updated policy, the step's rollout and
    continuation tables, which are its trajectory-log records in that order,
    and the resample audit records.

    Trigger detection and audit logging run under both algorithms; with no
    resampling budget the continuation table is empty and the audit records
    are null entries, which keeps a zero-budget run byte-identical to the
    plain baseline. The batch's active steps are gathered once; each of the
    cfg.epochs_per_batch updates evaluates the gradient on that gather.
    """
    qids = phase_rng(seed, _PHASE_QUESTIONS, step).choice(
        env.num_questions, size=cfg.questions_per_step, replace=False
    )
    batch = build_batch(
        policy, env, qids, cfg,
        phase_rng(seed, _PHASE_ROLLOUT, step), phase_rng(seed, _PHASE_RESAMPLE, step),
        run_id, step,
    )

    results_of: dict[int, list[ResampleResult]] = {}
    for r in batch.results:
        results_of.setdefault(r.selected.group_index, []).append(r)
    rewards = batch.continuations.reward.tolist()
    audit_records = []
    for gi, qid in zip(batch.triggered, qids[list(batch.triggered)].tolist()):
        head = {"step": step, "question_id": qid}
        chosen = results_of.get(gi, [])
        for r in chosen:
            audit_records.append(
                {
                    **head,
                    "source_index": r.selected.source_index,
                    "confidence": r.selected.confidence,
                    "rewards": [rewards[i] for i in r.continuations],
                    "recovery": r.recovery,
                }
            )
        if not chosen:
            audit_records.append(
                {**head, "source_index": None, "confidence": None, "rewards": [], "recovery": None}
            )

    steps = _gather(batch.items, policy.shape)
    new_policy = policy
    for _ in range(cfg.epochs_per_batch):
        _, gradient = _evaluate(steps, new_policy, ref_policy, cfg.objective, want_gradient=True)
        new_policy = apply_update(new_policy, gradient, cfg.learning_rate)

    return new_policy, (batch.rollouts, batch.continuations), audit_records


def run_eval(
    policy: TabularPolicy,
    env: ToolEnv,
    cfg: RunConfig,
    seed: int,
    step: int,
    run_id: str,
) -> tuple[DrawTable, float, Optional[float]]:
    """Evaluate on the full frozen question set: eval_rollouts per question.

    Returns the pass's draw table, under run_id and step, pass@1, and pass@4
    (absent with fewer than 4 rollouts per question), both from its reward
    column. The table is the eval-log records, which write_log writes from
    its columns; an eval pass builds no Trajectory and no Step.
    """
    rng = phase_rng(seed, _PHASE_EVAL, step)
    qids = np.repeat(np.arange(env.num_questions), cfg.eval_rollouts)
    table = draw_rollouts(policy, env, qids, rng, run_id=run_id, step=step)
    return (table, *eval_passes((table,)))


# -- run directory management ---------------------------------------------


def _audit_step(line: str, number: int) -> tuple[int, int]:
    rec = parse_audit_record(line, number)
    return rec["step"], len(rec["rewards"])


def _metrics_step(line: str, number: int) -> tuple[int]:
    return ((parse_metrics_row(line, number) or {"step": -1})["step"],)


# Each run file and, given a seed's policy shape and run id, the parse resume reads its
# lines with. What it reads of a line is a tuple whose first item is its step (the metrics
# header's is -1); of an audit record also its continuation count, 0 if it selected none. A
# trajectory or eval record is parsed in full, as diag reads it, and must be the seed's.
_LOG_STEPS = {
    TRAJECTORY_LOG: record_parser,
    EVAL_LOG: record_parser,
    AUDIT_LOG: lambda shape, run_id: _audit_step,
    METRICS_CSV: lambda shape, run_id: _metrics_step,
}

# A resumed seed's checkpoint step, the length each log is cut to, and the
# checked logits of its policy and reference policy, which the seed's worker
# builds its policies from.
_ResumePoint = tuple[int, dict[str, int], np.ndarray, np.ndarray]


def _cut(path: Path, step_of: Callable[[str, int], tuple], max_step: int) -> tuple[int, list]:
    """A log's length up to its first record past max_step or torn last line; the first two
    items of what step_of read of each record kept (its step and, of an audit record, its
    continuation count), not a whole parsed row."""
    length, kept = 0, []
    for length, read in takewhile(lambda rec: rec[1][0] <= max_step, read_records(path, step_of)):
        kept.append(read[:2])
    return length, kept


def _load_run_config(path: Path) -> RunConfig:
    """The config a run was started under; ParseError, naming path, if it does not parse."""
    try:
        return load_config(path)
    except ValueError as exc:
        raise ParseError(str(exc), path=path) from None


def seed_shape(sdir: Path) -> PolicyShape:
    """The policy shape of the run a seed directory was started under, from its config."""
    return make_env(_load_run_config(sdir / CONFIG_FILE_NAME).env_preset).policy_shape()


# What a resumed seed may change: how far it trains, the seed list, and where the run lives.
_RESUMABLE_FIELDS = ("steps", "seeds", "out_dir")


def _resume_point(
    cfg: RunConfig, sdir: Path, shape: PolicyShape, run_id: str
) -> Optional[_ResumePoint]:
    """Where a seed directory resumes, None for a fresh seed; writes nothing.
    ConfigMismatch or ParseError, naming the file, if the seed does not fit
    the run: its config, checkpoints, a log line before the cut (a trajectory
    or eval record of another run_id among them, or an audit record selecting
    other than resample_k continuations), or a log short of a record."""
    started_path = sdir / CONFIG_FILE_NAME
    if started_path.exists():
        started = _load_run_config(started_path)
        changed = [
            f"{f.name}={getattr(started, f.name)!r}"
            for f in fields(RunConfig)
            if f.name not in _RESUMABLE_FIELDS and getattr(started, f.name) != getattr(cfg, f.name)
        ]
        if changed:
            raise ConfigMismatch(f"{started_path} was started with {', '.join(changed)}")
    if not (sdir / CHECKPOINT).exists():
        return None
    if not started_path.exists():
        raise ConfigMismatch(f"{sdir} has a checkpoint but no {CONFIG_FILE_NAME}")
    done, logits = None, []
    for path in (sdir / CHECKPOINT, sdir / REF_CHECKPOINT):
        policy, step = load_policy(path)
        for name, run_value in (("shape", shape), ("temperature", cfg.temperature)):
            value = getattr(policy, name)
            if value != run_value:
                message = f"checkpoint {name} {value!r} differs from the run's {run_value!r}"
                raise ParseError(message, path=path)
        done = step if done is None else done
        logits.append(policy.logits)
    cuts = {name: _cut(sdir / name, parser(shape, run_id), done)
            for name, parser in _LOG_STEPS.items()}
    # A checkpoint follows every line of its step, so each log keeps every record of
    # each of its steps up to the checkpoint's. A step's trajectory records are its
    # rollouts and the continuations of the prefixes its audit records selected.
    kept = {name: [read[0] for read in reads] for name, (_, reads) in cuts.items()}
    selected = Counter(step for step, drawn in cuts[AUDIT_LOG][1] if drawn)
    audit, rollouts = kept[AUDIT_LOG], cfg.questions_per_step * cfg.group_size
    every, evals = cfg.eval_every, shape.num_questions * cfg.eval_rollouts
    if audit != sorted(audit):
        raise ParseError("expected steps from 1 in order", path=sdir / AUDIT_LOG)
    for step, drawn in cuts[AUDIT_LOG][1]:
        if drawn not in (0, cfg.resample_k):
            message = f"step {step} selects a prefix of {drawn} rewards, expected {cfg.resample_k}"
            raise ParseError(message, path=sdir / AUDIT_LOG)
    for name, want, expected in (
        (TRAJECTORY_LOG, [s for s in range(1, done + 1)
                          for _ in range(rollouts + cfg.resample_k * selected[s])],
         f"the records of steps 1 to {done}, in order"),
        (EVAL_LOG, [s for s in range(0, done + 1, every) for _ in range(evals)],
         f"the records of every step in 0 to {done} that is a multiple of {every}"),
        (METRICS_CSV, [-1, *range(done + 1)], f"a header and rows 0 to {done}"),
    ):
        if (got := kept[name]) != want:
            message = f"expected {expected}"
            if name != METRICS_CSV and got == sorted(got):  # in order, so a count is off
                held, wanted = Counter(got), Counter(want)
                step = min(s for s in held.keys() | wanted.keys() if held[s] != wanted[s])
                message = f"step {step} holds {held[step]} records, expected {wanted[step]}"
            raise ParseError(message, path=sdir / name)
    return done, {name: length for name, (length, _) in cuts.items()}, *logits


def _append(path: Path, write, *batches) -> None:
    """write(rows, fh) for each of batches, in one open of path for an append."""
    with path.open("a", encoding="utf-8") as fh:
        for rows in batches:
            write(rows, fh)


def run_one_seed(cfg: RunConfig, seed: int, out_dir: Path, resume: Optional[_ResumePoint]) -> Path:
    """Train one seed to cfg.steps: from scratch, or from the checked logits
    of its _resume_point after cutting each log to its length."""
    sdir = seed_dir(out_dir, seed)
    env = make_env(cfg.env_preset, seed=seed)
    run_id = run_id_for(cfg, seed)
    if resume is not None:
        done, lengths, logits, ref_logits = resume
        shape = env.policy_shape()
        policy = TabularPolicy(shape, logits, cfg.temperature)
        ref_policy = TabularPolicy(shape, ref_logits, cfg.temperature)
        for name, length in lengths.items():
            os.truncate(sdir / name, length)
    else:
        sdir.mkdir(parents=True, exist_ok=True)
        save_config(cfg, sdir / CONFIG_FILE_NAME)
        policy = ref_policy = env.initial_policy(cfg.temperature)
        done = -1
        save_policy(ref_policy, sdir / REF_CHECKPOINT, step=0)
        for name in _LOG_STEPS:
            header = ",".join(METRICS_COLUMNS) + "\n" if name == METRICS_CSV else ""
            (sdir / name).write_text(header, encoding="utf-8")

    # Step 0 trains nothing; it evaluates and checkpoints like any other step, so
    # a seed directory with a checkpoint holds complete step-0 logs.
    for step in range(done + 1, cfg.steps + 1):
        tables, audit_records, pass1, pass4 = (), [], None, None
        if step > 0:
            policy, tables, audit_records = train_step(policy, ref_policy, env, cfg, seed, step, run_id)
            _append(sdir / TRAJECTORY_LOG, write_log, *tables)
            _append(sdir / AUDIT_LOG, write_audit_records, audit_records)
        if step % cfg.eval_every == 0:
            evals, pass1, pass4 = run_eval(policy, env, cfg, seed, step, run_id)
            _append(sdir / EVAL_LOG, write_log, evals)
            # A step without training records (step 0) is measured on its eval pass.
            tables = tables or (evals,)
        metrics = compute_step_metrics(step, tables, audit_records, pass1, pass4)
        _append(sdir / METRICS_CSV, lambda m, fh: fh.write(metrics_row(m) + "\n"), metrics)
        if step % cfg.checkpoint_every == 0 or step == cfg.steps:
            save_policy(policy, sdir / CHECKPOINT, step=step)
    return sdir


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


@contextmanager
def _seed_map(num_seeds: int):
    """A map over seeds, in a pool of forked processes, one per seed up to the number of
    usable CPUs; the builtin map with one such worker or where fork is not available."""
    workers = min(num_seeds, _usable_cpus())
    if workers > 1:
        # Imported here: a one-seed run does not pay for the pool's modules.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods():
            # Forked, not spawned: a spawned worker re-imports numpy and axpo,
            # which takes longer than a short run.
            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(workers, mp_context=context) as pool:
                yield pool.map
            return
    yield map


def train(cfg: RunConfig) -> Path:
    """Train every configured seed; returns the run directory.

    First every seed directory is read and checked (_resume_point), and a
    refused run raises ConfigMismatch or ParseError with every file as it was.
    Then <out>/config.txt is written and each seed trains, a resumed one from
    its checkpoint with its logs cut there. Both phases run over _seed_map.
    Each seed draws only from its own streams and writes only its own
    directory, so the logs are the same bytes in a pool or not. If seeds fail,
    the first failed one in seed order re-raises its exception here once the
    pool has finished; every seed directory stays resumable."""
    env = make_env(cfg.env_preset)
    if cfg.questions_per_step > env.num_questions:
        raise ConfigMismatch(
            f"questions_per_step={cfg.questions_per_step} exceeds the {env.num_questions} "
            f"questions of {cfg.env_preset}"
        )
    out_dir = cfg.resolved_out_dir()
    sdirs = [seed_dir(out_dir, seed) for seed in cfg.seeds]
    run_ids = [run_id_for(cfg, seed) for seed in cfg.seeds]
    with _seed_map(len(cfg.seeds)) as seed_map:
        resumes = list(seed_map(_resume_point, repeat(cfg), sdirs, repeat(env.policy_shape()),
                                run_ids))
        out_dir.mkdir(parents=True, exist_ok=True)
        save_config(cfg, out_dir / CONFIG_FILE_NAME)
        list(seed_map(run_one_seed, repeat(cfg), cfg.seeds, repeat(out_dir), resumes))
    return out_dir


# -- gradient check --------------------------------------------------------


@dataclass(frozen=True)
class GradcheckReport:
    configs_checked: int
    kinks_excluded: int
    max_abs_error: float

    @property
    def passed(self) -> bool:
        return self.configs_checked > 0 and self.max_abs_error < 1e-6


def finite_difference_gradient(
    items: LossTable,
    policy: TabularPolicy,
    ref_policy: TabularPolicy,
    cfg: ObjectiveConfig,
    h: float = 1e-5,
) -> np.ndarray:
    """Central finite differences of the surrogate over every policy logit.

    The items do not change during the call, so their active steps are
    gathered once and every perturbed objective is evaluated on that gather,
    each on a probe policy built from one working copy of the logits.
    """
    shape, temp = policy.shape, policy.temperature
    steps = _gather(items, shape)
    flat = policy.logits.copy()
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + h
        up, _ = _evaluate(steps, TabularPolicy(shape, flat, temp), ref_policy, cfg, False)
        flat[i] = original - h
        down, _ = _evaluate(steps, TabularPolicy(shape, flat, temp), ref_policy, cfg, False)
        flat[i] = original
        grad[i] = (up - down) / (2.0 * h)
    return grad


def _perturbed(policy: TabularPolicy, rng: np.random.Generator, scale: float) -> TabularPolicy:
    if scale > 0.0:
        noise = rng.normal(0.0, scale, policy.logits.shape)
        return TabularPolicy(policy.shape, policy.logits + noise, policy.temperature)
    return policy


def _active_ratios(items: LossTable, policy: TabularPolicy) -> list[float]:
    """The importance ratio of every active step, in item and step order."""
    steps = _gather(items, policy.shape)
    p = policy.pi
    return (p[steps.start + steps.action] / np.exp(steps.logp_old)).tolist()


# How near a clip boundary an importance ratio excludes its configuration from gradcheck.
_KINK_TOLERANCE = 1e-4


def gradcheck(num_checks: int = 12, h: float = 1e-5, seed: int = 0) -> GradcheckReport:
    """Compare the analytic gradient with central finite differences on random
    configurations spanning the unclipped, clipped, and KL-penalized regimes.

    Configurations where any active importance ratio sits within
    _KINK_TOLERANCE of a clip boundary are excluded (the surrogate is not
    differentiable there) and reported in the result.
    """
    if not (math.isfinite(h) and h > 0.0):
        raise BadStepSize(f"h must be finite and positive, got {h!r}")
    scales = (0.0, 0.3, 0.8)       # 0.0 keeps every ratio at exactly 1
    betas = (0.0, 1e-3, 0.05)
    checked = 0
    excluded = 0
    max_err = 0.0
    batch_cfg = RunConfig(
        algorithm="axpo", env_preset="mini", questions_per_step=4, group_size=4, steps=1
    )
    for idx in range(num_checks):
        rng = np.random.default_rng((seed, idx))
        env = ToolEnv(mini_env_spec(seed=idx))
        rollout_policy = _perturbed(env.initial_policy(), rng, 0.5)
        qids = rng.choice(env.num_questions, size=batch_cfg.questions_per_step, replace=False)
        items = build_batch(rollout_policy, env, qids, batch_cfg, rng, rng).items
        theta = _perturbed(rollout_policy, rng, scales[idx % len(scales)])
        ref = _perturbed(rollout_policy, rng, 0.4)
        obj_cfg = ObjectiveConfig(beta=betas[idx % len(betas)])
        ratios = _active_ratios(items, theta)
        near_kink = any(
            abs(r - (1.0 - obj_cfg.eps_low)) < _KINK_TOLERANCE
            or abs(r - (1.0 + obj_cfg.eps_high)) < _KINK_TOLERANCE
            for r in ratios
        )
        if near_kink:
            excluded += 1
            continue
        analytic = policy_gradient(items, theta, ref, obj_cfg)
        numeric = finite_difference_gradient(items, theta, ref, obj_cfg, h=h)
        max_err = max(max_err, float(np.abs(analytic - numeric).max()))
        checked += 1
    return GradcheckReport(configs_checked=checked, kinks_excluded=excluded, max_abs_error=max_err)


# -- run comparison ---------------------------------------------------------


_SUMMARY_KEYS = (
    "tool_use_rate",
    "all_wrong_tool",
    "mean_reward",
    "recovery_rate",
    "pass1_eval",
    "pass4_eval",
)


def seed_summary(sdir: Path) -> dict:
    """Final-state summary of one seed's metrics: last-step training metrics,
    last available eval pass rates, and the mean recovery rate over steps."""
    metrics_path = sdir / METRICS_CSV
    if not metrics_path.exists():
        raise MissingRun(f"no metrics file under {sdir}")
    rows = parse_metrics_csv(metrics_path)
    if len(rows) < 2:
        raise MissingRun(f"{metrics_path} has no training steps")
    final = rows[-1]
    summary = {
        "final_step": final["step"],
        "tool_use_rate": final["tool_use_rate"],
        "all_wrong_tool": final["all_wrong_tool"],
        "mean_reward": final["mean_reward"],
    }
    eval_rows = [r for r in rows if r["pass1_eval"] is not None]
    summary["pass1_eval"] = eval_rows[-1]["pass1_eval"] if eval_rows else None
    summary["pass4_eval"] = eval_rows[-1]["pass4_eval"] if eval_rows else None
    recoveries = [r["recovery_rate"] for r in rows[1:] if r["recovery_rate"] is not None]
    summary["recovery_rate"] = float(np.mean(recoveries)) if recoveries else None
    return summary


def compare(dir_a: Path, dir_b: Path) -> dict:
    """Per-seed and aggregate final-metric deltas (a minus b) for two runs.

    Refuses to compare runs over different environment presets.
    """
    configs = []
    for d in (dir_a, dir_b):
        cfg_path = Path(d) / CONFIG_FILE_NAME
        if not cfg_path.exists():
            raise MissingRun(f"no {CONFIG_FILE_NAME} under {d}")
        configs.append(_load_run_config(cfg_path))
    cfg_a, cfg_b = configs
    if cfg_a.env_preset != cfg_b.env_preset:
        raise ConfigMismatch(
            f"environment presets differ: {cfg_a.env_preset!r} vs {cfg_b.env_preset!r}"
        )
    seeds = sorted(set(cfg_a.seeds) & set(cfg_b.seeds))
    if not seeds:
        raise ConfigMismatch("the runs share no seeds")

    per_seed = {}
    for s in seeds:
        summary_a = seed_summary(seed_dir(Path(dir_a), s))
        summary_b = seed_summary(seed_dir(Path(dir_b), s))
        delta = {
            k: (summary_a[k] - summary_b[k])
            if summary_a[k] is not None and summary_b[k] is not None
            else None
            for k in _SUMMARY_KEYS
        }
        per_seed[s] = {"a": summary_a, "b": summary_b, "delta": delta}

    mean_delta = {}
    std_delta = {}
    for k in _SUMMARY_KEYS:
        deltas = [per_seed[s]["delta"][k] for s in seeds if per_seed[s]["delta"][k] is not None]
        mean_delta[k] = float(np.mean(deltas)) if deltas else None
        std_delta[k] = float(np.std(deltas)) if deltas else None
    return {
        "seeds": seeds,
        "env_preset": cfg_a.env_preset,
        "per_seed": per_seed,
        "mean_delta": mean_delta,
        "std_delta": std_delta,
    }
