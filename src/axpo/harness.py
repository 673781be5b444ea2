"""Training harness: deterministic runs with full logging, checkpoint/resume
that is byte-identical to an uninterrupted run, a finite-difference gradient
check, and run-to-run comparison.

Determinism contract: every random draw comes from a stream keyed by
(seed, phase, step), consumed in a fixed order within the step. Replaying a
step from its predecessor's checkpoint therefore reproduces the original
bytes in every log file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .advantage import (
    LossItem,
    ObjectiveConfig,
    apply_update,
    grpo_advantage,
    policy_gradient,
    surrogate_objective,
)
from .config import CONFIG_FILE_NAME, RunConfig, load_config, save_config
from .diagnostics import (
    StepMetrics,
    METRICS_COLUMNS,
    compute_step_metrics,
    eval_passes,
    metrics_row,
    parse_metrics_csv,
    write_audit_records,
)
from .env import ENV_PRESETS, ToolEnv, make_env, mini_env_spec, sample_rollout, with_metadata
from .policy import DecisionTable, TabularPolicy, load_policy, save_policy
from .resample import (
    Candidate,
    ResamplePlan,
    ResampleResult,
    TriggeredGroup,
    allocate_budget,
    assemble_step_losses,
    detect_trigger,
    rank_candidates,
    resample,
)
from .trajectory import Group, Trajectory, write_log


class MissingRun(FileNotFoundError):
    """A run directory lacks the files a comparison needs."""


class ConfigMismatch(ValueError):
    """A config that does not fit what it is applied to: two runs that are not
    comparable, a preset too small for it, or a run started under another."""


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
    """One step's loss items and every intermediate result that built them."""

    groups: list[Group]
    triggered: list[tuple[TriggeredGroup, list[Candidate]]]
    plan: ResamplePlan
    results: list[ResampleResult]
    items: list[LossItem]


def build_batch(
    policy: TabularPolicy,
    env: ToolEnv,
    qids: Sequence[int],
    cfg: RunConfig,
    rollout_rng: np.random.Generator,
    resample_rng: np.random.Generator,
) -> Batch:
    """The method's chain for one batch: cfg.group_size rollouts per question,
    group-normalized advantages, trigger detection and candidate ranking,
    breadth-first allocation of at most floor(r*B*N) continuations (none under
    grpo), continuation resampling, and assembly of the advantage streams.

    Draw order: every rollout is drawn from rollout_rng, in qids order, before
    any continuation is drawn from resample_rng. The two may be one shared
    generator, which then serves the rollouts first and the continuations
    after.
    """
    table = DecisionTable(policy)
    groups = []
    for qid in qids:
        rollouts = tuple(
            sample_rollout(table, env, int(qid), rollout_rng) for _ in range(cfg.group_size)
        )
        groups.append(Group(question_id=int(qid), rollouts=rollouts))
    advantages = [grpo_advantage(g.rewards()) for g in groups]

    triggered = []
    for gi, group in enumerate(groups):
        tg = detect_trigger(group, gi)
        if tg is not None:
            triggered.append((tg, rank_candidates(tg)))
    ratio = cfg.resample_ratio if cfg.algorithm == "axpo" else 0.0
    cap = int(ratio * len(groups) * cfg.group_size)
    plan = allocate_budget(triggered, cfg.resample_k, cap)
    results = resample(plan, groups, table, env, resample_rng)
    items = assemble_step_losses(groups, advantages, results)
    return Batch(groups=groups, triggered=triggered, plan=plan, results=results, items=items)


def train_step(
    policy: TabularPolicy,
    ref_policy: TabularPolicy,
    env: ToolEnv,
    cfg: RunConfig,
    seed: int,
    step: int,
    run_id: str,
) -> tuple[TabularPolicy, list[Trajectory], list[dict]]:
    """Run one step; returns the updated policy, the trajectory-log records
    (groups first, continuations after), and the resample audit records.

    Trigger detection and audit logging run under both algorithms; with no
    resampling budget the audit records are null entries, which keeps a
    zero-budget run byte-identical to the plain baseline.
    """
    qids = phase_rng(seed, _PHASE_QUESTIONS, step).choice(
        env.num_questions, size=cfg.questions_per_step, replace=False
    )
    batch = build_batch(
        policy, env, qids, cfg,
        phase_rng(seed, _PHASE_ROLLOUT, step), phase_rng(seed, _PHASE_RESAMPLE, step),
    )

    audit_records = []
    for tg, _ in batch.triggered:
        head = {"step": step, "question_id": tg.group.question_id}
        chosen = [r for r in batch.results if r.selected.group_index == tg.group_index]
        for r in chosen:
            audit_records.append(
                {
                    **head,
                    "source_index": r.selected.source_index,
                    "confidence": r.selected.confidence,
                    "rewards": list(r.rewards),
                    "recovery": r.recovery,
                }
            )
        if not chosen:
            audit_records.append(
                {**head, "source_index": None, "confidence": None, "rewards": [], "recovery": None}
            )

    obj_cfg = cfg.objective
    new_policy = policy
    for _ in range(cfg.epochs_per_batch):
        gradient = policy_gradient(batch.items, new_policy, ref_policy, obj_cfg)
        new_policy = apply_update(new_policy, gradient, cfg.learning_rate)

    records = [
        with_metadata(t, run_id=run_id, step_index_in_training=step)
        for g in batch.groups
        for t in g.rollouts
    ]
    for r in batch.results:
        prefix_id = f"{step}:{r.selected.question_id}:{r.selected.source_index}"
        for t in r.continuations:
            records.append(
                with_metadata(
                    t,
                    run_id=run_id,
                    step_index_in_training=step,
                    is_resample=True,
                    source_prefix_id=prefix_id,
                )
            )
    return new_policy, records, audit_records


def run_eval(
    policy: TabularPolicy,
    env: ToolEnv,
    cfg: RunConfig,
    seed: int,
    step: int,
    run_id: str,
) -> tuple[list[Trajectory], float, Optional[float]]:
    """Evaluate on the full frozen question set: eval_rollouts per question.

    Returns the eval-log records, pass@1, and pass@4 (absent with fewer
    than 4 rollouts per question).
    """
    rng = phase_rng(seed, _PHASE_EVAL, step)
    table = DecisionTable(policy)
    records = []
    for qid in range(env.num_questions):
        for _ in range(cfg.eval_rollouts):
            traj = sample_rollout(table, env, qid, rng)
            records.append(with_metadata(traj, run_id=run_id, step_index_in_training=step))
    return (records, *eval_passes(records))


# -- run directory management ---------------------------------------------


def _truncate_log(path: Path, max_step: int, step_of, header: int = 0) -> None:
    """Keep the first `header` lines and every record whose step_of(line) is at
    most max_step. Every record is written with its newline, so a last line
    without one is the torn tail of an interrupted append and is dropped. The
    kept lines go to a temp file that then replaces the log, so a rewrite that
    fails part-way leaves the log as it was."""
    tmp = path.with_name(path.name + ".tmp")
    with path.open("r", encoding="utf-8") as src, tmp.open("w", encoding="utf-8") as dst:
        for i, line in enumerate(src):
            if not line.endswith("\n"):
                break
            line = line.strip()
            if i < header or (line and step_of(line) <= max_step):
                dst.write(line + "\n")
    tmp.replace(path)


def _truncate_logs(sdir: Path, max_step: int) -> None:
    """Drop records past the checkpoint step (leftovers of an interrupted step)."""
    for name, key in (
        (TRAJECTORY_LOG, "step_index_in_training"),
        (EVAL_LOG, "step_index_in_training"),
        (AUDIT_LOG, "step"),
    ):
        _truncate_log(sdir / name, max_step, lambda line, key=key: json.loads(line)[key])
    _truncate_log(sdir / METRICS_CSV, max_step, lambda line: int(line.split(",", 1)[0]), header=1)


def _append_trajectories(path: Path, records: Sequence[Trajectory]) -> None:
    with path.open("a", encoding="utf-8") as fh:
        write_log(records, fh)


def _append_audit(path: Path, records: Sequence[dict]) -> None:
    with path.open("a", encoding="utf-8") as fh:
        write_audit_records(records, fh)


def _append_metrics(path: Path, metrics: StepMetrics) -> None:
    with path.open("a", encoding="utf-8") as fh:
        fh.write(metrics_row(metrics))
        fh.write("\n")


def run_one_seed(cfg: RunConfig, seed: int, out_dir: Path) -> Path:
    """Train one seed to cfg.steps, resuming from a checkpoint if present."""
    sdir = seed_dir(out_dir, seed)
    sdir.mkdir(parents=True, exist_ok=True)
    env = make_env(cfg.env_preset, seed=seed)
    run_id = run_id_for(cfg, seed)
    ckpt_path = sdir / CHECKPOINT
    ref_path = sdir / REF_CHECKPOINT
    # The config this seed was started under, which train() holds a resume to. A seed
    # directory from before per-seed configs is resumed unchecked and gets one here.
    if not (sdir / CONFIG_FILE_NAME).exists():
        save_config(cfg, sdir / CONFIG_FILE_NAME)

    if ckpt_path.exists():
        policy, start_step = load_policy(ckpt_path)
        ref_policy, _ = load_policy(ref_path)
        _truncate_logs(sdir, start_step)
    else:
        policy = env.initial_policy(cfg.temperature)
        ref_policy = policy.copy()
        start_step = 0
        save_policy(ref_policy, ref_path, step=0)
        (sdir / TRAJECTORY_LOG).write_text("", encoding="utf-8")
        (sdir / AUDIT_LOG).write_text("", encoding="utf-8")
        (sdir / EVAL_LOG).write_text("", encoding="utf-8")
        (sdir / METRICS_CSV).write_text(",".join(METRICS_COLUMNS) + "\n", encoding="utf-8")
        # Step-0 row: the initial policy, measured on the eval pass.
        eval_records, pass1, pass4 = run_eval(policy, env, cfg, seed, 0, run_id)
        _append_trajectories(sdir / EVAL_LOG, eval_records)
        _append_metrics(sdir / METRICS_CSV, compute_step_metrics(0, eval_records, [], pass1, pass4))
        # Written last: a seed directory with a checkpoint holds complete step-0 logs.
        save_policy(policy, ckpt_path, step=0)

    for step in range(start_step + 1, cfg.steps + 1):
        policy, records, audit_records = train_step(policy, ref_policy, env, cfg, seed, step, run_id)
        _append_trajectories(sdir / TRAJECTORY_LOG, records)
        _append_audit(sdir / AUDIT_LOG, audit_records)
        pass1 = pass4 = None
        if step % cfg.eval_every == 0:
            eval_records, pass1, pass4 = run_eval(policy, env, cfg, seed, step, run_id)
            _append_trajectories(sdir / EVAL_LOG, eval_records)
        _append_metrics(
            sdir / METRICS_CSV, compute_step_metrics(step, records, audit_records, pass1, pass4)
        )
        if step % cfg.checkpoint_every == 0 or step == cfg.steps:
            save_policy(policy, ckpt_path, step=step)
    return sdir


# What a resumed seed may change: how far it trains, the seed list, and where the run lives.
_RESUMABLE_FIELDS = ("steps", "seeds", "out_dir")


def train(cfg: RunConfig) -> Path:
    """Train every configured seed; returns the run directory.

    Every check runs before the first file is written. A seed directory that
    holds the config its run was started under is resumed only under the same
    config, up to _RESUMABLE_FIELDS; ConfigMismatch is raised otherwise."""
    num_questions = ENV_PRESETS[cfg.env_preset]().num_questions
    if cfg.questions_per_step > num_questions:
        raise ConfigMismatch(
            f"questions_per_step={cfg.questions_per_step} exceeds the {num_questions} "
            f"questions of {cfg.env_preset}"
        )
    out_dir = cfg.resolved_out_dir()
    for seed in cfg.seeds:
        started_path = seed_dir(out_dir, seed) / CONFIG_FILE_NAME
        if not started_path.exists():
            continue
        started = load_config(started_path)
        changed = [
            f"{f.name}={getattr(started, f.name)!r}"
            for f in fields(RunConfig)
            if f.name not in _RESUMABLE_FIELDS and getattr(started, f.name) != getattr(cfg, f.name)
        ]
        if changed:
            raise ConfigMismatch(f"{started_path} was started with {', '.join(changed)}")
    out_dir.mkdir(parents=True, exist_ok=True)
    save_config(cfg, out_dir / CONFIG_FILE_NAME)
    for seed in cfg.seeds:
        run_one_seed(cfg, seed, out_dir)
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
    items: Sequence[LossItem],
    policy: TabularPolicy,
    ref_policy: TabularPolicy,
    cfg: ObjectiveConfig,
    h: float = 1e-5,
) -> np.ndarray:
    """Central finite differences of the surrogate over every policy logit."""
    probe = policy.copy()
    flat = probe.logits
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + h
        up = surrogate_objective(items, probe, ref_policy, cfg)
        flat[i] = original - h
        down = surrogate_objective(items, probe, ref_policy, cfg)
        flat[i] = original
        grad[i] = (up - down) / (2.0 * h)
    return grad


def _perturbed(policy: TabularPolicy, rng: np.random.Generator, scale: float) -> TabularPolicy:
    out = policy.copy()
    if scale > 0.0:
        out.logits += rng.normal(0.0, scale, out.logits.shape)
    return out


def _active_ratios(items: Sequence[LossItem], policy: TabularPolicy) -> list[float]:
    ratios = []
    for item in items:
        for i in np.nonzero(item.active)[0]:
            ctx, action = item.contexts[i]
            logp_old = item.trajectory.steps[i].logp_old
            ratios.append(float(policy.probs(ctx)[action]) / float(np.exp(logp_old)))
    return ratios


def gradcheck(
    num_checks: int = 12,
    h: float = 1e-5,
    kink_tolerance: float = 1e-4,
    seed: int = 0,
) -> GradcheckReport:
    """Compare the analytic gradient with central finite differences on random
    configurations spanning the unclipped, clipped, and KL-penalized regimes.

    Configurations where any active importance ratio sits within
    kink_tolerance of a clip boundary are excluded (the surrogate is not
    differentiable there) and reported in the result.
    """
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
            abs(r - (1.0 - obj_cfg.eps_low)) < kink_tolerance
            or abs(r - (1.0 + obj_cfg.eps_high)) < kink_tolerance
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
        configs.append(load_config(cfg_path))
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
