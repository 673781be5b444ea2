"""Training harness: deterministic runs with full logging, checkpoint/resume
that is byte-identical to an uninterrupted run, a finite-difference gradient
check, and run-to-run comparison.

Determinism contract: every random draw comes from a stream keyed by
(seed, phase, step), consumed in a fixed order within the step. Replaying the
steps after a checkpoint therefore reproduces the original bytes in every log
file. A step's metrics row comes from its trajectory and eval tables
(step_metrics); its audit records are derived from its trajectory records
(audit_records). run_one_seed appends the texts seed_texts generates for each
step. diag and resume read the logs through replay, which
derives each step's question column, audit records and metrics row as training
made them and checks the logs against them.
"""

from __future__ import annotations

import io
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, fields
from itertools import count, groupby, islice, repeat, takewhile
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .advantage import (
    LossTable,
    ObjectiveConfig,
    _evaluate,
    _gather,
    _value,
    apply_update,
    grpo_advantage,  # noqa: F401  (bound here for the benchmark's tracer)
    policy_gradient,
    surrogate_objective,  # noqa: F401  (bound here for the benchmark's tracer)
)
from .config import CONFIG_FILE_NAME, RunConfig, load_config, save_config
from .diagnostics import (METRICS_COLUMNS, StepMetrics, check_audit_line, check_audit_tail,
                          compute_step_metrics, eval_passes, metrics_row, parse_metrics_csv,
                          parse_metrics_row, read_audit_log, write_audit_records)
from .env import (
    ToolEnv,
    draw_continuations,
    draw_rollouts,
    make_env,
    mini_env_spec,
    sample_rollout,  # noqa: F401  (bound here for the benchmark's tracer)
    with_metadata,  # noqa: F401  (bound here for the benchmark's tracer)
)
from .policy import PolicyShape, TabularPolicy, load_policy, save_policy, softmax
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
from .trajectory import (DrawTable, ParseError, read_complete_records, read_records,
                         record_parser, tables_of, write_log)


class MissingRun(FileNotFoundError):
    """A run directory lacks the files a comparison needs."""


class ConfigMismatch(ValueError):
    """A config that does not fit what it is applied to: two runs that are not
    comparable, a preset too small for it, or a run started under another."""


class BadGradcheckInput(ValueError):
    """A gradcheck count below 1, a negative seed, or a step not finite and positive."""


TRAJECTORY_LOG = "trajectory_log.jsonl"
EVAL_LOG = "eval_log.jsonl"
AUDIT_LOG = "resample_audit.jsonl"
METRICS_CSV = "metrics.csv"
RUN_LOGS = (TRAJECTORY_LOG, EVAL_LOG, AUDIT_LOG, METRICS_CSV)
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


def step_questions(cfg: RunConfig, num_questions: int, seed: int, step: int) -> np.ndarray:
    """The questions_per_step distinct questions a training step draws, in group order."""
    return phase_rng(seed, _PHASE_QUESTIONS, step).choice(
        num_questions, size=cfg.questions_per_step, replace=False
    )


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


def _plan(
    rollouts: DrawTable, cfg: RunConfig
) -> tuple[dict[int, list[Candidate]], ResamplePlan, list[int], list[str]]:
    """What a step's rollout table determines: each triggered question's ranked
    candidates by group index, in group order; the breadth-first allocation of
    at most floor(r*B*N) continuations (none under grpo); and, K per selected
    prefix in plan order, each continuation's source row and source_prefix_id,
    "step:question_id:source_index"."""
    n = cfg.group_size
    triggered = rank_candidates(rollouts, n, detect_trigger(rollouts, n))
    ratio = cfg.resample_ratio if cfg.algorithm == "axpo" else 0.0
    cap = int(ratio * (len(rollouts) // n) * n)
    plan = allocate_budget(triggered.values(), cfg.resample_k, cap)
    k, question = plan.continuations_per_prefix, rollouts.question.tolist()
    sources = [sel.group_index * n + sel.source_index for sel in plan.selected for _ in range(k)]
    return triggered, plan, sources, [f"{rollouts.step}:{question[r]}:{r % n}" for r in sources]


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
    the step's _plan, K continuations per selected prefix, and assembly of the
    advantage streams. After the draws every step reads the two tables'
    columns, and no Trajectory is built.

    Draw order: every rollout is drawn from rollout_rng, in qids order, into
    one table before any continuation is drawn from resample_rng, in plan
    order, into another; `resample` only splits and scores the second's
    rewards. The two generators may be one shared generator, which then serves
    the rollouts first and the continuations after. Both tables are the step's
    log records, under run_id and step.
    """
    n = cfg.group_size
    rollouts = draw_rollouts(policy, env, np.repeat(qids, n), rollout_rng, run_id=run_id, step=step)
    triggered, plan, sources, prefix_ids = _plan(rollouts, cfg)
    continuations = draw_continuations(policy, env, rollouts, sources, resample_rng, run_id=run_id,
                                       step=step, source_prefix_ids=prefix_ids)
    results = resample(plan, continuations.reward.tolist())
    items = assemble_step_losses(rollouts, continuations, n, results)
    return Batch(rollouts=rollouts, continuations=continuations, triggered=triggered, plan=plan,
                 results=results, items=items)


def audit_records(
    rollouts: DrawTable, group_size: int, triggered: Iterable[int], results: list[ResampleResult]
) -> list[dict]:
    """A step's resample audit records, the lines write_audit_records writes: for
    each triggered question's group index, in group order, one record per prefix
    it selected, in plan order, or one null record if it selected none."""
    chosen: dict[int, list[dict]] = {}
    for r in results:
        chosen.setdefault(r.selected.group_index, []).append(
            {"source_index": r.selected.source_index, "confidence": r.selected.confidence,
             "rewards": r.rewards, "recovery": r.recovery})
    none = {"source_index": None, "confidence": None, "rewards": [], "recovery": None}
    question = rollouts.question.tolist()
    return [{"step": rollouts.step, "question_id": question[gi * group_size], **rec}
            for gi in triggered for rec in chosen.get(gi, [none])]


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
    and its audit_records.

    Trigger detection and audit logging run under both algorithms; with no
    resampling budget the continuation table is empty and the audit records
    are null entries, which keeps a zero-budget run byte-identical to the
    plain baseline. The batch's active steps are gathered once; each of the
    cfg.epochs_per_batch updates evaluates the gradient on that gather.
    """
    batch = build_batch(
        policy, env, step_questions(cfg, env.num_questions, seed, step), cfg,
        phase_rng(seed, _PHASE_ROLLOUT, step), phase_rng(seed, _PHASE_RESAMPLE, step),
        run_id, step,
    )
    steps = _gather(batch.items, policy.shape)
    new_policy = policy
    for _ in range(cfg.epochs_per_batch):
        _, gradient = _evaluate(steps, new_policy, ref_policy, cfg.objective, want_gradient=True)
        new_policy = apply_update(new_policy, gradient, cfg.learning_rate)
    audit = audit_records(batch.rollouts, cfg.group_size, batch.triggered, batch.results)
    return new_policy, (batch.rollouts, batch.continuations), audit


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
    return (table, *eval_passes(table, cfg.eval_rollouts))


def step_metrics(
    cfg: RunConfig, step: int, rollouts: Optional[DrawTable], audit: Sequence[dict],
    evals: Optional[DrawTable],
) -> StepMetrics:
    """A step's metrics row: from its rollout table, group_size rows per question, its
    audit records and, if it evaluated, its eval table, eval_rollouts rows per question.
    Step 0 trains nothing and is measured on its eval pass."""
    passes = (None, None) if evals is None else eval_passes(evals, cfg.eval_rollouts)
    table, group = (evals, cfg.eval_rollouts) if step == 0 else (rollouts, cfg.group_size)
    return compute_step_metrics(step, table, audit, group, *passes)


# -- run directory management ---------------------------------------------


# A resumed seed's checkpoint step, the length each log is cut to, and the
# checked policy of its checkpoint, which the seed's worker trains from.
_ResumePoint = tuple[int, dict[str, int], TabularPolicy]


def _check_cells(path: Path, lines: Sequence[int], what: str, whose: str, checks) -> None:
    """Refuse the first row whose cell is not whose value: checks holds (cell, record field,
    the rows' values, whose values), and lines the rows' line numbers. The ParseError
    names the row's line and the field."""
    for cell, field, got, want in checks:
        for i in np.flatnonzero(np.asarray(got) != np.asarray(want))[:1]:
            raise ParseError(f"{what} {cell} {got[i]}, not the {whose} {want[i]}",
                             lines[i], field, path)


def _steps(rows: Iterator, last: Optional[int]) -> Iterator[tuple[int, tuple, tuple, tuple]]:
    """(step, end offsets, line numbers, rows) of each run of one step's records, up to last."""
    rows = rows if last is None else takewhile(lambda row: row[2][0] <= last, rows)
    for step, group in groupby(rows, lambda row: row[2][0]):
        yield step, *zip(*group)


def replay(
    sdir: Path, cfg: RunConfig, shape: PolicyShape, seed: int, last: Optional[int] = None
) -> Iterator[tuple[StepMetrics, dict[str, int]]]:
    """(metrics row, end offset in each log) of each step of a seed directory, from 0 to
    last or to the trajectory log's last step: the row step_metrics gives of the step's
    tables, built as the read reaches them. A training step must hold B*N rollouts of the
    questions np.repeat(step_questions, N), then exactly its _plan's continuations, with
    their source_prefix_ids and their sources' question and think cells; the audit log
    exactly what write_audit_records writes of the steps' audit records, then
    check_audit_tail's. Each multiple of eval_every must hold one eval pass, of the
    questions np.repeat(arange(Q), R), and any other step no eval record. Given last, as
    on resume, a torn last line is not read. A ParseError names the file, and the step or
    line and field."""
    trajectory, eval_log, run_id = sdir / TRAJECTORY_LOG, sdir / EVAL_LOG, run_id_for(cfg, seed)
    read = read_complete_records if last is None else read_records
    trained, evaluated = (_steps(read(path, record_parser(shape, run_id, path == trajectory)), last)
                          for path in (trajectory, eval_log))
    audit, number, eval_line = read_audit_log(sdir / AUDIT_LOG, read), 0, 0
    n = cfg.questions_per_step * cfg.group_size
    eval_questions = np.repeat(np.arange(shape.num_questions), cfg.eval_rollouts)
    ends, pending = dict.fromkeys((TRAJECTORY_LOG, AUDIT_LOG, EVAL_LOG), 0), next(evaluated, None)
    for step in count() if last is None else range(last + 1):
        rollouts, records, evals = None, [], None
        if step > 0:
            logged_step, step_ends, step_lines, group = next(trained, (None, (), (), ()))
            if logged_step is None:
                if last is None:
                    break
                raise ParseError(f"step {step} holds 0 rollouts, expected {n}", path=trajectory)
            tables = tables_of(group, shape)
            if logged_step != step or tables[0].is_resample or len(tables) > 2:
                steps = "from 1" if last is None else f"1 to {last}"
                raise ParseError(f"expected the records of steps {steps}, in order",
                                 path=trajectory)
            rollouts, *continuations = tables
            if len(rollouts) != n:
                raise ParseError(f"step {step} holds {len(rollouts)} rollouts, expected {n}",
                                 path=trajectory)
            drawn = np.repeat(step_questions(cfg, shape.num_questions, seed, step), cfg.group_size)
            _check_cells(trajectory, step_lines, f"step {step}: rollout", "draw's",
                         [("question", "question_id", rollouts.question, drawn)])
            triggered, plan, sources, prefix_ids = _plan(rollouts, cfg)
            if len(group) != n + len(sources):
                message = f"step {step} holds {len(group)} records, expected {n + len(sources)}"
                raise ParseError(message, path=trajectory)
            for cont in continuations:  # each cell, its record field, its values and the plan's
                _check_cells(trajectory, step_lines[n:], f"step {step}: continuation", "plan's", [
                    ("source_prefix_id", "source_prefix_id", cont.source_prefix_ids, prefix_ids),
                    ("question", "question_id", cont.question, rollouts.question[sources]),
                    ("think action", "a", cont.action[:, 0], rollouts.action[sources, 0]),
                    ("think logp", "logp", cont.logp[:, 0], rollouts.logp[sources, 0]),
                ])
            rewards = continuations[0].reward.tolist() if continuations else []
            records = audit_records(rollouts, cfg.group_size, triggered, resample(plan, rewards))
            for rec in records:
                ends[AUDIT_LOG], number, line = next(audit, (ends[AUDIT_LOG], number + 1, None))
                check_audit_line(line, rec, number, sdir / AUDIT_LOG)
            ends[TRAJECTORY_LOG] = step_ends[-1]
        _, eval_ends, eval_lines, group = (pending if pending and pending[0] == step
                                           else (step, (), (), ()))
        expected = len(eval_questions) if step % cfg.eval_every == 0 else 0
        if len(group) != expected:  # named at the line after the last record that fits
            at = (eval_line, *eval_lines)[min(len(group), expected)] + 1
            raise ParseError(f"step {step} holds {len(group)} records, expected {expected}", at,
                             "step_index_in_training", eval_log)
        if group:
            (evals,) = tables_of(group, shape)
            _check_cells(eval_log, eval_lines, f"step {step}: eval", "draw's",
                         [("question", "question_id", evals.question, eval_questions)])
            ends[EVAL_LOG], eval_line = eval_ends[-1], eval_lines[-1]
            pending = next(evaluated, None)
        yield step_metrics(cfg, step, rollouts, records, evals), dict(ends)
    if pending is not None:  # out of step order, or past the last step (diag's is step - 1)
        every = f"every step in 0 to {step - (last is None)} that is a multiple of {cfg.eval_every}"
        raise ParseError(f"expected the records of {every}", pending[2][0],
                         "step_index_in_training", eval_log)
    _, number, line = next(audit, (ends[AUDIT_LOG], number + 1, None))
    check_audit_tail(line, number, sdir / AUDIT_LOG, last)


def _load_run_config(path: Path) -> RunConfig:
    """The config a run was started under; ParseError, naming path, if it does not parse."""
    try:
        return load_config(path)
    except ValueError as exc:
        raise ParseError(str(exc), path=path) from None


def seed_config(sdir: Path) -> tuple[RunConfig, int]:
    """The config a seed directory's run was started under, and the seed n of its name,
    seed_<n>, which must be one of the config's seeds; ConfigMismatch if it is not."""
    path, name = sdir / CONFIG_FILE_NAME, Path(os.path.abspath(sdir)).name
    cfg = _load_run_config(path)
    for seed in cfg.seeds:
        if seed_dir(sdir.parent, seed).name == name:
            return cfg, seed
    raise ConfigMismatch(f"{sdir} is not seed_<n> for a seed n in {path}'s seeds {cfg.seeds}")


# What a resumed seed may change: how far it trains, the seed list, and where the run lives.
_RESUMABLE_FIELDS = ("steps", "seeds", "out_dir")


def _resume_point(
    cfg: RunConfig, sdir: Path, initial: TabularPolicy, seed: int
) -> Optional[_ResumePoint]:
    """Where a seed directory resumes, None for a fresh seed; writes nothing.
    ConfigMismatch or ParseError, naming the file, if the seed does not fit
    the run: its config, a checkpoint without its config, reference checkpoint or a log,
    a checkpoint of another shape than initial, the run's initial policy, a
    reference checkpoint that is not initial at step 0, a log line before the cut
    (a trajectory or eval record of another run_id among them), a step the replay
    refuses up to the checkpoint's, a log short of a record, or a metrics row that
    is not the one the replay derives."""
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
    for name in (CONFIG_FILE_NAME, REF_CHECKPOINT, *RUN_LOGS):
        if not (sdir / name).exists():
            raise ConfigMismatch(f"{sdir} has a checkpoint but no {name}")
    policy, done = load_policy(sdir / CHECKPOINT)
    if policy.shape != initial.shape:
        message = f"checkpoint shape {policy.shape!r} differs from the run's {initial.shape!r}"
        raise ParseError(message, path=sdir / CHECKPOINT)
    ref, ref_step = load_policy(sdir / REF_CHECKPOINT)
    if (ref_step, ref.shape, ref.logits.tobytes()) != (0, initial.shape, initial.logits.tobytes()):
        raise ParseError("not the initial policy of the run's config", path=sdir / REF_CHECKPOINT)
    # A checkpoint follows every line of its step, so each log keeps every record of
    # each of its steps up to the checkpoint's.
    derived, lengths = zip(*replay(sdir, cfg, initial.shape, seed, done))
    return done, {**lengths[-1], METRICS_CSV: _metrics_length(sdir / METRICS_CSV, derived)}, policy


def _metrics_length(path: Path, derived: Sequence[StepMetrics]) -> int:
    """The length metrics.csv is cut to: its header and the rows of steps 0 to the last
    derived row's, each read by parse_metrics_row, as compare reads it, then refused naming
    the first column where it is not what metrics_row writes of its derived row."""
    done = len(derived) - 1
    read = read_records(path, lambda line, number: (
        line, (parse_metrics_row(line, number) or {"step": -1})["step"]))
    kept = list(takewhile(lambda rec: rec[2][1] <= done, read))
    if [step for *_, (_, step) in kept] != [-1, *range(done + 1)]:
        raise ParseError(f"expected a header and rows 0 to {done}", path=path)
    for (_, number, (line, step)), row in zip(kept[1:], derived):
        for column, got, want in zip(METRICS_COLUMNS, line.split(","), metrics_row(row).split(",")):
            if got != want:
                raise ParseError(f"step {step}: {column} {got!r}, not the logs' {want!r}",
                                 number, column, path)
    return kept[-1][0]


def _text(write, *batches) -> str:
    """What write(rows, fh) writes for each of batches, in turn, as one text."""
    fh = io.StringIO()
    for rows in batches:
        write(rows, fh)
    return fh.getvalue()


def seed_texts(
    cfg: RunConfig, seed: int, first: int = 0, policy: Optional[TabularPolicy] = None
) -> Iterator[tuple[int, dict[str, str], TabularPolicy]]:
    """Each step of one seed from step first on, from policy (the config's initial
    policy by default): the step, the text each run log gains at it, by file name in
    write order, and the policy after it, which the step's checkpoint holds. A training
    step appends to the trajectory and audit logs, an empty audit text included, an eval
    step to the eval log, and every step a metrics row."""
    env = make_env(cfg.env_preset, seed=seed)
    run_id = run_id_for(cfg, seed)
    ref_policy = env.initial_policy()
    policy = ref_policy if policy is None else policy
    for step in count(first):
        texts, rollouts, audit, evals = {}, None, [], None
        if step > 0:
            policy, (rollouts, continuations), audit = train_step(
                policy, ref_policy, env, cfg, seed, step, run_id)
            texts[TRAJECTORY_LOG] = _text(write_log, rollouts, continuations)
            texts[AUDIT_LOG] = _text(write_audit_records, audit)
        if step % cfg.eval_every == 0:
            evals = run_eval(policy, env, cfg, seed, step, run_id)[0]
            texts[EVAL_LOG] = _text(write_log, evals)
        texts[METRICS_CSV] = metrics_row(step_metrics(cfg, step, rollouts, audit, evals)) + "\n"
        yield step, texts, policy


def run_one_seed(cfg: RunConfig, seed: int, out_dir: Path, resume: Optional[_ResumePoint]) -> Path:
    """Train one seed to cfg.steps against its reference policy, the config's
    initial policy: from that policy, or from the checked policy of its
    _resume_point after cutting each log to its length. Each step appends
    seed_texts' texts, one open of each file."""
    sdir = seed_dir(out_dir, seed)
    policy = None
    if resume is not None:
        done, lengths, policy = resume
        for name, length in lengths.items():
            os.truncate(sdir / name, length)
    else:
        sdir.mkdir(parents=True, exist_ok=True)
        save_config(cfg, sdir / CONFIG_FILE_NAME)
        done = -1
        save_policy(make_env(cfg.env_preset, seed=seed).initial_policy(), sdir / REF_CHECKPOINT,
                    step=0)
        for name in RUN_LOGS:
            header = ",".join(METRICS_COLUMNS) + "\n" if name == METRICS_CSV else ""
            (sdir / name).write_text(header, encoding="utf-8")

    # Step 0 trains nothing; it evaluates and checkpoints like any other eval step,
    # so a seed directory with a checkpoint holds complete step-0 logs. A checkpoint
    # at an eval step holds the policy of its eval pass; the last step's keeps the
    # final policy.
    steps = islice(seed_texts(cfg, seed, done + 1, policy), max(0, cfg.steps - done))
    for step, texts, policy in steps:
        for name, text in texts.items():
            with (sdir / name).open("a", encoding="utf-8") as fh:
                fh.write(text)
        if step % cfg.eval_every == 0 or step == cfg.steps:
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
    with _seed_map(len(cfg.seeds)) as seed_map:
        resumes = list(seed_map(_resume_point, repeat(cfg), sdirs,
                                repeat(env.initial_policy()), cfg.seeds))
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


# The most float64 values one stack of finite-difference probes holds (4 MiB): a
# large shape's 2 * size probes of size logits each run in several chunks.
_PROBE_STACK_VALUES = 2**19


def finite_difference_gradient(
    items: LossTable,
    policy: TabularPolicy,
    ref_policy: TabularPolicy,
    cfg: ObjectiveConfig,
    h: float = 1e-5,
) -> np.ndarray:
    """Central finite differences of the surrogate over every policy logit.

    The items do not change during the call, so their active steps are
    gathered once. The logits are probed a chunk at a time: row 2j of a stack
    raises the chunk's j-th logit by h and row 2j+1 lowers it by h, and one
    softmax and value pass gives every row's objective. Each (up - down) / (2h)
    equals a loop's that builds a probe policy per perturbed logit, bit for bit.
    """
    shape, flat = policy.shape, policy.logits
    steps = _gather(items, shape)
    grad = np.empty_like(flat)
    per_chunk = max(1, _PROBE_STACK_VALUES // (2 * flat.size))
    for first in range(0, flat.size, per_chunk):
        i = np.arange(first, min(first + per_chunk, flat.size))
        probes = np.repeat(flat[None, :], 2 * i.size, axis=0)
        probes[np.arange(2 * i.size), i.repeat(2)] += np.tile([h, -h], i.size)
        values, *_ = _value(steps, softmax(shape, probes)[0], ref_policy.pi, shape, cfg)
        up, down = values.reshape(i.size, 2).T
        grad[i] = (up - down) / (2.0 * h)
    return grad


def _perturbed(policy: TabularPolicy, rng: np.random.Generator, scale: float) -> TabularPolicy:
    if scale > 0.0:
        noise = rng.normal(0.0, scale, policy.logits.shape)
        return TabularPolicy(policy.shape, policy.logits + noise)
    return policy


def _active_ratios(items: LossTable, policy: TabularPolicy) -> np.ndarray:
    """The importance ratio of every active step, in item and step order."""
    steps = _gather(items, policy.shape)
    return policy.pi[steps.start + steps.action] / np.exp(steps.logp_old)


# How near a clip boundary an importance ratio excludes its configuration from gradcheck.
_KINK_TOLERANCE = 1e-4


def gradcheck(num_checks: int = 12, h: float = 1e-5, seed: int = 0) -> GradcheckReport:
    """Compare the analytic gradient with central finite differences on random
    configurations spanning the unclipped, clipped, and KL-penalized regimes.

    Configurations where any active importance ratio sits within
    _KINK_TOLERANCE of a clip boundary are excluded (the surrogate is not
    differentiable there) and reported in the result. BadGradcheckInput if
    num_checks is not positive, seed is negative or h is not finite and positive.
    """
    if num_checks < 1:
        raise BadGradcheckInput(f"checks must be positive, got {num_checks}")
    if seed < 0:
        raise BadGradcheckInput(f"seed must be non-negative, got {seed}")
    if not (math.isfinite(h) and h > 0.0):
        raise BadGradcheckInput(f"h must be finite and positive, got {h!r}")
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
        kinks = np.array([1.0 - obj_cfg.eps_low, 1.0 + obj_cfg.eps_high])
        if (np.abs(ratios[:, None] - kinks) < _KINK_TOLERANCE).any():
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
    last available eval pass rates, and the mean recovery rate over steps.
    ParseError, naming the file, if its rows are not steps 0 to k in order."""
    metrics_path = sdir / METRICS_CSV
    if not metrics_path.exists():
        raise MissingRun(f"no metrics file under {sdir}")
    rows = parse_metrics_csv(metrics_path)
    if [r["step"] for r in rows] != list(range(len(rows))):
        raise ParseError(f"expected a header and rows 0 to {len(rows) - 1}", path=metrics_path)
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
