"""Training-dynamics and evaluation metrics, computed from persisted logs.

Every metric here is a pure function over trajectory-log records (and the
resample audit log), never over in-memory training state, so any external
tool can recompute them by re-scanning the logs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence, TextIO

from .trajectory import Trajectory, read_log


class InsufficientRollouts(ValueError):
    """pass@k requested with fewer than k rollouts for some question."""


def group_by_question(trajectories: Iterable[Trajectory]) -> dict[int, list[Trajectory]]:
    """Group standard rollouts by question, preserving log order."""
    out: dict[int, list[Trajectory]] = {}
    for t in trajectories:
        if not t.is_resample:
            out.setdefault(t.question_id, []).append(t)
    return out


def tool_use_rate(groups: dict[int, list[Trajectory]]) -> float:
    """Fraction of rollouts with >=1 tool call."""
    tool_rollouts = sum(t.is_tool_using() for rollouts in groups.values() for t in rollouts)
    total = sum(len(rollouts) for rollouts in groups.values())
    return tool_rollouts / total if total else 0.0


def all_wrong_rate(
    groups: dict[int, list[Trajectory]],
) -> tuple[Optional[float], Optional[float]]:
    """All-wrong rate per subgroup type, over questions where that subgroup
    is nonempty; absent when no question has one."""
    tool_total = tool_wrong = 0
    no_tool_total = no_tool_wrong = 0
    for rollouts in groups.values():
        tool_idx = [i for i, t in enumerate(rollouts) if t.is_tool_using()]
        no_tool_idx = [i for i in range(len(rollouts)) if not rollouts[i].is_tool_using()]
        if tool_idx:
            tool_total += 1
            tool_wrong += int(all(rollouts[i].reward == 0 for i in tool_idx))
        if no_tool_idx:
            no_tool_total += 1
            no_tool_wrong += int(all(rollouts[i].reward == 0 for i in no_tool_idx))
    return (
        tool_wrong / tool_total if tool_total else None,
        no_tool_wrong / no_tool_total if no_tool_total else None,
    )


def post_resampling_all_wrong_tool(
    groups: dict[int, list[Trajectory]], recovered_questions: set[int]
) -> Optional[float]:
    """All-wrong tool-subgroup rate after removing groups that resampling
    recovered (a recovered group no longer counts as all-wrong)."""
    total = wrong = 0
    for qid, rollouts in groups.items():
        tool_idx = [i for i, t in enumerate(rollouts) if t.is_tool_using()]
        if not tool_idx:
            continue
        total += 1
        all_wrong = all(rollouts[i].reward == 0 for i in tool_idx)
        wrong += int(all_wrong and qid not in recovered_questions)
    return wrong / total if total else None


def recovery_rate(audit_records: Sequence[dict]) -> Optional[float]:
    """Share of triggered groups with a selected prefix whose resamples
    recovered at least one correct continuation; absent with no triggers."""
    triggered: set[int] = set()
    recovered: set[int] = set()
    for rec in audit_records:
        triggered.add(rec["question_id"])
        if rec.get("recovery") == 1:
            recovered.add(rec["question_id"])
    if not triggered:
        return None
    return len(recovered) / len(triggered)


def recovered_questions(audit_records: Sequence[dict]) -> set[int]:
    return {rec["question_id"] for rec in audit_records if rec.get("recovery") == 1}


def mean_reward(groups: dict[int, list[Trajectory]]) -> Optional[float]:
    rewards = [t.reward for rollouts in groups.values() for t in rollouts]
    return sum(rewards) / len(rewards) if rewards else None


def pass_at_k(rewards_per_question: dict[int, Sequence[int]], k: int) -> float:
    """pass@1 is the mean per-rollout reward; pass@k (k>1) is the fraction
    of questions with >=1 correct among the first k rollouts."""
    if not rewards_per_question:
        raise InsufficientRollouts("no evaluation rollouts")
    for qid, rewards in rewards_per_question.items():
        if len(rewards) < k:
            raise InsufficientRollouts(f"question {qid} has {len(rewards)} < {k} rollouts")
    if k == 1:
        all_rewards = [r for rewards in rewards_per_question.values() for r in rewards]
        return sum(all_rewards) / len(all_rewards)
    hits = [int(any(r == 1 for r in rewards[:k])) for rewards in rewards_per_question.values()]
    return sum(hits) / len(hits)


# -- log files -----------------------------------------------------------


def read_trajectory_log(path: Path) -> dict[int, list[Trajectory]]:
    """All log records grouped by training step, in file order."""
    by_step: dict[int, list[Trajectory]] = {}
    with path.open("r", encoding="utf-8") as fh:
        for traj in read_log(fh):
            by_step.setdefault(traj.step_index_in_training, []).append(traj)
    return by_step


def write_audit_records(records: Iterable[dict], fh: TextIO) -> None:
    for rec in records:
        fh.write(json.dumps(rec, separators=(",", ":")))
        fh.write("\n")


def read_audit_log(path: Path) -> dict[int, list[dict]]:
    by_step: dict[int, list[dict]] = {}
    with path.open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rec = json.loads(line)
                by_step.setdefault(rec["step"], []).append(rec)
    return by_step


@dataclass(frozen=True)
class StepMetrics:
    step: int
    tool_use_rate: float
    all_wrong_tool: Optional[float]
    all_wrong_no_tool: Optional[float]
    recovery_rate: Optional[float]
    mean_reward: Optional[float]
    pass1_eval: Optional[float]
    pass4_eval: Optional[float]
    extra_continuations: int


METRICS_COLUMNS = (
    "step",
    "tool_use_rate",
    "all_wrong_tool",
    "all_wrong_no_tool",
    "recovery_rate",
    "mean_reward",
    "pass1_eval",
    "pass4_eval",
    "extra_continuations",
)


def compute_step_metrics(
    step: int,
    step_trajectories: Sequence[Trajectory],
    audit_records: Sequence[dict],
    pass1: Optional[float] = None,
    pass4: Optional[float] = None,
) -> StepMetrics:
    """Recompute one metrics row from the step's persisted records."""
    groups = group_by_question(step_trajectories)
    _, no_tool_aw = all_wrong_rate(groups)
    recovered = recovered_questions(audit_records)
    extra = sum(len(rec.get("rewards") or []) for rec in audit_records)
    return StepMetrics(
        step=step,
        tool_use_rate=tool_use_rate(groups),
        all_wrong_tool=post_resampling_all_wrong_tool(groups, recovered),
        all_wrong_no_tool=no_tool_aw,
        recovery_rate=recovery_rate(audit_records),
        mean_reward=mean_reward(groups),
        pass1_eval=pass1,
        pass4_eval=pass4,
        extra_continuations=extra,
    )


def metrics_row(m: StepMetrics) -> str:
    def fmt(x) -> str:
        if x is None:
            return ""
        if isinstance(x, int):
            return str(x)
        return repr(float(x))

    return ",".join(
        (
            str(m.step),
            fmt(m.tool_use_rate),
            fmt(m.all_wrong_tool),
            fmt(m.all_wrong_no_tool),
            fmt(m.recovery_rate),
            fmt(m.mean_reward),
            fmt(m.pass1_eval),
            fmt(m.pass4_eval),
            str(m.extra_continuations),
        )
    )


def parse_metrics_csv(path: Path) -> list[dict]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        return []
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        if not line:
            continue
        values = line.split(",")
        row: dict = {}
        for key, raw in zip(header, values):
            if raw == "":
                row[key] = None
            elif key in ("step", "extra_continuations"):
                row[key] = int(raw)
            else:
                row[key] = float(raw)
        rows.append(row)
    return rows
