"""Training-dynamics and evaluation metrics, computed from persisted logs.

Every metric is a pure function of trajectory-log and audit-log records, never of
training state, so any tool can recompute it; diag and compare read the logs through
trajectory.read_records, as resume does, but refuse the torn last line resume cuts.

`StepMetrics` is the metrics.csv schema: its fields give the columns, their
order and which are ints; `metrics_row` writes a row, `parse_metrics_row`
reads one. `compute_step_metrics` builds one row in a single pass over the
step's question groups, and `eval_passes` gives an eval pass's pass@1 and pass@4.
"""

from __future__ import annotations

import json
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence, TextIO, get_type_hints

from .trajectory import ParseError, Trajectory, deserialize, load_record, read_records


class InsufficientRollouts(ValueError):
    """pass@k requested with fewer than k rollouts for some question."""


def group_by_question(trajectories: Iterable[Trajectory]) -> dict[int, list[Trajectory]]:
    """Group standard rollouts by question, preserving log order."""
    out: dict[int, list[Trajectory]] = {}
    for t in trajectories:
        if not t.is_resample:
            out.setdefault(t.question_id, []).append(t)
    return out


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


def eval_passes(records: Sequence[Trajectory]) -> tuple[float, Optional[float]]:
    """pass@1 and pass@4 of one eval pass; pass@4 is absent when some question
    has fewer than 4 rollouts."""
    rewards = {
        qid: [t.reward for t in group] for qid, group in group_by_question(records).items()
    }
    pass1 = pass_at_k(rewards, 1)
    return pass1, pass_at_k(rewards, 4) if min(map(len, rewards.values())) >= 4 else None


# -- log files -----------------------------------------------------------


def _complete_records(path: Path, parse: Callable) -> Iterator:
    """read_records, then a ParseError for a torn last line, which resume cuts."""
    torn = yield from read_records(path, parse)
    if torn is not None:
        raise ParseError("last line has no newline", line=torn, path=path)


def _read_by_step(path: Path, parse: Callable, step_of: Callable) -> dict[int, list]:
    by_step: dict[int, list] = {}
    for _, rec in _complete_records(path, parse):
        by_step.setdefault(step_of(rec), []).append(rec)
    return by_step


def read_trajectory_log(path: Path) -> dict[int, list[Trajectory]]:
    """All log records grouped by training step, in file order."""
    return _read_by_step(path, deserialize, lambda traj: traj.step_index_in_training)


# An audit record's keys in file order, with the JSON types their values may take.
_AUDIT_KEYS = {
    "step": (int,),
    "question_id": (int,),
    "source_index": (int, type(None)),
    "confidence": (float, type(None)),
    "rewards": (list,),
    "recovery": (int, type(None)),
}


def write_audit_records(records: Iterable[dict], fh: TextIO) -> None:
    for rec in records:
        fh.write(json.dumps(rec, separators=(",", ":")))
        fh.write("\n")


def parse_audit_record(line: str, line_number: Optional[int] = None) -> dict:
    rec = load_record(line, _AUDIT_KEYS, "audit record", line_number)
    if any(type(r) is not int for r in rec["rewards"]):
        raise ParseError(
            "audit record reward is not an int", line=line_number, field_name="rewards"
        )
    return rec


def read_audit_log(path: Path) -> dict[int, list[dict]]:
    return _read_by_step(path, parse_audit_record, lambda rec: rec["step"])


@dataclass(frozen=True)
class StepMetrics:
    """One metrics.csv row. The field order is the column order, and a field
    typed int is an int column; every other column holds a float or is empty."""

    step: int
    tool_use_rate: float
    all_wrong_tool: Optional[float]
    all_wrong_no_tool: Optional[float]
    recovery_rate: Optional[float]
    mean_reward: Optional[float]
    pass1_eval: Optional[float]
    pass4_eval: Optional[float]
    extra_continuations: int


METRICS_COLUMNS = tuple(f.name for f in fields(StepMetrics))
_INT_COLUMNS = frozenset(name for name, tp in get_type_hints(StepMetrics).items() if tp is int)


def _ratio(num: int, den: int) -> Optional[float]:
    return num / den if den else None


def compute_step_metrics(
    step: int,
    step_trajectories: Sequence[Trajectory],
    audit_records: Sequence[dict],
    pass1: Optional[float] = None,
    pass4: Optional[float] = None,
) -> StepMetrics:
    """Recompute one metrics row from the step's persisted records.

    One walk over the question groups classifies each rollout once. A tool or
    no-tool subgroup's all-wrong rate is over the questions where it is
    nonempty; a tool subgroup that resampling recovered no longer counts as
    all-wrong. The recovery rate is over the triggered questions, those with
    an audit record."""
    triggered = {rec["question_id"] for rec in audit_records}
    recovered = {rec["question_id"] for rec in audit_records if rec["recovery"] == 1}
    rollouts = tool_rollouts = correct = 0
    tool_groups = tool_wrong = no_tool_groups = no_tool_wrong = 0
    for qid, group in group_by_question(step_trajectories).items():
        tool_rewards, no_tool_rewards = [], []
        for t in group:
            (tool_rewards if t.is_tool_using() else no_tool_rewards).append(t.reward)
        rollouts += len(group)
        tool_rollouts += len(tool_rewards)
        correct += sum(tool_rewards) + sum(no_tool_rewards)
        if tool_rewards:
            tool_groups += 1
            tool_wrong += not any(tool_rewards) and qid not in recovered
        if no_tool_rewards:
            no_tool_groups += 1
            no_tool_wrong += not any(no_tool_rewards)
    return StepMetrics(
        step=step,
        tool_use_rate=tool_rollouts / rollouts if rollouts else 0.0,
        all_wrong_tool=_ratio(tool_wrong, tool_groups),
        all_wrong_no_tool=_ratio(no_tool_wrong, no_tool_groups),
        recovery_rate=_ratio(len(recovered), len(triggered)),
        mean_reward=_ratio(correct, rollouts),
        pass1_eval=pass1,
        pass4_eval=pass4,
        extra_continuations=sum(len(rec["rewards"]) for rec in audit_records),
    )


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


def metrics_row(m: StepMetrics) -> str:
    return ",".join(map(_cell, astuple(m)))


def parse_metrics_row(line: str, number: int) -> Optional[dict]:
    """A metrics.csv line: None for the header, which must be line 1, else the row by
    column. A ParseError names a wrong header or row width, or a bad cell's column."""
    cells = line.split(",")
    if number == 1:
        if tuple(cells) != METRICS_COLUMNS:
            raise ParseError(f"header is not {','.join(METRICS_COLUMNS)}", line=1)
        return None
    if len(cells) != len(METRICS_COLUMNS):
        raise ParseError(f"row has {len(cells)} of {len(METRICS_COLUMNS)} cells", line=number)
    row = {}
    for key, raw in zip(METRICS_COLUMNS, cells):
        try:
            row[key] = None if raw == "" else int(raw) if key in _INT_COLUMNS else float(raw)
        except ValueError as exc:
            raise ParseError(str(exc), line=number, field_name=key) from None
    return row


def parse_metrics_csv(path: Path) -> list[dict]:
    rows = [row for _, row in _complete_records(path, parse_metrics_row)]
    if rows and rows[0] is not None:  # line 1 is blank, and parse_metrics_row saw no header
        raise ParseError(f"header is not {','.join(METRICS_COLUMNS)}", line=1, path=path)
    return rows[1:]
