"""Training-dynamics and evaluation metrics, computed from persisted logs.

Every metric is a pure function of trajectory-log and audit-log records, never of
training state, so any tool can recompute it; diag and compare read the logs through
trajectory.read_records, as resume does, but refuse the torn last line resume cuts.
A trajectory or eval log is read back as the draw tables it was written from
(trajectory.read_tables), so diag computes every row from the columns training did.

`StepMetrics` is the metrics.csv schema: its fields give the columns, their
order and which are ints; `metrics_row` writes a row, `parse_metrics_row`
reads one. `compute_step_metrics` builds one row in a single pass over the
step's question groups, and `eval_passes` gives an eval pass's pass@1 and pass@4;
both read a step's draw tables.
"""

from __future__ import annotations

import json
import math
from dataclasses import astuple, dataclass, fields
from itertools import zip_longest
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence, TextIO, get_type_hints

import numpy as np

from .trajectory import DrawTable, ParseError, read_complete_records, read_tables


class InsufficientRollouts(ValueError):
    """pass@k requested of an eval pass with no rollouts."""


def _columns(tables: Sequence[DrawTable]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The question id, tool-using flag and reward of each standard rollout, as
    columns in log order: the rows of the tables that do not hold continuations."""
    standard = [(t.question, t.tool_using, t.reward) for t in tables if not t.is_resample]
    if not standard:
        return np.zeros(0, np.int64), np.zeros(0, bool), np.zeros(0, np.int64)
    return tuple(np.concatenate(column) for column in zip(*standard))


def group_by_question(tables: Sequence[DrawTable]) -> dict[int, list[tuple[bool, int]]]:
    """Each question's standard rollouts (_columns), in log order, as (tool-using, reward) pairs."""
    out: dict[int, list[tuple[bool, int]]] = {}
    for qid, tool, reward in zip(*(column.tolist() for column in _columns(tables))):
        out.setdefault(qid, []).append((tool, reward))
    return out


def eval_passes(tables: Sequence[DrawTable]) -> tuple[float, Optional[float]]:
    """pass@1 and pass@4 of one eval pass, from its tables' question and reward
    columns: pass@1 is the mean reward, pass@4 the fraction of questions with a
    correct rollout among their first 4 in log order, absent when some question
    has fewer than 4. InsufficientRollouts for an empty pass."""
    question, _, reward = _columns(tables)
    if not question.size:
        raise InsufficientRollouts("no evaluation rollouts")
    order = np.argsort(question, kind="stable")  # each question's rollouts, in log order
    question, reward = question[order], reward[order]
    first = np.flatnonzero(np.r_[True, question[1:] != question[:-1]])
    count = np.diff(np.r_[first, question.size])
    pass1 = int(reward.sum()) / question.size
    if count.min() < 4:
        return pass1, None
    rank = np.arange(question.size) - np.repeat(first, count)
    return pass1, int(reward[rank < 4].reshape(-1, 4).any(1).sum()) / first.size


# -- log files -----------------------------------------------------------


def _by_step(records: Iterable, step_of: Callable) -> dict[int, list]:
    by_step: dict[int, list] = {}
    for rec in records:
        by_step.setdefault(step_of(rec), []).append(rec)
    return by_step


def read_trajectory_log(path: Path, shape) -> dict[int, list[DrawTable]]:
    """A trajectory or eval log of a run under shape, as its tables (read_tables)
    grouped by training step, in file order."""
    return _by_step(read_tables(path, shape), attrgetter("step"))


# An audit record's keys in file order, with the JSON types their values may take.
_AUDIT_KEYS = {
    "step": (int,),
    "question_id": (int,),
    "source_index": (int, type(None)),
    "confidence": (float, type(None)),
    "rewards": (list,),
    "recovery": (int, type(None)),
}


# An audit record's line: what json.dumps(record, separators=(",", ":")) writes.
_audit_text = json.JSONEncoder(separators=(",", ":")).encode


def write_audit_records(records: Iterable[dict], fh: TextIO) -> None:
    for rec in records:
        fh.write(_audit_text(rec))
        fh.write("\n")


def parse_audit_record(line: str, line_number: Optional[int] = None) -> dict:
    """An audit line, read only if write_audit_records writes exactly that line for a
    record train_step makes: _AUDIT_KEYS in order and of their JSON types, a step from
    1, a question id from 0, and a selected prefix's index, confidence in [0, 1], 0-or-1
    rewards and their recovery, or null, [] and null for a question that selected none.
    A ParseError names the field of a line that is not."""

    def refuse(message: str, field: Optional[str]):
        raise ParseError(f"audit record {message}", line=line_number, field_name=field)

    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", line=line_number) from exc
    if not isinstance(rec, dict):
        refuse("is not an object", None)
    for key, types in _AUDIT_KEYS.items():
        if key not in rec:
            refuse("missing field", key)
        if type(rec[key]) not in types:
            refuse(f"field has type {type(rec[key]).__name__}", key)
    if any(type(r) is not int for r in rec["rewards"]):
        refuse("reward is not an int", "rewards")
    if list(rec) != list(_AUDIT_KEYS) or line != _audit_text(rec):
        text = "{"  # the line up to and including each field, as write_audit_records writes it
        for key, expected in zip_longest(rec, _AUDIT_KEYS):
            if key != expected:
                refuse(f"keys are not {', '.join(_AUDIT_KEYS)}, in that order", key)
            text += f'"{key}":{_audit_text(rec[key])}'
            if not line.startswith(text):
                refuse(f"is not {text!r}... as write_audit_records writes it", key)
            text += ","
        refuse("has text after its last field", None)
    for key, low in (("step", 1), ("question_id", 0)):
        if rec[key] < low:
            refuse(f"{key} {rec[key]} is below {low}", key)
    _, _, source, confidence, rewards, recovery = rec.values()
    if source is None:
        for key, null in (("confidence", None), ("rewards", []), ("recovery", None)):
            if rec[key] != null:
                refuse(f"of no prefix holds {json.dumps(rec[key])}, not {json.dumps(null)}", key)
    elif source < 0:
        refuse(f"source index {source} is below 0", "source_index")
    elif confidence is None or not 0.0 <= confidence <= 1.0:
        refuse(f"confidence {confidence} is not in [0, 1]", "confidence")
    elif not rewards or not set(rewards) <= {0, 1}:
        refuse(f"rewards {rewards} are not one or more 0s and 1s", "rewards")
    elif recovery != int(any(rewards)):
        refuse(f"recovery {recovery} is not {int(any(rewards))} for its rewards", "recovery")
    return rec


def read_audit_log(path: Path) -> dict[int, list[dict]]:
    records = read_complete_records(path, parse_audit_record)
    return _by_step((rec for _, rec in records), itemgetter("step"))


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
    tables: Sequence[DrawTable],
    audit_records: Sequence[dict],
    pass1: Optional[float] = None,
    pass4: Optional[float] = None,
) -> StepMetrics:
    """One metrics row from the step's draw tables, whose continuations it
    skips, and its audit records.

    One walk over the question groups classifies each rollout once. A tool or
    no-tool subgroup's all-wrong rate is over the questions where it is
    nonempty; a tool subgroup that resampling recovered no longer counts as
    all-wrong. The recovery rate is over the triggered questions, those with
    an audit record."""
    triggered = {rec["question_id"] for rec in audit_records}
    recovered = {rec["question_id"] for rec in audit_records if rec["recovery"] == 1}
    rollouts = tool_rollouts = correct = 0
    tool_groups = tool_wrong = no_tool_groups = no_tool_wrong = 0
    for qid, group in group_by_question(tables).items():
        tool_rewards, no_tool_rewards = [], []
        for tool, reward in group:
            (tool_rewards if tool else no_tool_rewards).append(reward)
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
    column. A ParseError names a wrong header or row width, or the column of a cell
    that is not the text metrics_row writes for its value."""
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
            value = None if raw == "" else int(raw) if key in _INT_COLUMNS else float(raw)
        except ValueError as exc:
            raise ParseError(str(exc), line=number, field_name=key) from None
        # int() and float() also read "1_0", " 3", "nan" and "inf", which metrics_row never writes.
        if _cell(value) != raw or value is not None and not math.isfinite(value):
            raise ParseError(f"{raw!r} is not a metrics_row cell", line=number, field_name=key)
        row[key] = value
    return row


def parse_metrics_csv(path: Path) -> list[dict]:
    rows = [row for _, row in read_complete_records(path, parse_metrics_row)]
    if rows and rows[0] is not None:  # line 1 is blank, and parse_metrics_row saw no header
        raise ParseError(f"header is not {','.join(METRICS_COLUMNS)}", line=1, path=path)
    return rows[1:]
