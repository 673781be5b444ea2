"""Training-dynamics and evaluation metrics, computed from persisted logs.

Every metric is a pure function of the trajectory-log and eval-log records, never of
training state, read back as the draw tables they were written from, so diag computes
every row from the columns training did. The audit log is derived: it must be what
write_audit_records writes of the audit records the trajectory log determines
(check_audit_line), and no line of it is decoded. diag and compare read run files
through trajectory.read_records, as resume does, but refuse the torn last line resume cuts.

`StepMetrics` is the metrics.csv schema: its fields give the columns, their
order and which are ints; `metrics_row` writes a row, `parse_metrics_row`
reads one. `compute_step_metrics` builds one row from the one table it measures
and `eval_passes` gives an eval pass's pass@1 and pass@4. A question's group is
its rows: group_size consecutive rows of a step's rollouts, eval_rollouts of an
eval pass, as the step drew them and harness.replay checks a log holds them.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence, TextIO, get_type_hints

from .trajectory import DrawTable, ParseError, read_complete_records


class InsufficientRollouts(ValueError):
    """pass@k requested of an eval pass with no rollouts."""


def eval_passes(table: DrawTable, group: int) -> tuple[float, Optional[float]]:
    """pass@1 and pass@4 of one eval pass's table, whose rows are groups of `group`: pass@1
    is the mean reward, pass@4 the fraction of groups with a correct rollout among their
    first 4 rows, absent when a group has fewer. InsufficientRollouts for an empty pass."""
    reward = table.reward
    if not reward.size:
        raise InsufficientRollouts("no evaluation rollouts")
    pass4 = int(reward.reshape(-1, group)[:, :4].any(1).sum()) / (reward.size // group)
    return int(reward.sum()) / reward.size, pass4 if group >= 4 else None


# -- log files -----------------------------------------------------------


# An audit record's line: what json.dumps(record, separators=(",", ":")) writes.
_audit_text = json.JSONEncoder(separators=(",", ":")).encode
# How every such line begins: its record's step.
_AUDIT_STEP = re.compile(r'\{"step":(0|[1-9][0-9]*),')


def write_audit_records(records: Iterable[dict], fh: TextIO) -> None:
    for rec in records:
        fh.write(_audit_text(rec))
        fh.write("\n")


def read_audit_log(path: Path, read: Callable = read_complete_records) -> Iterator:
    """(end offset, line number, line) of each line of an audit log, as read reads a run
    file; the default refuses a torn last line. No line is decoded: an audit log is
    checked against the records replayed from the trajectory log (check_audit_line)."""
    return read(path, lambda line, number: line)


def check_audit_line(line: Optional[str], rec: dict, number: int, path: Path) -> None:
    """Refuse line `number` of an audit log unless it is what write_audit_records writes of
    rec; None is the end of the log. The ParseError names the field of rec whose text, up to
    the comma or brace after it, holds the first character that differs; the last field for
    a line that runs on past the record."""
    expected = _audit_text(rec)
    if line == expected:
        return
    got = line or ""
    at = len(os.path.commonprefix([got, expected]))
    end = 0
    for key, value in rec.items():  # each field's text: "key":value and the comma or brace
        start, end = end, end + len(key) + len(_audit_text(value)) + (5 if end == 0 else 4)
        if at < end:
            break
    held = "the end of the log" if line is None else repr(got[start : end + 8])
    raise ParseError(f"expected {expected[start:end]!r}, got {held}", number, key, path)


def check_audit_tail(line: Optional[str], number: int, path: Path, after: Optional[int]) -> None:
    """Refuse line `number`, the one after an audit log's replayed records, None if there is
    none: any line when after is None, else one that does not begin as write_audit_records
    writes a record of a step past `after`, as a resumed seed's log may hold."""
    if line is not None and (after is None or (step := _AUDIT_STEP.match(line)) is None
                             or int(step[1]) <= after):
        past = "the end of the log" if after is None else f"a record of a step after {after}"
        raise ParseError(f"expected {past}, got {line[:24]!r}", number, "step", path)


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
    table: DrawTable,
    audit_records: Sequence[dict],
    group: int,
    pass1: Optional[float] = None,
    pass4: Optional[float] = None,
) -> StepMetrics:
    """One metrics row from the table it measures, a step's rollouts or an eval pass, and
    the step's audit records. A question's group is its rows, `group` consecutive rows.
    A tool or no-tool subgroup's all-wrong rate is over the groups where it is nonempty;
    a tool subgroup that resampling recovered no longer counts as all-wrong. The
    recovery rate is over the triggered questions, those with an audit record."""
    triggered = {rec["question_id"] for rec in audit_records}
    recovered = {rec["question_id"] for rec in audit_records if rec["recovery"] == 1}
    question, tool, reward = table.question, table.tool_using, table.reward
    tool, hit = tool.reshape(-1, group), reward.reshape(-1, group).astype(bool)
    has_tool, has_no_tool = tool.any(1), ~tool.all(1)
    tool_wrong = question[::group][has_tool & ~(hit & tool).any(1)].tolist()  # their questions
    no_tool_wrong = has_no_tool & ~(hit & ~tool).any(1)
    return StepMetrics(
        step=step,
        tool_use_rate=int(tool.sum()) / reward.size if reward.size else 0.0,
        all_wrong_tool=_ratio(sum(q not in recovered for q in tool_wrong), int(has_tool.sum())),
        all_wrong_no_tool=_ratio(int(no_tool_wrong.sum()), int(has_no_tool.sum())),
        recovery_rate=_ratio(len(recovered), len(triggered)),
        mean_reward=_ratio(int(reward.sum()), reward.size),
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
    """The rows of a metrics.csv after its header, each read by parse_metrics_row."""
    return [row for *_, row in read_complete_records(path, parse_metrics_row)][1:]
