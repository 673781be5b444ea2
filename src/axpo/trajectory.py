"""Agentic trajectory data model: steps, groups, serialization, the run-file reader.

A trajectory is a run of tagged steps in one layout, THINK (TOOL_CALL
TOOL_CALL+ OBSERVATION)? ANSWER: a think step, in a tool-using rollout the
call's opening marker, argument steps and observation, then the answer. So a
step's role is its position, and the first-tool-call prefix is the first
PREFIX_STEPS steps. Policy-emitted steps carry the log-probability they were
sampled with; environment-emitted observation steps never do and never
receive gradient. Step, Trajectory and Group are plain values, checked where
they enter: DrawTable's constructor checks every drawn logp, and deserialize
every value and the layout of each record it reads. read_records is the one
line reader of every run file.

A DrawTable is a batch of drawn trajectories as columns, the form the env's
samplers draw into: write_log, the one record writer, writes its records from
its columns, and its `trajectories` are the Trajectory objects of its rows,
each built whole; a continuation's prefix steps equal its source's but are
not the same objects.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from pathlib import Path
from typing import Callable, Generator, Iterator, Optional, Sequence, TextIO

import numpy as np


class Segment(str, Enum):
    THINK = "THINK"
    TOOL_CALL = "TOOL_CALL"
    OBSERVATION = "OBSERVATION"
    ANSWER = "ANSWER"


class NotToolUsing(ValueError):
    """Raised when a tool-call prefix is requested from a trajectory with no tool call."""


# A tool-using rollout's first-tool-call prefix: the think step and the opening marker.
PREFIX_STEPS = 2


class ParseError(ValueError):
    """A malformed record of a run file; carries its file, line and field when known."""

    def __init__(
        self,
        message: str,
        line: Optional[int] = None,
        field_name: Optional[str] = None,
        path: Optional[Path] = None,
    ):
        loc = [] if path is None else [str(path)]
        if line is not None:
            loc.append(f"line {line}")
        if field_name is not None:
            loc.append(f"field {field_name!r}")
        super().__init__(f"{message} ({', '.join(loc)})" if loc else message)
        self.reason = message
        self.line = line
        self.field_name = field_name


@dataclass(frozen=True)
class Step:
    """One trajectory step.

    logp_old is the natural-log probability under the rollout policy; it is
    None exactly for OBSERVATION steps. mask=False steps are excluded from
    the training loss.
    """

    action_id: int
    segment: Segment
    logp_old: Optional[float] = None
    mask: bool = True


def _bad_logp(logp) -> str:
    return f"logp_old must be finite and <= 0, got {logp}"


@dataclass(frozen=True)
class Trajectory:
    question_id: int
    steps: tuple[Step, ...]
    reward: int
    # Log metadata; not part of trajectory identity but persisted with it.
    run_id: str = ""
    step_index_in_training: int = 0
    is_resample: bool = False
    source_prefix_id: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))

    def is_tool_using(self) -> bool:
        return len(self.steps) > 2


@dataclass(frozen=True)
class Group:
    """N rollouts for one question."""

    question_id: int
    rollouts: tuple[Trajectory, ...]

    def rewards(self) -> list[int]:
        return [t.reward for t in self.rollouts]


@dataclass(frozen=True, eq=False)
class DrawTable:
    """A batch of drawn trajectories as columns; row i is trajectory i.

    question and reward hold one int per row. A row's decisions fill one row
    of `action`, `flat` and `logp`, in the order think, the call_steps argument
    steps, answer: the action id, its flat policy index (node start + action)
    and the log-probability it was drawn with. A row whose think action is 0
    drew no tool call, and its argument cells hold -1, -1 and nan; a tool-using
    row's first argument is its observation's variant and its opening marker
    is action tool_open_id, with logp 0.0 and masked. A continuation's think
    cells are its source's. The other fields are every record's log metadata,
    source_prefix_ids holding row i's at i when given.

    Each drawn logp must be finite and <= 0, as deserialize requires of a read
    one: the one check of the sampler's output, an array test raising
    ValueError with the first logp that is not.
    """

    question: np.ndarray
    reward: np.ndarray
    action: np.ndarray
    flat: np.ndarray
    logp: np.ndarray
    tool_open_id: int
    run_id: str = ""
    step: int = 0
    is_resample: bool = False
    source_prefix_ids: Optional[Sequence[str]] = None

    def __post_init__(self) -> None:
        bad = (self.flat >= 0) & ~((self.logp > -math.inf) & (self.logp <= 0.0))
        if bad.any():
            raise ValueError(_bad_logp(self.logp[bad][0].item()))

    def __len__(self) -> int:
        return len(self.question)

    @property
    def tool_using(self) -> np.ndarray:
        return self.flat[:, 1] >= 0

    def _per_decision(self, make: Callable) -> list[list]:
        """make(action, segment, logp, True) once per distinct decision, as rows
        aligned with the columns (junk in cells not drawn). Decisions are equal
        when they share a flat index, unless one flat index holds two logps
        (continuations of sources drawn by other policies); then each cell is
        its own decision."""
        flat, action, logp = (m.ravel() for m in (self.flat, self.action, self.logp))
        width = self.flat.shape[1]
        segments = [Segment.THINK, *[Segment.TOOL_CALL] * (width - 2), Segment.ANSWER]
        cells = np.flatnonzero(flat >= 0)
        key, owner = flat, np.zeros(flat.max(initial=-1) + 1, dtype=np.int64)
        owner[key[cells]] = cells
        bits = logp.view(np.int64)
        if (bits[owner[key[cells]]] != bits[cells]).any():
            key, owner = np.where(flat >= 0, np.arange(flat.size), -1), np.arange(flat.size)
        present = np.zeros(owner.size, dtype=bool)
        present[key[cells]] = True
        distinct = np.flatnonzero(present)
        at = owner[distinct]
        made = np.empty(owner.size, dtype=object)
        made[distinct] = [
            make(a, segments[col], lp, True)
            for a, col, lp in zip(action[at].tolist(), (at % width).tolist(), logp[at].tolist())
        ]
        return made[key].reshape(-1, width).tolist()

    def _rows(self, make: Callable) -> Iterator:
        """Each row's question, reward, source_prefix_id and steps, as make(action,
        segment, logp, mask) gives them: one per distinct decision, one per
        observed variant and one opening marker."""
        rows = self._per_decision(make)
        variants = self.action[:, 1].tolist()
        observed = {v: make(v, Segment.OBSERVATION, None, False) for v in set(variants) if v >= 0}
        marker = make(self.tool_open_id, Segment.TOOL_CALL, 0.0, False)
        prefix_ids = self.source_prefix_ids or [None] * len(self)
        for q, r, prefix_id, row, v in zip(
            self.question.tolist(), self.reward.tolist(), prefix_ids, rows, variants
        ):
            yield q, r, prefix_id, (
                [row[0], marker, *row[1:-1], observed[v], row[-1]] if v >= 0 else [row[0], row[-1]]
            )

    def trajectories(self) -> list[Trajectory]:
        """The rows as Trajectory objects with their log metadata, sharing one Step
        per distinct decision."""
        return [
            Trajectory(q, steps, r, run_id=self.run_id, step_index_in_training=self.step,
                       is_resample=self.is_resample, source_prefix_id=prefix_id)
            for q, r, prefix_id, steps in self._rows(Step)
        ]


# One letter per segment, THINK and TOOL_CALL apart; the layout over those letters.
_LETTER = dict(zip(Segment, "TCOA"))
_LAYOUT = re.compile(r"T(?:CC+O)?A")


def check_segment_grammar(steps: Sequence[Step]) -> None:
    """Validate the layout THINK (TOOL_CALL TOOL_CALL+ OBSERVATION)? ANSWER:
    a think step, an optional tool call (its opening marker, one or more
    argument steps, then the observation), and the answer step. The opening
    marker has no decision node, so it must be masked."""
    if not _LAYOUT.fullmatch("".join([_LETTER[s.segment] for s in steps])):
        found = " ".join(s.segment.value for s in steps) or "no steps"
        raise ValueError(f"{found} is not THINK (TOOL_CALL TOOL_CALL+ OBSERVATION)? ANSWER")
    if len(steps) > 2 and steps[1].mask:
        raise ValueError("step 1: the opening marker of a tool call must be masked")


# --- line-delimited serialization -------------------------------------------
#
# One JSON object per line. Floats round-trip bit-exactly through repr. A
# table's records are written from its columns, one step text per distinct
# decision. Not one per equal logp: -0.0 equals 0.0 but writes differently.

_SEGMENT_BY_NAME = {s.value: s for s in Segment}

# A record's keys in file order, with the JSON types its value may take. Each names
# the Trajectory field it holds but turn_count, which the records keep as 1.
_TURN_COUNT = 1
_RECORD_KEYS = {
    "run_id": (str,),
    "step_index_in_training": (int,),
    "question_id": (int,),
    "reward": (int,),
    "turn_count": (int,),
    "is_resample": (bool,),
    "source_prefix_id": (str, type(None)),
    "steps": (list,),
}

# A step object's keys and the JSON types of their values.
_STEP_KEYS = {"a": (int,), "seg": (str,), "logp": (float, int, type(None)), "mask": (bool,)}
_LOGP_TYPES = _STEP_KEYS["logp"]


def _check_fields(obj: dict, keys: dict, what: str, line: Optional[int]) -> None:
    """Raise ParseError for the first of keys that obj lacks or holds another JSON type under."""
    for key, types in keys.items():
        if key not in obj:
            raise ParseError(f"{what} missing field", line=line, field_name=key)
        if type(obj[key]) not in types:
            kind = type(obj[key]).__name__
            raise ParseError(f"{what} field has type {kind}", line=line, field_name=key)


def _step_from_obj(obj: dict, line: Optional[int]) -> Step:
    # Read first and check after, so a well-formed step pays only for the reads;
    # a malformed one fails a read or a type test, and _check_fields names why.
    try:
        a, seg, logp, mask = obj["a"], _SEGMENT_BY_NAME.get(obj["seg"]), obj["logp"], obj["mask"]
        well_typed = type(a) is int and type(logp) in _LOGP_TYPES and type(mask) is bool
    except (KeyError, TypeError):
        well_typed = False
    if not well_typed:
        if type(obj) is not dict:
            raise ParseError("step record is not an object", line=line, field_name="steps")
        _check_fields(obj, _STEP_KEYS, "step record", line)
    if seg is None:
        raise ParseError(f"unknown segment {obj['seg']!r}", line=line, field_name="seg")
    if seg is Segment.OBSERVATION:
        if logp is not None:
            raise ParseError("OBSERVATION steps carry no log-probability", line=line)
        if mask:
            raise ParseError("OBSERVATION steps are never unmasked", line=line)
    elif logp is None or not -math.inf < logp <= 0.0:
        raise ParseError(_bad_logp(logp), line=line)
    return Step(a, seg, logp, mask)


# A step's segment and mask as JSON; a record's bools and nulls are literals.
_SEGMENT_JSON = {s: json.dumps(s.value) for s in Segment}
_JSON_BOOL = ("false", "true")
# A record's strings: a run writes a few run ids and prefix ids many times.
_json_string = lru_cache(maxsize=256)(json.dumps)


def _step_text(action_id: int, segment: Segment, logp: Optional[float], mask: bool) -> str:
    return (
        f'{{"a":{action_id},"seg":{_SEGMENT_JSON[segment]},'
        f'"logp":{"null" if logp is None else repr(logp)},"mask":{_JSON_BOOL[mask]}}}'
    )


def load_record(line: str, keys: dict, what: str, line_number: Optional[int] = None) -> dict:
    """A log line's JSON object, holding every key of keys with one of its JSON types."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", line=line_number) from exc
    if not isinstance(record, dict):
        raise ParseError(f"{what} is not an object", line=line_number)
    _check_fields(record, keys, what, line_number)
    return record


def deserialize(line: str, line_number: Optional[int] = None) -> Trajectory:
    """A record line's trajectory; ParseError, naming line_number, if the env draws none such."""
    record = load_record(line, _RECORD_KEYS, "record", line_number)
    values = {key: record[key] for key in _RECORD_KEYS}
    if values.pop("turn_count") != _TURN_COUNT:
        raise ParseError(f"must be {_TURN_COUNT}", line=line_number, field_name="turn_count")
    if values["reward"] not in (0, 1):
        raise ParseError(f"reward must be 0 or 1, got {values['reward']}", line=line_number)
    values["steps"] = tuple(_step_from_obj(o, line_number) for o in record["steps"])
    try:
        check_segment_grammar(values["steps"])
    except ValueError as exc:
        raise ParseError(str(exc), line=line_number) from exc
    return Trajectory(**values)


def write_log(table: DrawTable, fh: TextIO) -> None:
    """One record line per row of a table, in order: the keys of _RECORD_KEYS, written
    as json.dumps(record, separators=(",", ":")) writes the row's trajectory. Strings
    go through json.dumps; ints and floats through repr, as json writes them; bools and
    None as their JSON literals; each distinct decision's step text is made once."""
    head = f'{{"run_id":{_json_string(table.run_id)},"step_index_in_training":{table.step!r},'
    is_resample = _JSON_BOOL[table.is_resample]
    for q, r, prefix_id, steps in table._rows(_step_text):
        prefix_id = "null" if prefix_id is None else _json_string(prefix_id)
        fh.write(
            f'{head}"question_id":{q!r},"reward":{r!r},"turn_count":{_TURN_COUNT},'
            f'"is_resample":{is_resample},"source_prefix_id":{prefix_id},'
            f'"steps":[{",".join(steps)}]}}\n'
        )


def read_records(path: Path, parse: Callable) -> Generator[tuple[int, object], None, Optional[int]]:
    """(end offset, parse(line, number)) of each nonblank line of a run file, which ends only
    at a newline byte and is decoded by itself; a ParseError names path and the line. A torn
    last line, nonblank with no newline, is not read: the generator returns its number."""
    end = 0
    with path.open("rb") as fh:
        for number, raw in enumerate(fh, start=1):
            if not raw.endswith(b"\n"):
                return number if raw.strip() else None
            end += len(raw)
            try:
                if line := raw.decode("utf-8").strip():
                    yield end, parse(line, number)
            except UnicodeDecodeError as exc:
                raise ParseError(f"not UTF-8: {exc.reason}", line=number, path=path) from None
            except ParseError as exc:
                raise ParseError(exc.reason, exc.line, exc.field_name, path) from None
