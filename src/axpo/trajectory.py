"""Agentic trajectory data model: steps, groups, tool-call prefixes, serialization.

A trajectory is an ordered run of tagged steps. Policy-emitted steps carry the
log-probability they were sampled with; environment-emitted observation steps
never do and never receive gradient.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Optional, Sequence, TextIO


class Segment(str, Enum):
    THINK = "THINK"
    TOOL_CALL = "TOOL_CALL"
    OBSERVATION = "OBSERVATION"
    ANSWER = "ANSWER"


class NotToolUsing(ValueError):
    """Raised when a tool-call prefix is requested from a trajectory with no tool call."""


class ParseError(ValueError):
    """Malformed trajectory record; carries line and field location when known."""

    def __init__(self, message: str, line: Optional[int] = None, field_name: Optional[str] = None):
        loc = []
        if line is not None:
            loc.append(f"line {line}")
        if field_name is not None:
            loc.append(f"field {field_name!r}")
        super().__init__(f"{message} ({', '.join(loc)})" if loc else message)
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

    def __post_init__(self) -> None:
        if self.segment is Segment.OBSERVATION:
            if self.logp_old is not None:
                raise ValueError("OBSERVATION steps carry no log-probability")
            if self.mask:
                raise ValueError("OBSERVATION steps are never unmasked")
        elif self.logp_old is not None and not -math.inf < self.logp_old <= 0.0:
            raise ValueError(f"logp_old must be finite and <= 0, got {self.logp_old}")


@dataclass(frozen=True)
class Trajectory:
    question_id: int
    steps: tuple[Step, ...]
    reward: int
    turn_count: int
    # Log metadata; not part of trajectory identity but persisted with it.
    run_id: str = ""
    step_index_in_training: int = 0
    is_resample: bool = False
    source_prefix_id: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        if self.reward not in (0, 1):
            raise ValueError(f"reward must be 0 or 1, got {self.reward}")
        if self.turn_count < 0:
            raise ValueError("turn_count must be nonnegative")
        check_segment_grammar(self.steps)

    def is_tool_using(self) -> bool:
        return any(s.segment is Segment.TOOL_CALL for s in self.steps)


@dataclass(frozen=True)
class Group:
    """N rollouts for one question."""

    question_id: int
    rollouts: tuple[Trajectory, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rollouts", tuple(self.rollouts))
        if not self.rollouts:
            raise ValueError("a group needs at least one rollout")
        for t in self.rollouts:
            if t.question_id != self.question_id:
                raise ValueError("all rollouts in a group must share the question id")

    @property
    def n(self) -> int:
        return len(self.rollouts)

    def rewards(self) -> list[int]:
        return [t.reward for t in self.rollouts]


@dataclass(frozen=True)
class Prefix:
    """A tool-using rollout cut at the opening of its first tool call.

    steps[0..cut_index] (inclusive) end exactly at the opening marker of the
    first TOOL_CALL run; the prefix carries none of the call's argument steps.
    """

    source: Trajectory
    cut_index: int

    @property
    def steps(self) -> tuple[Step, ...]:
        return self.source.steps[: self.cut_index + 1]


def check_segment_grammar(steps: Sequence[Step]) -> None:
    """Validate the per-trajectory pattern (THINK+ TOOL_CALL+ OBSERVATION+)* THINK* ANSWER*.

    OBSERVATION never appears without a TOOL_CALL run immediately before it in
    the same turn, and nothing follows the ANSWER run.
    """
    prev: Optional[Segment] = None
    for i, s in enumerate(steps):
        seg = s.segment
        if seg is Segment.OBSERVATION and prev not in (Segment.TOOL_CALL, Segment.OBSERVATION):
            raise ValueError(f"OBSERVATION at step {i} without a preceding TOOL_CALL run")
        if seg is Segment.TOOL_CALL and prev not in (Segment.THINK, Segment.TOOL_CALL):
            raise ValueError(f"TOOL_CALL at step {i} must follow a THINK run")
        if prev is Segment.ANSWER and seg is not Segment.ANSWER:
            raise ValueError(f"step {i} follows a terminal ANSWER run")
        if seg is Segment.THINK and prev is Segment.TOOL_CALL:
            raise ValueError(f"THINK at step {i} interrupts a tool call before its observation")
        prev = seg


def classify_subgroups(group: Group) -> tuple[list[int], list[int]]:
    """Partition group indices into (tool_using, no_tool)."""
    tool_using = [i for i, t in enumerate(group.rollouts) if t.is_tool_using()]
    no_tool = [i for i, t in enumerate(group.rollouts) if not t.is_tool_using()]
    return tool_using, no_tool


def first_tool_prefix(traj: Trajectory) -> Prefix:
    """Prefix ending at the opening marker of the first TOOL_CALL run."""
    for i, s in enumerate(traj.steps):
        if s.segment is Segment.TOOL_CALL:
            return Prefix(source=traj, cut_index=i)
    raise NotToolUsing(f"trajectory for question {traj.question_id} has no tool call")


# --- line-delimited serialization -------------------------------------------
#
# One JSON object per line. Floats round-trip bit-exactly through repr.

_SEGMENT_BY_NAME = {s.value: s for s in Segment}

# A record's keys in file order, each naming the Trajectory field it holds,
# with the JSON types its value may take.
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
    try:
        return Step(a, seg, logp, mask)
    except ValueError as exc:
        raise ParseError(str(exc), line=line) from exc


def serialize(traj: Trajectory) -> str:
    """One-line record for a trajectory (no trailing newline)."""
    record = {key: getattr(traj, key) for key in _RECORD_KEYS}
    record["steps"] = [
        {"a": s.action_id, "seg": s.segment.value, "logp": s.logp_old, "mask": s.mask}
        for s in traj.steps
    ]
    return json.dumps(record, separators=(",", ":"))


def deserialize(line: str, line_number: Optional[int] = None) -> Trajectory:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", line=line_number) from exc
    if not isinstance(record, dict):
        raise ParseError("record is not an object", line=line_number)
    _check_fields(record, _RECORD_KEYS, "record", line_number)
    values = {key: record[key] for key in _RECORD_KEYS}
    values["steps"] = tuple(_step_from_obj(o, line_number) for o in record["steps"])
    try:
        return Trajectory(**values)
    except ValueError as exc:
        raise ParseError(str(exc), line=line_number) from exc


def write_log(trajectories: Iterable[Trajectory], fh: TextIO) -> None:
    for t in trajectories:
        fh.write(serialize(t))
        fh.write("\n")


def read_log(fh: TextIO) -> Iterator[Trajectory]:
    for i, line in enumerate(fh, start=1):
        line = line.strip()
        if line:
            yield deserialize(line, line_number=i)
