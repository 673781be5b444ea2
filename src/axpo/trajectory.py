"""Agentic trajectory data model: steps, groups, serialization, the run-file reader.

A trajectory is a run of tagged steps in one layout, THINK (TOOL_CALL
TOOL_CALL+ OBSERVATION)? ANSWER: a think step, in a tool-using rollout the
call's opening marker, argument steps and observation, then the answer. So a
step's role is its position, and the first-tool-call prefix is the first
PREFIX_STEPS steps. Policy-emitted steps carry the log-probability they were
sampled with; environment-emitted observation steps never do and never
receive gradient. read_records is the one line reader of every run file.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from pathlib import Path
from typing import Callable, Generator, Iterable, Optional, Sequence, TextIO


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


class _computed_once:
    """functools.cached_property without the lock that, before Python 3.12,
    costs twice the step text it caches."""

    def __init__(self, fn: Callable) -> None:
        self.fn, self.name = fn, fn.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


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
        elif self.logp_old is None or not -math.inf < self.logp_old <= 0.0:
            raise ValueError(f"logp_old must be finite and <= 0, got {self.logp_old}")

    @_computed_once
    def text(self) -> str:
        """The step's object in a record line, computed on first use."""
        logp = "null" if self.logp_old is None else repr(self.logp_old)
        return (
            f'{{"a":{self.action_id},"seg":{_SEGMENT_JSON[self.segment]},'
            f'"logp":{logp},"mask":{_JSON_BOOL[self.mask]}}}'
        )


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
        if self.reward not in (0, 1):
            raise ValueError(f"reward must be 0 or 1, got {self.reward}")
        check_segment_grammar(self.steps)

    def is_tool_using(self) -> bool:
        return len(self.steps) > 2


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

    def rewards(self) -> list[int]:
        return [t.reward for t in self.rollouts]


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
# batch shares Step objects (one per sampled node and action; a continuation
# reuses its source's prefix steps), so each Step encodes itself once, on
# first use (Step.text), and a record joins those texts. Not once per equal
# step: a logp of -0.0 equals 0.0 but writes differently.

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
    try:
        return Step(a, seg, logp, mask)
    except ValueError as exc:
        raise ParseError(str(exc), line=line) from exc


# A step's segment and mask as JSON; a record's bools and nulls are literals.
_SEGMENT_JSON = {s: json.dumps(s.value) for s in Segment}
_JSON_BOOL = ("false", "true")
# A record's strings: a run writes a few run ids and prefix ids many times.
_json_string = lru_cache(maxsize=256)(json.dumps)


def serialize(traj: Trajectory) -> str:
    """One-line record for a trajectory (no trailing newline): the keys of
    _RECORD_KEYS in order, written as json.dumps(record, separators=(",", ":"))
    writes them. Strings go through json.dumps; ints and floats through repr,
    as json writes them; bools and None as their JSON literals."""
    prefix_id = traj.source_prefix_id
    return (
        f'{{"run_id":{_json_string(traj.run_id)},'
        f'"step_index_in_training":{traj.step_index_in_training!r},'
        f'"question_id":{traj.question_id!r},"reward":{traj.reward!r},'
        f'"turn_count":{_TURN_COUNT},"is_resample":{_JSON_BOOL[traj.is_resample]},'
        f'"source_prefix_id":{"null" if prefix_id is None else _json_string(prefix_id)},'
        f'"steps":[{",".join([s.text for s in traj.steps])}]}}'
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
    record = load_record(line, _RECORD_KEYS, "record", line_number)
    values = {key: record[key] for key in _RECORD_KEYS}
    if values.pop("turn_count") != _TURN_COUNT:
        raise ParseError(f"must be {_TURN_COUNT}", line=line_number, field_name="turn_count")
    values["steps"] = tuple(_step_from_obj(o, line_number) for o in record["steps"])
    try:
        return Trajectory(**values)
    except ValueError as exc:
        raise ParseError(str(exc), line=line_number) from exc


def write_log(trajectories: Iterable[Trajectory], fh: TextIO) -> None:
    for t in trajectories:
        fh.write(serialize(t) + "\n")


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
