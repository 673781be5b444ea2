"""Agentic trajectory data model: draw tables, steps, the record writer and reader.

A trajectory is a run of tagged steps in one layout, THINK (TOOL_CALL
TOOL_CALL+ OBSERVATION)? ANSWER: a think step, in a tool-using rollout the
call's opening marker, argument steps and observation, then the answer. So a
step's role is its position, and the first-tool-call prefix is the first
PREFIX_STEPS steps. Policy-emitted steps carry the log-probability they were
sampled with; environment-emitted observation steps never do and never
receive gradient. Step and Trajectory are plain values.

A DrawTable is a batch of drawn trajectories as columns, the one form a
record takes in memory: the env's samplers draw into it, training and
evaluation read its columns, write_log, the one record writer, writes its
records from them, and tables_of builds tables of read records. One
template spells a record: write_log fills its format for a row, and the
reader parses each line by one fullmatch of its pattern for the run's
PolicyShape, so it accepts a line only if write_log writes exactly that line
for the row it parses to, and only a row the env draws. Every value is
checked where it enters: a drawn logp by the sampler that draws it
(env._finish), a read one by the reader, so a DrawTable checks nothing.
read_records is the one line reader of every run file.
A table's `trajectories` are the Trajectory objects of its rows, each built
whole on first use and then kept; a continuation's prefix steps equal its
source's but are not the same objects.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from itertools import groupby
from operator import itemgetter
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


def bad_logp(logp) -> str:
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

    def __len__(self) -> int:
        return len(self.question)

    @property
    def tool_using(self) -> np.ndarray:
        return self.flat[:, 1] >= 0

    def trajectories(self) -> list[Trajectory]:
        """The rows as Trajectory objects with their log metadata, each row's steps
        built from its action and logp cells, every row sharing one opening-marker
        Step: built on the first call and kept, so every call gives the same list of
        the same objects. Do not modify it."""
        return self._trajectories

    @cached_property
    def _trajectories(self) -> list[Trajectory]:
        marker, out = Step(self.tool_open_id, Segment.TOOL_CALL, 0.0, False), []
        prefix_ids = self.source_prefix_ids or [None] * len(self)
        for q, r, prefix_id, a, lp in zip(self.question.tolist(), self.reward.tolist(),
                                          prefix_ids, self.action.tolist(), self.logp.tolist()):
            call = [marker, *(Step(x, Segment.TOOL_CALL, y) for x, y in zip(a[1:-1], lp[1:-1])),
                    Step(a[1], Segment.OBSERVATION, None, False)] if a[1] >= 0 else []
            steps = (Step(a[0], Segment.THINK, lp[0]), *call, Step(a[-1], Segment.ANSWER, lp[-1]))
            out.append(Trajectory(q, steps, r, run_id=self.run_id, step_index_in_training=self.step,
                                  is_resample=self.is_resample, source_prefix_id=prefix_id))
        return out


# --- the record template -----------------------------------------------------
#
# One JSON object per line, spelled once: the template below, for a table of
# call_steps argument steps. write_log fills its %-formats and the reader
# matches its compiled pattern, one capture group per cell. Strings are what
# json.dumps writes, ints and floats what repr writes, as json.dumps writes
# them, so floats round-trip bit-exactly: -0.0 equals 0.0 but writes otherwise.

# A step's segment and mask as JSON; a record's bools and nulls are literals.
_SEGMENT_JSON = {s: json.dumps(s.value) for s in Segment}
_JSON_BOOL = ("false", "true")
# A record's strings and nulls: a run writes a few run ids and prefix ids many times.
_json_string = lru_cache(maxsize=256)(json.dumps)

_STRING = r'"[^"\\]*(?:\\.[^"\\]*)*"'
_HOLES = {"<int>": "(0|-?[1-9][0-9]*)", "<0|1>": "([01])", "<bool>": "(true|false)",
          "<string>": f"({_STRING})", "<string|null>": f"(null|{_STRING})",
          "<float>": "([-+.0-9A-Za-z]+)"}
_HOLE = re.compile("|".join(map(re.escape, _HOLES)))
_HEAD = (("run_id", "<string>"), ("step_index_in_training", "<int>"), ("question_id", "<int>"),
         ("reward", "<0|1>"), ("turn_count", 1), ("is_resample", "<bool>"),
         ("source_prefix_id", "<string|null>"))  # turn_count is 1: the one layout has one turn


def _regex(text: str) -> str:
    """A template text's regex: its literal parts escaped, its holes capture groups."""
    parts, holes = _HOLE.split(text), [_HOLES[hole] for hole in _HOLE.findall(text)]
    return re.escape(parts[0]) + "".join(h + re.escape(p) for h, p in zip(holes, parts[1:]))


def _step(action, segment: Segment, logp, mask: bool, sep: str = ",") -> list:
    return [("steps", sep + "{"), ("a", f'"a":{action}'),
            ("seg", f',"seg":{_SEGMENT_JSON[segment]}'), ("logp", f',"logp":{logp}'),
            ("mask", f',"mask":{_JSON_BOOL[mask]}}}')]


@lru_cache(maxsize=8)
def _template(call_steps: int) -> tuple[re.Pattern, tuple[list, list], tuple[str, str]]:
    """The records of a table with call_steps argument steps: their compiled pattern,
    whose tool call is optional; the (field, text) pieces of the no-tool and tool-using
    layouts; and each layout's line as a %-format, every hole a %s."""
    head = [(key, f'{"," if i else "{"}"{key}":{hole}') for i, (key, hole) in enumerate(_HEAD)]
    head += [("steps", ',"steps":['), *_step("<int>", Segment.THINK, "<float>", True, "")]
    call = [*_step("<int>", Segment.TOOL_CALL, 0.0, False),
            *_step("<int>", Segment.TOOL_CALL, "<float>", True) * call_steps,
            *_step("<int>", Segment.OBSERVATION, "null", False)]
    answer = [*_step("<int>", Segment.ANSWER, "<float>", True), ("steps", "]}")]
    regex = ["".join(_regex(text) for _, text in part) for part in (head, call, answer)]
    layouts = head + answer, head + call + answer
    formats = tuple("".join(_HOLE.sub("%s", text.replace("%", "%%")) for _, text in layout) + "\n"
                    for layout in layouts)
    return re.compile("{}(?:{})?{}".format(*regex)), layouts, formats


def write_log(table: DrawTable, fh: TextIO) -> None:
    """One record line per row of a table, in order: its layout's format filled with the
    table's log metadata and the row's cells, so that each line is what
    json.dumps(record, separators=(",", ":")) writes of the row's trajectory. repr
    runs once per distinct logp bit pattern."""
    no_call, call = _template(table.action.shape[1] - 2)[2]
    bits, inverse = np.unique(table.logp.view(np.int64), return_inverse=True)
    cells = np.empty((len(table), 2 * table.action.shape[1]), dtype=object)
    cells[:, 0::2] = table.action  # each decision's action, then its logp's text
    texts = np.array([repr(logp) for logp in bits.view(np.float64).tolist()], dtype=object)
    cells[:, 1::2] = texts[inverse.reshape(table.logp.shape)]
    run, step, resample = _json_string(table.run_id), table.step, _JSON_BOOL[table.is_resample]
    lines = []
    for q, r, prefix_id, c in zip(table.question.tolist(), table.reward.tolist(),
                                  table.source_prefix_ids or [None] * len(table), cells.tolist()):
        head = (run, step, q, r, resample, _json_string(prefix_id), *c[:2])
        lines.append(no_call % (*head, *c[-2:]) if c[2] < 0 else
                     call % (*head, table.tool_open_id, *c[2:-2], c[2], *c[-2:]))
    fh.write("".join(lines))


# --- reading a run file ------------------------------------------------------


def read_records(path: Path, parse: Callable) -> Generator[tuple[int, object], None, Optional[int]]:
    """(end offset, parse(line, number)) of each nonblank line of a run file, which ends only
    at a newline byte and is decoded by itself; the line is passed as it is, spaces and a
    "\r" before its newline included. A ParseError is raised again naming path and the line.
    A torn last line, nonblank with no newline, is not read: the generator returns its
    number."""
    end = 0
    with path.open("rb") as fh:
        for number, raw in enumerate(fh, start=1):
            if not raw.endswith(b"\n"):
                return number if raw.strip() else None
            end += len(raw)
            try:
                if (line := raw[:-1].decode("utf-8")).strip():
                    yield end, parse(line, number)
            except UnicodeDecodeError as exc:
                raise ParseError(f"not UTF-8: {exc.reason}", line=number, path=path) from None
            except ParseError as exc:
                raise ParseError(exc.reason, number, exc.field_name, path) from None


def read_complete_records(path: Path, parse: Callable) -> Iterator:
    """read_records, then a ParseError for a torn last line, which resume cuts."""
    torn = yield from read_records(path, parse)
    if torn is not None:
        raise ParseError("last line has no newline", line=torn, path=path)


# --- the record reader -------------------------------------------------------
#
# A record is read by one fullmatch of its template's pattern. A hole matches any
# text of its kind; the parse then requires the text write_log writes for the
# value. A line the pattern does not match is walked one key and value at a time,
# to name the field where it leaves the template.


def _mismatch(line: str, layouts: tuple[list, list]) -> ParseError:
    """The refusal of a line the template does not match: the first piece of its
    layout that the line does not hold, a value's text not running on past it."""
    at = 0
    for field, text in layouts[_SEGMENT_JSON[Segment.TOOL_CALL] in line]:
        if not (match := re.match(_regex(text) + "(?![-+.0-9A-Za-z])", line[at:])):
            break
        at += match.end()
    else:
        field, text = None, "the end of the line"
    return ParseError(f"expected {text}, got {line[at:at + len(text) + 8]!r}", field_name=field)


def _json_text(text: str, field: str) -> Optional[str]:
    """The value of a string or null cell, whose text must be what json.dumps writes."""
    try:
        if json.dumps(value := json.loads(text)) == text:
            return value
    except ValueError:
        pass
    raise ParseError(f"{text} is not what json.dumps writes", field_name=field)


def _logp_text(text: str) -> float:
    """The value of a logp cell: finite and <= 0, and its text what repr writes."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not -math.inf < value <= 0.0:
        raise ParseError(bad_logp(text), field_name="logp")
    if repr(value) != text:
        raise ParseError(f"{text} is not {value!r} as repr writes it", field_name="logp")
    return value


def record_parser(
    shape, run_id: Optional[str] = None, continuations: bool = True
) -> Callable[[str, int], tuple]:
    """parse(line, number) for one read of a trajectory or eval log under shape: the row
    of a line, (step, is_resample, run_id, source_prefix_id, question, reward, actions,
    logps), the decisions in DrawTable's column order. A ParseError names the field of a
    line that is not exactly what write_log writes for its row, of a row the env does
    not draw (a continuation has a source_prefix_id and a rollout none), when run_id is
    given, of a record of another run, and, unless continuations, of a continuation, as
    an eval log holds none. Each distinct string and logp text is checked once per parser."""
    pattern, layouts, _ = _template(shape.call_steps)
    marker, intents = str(shape.tool_open_id), shape.num_intents
    no_call = (-1,) * shape.call_steps, (math.nan,) * shape.call_steps
    # Each distinct text's value, checked when first read.
    runs = lru_cache(maxsize=None)(lambda text: _json_text(text, "run_id"))
    prefixes = lru_cache(maxsize=None)(lambda text: _json_text(text, "source_prefix_id"))
    logps = lru_cache(maxsize=None)(_logp_text)
    this_run = run_id is not None and _json_string(run_id)

    def refuse(message: str, field: str = "a"):
        raise ParseError(message, field_name=field)

    def parse(line: str, number: Optional[int] = None) -> tuple:
        if not (match := pattern.fullmatch(line)):
            raise _mismatch(line, layouts)
        cells = match.groups()
        run, step, q, reward, resample, prefix, think, think_logp, opened = cells[:9]
        call, (answer, answer_logp) = cells[9:-2], cells[-2:]  # the arguments, the observation
        q, think, answer = int(q), int(think), int(answer)
        if this_run and run != this_run:
            refuse(f"run_id {run} is not this seed's {this_run}", "run_id")
        if resample == "true" and not continuations:
            refuse("a continuation in a log of rollouts only", "is_resample")
        if (resample == "true") != (prefix != "null"):
            refuse(f"source_prefix_id {prefix} of a record whose is_resample is {resample}",
                   "source_prefix_id")
        if not 0 <= q < shape.num_questions:
            refuse(f"question {q} outside [0, {shape.num_questions})", "question_id")
        if opened is None:
            args, arg_logps = no_call
            if think != 0:
                refuse(f"think action {think} without a tool call is not 0")
        else:
            args = tuple(map(int, call[0:-1:2]))
            arg_logps = tuple(map(logps, call[1:-1:2]))
            if not 1 <= think <= intents:
                refuse(f"think action {think} before a tool call is not in 1..{intents}")
            if opened != marker:
                refuse(f"opening marker {opened} is not {marker}")
            if min(args) < 0 or max(args) >= shape.num_variants:
                refuse(f"argument actions {args} outside their nodes")
            if int(call[-1]) != args[0]:
                refuse(f"observation {call[-1]} is not the first argument {args[0]}")
        if not 0 <= answer < shape.num_answers:
            refuse(f"answer action {answer} outside its node")
        return (int(step), resample == "true", runs(run), prefixes(prefix), q, int(reward),
                think, *args, answer, logps(think_logp), *arg_logps, logps(answer_logp))

    return parse


def tables_of(rows: Sequence[tuple], shape) -> list[DrawTable]:
    """The tables of record_parser rows, in order: each run of consecutive rows with one
    step, is_resample and run_id is a table; a flat index is its node start plus its action."""
    width, tables = 2 + shape.call_steps, []
    for (step, is_resample, run_id), group in groupby(rows, itemgetter(0, 1, 2)):
        columns = list(zip(*group))
        question = np.array(columns[4], dtype=np.int64)
        action, logp = (np.array(c, dtype=dtype).T.copy() for c, dtype in (
            (columns[6 : 6 + width], np.int64), (columns[6 + width :], np.float64)))
        flat = np.where(action >= 0, shape.node_starts(question, action[:, 0]) + action, -1)
        tables.append(DrawTable(question, np.array(columns[5], dtype=np.int64), action, flat,
                                logp, shape.tool_open_id, run_id, step, is_resample,
                                list(columns[3])))
    return tables
