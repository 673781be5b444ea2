"""Tabular softmax policy over per-question decision nodes.

Three node families per question:
  * think node: chooses NO_TOOL (action 0) or one of m tool intents (1..m)
  * call nodes: per (intent, call step), choose one of v call-argument ids;
    the first argument id is the tool-call variant the environment grades
  * answer node: chooses an answer id

All logits live in one flat float64 vector: the think table
(questions x 1+m), then the call table (questions x m x call steps x v), then
the answer table (questions x answers), each row-major, so every decision
node is one row, a contiguous slice of it. PolicyShape owns this layout:
split() views a flat vector as the three tables, and think(q), call(q,
intent, j) and answer(q) compute a node's slice from its row. A gradient is
a flat vector in the same layout. A drawn decision's flat index is its
node's start plus its action. split() and softmax() also take a stack of them.

A policy is a read-only value: its logits and the softmax of them, its exact
probabilities and the tables it samples from. Checkpoints are bit-exact text,
json.dumps of a dict; a finite table's text is a %-format of its dims filled
with one repr per distinct float.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from .trajectory import ParseError, float_texts

NO_TOOL = 0  # think-node action id for answering without a tool

# The three tables in flat-vector order, named as in a checkpoint.
_FAMILIES = ("think", "call", "answer")


@dataclass(frozen=True)
class PolicyShape:
    num_questions: int
    num_intents: int
    call_steps: int
    num_variants: int
    num_answers: int

    @property
    def tool_open_id(self) -> int:
        """Reserved action id for the tool-call opening marker."""
        return self.num_intents + 1

    @cached_property
    def tables(self) -> tuple[tuple[int, ...], ...]:
        """Shapes of the think, call and answer tables."""
        q, m = self.num_questions, self.num_intents
        return ((q, 1 + m), (q, m, self.call_steps, self.num_variants), (q, self.num_answers))

    @cached_property
    def size(self) -> int:
        return sum(math.prod(t) for t in self.tables)

    def split(self, flat: np.ndarray) -> list[np.ndarray]:
        """The think, call and answer tables as views of a flat vector, or of the
        last axis of an array of them, whose leading axes each view keeps."""
        views, start, lead = [], 0, flat.shape[:-1]
        for table in self.tables:
            stop = start + math.prod(table)
            views.append(flat[..., start:stop].reshape(lead + table))
            start = stop
        return views

    # A node's slice is its family's offset plus its row index times the row
    # width. Row indices are not range-checked here; the samplers check the
    # question ids they are given.
    def think(self, q: int) -> slice:
        start = q * (1 + self.num_intents)
        return slice(start, start + 1 + self.num_intents)

    def call(self, q: int, intent: int, j: int) -> slice:
        row = (q * self.num_intents + intent) * self.call_steps + j
        start = self.num_questions * (1 + self.num_intents) + row * self.num_variants
        return slice(start, start + self.num_variants)

    def answer(self, q: int) -> slice:
        start = self.size - (self.num_questions - q) * self.num_answers  # the last table
        return slice(start, start + self.num_answers)

    def node_starts(self, question: np.ndarray, think: np.ndarray) -> np.ndarray:
        """The node start of each decision cell of rows with these question ids
        and think actions, in the columns think, the call_steps argument steps,
        answer. A row's argument nodes are those of the intent its think action
        names, so they mean nothing in a row without a tool call."""
        first = np.empty((len(question), 2 + self.call_steps), dtype=np.int64)
        first[:, 0] = self.think(question).start
        steps = np.arange(self.call_steps)
        first[:, 1:-1] = self.call(question[:, None], think[:, None] - 1, steps).start
        first[:, -1] = self.answer(question).start
        return first


def softmax(shape: PolicyShape, logits: np.ndarray) -> tuple[np.ndarray, ...]:
    """pi and logp of the softmax at every node of logits of shape (..., shape.size).
    Each family takes one pass along its last axis with a per-node softmax's
    operations in its order, so every entry equals that softmax's bit for bit."""
    pi, logp = np.empty_like(logits), np.empty_like(logits)
    for logits_f, pi_f, logp_f in zip(*map(shape.split, (logits, pi, logp))):
        z = logits_f - logits_f.max(-1, keepdims=True)
        e = np.exp(z)
        total = e.sum(-1, keepdims=True)
        pi_f[...] = e / total
        logp_f[...] = z - np.log(total)
    return pi, logp


class TabularPolicy:
    """A read-only policy value: per-question logits and the distributions their
    softmax gives, computed once when it is built.

    `pi`, the `cdf` that `Generator.choice` builds from it, and `logp` are
    flat float64 vectors in the logit layout. `softmax` gives `pi` and `logp`,
    and the cdf is built from `pi` a family at a time the same way, so every
    entry equals the per-node value bit for bit. Counting a node's cdf entries
    at or below a uniform u therefore gives the action `rng.choice(n, p=p /
    p.sum())` picks when its `rng.random()` is u; `env.draw_rollouts` draws
    that way. The logits are copied, and all four vectors are read-only.
    """

    def __init__(self, shape: PolicyShape, logits: np.ndarray):
        self.shape = shape
        self.logits = np.array(logits, dtype=np.float64)
        if self.logits.shape != (shape.size,):
            raise ValueError(f"expected {shape.size} logits, got shape {self.logits.shape}")
        self.pi, self.logp = softmax(shape, self.logits)
        self.cdf = np.empty(shape.size)
        for pi, cdf in zip(*map(shape.split, (self.pi, self.cdf))):
            cum = (pi / pi.sum(-1, keepdims=True)).cumsum(-1)
            cdf[...] = cum / cum[..., -1:]
        for vector in (self.logits, self.pi, self.cdf, self.logp):
            vector.flags.writeable = False

    def __reduce__(self):
        """Pickle as the constructor's arguments, so a copy is read-only too."""
        return TabularPolicy, (self.shape, self.logits)

    def probs(self, ctx: slice) -> np.ndarray:
        """The distribution at the decision node whose slice is ctx."""
        return self.pi[ctx]


# -- checkpoints --------------------------------------------------------
#
# Binary-free structured text (JSON); floats round-trip bit-exactly. A
# checkpoint is json.dumps of a dict: step, shape and the three tables as
# nested lists. A finite table is written as repr writes its nested list, which
# json.dumps writes too: its dims' %-format filled with each float's repr,
# computed once per distinct bit pattern.


@lru_cache(maxsize=16)
def _nested_format(dims: tuple[int, ...]) -> str:
    """The text repr writes of a nested list of dims, each float a %s."""
    if not dims:
        return "%s"
    return "[" + ", ".join([_nested_format(dims[1:])] * dims[0]) + "]"


def encode_table(table: np.ndarray) -> str:
    """json.dumps(table.tolist()) of a float64 table. A finite one is its dims' format
    filled with float_texts; json.dumps writes NaN and inf as NaN and Infinity, where
    repr writes nan and inf, so a table holding one keeps json.dumps."""
    if not np.isfinite(table).all():
        return json.dumps(table.tolist())
    return _nested_format(table.shape) % tuple(float_texts(table).ravel().tolist())


def save_policy(policy: TabularPolicy, path: Path, step: int = 0) -> None:
    """Write json.dumps of the checkpoint dict to path, through a temporary file."""
    shape = policy.shape
    head = json.dumps({"step": step, "shape": asdict(shape)})
    tables = [f', "{family}_logits": {encode_table(table)}'
              for family, table in zip(_FAMILIES, shape.split(policy.logits))]
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text("".join([head[:-1], *tables, "}"]), encoding="utf-8")
    tmp.replace(path)


def load_policy(path: Path) -> tuple[TabularPolicy, int]:
    """A checkpoint's policy and step; ParseError, naming path, if it is not valid
    JSON, lacks a key, or holds a table of the wrong shape or a negative or non-int step."""
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
        shape = PolicyShape(**obj["shape"])
        tables = []
        for family, expected in zip(_FAMILIES, shape.tables):
            table = np.array(obj[f"{family}_logits"], dtype=np.float64)
            if table.shape != expected:
                raise ValueError(f"{family}_logits has shape {table.shape}, expected {expected}")
            tables.append(table.ravel())
        policy = TabularPolicy(shape, np.concatenate(tables))
        if type(step := obj["step"]) is not int or step < 0:
            raise ValueError(f"step {step!r} is not a non-negative int")
        return policy, step
    except KeyError as exc:
        raise ParseError(f"checkpoint missing key {exc.args[0]!r}", path=path) from None
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed checkpoint: {exc}", path=path) from None
