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
node's start plus its action.

A policy is a read-only value that carries its exact probabilities and the
tables it samples from; checkpoints are bit-exact text, json.dumps of a dict.
A table's text is its per-question blocks' texts joined, so save_policy
re-encodes only the blocks whose bits changed since the last checkpoint this
process wrote, and reuses the text of the others.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .trajectory import ParseError

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
        """The think, call and answer tables as views of a flat vector."""
        views, start = [], 0
        for table in self.tables:
            stop = start + math.prod(table)
            views.append(flat[start:stop].reshape(table))
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


class TabularPolicy:
    """A read-only policy value: per-question logits and the distributions
    softmax(logits / temperature) gives, computed once when it is built.

    `pi`, the `cdf` that `Generator.choice` builds from it, and `logp` are
    flat float64 vectors in the logit layout. Each family is computed in one
    pass along its last axis with the operations of a per-node softmax in
    the same order, so every entry equals the per-node value bit for bit.
    Counting a node's cdf entries at or below a uniform u therefore gives the
    action `rng.choice(n, p=p / p.sum())` picks when its `rng.random()` is u;
    `env.draw_rollouts` draws that way. The constructor copies the logits,
    and all four vectors are read-only, so a policy never changes.
    """

    def __init__(self, shape: PolicyShape, logits: np.ndarray, temperature: float = 1.0):
        if not (math.isfinite(temperature) and temperature > 0):
            raise ValueError("temperature must be finite and positive")
        self.shape = shape
        self.logits = np.array(logits, dtype=np.float64)
        if self.logits.shape != (shape.size,):
            raise ValueError(f"expected {shape.size} logits, got shape {self.logits.shape}")
        self.temperature = float(temperature)
        self.pi, self.cdf, self.logp = (np.empty(shape.size) for _ in range(3))
        vectors = (self.logits, self.pi, self.cdf, self.logp)
        for logits, pi, cdf, logp in zip(*map(shape.split, vectors)):
            z = logits / self.temperature
            z -= z.max(-1, keepdims=True)
            e = np.exp(z)
            total = e.sum(-1, keepdims=True)
            pi[...] = e / total
            cum = (pi / pi.sum(-1, keepdims=True)).cumsum(-1)
            cdf[...] = cum / cum[..., -1:]
            logp[...] = z - np.log(total)
        for vector in vectors:
            vector.flags.writeable = False

    def __reduce__(self):
        """Pickle as the constructor's arguments, so a copy is read-only too."""
        return TabularPolicy, (self.shape, self.logits, self.temperature)

    def probs(self, ctx: slice) -> np.ndarray:
        """The distribution at the decision node whose slice is ctx."""
        return self.pi[ctx]


# -- checkpoints --------------------------------------------------------
#
# Binary-free structured text (JSON); floats round-trip bit-exactly. A
# checkpoint is json.dumps of a dict: step, shape, temperature and the three
# tables as nested lists. json.dumps of a table is its per-question blocks'
# texts joined by ", " inside brackets, and a training step changes the blocks
# of the questions it sampled, so save_policy re-encodes only those. Its memo
# is the last checkpoint this process wrote: the shape, a copy of the logit
# bits, and each table's block texts. A block whose bits equal the memo's
# reuses its text; bits, not floats, because -0.0 == 0.0 while their texts
# differ. A memo of another shape, policy or seed can only miss, which costs
# time, never the wrong text. It holds one checkpoint, so memory stays flat.

_last_written: tuple = (None, None, None)  # (shape, int64 copy of the logits, block texts)


def save_policy(policy: TabularPolicy, path: Path, step: int = 0) -> None:
    """Write json.dumps of the checkpoint dict to path, through a temporary file."""
    global _last_written
    shape, bits = policy.shape, policy.logits.view(np.int64)
    last_shape, last_bits, last_blocks = _last_written
    if last_shape == shape:
        stale = [d.any(tuple(range(1, d.ndim))) for d in shape.split(bits != last_bits)]
    else:
        stale = [np.ones(shape.num_questions, dtype=bool)] * len(_FAMILIES)
        last_blocks = [[""] * shape.num_questions for _ in _FAMILIES]
    texts = []
    for table, stale_q, old in zip(shape.split(policy.logits), stale, last_blocks):
        q = np.flatnonzero(stale_q)
        new = table[q]
        # repr writes a list of finite floats as json.dumps does, but NaN and inf as nan and inf.
        encode = repr if np.isfinite(new).all() else json.dumps
        blocks = list(old)
        for i, block in zip(q.tolist(), new.tolist()):
            blocks[i] = encode(block)
        texts.append(blocks)
    _last_written = (shape, bits.copy(), texts)
    head = json.dumps({"step": step, "shape": asdict(shape), "temperature": policy.temperature})
    tables = (f', "{family}_logits": [{", ".join(b)}]' for family, b in zip(_FAMILIES, texts))
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text("".join([head[:-1], *tables, "}"]), encoding="utf-8")
    tmp.replace(path)


def load_policy(path: Path) -> tuple[TabularPolicy, int]:
    """A checkpoint's policy and step; ParseError, naming path, if it is not valid
    JSON, lacks a key or holds a table of the wrong shape."""
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
        shape = PolicyShape(**obj["shape"])
        tables = []
        for family, expected in zip(_FAMILIES, shape.tables):
            table = np.array(obj[f"{family}_logits"], dtype=np.float64)
            if table.shape != expected:
                raise ValueError(f"{family}_logits has shape {table.shape}, expected {expected}")
            tables.append(table.ravel())
        policy = TabularPolicy(shape, np.concatenate(tables), temperature=obj["temperature"])
        return policy, int(obj["step"])
    except KeyError as exc:
        raise ParseError(f"checkpoint missing key {exc.args[0]!r}", path=path) from None
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed checkpoint: {exc}", path=path) from None
