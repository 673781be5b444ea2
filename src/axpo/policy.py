"""Tabular softmax policy over per-question decision nodes.

Three node families per question:
  * think node: chooses NO_TOOL (action 0) or one of m tool intents (1..m)
  * call nodes: per (intent, call step), choose one of v call-argument ids;
    the first argument id is the tool-call variant the environment grades
  * answer node: chooses an answer id

All logits live in one flat float64 vector: the think table
(questions x 1+m), then the call table (questions x m x call steps x v), then
the answer table (questions x answers), each row-major, so every decision
node owns one contiguous run of it. PolicyShape owns this layout: split()
views a flat vector as the three tables, and the node table maps each
decision context to its slice. A gradient is a flat vector in the same layout.

Exact probabilities, exact KL, table-driven sampling (DecisionTable), and
bit-exact text checkpoints.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional

import numpy as np

from .trajectory import NotToolUsing, Prefix, Segment, Trajectory

NO_TOOL = 0  # think-node action id for answering without a tool

# Decision contexts: hashable handles naming one softmax node.
#   ("think", q)  |  ("call", q, intent, j)  |  ("answer", q)
# Each is the node's family followed by its row index in that family's table.
Context = tuple

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

    @property
    def tables(self) -> tuple[tuple[int, ...], ...]:
        """Shapes of the think, call and answer tables."""
        q, m = self.num_questions, self.num_intents
        return ((q, 1 + m), (q, m, self.call_steps, self.num_variants), (q, self.num_answers))

    @property
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

    @cached_property
    def nodes(self) -> dict[Context, slice]:
        """Each decision context's slice of the flat vector."""
        table = {}
        for family, index in zip(_FAMILIES, self.split(np.arange(self.size))):
            starts, width = index[..., 0], index.shape[-1]
            for row, start in zip(np.ndindex(starts.shape), starts.ravel().tolist()):
                table[(family, *row)] = slice(start, start + width)
        return table


class TabularPolicy:
    """Per-question logits; probabilities are softmax(logits / temperature).

    think_logits, call_logits and answer_logits are views of the flat vector
    `logits`, so writing into either writes into both.
    """

    def __init__(self, shape: PolicyShape, logits: np.ndarray, temperature: float = 1.0):
        if not (math.isfinite(temperature) and temperature > 0):
            raise ValueError("temperature must be finite and positive")
        self.shape = shape
        self.logits = np.asarray(logits, dtype=np.float64)
        if self.logits.shape != (shape.size,):
            raise ValueError(f"expected {shape.size} logits, got shape {self.logits.shape}")
        self.nodes = shape.nodes
        self.think_logits, self.call_logits, self.answer_logits = shape.split(self.logits)
        self.temperature = float(temperature)

    @classmethod
    def zeros(cls, shape: PolicyShape, temperature: float = 1.0) -> "TabularPolicy":
        return cls(shape, np.zeros(shape.size), temperature=temperature)

    def copy(self) -> "TabularPolicy":
        return TabularPolicy(self.shape, self.logits.copy(), self.temperature)

    # -- probabilities --------------------------------------------------

    def probs(self, ctx: Context) -> np.ndarray:
        return softmax(self.logits[self.nodes[ctx]] / self.temperature)

    def tool_attempt_prob(self, question_id: int) -> float:
        """Total think-node mass on tool intents."""
        return float(1.0 - self.probs(("think", question_id))[NO_TOOL])


class DecisionTable:
    """A policy's sampling distributions, computed once: `probs`, the `cdf`
    that `Generator.choice` builds from them, and `logp`, each a flat float64
    vector in the logit layout.

    Each family is computed in one pass along its last axis, with the
    operations of `softmax` on one node in the same order, so every entry
    equals the per-node value bit for bit. `draw` therefore picks the action
    `rng.choice(n, p=p / p.sum())` would, from the same single `rng.random()`.
    The table is a snapshot: later writes into the policy's logits do not
    reach it, so build one for each batch of draws.
    """

    def __init__(self, policy: TabularPolicy):
        self.shape = policy.shape
        self.nodes = policy.nodes
        self.probs, self.cdf, self.logp = (np.empty(self.shape.size) for _ in range(3))
        vectors = (policy.logits, self.probs, self.cdf, self.logp)
        for logits, probs, cdf, logp in zip(*map(self.shape.split, vectors)):
            z = logits / policy.temperature
            z -= z.max(-1, keepdims=True)
            e = np.exp(z)
            total = e.sum(-1, keepdims=True)
            probs[...] = e / total
            cum = (probs / probs.sum(-1, keepdims=True)).cumsum(-1)
            cdf[...] = cum / cum[..., -1:]
            logp[...] = z - np.log(total)

    def draw(self, ctx: Context, rng: np.random.Generator) -> tuple[int, float]:
        """One action at a decision node and its log-probability."""
        node = self.nodes[ctx]
        action = int(self.cdf[node].searchsorted(rng.random(), side="right"))
        return action, float(self.logp[node.start + action])


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - np.max(z)
    e = np.exp(z)
    return e / e.sum()


def exact_kl(policy: TabularPolicy, ref_policy: TabularPolicy, ctx: Context) -> float:
    """Exact discrete KL(policy || ref_policy) at one decision node."""
    p = policy.probs(ctx)
    q = ref_policy.probs(ctx)
    return float(np.sum(p * (np.log(p) - np.log(q))))


def confidence(traj: Trajectory, prefix: Prefix) -> float:
    """Mean policy probability over the argument steps of the first tool call.

    The opening marker step (the prefix's last step) is excluded.
    """
    if not traj.is_tool_using():
        raise NotToolUsing("confidence is defined only for tool-using rollouts")
    if traj.steps[prefix.cut_index].segment is not Segment.TOOL_CALL:
        raise ValueError("prefix cut does not sit at a tool-call opening")
    probs = []
    for s in traj.steps[prefix.cut_index + 1 :]:
        if s.segment is not Segment.TOOL_CALL:
            break
        probs.append(np.exp(s.logp_old))
    if not probs:
        raise ValueError("first tool call has no argument steps")
    return float(np.mean(probs))


def decision_contexts(traj: Trajectory) -> list[Optional[tuple[Context, int]]]:
    """Per-step (context, action) pairs; None for observation and marker steps.

    The opening marker is deterministic given the think step's intent choice,
    so it has no decision node. Contexts are derived structurally: the think
    step fixes the intent, tool-call argument steps index call nodes in run
    order, and the answer step maps to the answer node.
    """
    q = traj.question_id
    out: list[Optional[tuple[Context, int]]] = []
    intent: Optional[int] = None
    call_j = -1  # -1 while at the opening marker of a call run
    prev_seg: Optional[Segment] = None
    for s in traj.steps:
        if s.segment is Segment.THINK:
            out.append((("think", q), s.action_id))
            intent = s.action_id - 1 if s.action_id != NO_TOOL else None
        elif s.segment is Segment.TOOL_CALL:
            if prev_seg is not Segment.TOOL_CALL:
                call_j = -1
                out.append(None)  # opening marker
            else:
                call_j += 1
                if intent is None:
                    raise ValueError("tool call without a tool-intent think step")
                out.append((("call", q, intent, call_j), s.action_id))
        elif s.segment is Segment.OBSERVATION:
            out.append(None)
        else:  # ANSWER
            out.append((("answer", q), s.action_id))
        prev_seg = s.segment
    return out


# -- checkpoints --------------------------------------------------------
#
# Binary-free structured text (JSON); floats round-trip bit-exactly.


def save_policy(policy: TabularPolicy, path: Path, step: int = 0) -> None:
    obj = {"step": step, "shape": asdict(policy.shape), "temperature": policy.temperature}
    for family, table in zip(_FAMILIES, policy.shape.split(policy.logits)):
        obj[f"{family}_logits"] = table.tolist()
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(obj), encoding="utf-8")
    tmp.replace(path)


def load_policy(path: Path) -> tuple[TabularPolicy, int]:
    obj = json.loads(path.read_text(encoding="utf-8"))
    shape = PolicyShape(**obj["shape"])
    tables = []
    for family, expected in zip(_FAMILIES, shape.tables):
        table = np.array(obj[f"{family}_logits"], dtype=np.float64)
        if table.shape != expected:
            raise ValueError(f"{path}: {family}_logits has shape {table.shape}, expected {expected}")
        tables.append(table.ravel())
    policy = TabularPolicy(shape, np.concatenate(tables), temperature=obj["temperature"])
    return policy, int(obj["step"])
