"""Group-normalized advantages and the clipped-surrogate-with-KL objective.

The objective for a batch of loss items is

    sum_items  mean_{active steps} [ min(rho*A, clip(rho, 1-eps_low, 1+eps_high)*A)
                                     - beta * KL(policy || ref at the step's node) ]

with rho the per-step importance ratio against the recorded rollout
log-probability. The analytic gradient over all policy logits matches
central finite differences away from the clip kinks.

A batch's loss items are a `LossTable`, which reads the step's draw tables:
one item per table row, with its advantage and provenance, active on the
unmasked steps of its provenance's span (a standard rollout's every step, a
selected source's first PREFIX_STEPS steps, a continuation's steps after
them). Each item's `advantages` and `active` are writable views of the
table's one advantage array and one active mask over the items' concatenated
steps; its `trajectory` is built from its row only when read.

The objective is computed in one array pass per batch. `_gather` reads the
table's active mask and advantages when it is called and lists the active
steps, in item order and then step order, as parallel arrays: the flat
start of the step's decision node (its drawn flat index minus its action),
the node's width, the action, `logp_old`, the advantage and the item's
1/(active-step count), all read from the step's decision cell. `_evaluate`
reads the probability vectors the policy and the reference carry (`pi`,
computed once when each is built, equal to a per-node softmax bit for bit),
and computes each node's KL once. It returns the value and gradient of a loop that
visits the steps in that order, bit for bit, because it keeps that loop's
floating-point order:
  * the value is the running sum, from 0.0, of +inv_n*term and
    -(inv_n*beta)*KL for each step in turn, taken with `cumsum`, which adds
    left to right (`sum` adds pairwise);
  * the gradient rows (inv_n*A)*d_rho and -(inv_n*beta)*d_kl are added with
    `np.add.at` one node width at a time, in step order, each step's rho row
    before its KL row. Steps of different widths never share a node, so only
    the order within a width matters. A clipped step's rho row, which the
    loop skips, is +0.0 here: the gradient starts at +0.0, none of its sums
    is ever -0.0, so adding +0.0 changes no bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .policy import PolicyShape, TabularPolicy
from .trajectory import PREFIX_STEPS, DrawTable, Trajectory


class EmptyGroup(ValueError):
    """grpo_advantage called with no rewards."""


@dataclass(frozen=True)
class ObjectiveConfig:
    eps_low: float = 0.2
    eps_high: float = 0.4
    beta: float = 1e-3

    def __post_init__(self) -> None:
        if not all(math.isfinite(eps) and eps > 0 for eps in (self.eps_low, self.eps_high)):
            raise ValueError("clip widths must be finite and positive")
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ValueError("beta must be finite and nonnegative")


def grpo_advantage(rewards: Sequence[float]) -> list[float]:
    """(r_i - mean) / population std; all zeros when the rewards are equal.
    A fresh list on every call, so editing it leaves the memo as it was."""
    if len(rewards) == 0:
        raise EmptyGroup("cannot normalize an empty reward list")
    return list(_normalized(np.asarray(rewards, dtype=np.float64).tobytes()))


# Keyed on the rewards' float64 bytes: a step normalizes the same few 0/1 rows
# many times. Not on their successes and count: the sum of squared deviations
# depends on where the successes sit, and -0.0 and 0.0 give differing zeros.
@lru_cache(maxsize=1024)
def _normalized(key: bytes) -> tuple[float, ...]:
    r = np.frombuffer(key)
    mean = r.mean()
    std = float(np.sqrt(np.mean((r - mean) ** 2)))
    if std == 0.0:
        return (0.0,) * len(r)
    return tuple([float(x) for x in (r - mean) / std])


def clipped_term(
    rho: float | np.ndarray, advantage: float | np.ndarray, cfg: ObjectiveConfig
) -> float | np.ndarray:
    """min(rho*A, clip(rho, 1-eps_low, 1+eps_high)*A), for scalars or arrays."""
    clipped = np.minimum(np.maximum(rho, 1.0 - cfg.eps_low), 1.0 + cfg.eps_high)
    return np.minimum(rho * advantage, clipped * advantage)


# Advantage provenance tags; a loss table holds each item's as its index here.
PROV_STANDARD = "standard"
PROV_PREFIX = "prefix-credit"
PROV_CONTINUATION = "continuation"
PROVENANCES = (PROV_STANDARD, PROV_PREFIX, PROV_CONTINUATION)
_STANDARD, _PREFIX, _CONTINUATION = range(len(PROVENANCES))


@dataclass(frozen=True, eq=False)
class LossItem:
    """One advantage stream: row `row` of `table`, and writable views of its loss
    table's advantage array and active mask at the row's step positions."""

    table: DrawTable
    row: int
    advantages: np.ndarray
    active: np.ndarray
    provenance: str

    @cached_property
    def trajectory(self) -> Trajectory:
        """The row as a Trajectory, built the first time it is read and then kept."""
        return self.table.trajectory(self.row)


class LossTable:
    """A batch's loss items as columns over their concatenated steps.

    Item i is row i of `tables`, their rows taken in turn, with advantage[i] on
    every step and provenance PROVENANCES[provenance[i]]. A row's steps are its
    trajectory's layout: the think step, in a tool-using row the opening marker,
    the call_steps argument steps and the observation, then the answer. `cell`
    maps each step to its decision cell of the tables' stacked action, flat and
    logp columns, -1 for the marker and the observation, which are masked. An
    item is active on the unmasked steps of its provenance's span: all of them
    for PROV_STANDARD, positions below PREFIX_STEPS for PROV_PREFIX, the rest for
    PROV_CONTINUATION. Iterating gives the items, built on first use and then
    kept; their `advantages` and `active` are views of `advantage` and `active`.
    """

    def __init__(self, tables: Sequence[DrawTable], advantage, provenance):
        self.tables = tuple(tables)
        self.provenance = np.asarray(provenance, dtype=np.int64)
        self.width = width = self.tables[0].flat.shape[1]
        self.action, self.flat, self.logp = (
            np.concatenate([getattr(t, name) for t in self.tables]).ravel()
            for name in ("action", "flat", "logp")
        )
        tool = self.flat[1::width] >= 0
        lengths = np.where(tool, width + 2, 2)
        self.owner = np.repeat(np.arange(tool.size), lengths)
        self.offsets = np.cumsum(np.r_[0, lengths])
        self.position = np.arange(self.owner.size) - self.offsets[self.owner]
        # Each step's decision column: a tool-using row's layout, or its think and answer.
        layout = np.array([0, -1, *range(1, width - 1), -1, width - 1])
        col = np.where(tool[self.owner], layout[self.position], self.position * (width - 1))
        self.cell = np.where(col >= 0, self.owner * width + col, -1)
        tags = self.provenance[self.owner]
        outside = np.where(self.position < PREFIX_STEPS, tags == _CONTINUATION, tags == _PREFIX)
        self.active = (col >= 0) & ~outside
        self.advantage = np.repeat(np.asarray(advantage, dtype=np.float64), lengths)

    @cached_property
    def items(self) -> list[LossItem]:
        rows = [(table, row) for table in self.tables for row in range(len(table))]
        ends = self.offsets.tolist()
        return [
            LossItem(table, row, self.advantage[a:b], self.active[a:b], PROVENANCES[code])
            for (table, row), a, b, code in zip(rows, ends, ends[1:], self.provenance.tolist())
        ]

    def __len__(self) -> int:
        return self.provenance.size

    def __iter__(self) -> Iterator[LossItem]:
        return iter(self.items)

    def __getitem__(self, i: int) -> LossItem:
        return self.items[i]


class _Steps(NamedTuple):
    """A batch's active steps, in item order and then step order."""

    start: np.ndarray     # int: flat index of the step's decision node
    width: np.ndarray     # int: the node's number of actions
    action: np.ndarray    # int
    logp_old: np.ndarray
    adv: np.ndarray
    inv_n: np.ndarray     # 1 / the number of active steps of the step's item


def _gather(items: LossTable, shape: PolicyShape) -> _Steps:
    """The active steps of `items`, read from its active mask and advantages now.

    A step's decision cell gives its node's start (flat index - action), its
    action and logp_old; its column gives the node's family and so its width.
    Only active steps are read, and an active step without a decision cell
    raises naming its position.
    """
    idx = np.flatnonzero(items.active)
    cell = items.cell[idx]
    if (cell < 0).any():
        position = items.position[idx[np.argmax(cell < 0)]]
        raise ValueError(f"step {position} is active but has no decision node")
    owner, col = items.owner[idx], cell % items.width
    width = np.select(
        [col == 0, col == items.width - 1], [1 + shape.num_intents, shape.num_answers],
        shape.num_variants,
    )
    action = items.action[cell]
    counts = np.bincount(owner, minlength=len(items))
    return _Steps(items.flat[cell] - action, width, action, items.logp[cell],
                  items.advantage[idx], 1.0 / counts[owner])


def _evaluate(
    steps: _Steps,
    policy: TabularPolicy,
    ref_policy: TabularPolicy,
    cfg: ObjectiveConfig,
    want_gradient: bool,
) -> tuple[float, Optional[np.ndarray]]:
    p = policy.pi
    rho = p[steps.start + steps.action] / np.exp(steps.logp_old)
    term = clipped_term(rho, steps.adv, cfg)
    # Each step adds its clipped term and then, when beta > 0, its KL penalty. At
    # beta = 0 the KL is left out, not multiplied by 0, as a 0 * inf would be NaN.
    values = [steps.inv_n * term]
    if cfg.beta > 0.0:
        log_ratio = np.log(p) - np.log(ref_policy.pi)
        node_kl = np.empty_like(p)  # each node's KL, at every slot of the node
        for kl_f, p_f, log_ratio_f in zip(*map(policy.shape.split, (node_kl, p, log_ratio))):
            kl_f[...] = (p_f * log_ratio_f).sum(-1, keepdims=True)
        kl = node_kl[steps.start]
        values.append(-(steps.inv_n * cfg.beta) * kl)
    total = float(np.concatenate(([0.0], np.stack(values, axis=1).ravel())).cumsum()[-1])
    if not want_gradient:
        return total, None

    grad = np.zeros_like(policy.logits)
    temp = policy.temperature
    # Gradient flows through rho iff the unclipped branch attains the min.
    through_rho = term == rho * steps.adv
    parts = 2 if cfg.beta > 0.0 else 1
    for w in sorted(set(steps.width.tolist())):
        of_w = np.flatnonzero(steps.width == w)
        cols = steps.start[of_w, None] + np.arange(w)
        p_w = p[cols]
        rho_w = rho[of_w, None]
        # Each step's rho row, then its KL row; a clipped step's rho row is +0.0.
        rows = np.empty((of_w.size, parts, w))
        d_rho = -rho_w * p_w / temp
        d_rho[np.arange(of_w.size), steps.action[of_w]] += rho_w[:, 0] / temp
        np.multiply((steps.inv_n[of_w] * steps.adv[of_w])[:, None], d_rho, out=rows[:, 0])
        rows[~through_rho[of_w], 0] = 0.0
        if parts == 2:
            d_kl = (p_w / temp) * (log_ratio[cols] - kl[of_w, None])
            np.multiply(-(steps.inv_n[of_w] * cfg.beta)[:, None], d_kl, out=rows[:, 1])
        np.add.at(grad, np.broadcast_to(cols[:, None], rows.shape), rows)
    return total, grad


def surrogate_objective(
    items: LossTable,
    policy: TabularPolicy,
    ref_policy: TabularPolicy,
    cfg: ObjectiveConfig,
) -> float:
    value, _ = _evaluate(_gather(items, policy.shape), policy, ref_policy, cfg, want_gradient=False)
    return value


def policy_gradient(
    items: LossTable,
    policy: TabularPolicy,
    ref_policy: TabularPolicy,
    cfg: ObjectiveConfig,
) -> np.ndarray:
    """The objective's gradient over the flat logit vector."""
    _, grad = _evaluate(_gather(items, policy.shape), policy, ref_policy, cfg, want_gradient=True)
    return grad


def apply_update(policy: TabularPolicy, gradient: np.ndarray, learning_rate: float) -> TabularPolicy:
    """One gradient-ascent step on the logits; returns a new policy."""
    return TabularPolicy(policy.shape, policy.logits + learning_rate * gradient, policy.temperature)
