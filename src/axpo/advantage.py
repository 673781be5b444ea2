"""Group-normalized advantages and the clipped-surrogate-with-KL objective.

The objective for a batch of loss items is

    sum_items  mean_{active steps} [ min(rho*A, clip(rho, 1-eps_low, 1+eps_high)*A)
                                     - beta * KL(policy || ref at the step's node) ]

with rho the per-step importance ratio against the recorded rollout
log-probability. The analytic gradient over all policy logits matches
central finite differences away from the clip kinks.

A batch's loss items come from `loss_items`: one per (trajectory, advantage,
provenance) entry, active on the unmasked steps of its provenance's span (a
standard rollout's every step, a selected source's first PREFIX_STEPS steps,
a continuation's steps after them). Each item's `advantages` and `active` are
writable views of one advantage array and one active mask over the batch's
concatenated steps.

The objective is computed in one array pass per batch. `_gather` reads the
items' `active` masks and `advantages` when it is called and lists the
active steps, in item order and then step order, as parallel arrays: the
flat start of the step's decision node, the node's width, the action,
`logp_old`, the advantage and the item's 1/(active-step count). It takes
each node from the item's question and think action and the step's position
in the layout, in one pass over the items' concatenated steps, and tests
every item with an active step as `decision_nodes` would, as array
comparisons; only the first item that does not fit goes through
`decision_nodes`, which raises naming the step. `_evaluate` reads the
probability vectors the policy and the reference carry (`pi`, computed once
when each is built, equal to a per-node softmax bit for bit), and computes
each node's KL once. It returns the value and gradient of a loop that
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
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .policy import PolicyShape, TabularPolicy, decision_nodes
from .trajectory import PREFIX_STEPS, Trajectory


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


# Advantage provenance tags for assembled batches.
PROV_STANDARD = "standard"
PROV_CONTINUATION = "continuation"
PROV_PREFIX = "prefix-credit"


@dataclass
class LossItem:
    """One advantage stream: a trajectory with per-step advantages and an
    activity mask selecting which steps this stream updates."""

    trajectory: Trajectory
    advantages: np.ndarray
    active: np.ndarray
    provenance: str


def loss_items(entries: Sequence[tuple[Trajectory, float, str]]) -> list[LossItem]:
    """One LossItem per (trajectory, advantage, provenance) entry: the advantage
    on every step, active on the unmasked steps of the provenance's span: all of
    them for PROV_STANDARD, positions below PREFIX_STEPS for PROV_PREFIX, the rest
    for PROV_CONTINUATION. The items' arrays are writable views of one advantage
    array and one active mask over the entries' concatenated steps."""
    lengths = [len(traj.steps) for traj, _, _ in entries]
    offsets = np.cumsum([0, *lengths])
    advantages = np.repeat(np.array([adv for _, adv, _ in entries], dtype=np.float64), lengths)
    position = np.arange(offsets[-1]) - np.repeat(offsets[:-1], lengths)
    tags = np.repeat(np.array([prov for _, _, prov in entries], dtype=str), lengths)
    # Outside its item's span: a continuation's prefix step, a prefix item's later step.
    outside = np.where(position < PREFIX_STEPS, tags == PROV_CONTINUATION, tags == PROV_PREFIX)
    mask = np.array([s.mask for traj, _, _ in entries for s in traj.steps], dtype=bool)
    active = mask & ~outside
    ends = offsets.tolist()
    return [
        LossItem(traj, advantages[a:b], active[a:b], provenance)
        for (traj, _, provenance), a, b in zip(entries, ends, ends[1:])
    ]


class _Steps(NamedTuple):
    """A batch's active steps, in item order and then step order."""

    start: np.ndarray     # int: flat index of the step's decision node
    width: np.ndarray     # int: the node's number of actions
    action: np.ndarray    # int
    logp_old: np.ndarray
    adv: np.ndarray
    inv_n: np.ndarray     # 1 / the number of active steps of the step's item


def _gather(items: Sequence[LossItem], shape: PolicyShape) -> _Steps:
    """The active steps of `items`, read from their masks and advantages now.

    One array pass over the items' concatenated steps. A step's node follows
    from its item's question and think action and its position in the layout:
    the first step is the think node, the last the answer node, and under a
    tool intent the steps between the marker and the observation are call
    nodes j = 0, 1, ... Every item with an active step is checked as
    decision_nodes checks it; decision_nodes is called on the first that does
    not fit, and raises naming the step.
    """
    if not items:
        return _Steps(*(np.zeros(0, dtype=np.int64),) * 3, *(np.zeros(0),) * 3)
    trajs = [item.trajectory for item in items]
    lengths = np.array([len(t.steps) for t in trajs])
    owner = np.repeat(np.arange(len(items)), lengths)
    position = np.arange(owner.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    active = np.concatenate([item.active for item in items])
    counts = np.bincount(owner[active], minlength=len(items))
    # Each item's question and think action, and each step's node family and width.
    q = np.array([t.question_id for t in trajs])
    think = np.array([t.steps[0].action_id for t in trajs])
    last = (lengths - 1)[owner]
    is_think, is_answer = position == 0, position == last
    is_call = (PREFIX_STEPS <= position) & (position < last - 1)
    widths = (1 + shape.num_intents, shape.num_variants, shape.num_answers)
    width = np.select([is_think, is_call, is_answer], widths, 0)
    action = np.array([s.action_id for t in trajs for s in t.steps])

    # decision_nodes' checks on every item with an active step, as array comparisons.
    misfit = (q < 0) | (q >= shape.num_questions)
    bad_call = (think < 1) | (think > shape.num_intents)
    bad_call |= lengths - PREFIX_STEPS - 2 != shape.call_steps  # the argument count
    misfit |= (lengths > 2) & bad_call
    misfit[owner[(width > 0) & ((action < 0) | (action >= width))]] = True
    misfit &= counts > 0
    if misfit.any():
        decision_nodes(shape, trajs[int(np.argmax(misfit))])  # raises, naming the step
    nodeless = active & (width == 0)
    if nodeless.any():
        i = int(np.argmax(nodeless))
        raise ValueError(f"step {position[i]} is active but has no decision node")

    idx = np.flatnonzero(active)
    q, think, position = q[owner[idx]], think[owner[idx]], position[idx]
    start = np.select(
        [is_think[idx], is_answer[idx]],
        [shape.think(q).start, shape.answer(q).start],
        shape.call(q, think - 1, position - PREFIX_STEPS).start,
    )
    logp_old = np.array([s.logp_old for t in trajs for s in t.steps], dtype=np.float64)[idx]
    adv = np.concatenate([item.advantages for item in items])[idx]
    return _Steps(start, width[idx], action[idx], logp_old, adv, 1.0 / counts[owner[idx]])


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
    items: Sequence[LossItem],
    policy: TabularPolicy,
    ref_policy: TabularPolicy,
    cfg: ObjectiveConfig,
) -> float:
    value, _ = _evaluate(_gather(items, policy.shape), policy, ref_policy, cfg, want_gradient=False)
    return value


def policy_gradient(
    items: Sequence[LossItem],
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
