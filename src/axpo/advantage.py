"""Group-normalized advantages and the clipped-surrogate-with-KL objective.

The objective for a batch of loss items is

    sum_items  mean_{active steps} [ min(rho*A, clip(rho, 1-eps_low, 1+eps_high)*A)
                                     - beta * KL(policy || ref at the step's node) ]

with rho the per-step importance ratio against the recorded rollout
log-probability. The analytic gradient over all policy logits matches
central finite differences away from the clip kinks.

The objective is computed in one array pass per batch. `_gather` reads each
item's `active` mask and `advantages` when it is called and lists the active
steps, in item order and then step order, as parallel arrays: the flat start
of the step's decision node (from `decision_nodes`, which checks that the
trajectory fits the policy), the node's width, the action, `logp_old`, the
advantage and the item's 1/(active-step count). `_evaluate` reads the
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
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .policy import PolicyShape, TabularPolicy, decision_nodes
from .trajectory import Trajectory


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
    """(r_i - mean) / population std; all zeros when the rewards are equal."""
    if len(rewards) == 0:
        raise EmptyGroup("cannot normalize an empty reward list")
    r = np.asarray(rewards, dtype=np.float64)
    mean = r.mean()
    std = float(np.sqrt(np.mean((r - mean) ** 2)))
    if std == 0.0:
        return [0.0] * len(rewards)
    return [float(x) for x in (r - mean) / std]


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

    def __post_init__(self) -> None:
        n = len(self.trajectory.steps)
        self.advantages = np.asarray(self.advantages, dtype=np.float64)
        self.active = np.asarray(self.active, dtype=bool)
        if self.advantages.shape != (n,) or self.active.shape != (n,):
            raise ValueError("per-step arrays must match the trajectory length")
        for i, step in enumerate(self.trajectory.steps):
            if self.active[i] and not step.mask:
                raise ValueError(f"step {i} is masked but marked active")


def loss_item(
    traj: Trajectory,
    advantage: float,
    provenance: str = PROV_STANDARD,
    steps: slice = slice(None),
) -> LossItem:
    """One advantage on every step of traj, active on its unmasked steps inside `steps`."""
    active = np.zeros(len(traj.steps), dtype=bool)
    active[steps] = [s.mask for s in traj.steps[steps]]
    return LossItem(
        trajectory=traj,
        advantages=np.full(len(traj.steps), advantage, dtype=np.float64),
        active=active,
        provenance=provenance,
    )


class _Steps(NamedTuple):
    """A batch's active steps, in item order and then step order."""

    start: np.ndarray     # int: flat index of the step's decision node
    width: np.ndarray     # int: the node's number of actions
    action: np.ndarray    # int
    logp_old: np.ndarray
    adv: np.ndarray
    inv_n: np.ndarray     # 1 / the number of active steps of the step's item


def _gather(items: Sequence[LossItem], shape: PolicyShape) -> _Steps:
    """The active steps of `items`, read from their masks and advantages now."""
    start, width, action, logp_old, adv, inv_n = [], [], [], [], [], []
    for item in items:
        active_idx = np.flatnonzero(item.active)
        if active_idx.size == 0:
            continue
        steps, nodes = item.trajectory.steps, decision_nodes(shape, item.trajectory)
        for i in active_idx.tolist():
            node, step = nodes[i], steps[i]
            start.append(node.start)
            width.append(node.stop - node.start)
            action.append(step.action_id)
            logp_old.append(step.logp_old)
        adv.extend(item.advantages[active_idx].tolist())
        inv_n.extend([1.0 / active_idx.size] * active_idx.size)
    ints = (np.array(v, dtype=np.int64) for v in (start, width, action))
    floats = (np.array(v, dtype=np.float64) for v in (logp_old, adv, inv_n))
    return _Steps(*ints, *floats)


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
