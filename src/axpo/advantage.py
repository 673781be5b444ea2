"""Group-normalized advantages and the clipped-surrogate-with-KL objective.

The objective for a batch of loss items is

    sum_items  mean_{active steps} [ min(rho*A, clip(rho, 1-eps_low, 1+eps_high)*A)
                                     - beta * KL(policy || ref at the step's node) ]

with rho the per-step importance ratio against the recorded rollout
log-probability. The analytic gradient over all policy logits matches
central finite differences away from the clip kinks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .policy import Context, TabularPolicy, decision_contexts
from .trajectory import Trajectory


class EmptyGroup(ValueError):
    """grpo_advantage called with no rewards."""


class MissingLogProb(ValueError):
    """An active loss step has no recorded rollout log-probability."""


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


def clipped_term(rho: float, advantage: float, cfg: ObjectiveConfig) -> float:
    clipped = min(max(rho, 1.0 - cfg.eps_low), 1.0 + cfg.eps_high)
    return min(rho * advantage, clipped * advantage)


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
    contexts: list[Optional[tuple[Context, int]]] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        n = len(self.trajectory.steps)
        self.advantages = np.asarray(self.advantages, dtype=np.float64)
        self.active = np.asarray(self.active, dtype=bool)
        if self.advantages.shape != (n,) or self.active.shape != (n,):
            raise ValueError("per-step arrays must match the trajectory length")
        for i, step in enumerate(self.trajectory.steps):
            if self.active[i] and not step.mask:
                raise ValueError(f"step {i} is masked but marked active")
        if self.contexts is None:
            self.contexts = decision_contexts(self.trajectory)


def standard_item(traj: Trajectory, advantage: float) -> LossItem:
    active = np.array([s.mask for s in traj.steps], dtype=bool)
    return LossItem(
        trajectory=traj,
        advantages=np.full(len(traj.steps), advantage, dtype=np.float64),
        active=active,
        provenance=PROV_STANDARD,
    )


def _evaluate(
    items: Sequence[LossItem],
    policy: TabularPolicy,
    ref_policy: TabularPolicy,
    cfg: ObjectiveConfig,
    want_gradient: bool,
) -> tuple[float, Optional[np.ndarray]]:
    total = 0.0
    grad = np.zeros_like(policy.logits) if want_gradient else None
    temp = policy.temperature
    for item in items:
        active_idx = np.nonzero(item.active)[0]
        if len(active_idx) == 0:
            continue
        inv_n = 1.0 / len(active_idx)
        for i in active_idx:
            step = item.trajectory.steps[i]
            if step.logp_old is None:
                raise MissingLogProb(f"active step {i} has no rollout log-probability")
            pair = item.contexts[i]
            if pair is None:
                raise MissingLogProb(f"active step {i} has no decision node")
            ctx, action = pair
            adv = float(item.advantages[i])
            p = policy.probs(ctx)
            rho = float(p[action]) / float(np.exp(step.logp_old))
            total += inv_n * clipped_term(rho, adv, cfg)

            kl = 0.0
            if cfg.beta > 0.0:
                ref = ref_policy.probs(ctx)
                log_ratio = np.log(p) - np.log(ref)
                kl = float(np.sum(p * log_ratio))
                total -= inv_n * cfg.beta * kl

            if grad is not None:
                slot = grad[policy.nodes[ctx]]
                clipped = min(max(rho, 1.0 - cfg.eps_low), 1.0 + cfg.eps_high)
                # Gradient flows through rho iff the unclipped branch attains the min.
                if rho * adv <= clipped * adv:
                    d_rho = -rho * p / temp
                    d_rho[action] += rho / temp
                    slot += (inv_n * adv) * d_rho
                if cfg.beta > 0.0:
                    d_kl = (p / temp) * (log_ratio - kl)
                    slot -= (inv_n * cfg.beta) * d_kl
    return total, grad


def surrogate_objective(
    items: Sequence[LossItem],
    policy: TabularPolicy,
    ref_policy: TabularPolicy,
    cfg: ObjectiveConfig,
) -> float:
    value, _ = _evaluate(items, policy, ref_policy, cfg, want_gradient=False)
    return value


def policy_gradient(
    items: Sequence[LossItem],
    policy: TabularPolicy,
    ref_policy: TabularPolicy,
    cfg: ObjectiveConfig,
) -> np.ndarray:
    """The objective's gradient over the flat logit vector."""
    _, grad = _evaluate(items, policy, ref_policy, cfg, want_gradient=True)
    return grad


def apply_update(policy: TabularPolicy, gradient: np.ndarray, learning_rate: float) -> TabularPolicy:
    """One gradient-ascent step on the logits; returns a new policy."""
    return TabularPolicy(policy.shape, policy.logits + learning_rate * gradient, policy.temperature)
