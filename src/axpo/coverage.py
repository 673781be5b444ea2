"""Coverage of correct tool-using rollouts: closed forms, the dominance
guarantee for prefix-fixed resampling, and Monte Carlo verification.

Raw sampling reaches a correct tool-using rollout with per-sample
probability q * p_tool (tool gate times conditional success); resampling
from a tool-committed prefix succeeds per draw with p_prefix. Coverage of
an N-sample budget is 1 - (1 - p_eff)^N in both cases, so resampling
dominates whenever p_prefix >= q * p_tool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .env import ToolEnv, sample_rollout
from .policy import TabularPolicy
from .trajectory import first_tool_prefix


class DomainError(ValueError):
    """Coverage input outside its valid range."""


@dataclass(frozen=True)
class CoverageParams:
    q: float
    p_tool: float
    p_prefix: float
    n: int

    def __post_init__(self) -> None:
        _check_inputs(self.n, q=self.q, p_tool=self.p_tool, p_prefix=self.p_prefix)


def _check_inputs(n: int, **probs: float) -> None:
    """Every probability in [0, 1], then a positive sample count."""
    for name, value in probs.items():
        if not 0.0 <= value <= 1.0:
            raise DomainError(f"{name} must be in [0, 1], got {value}")
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")


def coverage_raw(q: float, p_tool: float, n: int) -> float:
    """P(at least one correct tool-using rollout among n raw samples)."""
    _check_inputs(n, q=q, p_tool=p_tool)
    return 1.0 - (1.0 - q * p_tool) ** n

def coverage_resample(p_prefix: float, n: int) -> float:
    """P(at least one correct continuation among n prefix-fixed resamples)."""
    _check_inputs(n, p_prefix=p_prefix)
    return 1.0 - (1.0 - p_prefix) ** n


def dominance_check(params: CoverageParams) -> tuple[bool, float]:
    """Whether resampling coverage is at least raw coverage, and by how much."""
    margin = coverage_resample(params.p_prefix, params.n) - coverage_raw(
        params.q, params.p_tool, params.n
    )
    return margin >= 0.0, margin


@dataclass(frozen=True)
class MonteCarloCoverage:
    raw_estimate: float
    resample_estimate: float
    raw_std_error: float
    resample_std_error: float


def monte_carlo_coverage(
    params: CoverageParams, trials: int, rng: np.random.Generator
) -> MonteCarloCoverage:
    """Empirical coverage frequencies over independent N-sample budgets."""
    if trials < 1:
        raise DomainError("trials must be positive")
    n = params.n
    tool_gate = rng.random((trials, n)) < params.q
    success = rng.random((trials, n)) < params.p_tool
    raw_hit = np.any(tool_gate & success, axis=1)
    res_hit = np.any(rng.random((trials, n)) < params.p_prefix, axis=1)
    raw_est = float(raw_hit.mean())
    res_est = float(res_hit.mean())
    return MonteCarloCoverage(
        raw_estimate=raw_est,
        resample_estimate=res_est,
        raw_std_error=float(np.sqrt(raw_est * (1.0 - raw_est) / trials)),
        resample_std_error=float(np.sqrt(res_est * (1.0 - res_est) / trials)),
    )


@dataclass(frozen=True)
class CoverageProbe:
    """Live-environment estimates for one question.

    p_tool is None (absent) when no rollout attempted a tool: the
    conditioning event is empty. prefix_success holds the exact
    continuation success probability of each sampled tool-committed prefix.
    """

    q_estimate: float
    p_tool_estimate: Optional[float]
    prefix_success: tuple[float, ...]

    @property
    def mean_prefix_success(self) -> Optional[float]:
        return float(np.mean(self.prefix_success)) if self.prefix_success else None


def env_coverage_probe(
    env: ToolEnv,
    policy: TabularPolicy,
    question_id: int,
    trials: int,
    rng: np.random.Generator,
) -> CoverageProbe:
    """Estimate q and p_tool from raw rollouts; record per-prefix success.

    The policy is tabular, so each sampled prefix's continuation success
    probability is computed exactly; its mean over tool-committed prefixes
    estimates p_tool (conditional-mean identity).
    """
    tool_count = 0
    tool_correct = 0
    prefix_success: list[float] = []
    for _ in range(trials):
        traj = sample_rollout(policy, env, question_id, rng)
        if not traj.is_tool_using():
            continue
        tool_count += 1
        tool_correct += traj.reward
        # The prefix commits to the think step's intent; its continuation
        # success probability is exact under the tabular policy.
        intent = traj.steps[first_tool_prefix(traj).cut_index - 1].action_id - 1
        prefix_success.append(env.prefix_success_prob(policy, question_id, intent))
    p_tool = tool_correct / tool_count if tool_count else None
    return CoverageProbe(
        q_estimate=tool_count / trials,
        p_tool_estimate=p_tool,
        prefix_success=tuple(prefix_success),
    )
