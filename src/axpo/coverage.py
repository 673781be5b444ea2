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

import numpy as np


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


@dataclass(frozen=True)
class MonteCarloCoverage:
    raw_estimate: float
    resample_estimate: float


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
    return MonteCarloCoverage(
        raw_estimate=float(raw_hit.mean()), resample_estimate=float(res_hit.mean())
    )
