"""Coverage of correct tool-using rollouts: closed forms, the dominance
guarantee for prefix-fixed resampling, and Monte Carlo verification.

Raw sampling reaches a correct tool-using rollout with per-sample
probability q * p_tool (tool gate times conditional success); resampling
from a tool-committed prefix succeeds per draw with p_prefix. Coverage of
an N-sample budget is 1 - (1 - p_eff)^N in both cases, so resampling
dominates whenever p_prefix >= q * p_tool.

The Monte Carlo draws three uniform blocks of shape (trials, n), in row
order: the tool gate, then conditional success, then the resample draws, as
three rng.random((trials, n)) calls would. It draws each BLOCK_ROWS rows at a
time, so its estimates, and the generator's state after it, do not depend on
BLOCK_ROWS. It holds the gate as one byte per draw, and one block of float
uniforms (BLOCK_ROWS * n * 8 bytes) at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

# Rows of uniforms the Monte Carlo draws at a time.
BLOCK_ROWS = 2**15


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


def _uniform_blocks(
    rng: np.random.Generator, trials: int, n: int
) -> Iterator[tuple[slice, np.ndarray]]:
    """The uniforms of one rng.random((trials, n)) call, drawn BLOCK_ROWS rows
    at a time into one reused buffer, each with its rows' slice."""
    buf = np.empty((min(trials, BLOCK_ROWS), n))
    for lo in range(0, trials, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, trials)
        yield slice(lo, hi), rng.random(out=buf[: hi - lo])


def _hit_rows(draws: np.ndarray) -> int:
    """How many rows of a bool block hold a True: its columns OR-ed, then
    counted, which is much faster than np.any along a short row."""
    hit = draws[:, 0].copy()
    for column in draws.T[1:]:
        hit |= column
    return int(np.count_nonzero(hit))


def monte_carlo_coverage(
    params: CoverageParams, trials: int, rng: np.random.Generator
) -> MonteCarloCoverage:
    """Empirical coverage frequencies over independent N-sample budgets."""
    if trials < 1:
        raise DomainError("trials must be positive")
    n = params.n
    tool_gate = np.empty((trials, n), dtype=bool)
    for rows, uniform in _uniform_blocks(rng, trials, n):
        np.less(uniform, params.q, out=tool_gate[rows])
    raw_hits = sum(
        _hit_rows((uniform < params.p_tool) & tool_gate[rows])
        for rows, uniform in _uniform_blocks(rng, trials, n)
    )
    res_hits = sum(
        _hit_rows(uniform < params.p_prefix) for _, uniform in _uniform_blocks(rng, trials, n)
    )
    # Exact integer counts, so each quotient is the mean of the hit rows bit for bit.
    return MonteCarloCoverage(raw_estimate=raw_hits / trials, resample_estimate=res_hits / trials)
