import math

import numpy as np
import pytest

from axpo.coverage import (
    BLOCK_ROWS,
    CoverageParams,
    DomainError,
    MonteCarloCoverage,
    coverage_raw,
    coverage_resample,
    monte_carlo_coverage,
)
from axpo.env import EnvSpec, ToolEnv, draw_rollouts, make_env

from conftest import prefix_success_prob, rng, tool_attempt_prob


class TestClosedForms:
    def test_raw_example(self):
        got = coverage_raw(0.3, 0.2, 4)
        assert got == pytest.approx(1 - (1 - 0.3 * 0.2) ** 4, abs=1e-12)
        assert got == pytest.approx(0.21927, abs=1e-4)
        # At p_prefix = q * p_tool resampling ties raw sampling.
        assert coverage_resample(0.2, 6) == pytest.approx(coverage_raw(0.5, 0.4, 6), abs=1e-15)

    def test_raw_trivials(self):
        assert coverage_raw(0.7, 0.0, 9) == 0.0
        assert coverage_raw(1.0, 1.0, 3) == 1.0

    def test_resample_example(self):
        assert coverage_resample(0.2, 4) == pytest.approx(0.5904, abs=1e-12)
        margin = coverage_resample(0.2, 4) - coverage_raw(0.3, 0.2, 4)
        assert margin == pytest.approx(0.5904 - (1 - 0.94**4), abs=1e-12)
        assert margin == pytest.approx(0.3711, abs=1e-3)
        # Below p_prefix = q * p_tool raw sampling covers more.
        assert coverage_resample(0.01, 4) < coverage_raw(0.3, 0.2, 4)

    def test_resample_trivials(self):
        assert coverage_resample(0.0, 5) == 0.0
        assert coverage_resample(0.37, 1) == pytest.approx(0.37, abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            coverage_raw(-0.1, 0.5, 2)
        with pytest.raises(DomainError):
            coverage_resample(1.5, 2)
        with pytest.raises(DomainError):
            coverage_raw(0.5, 0.5, 0)
        with pytest.raises(DomainError):
            CoverageParams(q=0.5, p_tool=2.0, p_prefix=0.5, n=4)

    def test_monotonicity(self):
        r = rng(50)
        for _ in range(500):
            q, p = sorted(r.uniform(0, 1, size=2))
            n = int(r.integers(1, 20))
            assert coverage_raw(q, 0.5, n) <= coverage_raw(p, 0.5, n)
            assert coverage_resample(q, n) <= coverage_resample(p, n)
            assert coverage_resample(q, n) <= coverage_resample(q, n + 1)


class TestMonteCarlo:
    def test_certain_resample(self):
        params = CoverageParams(q=0.5, p_tool=0.5, p_prefix=1.0, n=3)
        mc = monte_carlo_coverage(params, 1_000, rng(51))
        assert mc.resample_estimate == 1.0

    def test_degenerate_gate(self):
        params = CoverageParams(q=1.0, p_tool=0.3, p_prefix=0.1, n=1)
        mc = monte_carlo_coverage(params, 100_000, rng(52))
        assert abs(mc.raw_estimate - 0.3) < 3 * math.sqrt(0.3 * 0.7 / 100_000)

    def test_matches_closed_form(self):
        params = CoverageParams(q=0.3, p_tool=0.2, p_prefix=0.2, n=4)
        mc = monte_carlo_coverage(params, 100_000, rng(53))
        raw_cf = coverage_raw(0.3, 0.2, 4)
        res_cf = coverage_resample(0.2, 4)
        assert abs(mc.raw_estimate - raw_cf) < 3 * math.sqrt(raw_cf * (1 - raw_cf) / 100_000)
        assert abs(mc.resample_estimate - res_cf) < 3 * math.sqrt(res_cf * (1 - res_cf) / 100_000)

    def test_rejects_zero_trials(self):
        with pytest.raises(DomainError):
            monte_carlo_coverage(CoverageParams(0.5, 0.5, 0.5, 2), 0, rng(54))


def _three_array_coverage(params, trials, rng):
    """The Monte Carlo drawn as three whole (trials, n) arrays, each row's hit
    taken by np.any: the reference the blocked form must equal bit for bit."""
    n = params.n
    tool_gate = rng.random((trials, n)) < params.q
    success = rng.random((trials, n)) < params.p_tool
    raw_hit = np.any(tool_gate & success, axis=1)
    res_hit = np.any(rng.random((trials, n)) < params.p_prefix, axis=1)
    return MonteCarloCoverage(
        raw_estimate=float(raw_hit.mean()), resample_estimate=float(res_hit.mean())
    )


# An interior operating point, then each of its probabilities at 0 and at 1.
_INTERIOR = (0.3, 0.5, 0.2)
_PROBABILITIES = [_INTERIOR] + [
    _INTERIOR[:i] + (edge,) + _INTERIOR[i + 1 :] for i in range(3) for edge in (0.0, 1.0)
]


def _assert_same_as_reference(params, trials, *key):
    """Equal estimates, and the generator left in the same state."""
    blocked, reference = rng(*key), rng(*key)
    got = monte_carlo_coverage(params, trials, blocked)
    want = _three_array_coverage(params, trials, reference)
    assert (got.raw_estimate, got.resample_estimate) == (
        want.raw_estimate, want.resample_estimate), (params, trials)
    assert blocked.random() == reference.random(), (params, trials)


class TestBlockedMonteCarlo:
    @pytest.mark.parametrize("n", [1, 4, 17])
    @pytest.mark.parametrize(
        "trials", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 7, 200_000]
    )
    def test_equals_the_three_array_form(self, trials, n):
        for i, (q, p_tool, p_prefix) in enumerate(_PROBABILITIES):
            params = CoverageParams(q=q, p_tool=p_tool, p_prefix=p_prefix, n=n)
            _assert_same_as_reference(params, trials, trials, n, i)

    @pytest.mark.parametrize("block_rows", [1, 3, 1000])
    def test_block_size_does_not_change_the_estimates(self, monkeypatch, block_rows):
        monkeypatch.setattr("axpo.coverage.BLOCK_ROWS", block_rows)
        _assert_same_as_reference(CoverageParams(0.3, 0.5, 0.2, 4), 2_003, block_rows)


def _sample_tool_use(env, policy, qid: int, trials: int, seed: int) -> tuple[int, int]:
    """How many of `trials` raw rollouts use a tool, and how many of those are correct."""
    table = draw_rollouts(policy, env, [qid] * trials, rng(seed))
    return int(table.tool_using.sum()), int(table.reward[table.tool_using].sum())


def _exact_p_tool(env, policy, qid: int) -> float:
    """sum_i pi(i)/q * p(i): the success probability of a tool-using rollout,
    the mean of its committed prefix's exact continuation success."""
    think = policy.probs(policy.shape.think(qid))
    q = tool_attempt_prob(policy, qid)
    return sum(
        think[1 + intent] / q * prefix_success_prob(env, policy, qid, intent)
        for intent in range(env.spec.intents_per_question)
    )


class TestEnvProbe:
    """The exact policy-level coverage quantities of the live environment."""

    def test_single_intent_point_mass(self):
        env = ToolEnv(
            EnvSpec(
                num_questions=2,
                tool_necessary_fraction=0.5,
                intents_per_question=1,
                variants_per_intent=1,
                seed=3,
            )
        )
        env.p_variant[:] = 0.35
        policy = env.initial_policy()
        assert prefix_success_prob(env, policy, 0, 0) == 0.35
        assert _exact_p_tool(env, policy, 0) == pytest.approx(0.35, abs=1e-15)

    def test_exact_tool_rate_matches_sampling(self):
        env = make_env("gap-env", seed=1)
        policy = env.initial_policy()
        qid = int(np.nonzero(env.tool_necessary)[0][0])
        trials = 5_000
        tool_count, _ = _sample_tool_use(env, policy, qid, trials, seed=56)
        q = tool_attempt_prob(policy, qid)
        assert abs(tool_count / trials - q) < 3 * math.sqrt(q * (1 - q) / trials)

    def test_gap_env_mean_prefix_exceeds_raw_rate(self):
        env = make_env("gap-env", seed=1)
        policy = env.initial_policy()
        qid = int(np.nonzero(env.tool_necessary)[0][0])
        q = tool_attempt_prob(policy, qid)
        p_tool = _exact_p_tool(env, policy, qid)
        assert q > 0
        assert p_tool - q * p_tool > 0

    def test_conditional_mean_identity(self):
        env = make_env("mini", seed=2)
        policy = env.initial_policy()
        qid = 0
        tool_count, tool_correct = _sample_tool_use(env, policy, qid, trials=20_000, seed=57)
        # E[p(t_1)] over tool-committed prefixes reproduces p_tool.
        p = _exact_p_tool(env, policy, qid)
        se = math.sqrt(max(p * (1 - p), 1e-9) / tool_count)
        assert abs(tool_correct / tool_count - p) < 3 * se
