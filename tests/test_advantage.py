import math

import numpy as np
import pytest

from axpo.advantage import (
    EmptyGroup,
    LossItem,
    MissingLogProb,
    ObjectiveConfig,
    apply_update,
    clipped_term,
    grpo_advantage,
    policy_gradient,
    standard_item,
    surrogate_objective,
)
from axpo.env import sample_rollout
from axpo.policy import DecisionTable, TabularPolicy
from axpo.trajectory import Group, Segment, Step, Trajectory

from conftest import mini_env, rng

BETA_OFF = ObjectiveConfig(beta=0.0)


class TestGrpoAdvantage:
    def test_zero_variance(self):
        assert grpo_advantage([1, 1, 1, 1]) == [0.0, 0.0, 0.0, 0.0]

    def test_pair(self):
        assert grpo_advantage([1, 0]) == pytest.approx([1.0, -1.0], abs=1e-12)

    def test_one_in_four(self):
        got = grpo_advantage([1, 0, 0, 0])
        root3 = math.sqrt(3)
        assert got == pytest.approx([root3, -1 / root3, -1 / root3, -1 / root3], abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(EmptyGroup):
            grpo_advantage([])

    def test_mean_zero_unless_degenerate(self):
        r = rng(20)
        for _ in range(200):
            rewards = list(r.integers(0, 2, size=8))
            adv = grpo_advantage(rewards)
            if len(set(rewards)) == 1:
                assert adv == [0.0] * 8
            else:
                assert abs(sum(adv)) < 1e-9


class TestClippedTerm:
    def test_on_policy_inside_band(self):
        assert clipped_term(1.0, 0.5, BETA_OFF) == 0.5

    def test_upper_clip(self):
        assert clipped_term(2.0, 1.0, BETA_OFF) == pytest.approx(1.4, abs=1e-12)

    def test_lower_clip_negative_advantage(self):
        assert clipped_term(0.5, -1.0, BETA_OFF) == pytest.approx(-0.8, abs=1e-12)

    def test_never_exceeds_unclipped(self):
        r = rng(21)
        for _ in range(1_000):
            rho = float(r.uniform(0.01, 3.0))
            a = float(r.normal())
            assert clipped_term(rho, a, BETA_OFF) <= rho * a + 1e-15

    def test_monotone_in_advantage(self):
        r = rng(22)
        for _ in range(500):
            rho = float(r.uniform(0.01, 3.0))
            a1, a2 = sorted(r.normal(size=2))
            assert clipped_term(rho, a1, BETA_OFF) <= clipped_term(rho, a2, BETA_OFF)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ObjectiveConfig(eps_low=0.0)
        with pytest.raises(ValueError):
            ObjectiveConfig(beta=-1.0)


def _sample_items(env, policy, r, questions=(0, 1), n=4):
    table = DecisionTable(policy)
    items = []
    for q in questions:
        group = Group(q, tuple(sample_rollout(table, env, q, r) for _ in range(n)))
        advs = grpo_advantage(group.rewards())
        items.extend(standard_item(t, advs[i]) for i, t in enumerate(group.rollouts))
    return items


class TestSurrogateObjective:
    def test_zero_advantages_beta_zero(self, mini_env):
        policy = mini_env.initial_policy()
        items = [
            standard_item(t.trajectory, 0.0)
            for t in _sample_items(mini_env, policy, rng(23))
        ]
        assert surrogate_objective(items, policy, policy, BETA_OFF) == 0.0

    def test_on_policy_equals_summed_mean_advantage(self, mini_env):
        policy = mini_env.initial_policy()
        items = _sample_items(mini_env, policy, rng(24))
        got = surrogate_objective(items, policy, policy, BETA_OFF)
        expected = sum(
            float(np.mean(item.advantages[item.active])) for item in items if item.active.any()
        )
        assert got == pytest.approx(expected, abs=1e-12)

    def test_two_step_clip_table(self):
        # Two unmasked steps at rho=(1.0, 2.0), A=1, beta=0 -> (1.0 + 1.4)/2.
        from axpo.policy import PolicyShape

        shape = PolicyShape(1, 1, 1, 2, 2)
        policy = TabularPolicy.zeros(shape)  # every binary node is (0.5, 0.5)
        steps = (
            Step(0, Segment.THINK, logp_old=math.log(0.5)),
            Step(0, Segment.ANSWER, logp_old=math.log(0.25)),
        )
        traj = Trajectory(0, steps, reward=0, turn_count=1)
        got = surrogate_objective([standard_item(traj, 1.0)], policy, policy, BETA_OFF)
        assert got == pytest.approx(1.2, abs=1e-12)

    def test_missing_logp_rejected(self):
        steps = (Step(0, Segment.THINK, logp_old=None), Step(0, Segment.ANSWER, logp_old=-0.7))
        traj = Trajectory(0, steps, reward=0, turn_count=1)
        from axpo.policy import PolicyShape

        policy = TabularPolicy.zeros(PolicyShape(1, 1, 1, 2, 2))
        with pytest.raises(MissingLogProb):
            surrogate_objective([standard_item(traj, 1.0)], policy, policy, BETA_OFF)

    def test_kl_penalty_lowers_objective_off_reference(self, mini_env):
        policy = mini_env.initial_policy()
        items = _sample_items(mini_env, policy, rng(25))
        ref = policy.copy()
        ref.think_logits += 1.5
        ref.think_logits[:, 0] -= 3.0
        with_kl = surrogate_objective(items, policy, ref, ObjectiveConfig(beta=0.1))
        without = surrogate_objective(items, policy, ref, BETA_OFF)
        assert with_kl < without


class TestLossItem:
    def test_active_must_be_subset_of_mask(self):
        from conftest import tool_traj

        traj = tool_traj()
        active = np.ones(len(traj.steps), dtype=bool)  # includes masked marker/observation
        with pytest.raises(ValueError):
            LossItem(traj, np.zeros(len(traj.steps)), active, "standard")

    def test_length_mismatch_rejected(self):
        from conftest import plain_traj

        traj = plain_traj()
        with pytest.raises(ValueError):
            LossItem(traj, np.zeros(3), np.zeros(3, dtype=bool), "standard")


class TestGradient:
    def test_zero_advantages_beta_zero_zero_gradient(self, mini_env):
        policy = mini_env.initial_policy()
        items = [
            standard_item(i.trajectory, 0.0) for i in _sample_items(mini_env, policy, rng(26))
        ]
        grad = policy_gradient(items, policy, policy, BETA_OFF)
        assert np.abs(grad).max() == 0.0

    def test_on_policy_equals_score_function_gradient(self, mini_env):
        policy = mini_env.initial_policy()
        items = _sample_items(mini_env, policy, rng(27))
        grad = policy_gradient(items, policy, policy, BETA_OFF)

        expected = np.zeros_like(policy.logits)
        for item in items:
            idx = np.nonzero(item.active)[0]
            for i in idx:
                ctx, action = item.contexts[i]
                p = policy.probs(ctx)
                d = -p.copy()
                d[action] += 1.0
                expected[policy.nodes[ctx]] += (item.advantages[i] / len(idx)) * d
        assert np.abs(grad - expected).max() < 1e-12

    def test_matches_finite_differences(self, mini_env):
        from axpo.harness import finite_difference_gradient

        policy = mini_env.initial_policy()
        items = _sample_items(mini_env, policy, rng(28))
        theta = policy.copy()
        theta.think_logits += rng(29).normal(0, 0.4, theta.think_logits.shape)
        theta.call_logits += rng(30).normal(0, 0.4, theta.call_logits.shape)
        cfg = ObjectiveConfig(beta=1e-2)
        analytic = policy_gradient(items, theta, policy, cfg)
        numeric = finite_difference_gradient(items, theta, policy, cfg)
        assert np.abs(analytic - numeric).max() < 1e-6


class TestApplyUpdate:
    def test_zero_gradient_identity(self, mini_env):
        policy = mini_env.initial_policy()
        updated = apply_update(policy, np.zeros_like(policy.logits), 0.5)
        assert np.array_equal(updated.think_logits, policy.think_logits)

    def test_zero_learning_rate_identity(self, mini_env):
        policy = mini_env.initial_policy()
        grad = np.zeros_like(policy.logits)
        grad[policy.nodes[("think", 0)]][1] = 3.0
        updated = apply_update(policy, grad, 0.0)
        assert np.array_equal(updated.think_logits, policy.think_logits)

    def test_positive_entry_increases_probability(self, mini_env):
        policy = mini_env.initial_policy()
        grad = np.zeros_like(policy.logits)
        grad[policy.nodes[("think", 0)]][1] = 1.0
        updated = apply_update(policy, grad, 0.5)
        assert updated.probs(("think", 0))[1] > policy.probs(("think", 0))[1]
