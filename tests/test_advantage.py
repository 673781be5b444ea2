import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from axpo.advantage import (
    PROV_CONTINUATION,
    PROV_PREFIX,
    PROV_STANDARD,
    EmptyGroup,
    LossTable,
    ObjectiveConfig,
    _gather,
    apply_update,
    clipped_term,
    grpo_advantage,
    normalize_groups,
    policy_gradient,
    surrogate_objective,
)
from axpo.config import RunConfig
from axpo.env import ENV_PRESETS, ToolEnv, draw_rollouts
from axpo.harness import (_PROBE_STACK_VALUES, _active_ratios, _perturbed, build_batch,
                          finite_difference_gradient)
from axpo.policy import NO_TOOL, PolicyShape
from axpo.trajectory import PREFIX_STEPS, Segment, Step, Trajectory

from conftest import (
    answer_step,
    decision_nodes,
    edited,
    loss_item,
    loss_table,
    mini_env,
    node_softmax,
    WIDE_SPEC,
    plain_traj,
    reference_finite_difference_gradient,
    reference_grpo_advantage,
    reference_gather,
    rng,
    table_of,
    think_step,
    tool_traj,
    zeros_policy,
)

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

    _reference = staticmethod(reference_grpo_advantage)

    @staticmethod
    def _bits(values) -> bytes:
        return np.array(values, dtype=np.float64).tobytes()

    def test_every_binary_group_matches_the_unmemoized_normalization(self):
        cases = [list(map(int, np.binary_repr(k, n))) for n in range(1, 9) for k in range(2**n)]
        assert len(cases) == 510
        for rewards in cases * 2:  # the second pass repeats every group
            got = grpo_advantage(rewards)
            assert type(got) is list and self._bits(got) == self._bits(self._reference(rewards))

    def test_float_rewards_and_signed_zeros_are_told_apart(self):
        for rewards in ([0.25, 1.0, 0.0], [1.0, -1.0, 0.0], [1.0, -1.0, -0.0], [-0.0, 0.0]):
            assert self._bits(grpo_advantage(rewards)) == self._bits(self._reference(rewards))
        # Equal as floats, so a key on their values would conflate them; the mean is 0.
        assert self._bits(grpo_advantage([1.0, -1.0, 0.0])) != self._bits(
            grpo_advantage([1.0, -1.0, -0.0])
        )

    def test_editing_a_result_leaves_the_next_call_unchanged(self):
        first = grpo_advantage([1, 0, 0, 1])
        expected = list(first)
        first[0] = 99.0
        first.append(1.0)
        assert grpo_advantage([1, 0, 0, 1]) == expected
        zeros = grpo_advantage([1, 1])
        zeros[1] = 5.0
        assert grpo_advantage([1, 1]) == [0.0, 0.0]


class TestNormalizeGroups:
    """normalize_groups over a table of groups equals the per-group reference row by row,
    bit for bit, compared through an int64 view."""

    @staticmethod
    def _rows_match(table: np.ndarray) -> None:
        got = normalize_groups(table)
        want = np.array([reference_grpo_advantage(row) for row in table], dtype=np.float64)
        assert got.shape == table.shape and got.dtype == np.float64
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("n", range(2, 13))
    def test_every_binary_row(self, n):
        self._rows_match((np.arange(2**n)[:, None] >> np.arange(n)[::-1]) & 1)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 16),
        rows=st.lists(st.one_of(
            st.lists(st.floats(-1e6, 1e6, allow_subnormal=True), min_size=16, max_size=16),
            st.builds(lambda x: [x] * 16, st.floats(-1e6, 1e6)),  # equal rewards: std 0.0
            st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]), min_size=16, max_size=16),
        ), min_size=1, max_size=6),
    )
    def test_float_rows(self, n, rows):
        self._rows_match(np.array(rows, dtype=np.float64)[:, :n])

    def test_leading_axes_and_no_groups(self):
        table = np.array([[[1, 0, 0, 0], [1, 1, 0, 0]], [[0, 0, 0, 0], [-0.0, 1, 1, 1]]])
        np.testing.assert_array_equal(
            normalize_groups(table).reshape(-1, 4).view(np.int64),
            normalize_groups(table.reshape(-1, 4)).view(np.int64))
        assert normalize_groups(np.zeros((0, 4), dtype=np.int64)).shape == (0, 4)


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


def _sample_items(env, policy, r, questions=(0, 1), n=4) -> LossTable:
    """n rollouts per question, each a standard item with its group's advantage."""
    table = draw_rollouts(policy, env, np.repeat(questions, n), r)
    advs = [a for rewards in table.reward.reshape(-1, n).tolist() for a in grpo_advantage(rewards)]
    return LossTable((table,), advs, [0] * len(table))


class TestSurrogateObjective:
    def test_zero_advantages_beta_zero(self, mini_env):
        policy = mini_env.initial_policy()
        items = _sample_items(mini_env, policy, rng(23))
        items.advantage[:] = 0.0
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
        shape = PolicyShape(1, 1, 1, 2, 2)
        policy = zeros_policy(shape)  # every binary node is (0.5, 0.5)
        steps = (
            Step(0, Segment.THINK, logp_old=math.log(0.5)),
            Step(0, Segment.ANSWER, logp_old=math.log(0.25)),
        )
        traj = Trajectory(0, steps, reward=0)
        got = surrogate_objective(loss_table([(traj, 1.0, PROV_STANDARD)], shape), policy, policy,
                                  BETA_OFF)
        assert got == pytest.approx(1.2, abs=1e-12)

    def test_active_step_without_decision_node_rejected(self):
        # An opening marker made active has no decision cell; the objective refuses it
        # (a log record whose marker is unmasked is refused where it is read).
        shape = PolicyShape(1, 1, 1, 2, 2)
        policy = zeros_policy(shape)
        items = loss_table([(tool_traj(), 1.0, PROV_STANDARD)], shape)
        items[0].active[1] = True
        with pytest.raises(ValueError, match="step 1 is active but has no decision node"):
            surrogate_objective(items, policy, policy, BETA_OFF)

    def test_kl_value_half_half_against_quarter_three_quarters(self):
        # At A = 0 the objective is -beta times the mean KL of the active steps:
        # KL((1/2, 1/2) || (1/4, 3/4)) at the think node and 0 at the answer node.
        shape = PolicyShape(1, 1, 1, 2, 2)
        policy = zeros_policy(shape)

        def skew(logits):
            logits[shape.think(0)] = [math.log(0.25), math.log(0.75)]

        ref = edited(policy, skew)
        steps = (
            Step(0, Segment.THINK, logp_old=math.log(0.5)),
            Step(0, Segment.ANSWER, logp_old=math.log(0.5)),
        )
        traj = Trajectory(0, steps, reward=0)
        items = loss_table([(traj, 0.0, PROV_STANDARD)], shape)
        got = surrogate_objective(items, policy, ref, ObjectiveConfig(beta=1.0))
        expected = -0.5 * (0.5 * math.log(2) + 0.5 * math.log(2 / 3))
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(-0.0719205, abs=1e-7)

    def test_kl_penalty_lowers_objective_off_reference(self, mini_env):
        policy = mini_env.initial_policy()
        items = _sample_items(mini_env, policy, rng(25))

        def shift(logits):
            think = policy.shape.split(logits)[0]
            think += 1.5
            think[:, 0] -= 3.0

        ref = edited(policy, shift)
        with_kl = surrogate_objective(items, policy, ref, ObjectiveConfig(beta=0.1))
        without = surrogate_objective(items, policy, ref, BETA_OFF)
        assert with_kl < without


# Trajectories that do not fit PolicyShape(2, 1, 1, 2, 2): two questions, one
# intent, one call step, two variants and two answers.
_MISFITS = {
    "question": (plain_traj(qid=-1), r"step 0: question -1 outside \[0, 2\)"),
    "tool-call-under-no-tool": (
        tool_traj(think_action=NO_TOOL),
        r"step 0: think action 0 before a tool call is not in 1\.\.1",
    ),
    "argument-count": (tool_traj(args=((0, 0.5), (1, 0.5))), "step 2: 2 argument steps, not 1"),
    "action": (tool_traj(answer=2), "step 4: action 2 outside its node"),
    "no-tool-think-action": (
        Trajectory(0, (think_step(2), answer_step()), reward=0),
        "step 0: action 2 outside its node",
    ),
}


class TestDecisionNodeMisfits:
    """The objective reads only draw-table rows, whose flat indices the sampler
    took from the policy's layout. A hand-built trajectory reaches it only as a
    row of table_of, which maps it with the reference decision_nodes; one that
    does not fit the policy is refused there, naming the step, before any
    evaluation reads a neighbouring node."""

    @pytest.mark.parametrize(
        "evaluate", [surrogate_objective, policy_gradient, finite_difference_gradient]
    )
    @pytest.mark.parametrize("case", sorted(_MISFITS))
    def test_rejected(self, case, evaluate):
        traj, message = _MISFITS[case]
        shape = PolicyShape(2, 1, 1, 2, 2)
        policy = zeros_policy(shape)
        with pytest.raises(ValueError, match=message):
            evaluate(loss_table([(traj, 1.0, PROV_STANDARD)], shape), policy, policy, BETA_OFF)

    def test_fitting_trajectories_map(self):
        shape = PolicyShape(2, 1, 1, 2, 2)
        assert decision_nodes(shape, tool_traj(qid=1, answer=1)) == [
            shape.think(1), None, shape.call(1, 0, 0), None, shape.answer(1)
        ]
        assert decision_nodes(shape, plain_traj(qid=1)) == [shape.think(1), shape.answer(1)]


class TestLossItem:
    @pytest.mark.parametrize("env_spec", ["gap-env", "mini", "wide"], indirect=True)
    def test_batch_items_are_active_on_the_unmasked_steps_of_their_span(self, env_spec):
        """The guard on what the loss table builds: each item of an axpo batch holds one
        advantage and one active flag per step of its trajectory, and is active
        exactly on the unmasked steps of its provenance's span."""
        env = ToolEnv(env_spec)
        cfg = RunConfig(
            algorithm="axpo", env_preset="mini", questions_per_step=6, group_size=6,
            resample_ratio=0.5, resample_k=3,
        )
        span = {
            PROV_STANDARD: lambda i: True,
            PROV_PREFIX: lambda i: i < PREFIX_STEPS,
            PROV_CONTINUATION: lambda i: i >= PREFIX_STEPS,
        }
        resampled = 0
        for seed in range(3):
            r = rng(40 + seed)
            qids = r.choice(env.num_questions, size=cfg.questions_per_step, replace=False)
            batch = build_batch(env.initial_policy(), env, qids, cfg, r, r)
            resampled += bool(batch.results)
            for item in batch.items:
                steps = item.trajectory.steps
                assert item.advantages.shape == item.active.shape == (len(steps),)
                expected = [s.mask and span[item.provenance](i) for i, s in enumerate(steps)]
                assert item.active.tolist() == expected
        assert resampled

    def test_loss_item_marks_unmasked_steps_inside_the_slice(self):
        traj = tool_traj()  # think, marker, arg, observation, answer
        mask = [s.mask for s in traj.steps]
        assert mask == [True, False, True, False, True]
        assert PREFIX_STEPS == 2
        for provenance, expected in (
            (PROV_STANDARD, mask),
            (PROV_PREFIX, [True, False, False, False, False]),
            (PROV_CONTINUATION, [False, False, True, False, True]),
        ):
            item = loss_item(traj, -0.75, provenance)
            assert item.provenance == provenance
            back = item.trajectory.steps  # its row's steps, but the marker is the shape's
            assert back[:1] + back[2:] == traj.steps[:1] + traj.steps[2:]
            assert item.active.tolist() == expected
            assert item.advantages.tolist() == [-0.75] * len(traj.steps)
        assert loss_item(traj, 0.5).provenance == PROV_STANDARD


class TestGradient:
    def test_zero_advantages_beta_zero_zero_gradient(self, mini_env):
        policy = mini_env.initial_policy()
        items = _sample_items(mini_env, policy, rng(26))
        for item in items:
            item.advantages[:] = 0.0
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
                node = decision_nodes(policy.shape, item.trajectory)[i]
                p = policy.probs(node)
                d = -p.copy()
                d[item.trajectory.steps[i].action_id] += 1.0
                expected[node] += (item.advantages[i] / len(idx)) * d
        assert np.abs(grad - expected).max() < 1e-12

    def test_matches_finite_differences(self, mini_env):
        from axpo.harness import finite_difference_gradient

        policy = mini_env.initial_policy()
        items = _sample_items(mini_env, policy, rng(28))

        def jitter(logits):
            think, call, _ = policy.shape.split(logits)
            think += rng(29).normal(0, 0.4, think.shape)
            call += rng(30).normal(0, 0.4, call.shape)

        theta = edited(policy, jitter)
        cfg = ObjectiveConfig(beta=1e-2)
        analytic = policy_gradient(items, theta, policy, cfg)
        numeric = finite_difference_gradient(items, theta, policy, cfg)
        assert np.abs(analytic - numeric).max() < 1e-6


def _think(policy):
    return policy.shape.split(policy.logits)[0]


class TestApplyUpdate:
    def test_zero_gradient_identity(self, mini_env):
        policy = mini_env.initial_policy()
        updated = apply_update(policy, np.zeros_like(policy.logits), 0.5)
        assert np.array_equal(_think(updated), _think(policy))

    def test_zero_learning_rate_identity(self, mini_env):
        policy = mini_env.initial_policy()
        grad = np.zeros_like(policy.logits)
        grad[policy.shape.think(0)][1] = 3.0
        updated = apply_update(policy, grad, 0.0)
        assert np.array_equal(_think(updated), _think(policy))

    def test_positive_entry_increases_probability(self, mini_env):
        policy = mini_env.initial_policy()
        grad = np.zeros_like(policy.logits)
        grad[policy.shape.think(0)][1] = 1.0
        updated = apply_update(policy, grad, 0.5)
        node = policy.shape.think(0)
        assert updated.probs(node)[1] > policy.probs(node)[1]


def _reference_evaluate(items, policy, ref_policy, cfg):
    """The objective's value and gradient as a loop over active steps, node by
    node, each node's softmax computed on its own: the reference the array
    objective must match bit for bit."""
    total = 0.0
    grad = np.zeros_like(policy.logits)
    for item in items:
        active_idx = np.nonzero(item.active)[0]
        if len(active_idx) == 0:
            continue
        inv_n = 1.0 / len(active_idx)
        for i in active_idx:
            step = item.trajectory.steps[i]
            node, action = decision_nodes(policy.shape, item.trajectory)[i], step.action_id
            adv = float(item.advantages[i])
            p = node_softmax(policy, node)
            rho = float(p[action]) / float(np.exp(step.logp_old))
            clipped = min(max(rho, 1.0 - cfg.eps_low), 1.0 + cfg.eps_high)
            total += inv_n * min(rho * adv, clipped * adv)

            kl = 0.0
            if cfg.beta > 0.0:
                ref = node_softmax(ref_policy, node)
                log_ratio = np.log(p) - np.log(ref)
                kl = float(np.sum(p * log_ratio))
                total -= inv_n * cfg.beta * kl

            slot = grad[node]
            if rho * adv <= clipped * adv:
                d_rho = -rho * p
                d_rho[action] += rho
                slot += (inv_n * adv) * d_rho
            if cfg.beta > 0.0:
                d_kl = p * (log_ratio - kl)
                slot -= (inv_n * cfg.beta) * d_kl
    return total, grad


def _oracle_batch(spec, sharpness):
    """An axpo batch (standard, prefix-credit and continuation items, plus two
    items with no active step), a policy whose ratios fall below, inside and
    above the clip band, and a reference policy. Each policy's noise is scaled
    by sharpness, which sharpens (> 1) or flattens (< 1) its distributions."""
    r = rng(31)

    def noisy(policy, scale):
        def add_noise(logits):
            logits += r.normal(0.0, scale, logits.shape) * sharpness

        return edited(policy, add_noise)

    env = ToolEnv(spec)
    rollout = noisy(env.initial_policy(), 0.5)
    cfg = RunConfig(
        algorithm="axpo", env_preset="mini", questions_per_step=6, group_size=6,
        resample_ratio=0.5, resample_k=3,
    )
    qids = r.choice(env.num_questions, size=cfg.questions_per_step, replace=False)
    batch = build_batch(rollout, env, qids, cfg, r, r)
    assert {item.provenance for item in batch.items} == {
        PROV_STANDARD, PROV_PREFIX, PROV_CONTINUATION
    }
    # The batch's tables, then the first and last rollout again, idle.
    drawn, shape = batch.items, env.policy_shape()
    rows = batch.rollouts.trajectories()
    idle = table_of([rows[0], rows[-1]], shape)
    items = LossTable((*drawn.tables, idle), [*(i.advantages[0] for i in drawn), 0.0, 0.0],
                      [*drawn.provenance, 0, 0])
    for item in items[-2:]:
        item.active[:] = False
        item.advantages[:] = r.normal(size=item.advantages.size)
    theta = noisy(rollout, 1.0)
    ref = noisy(rollout, 0.4)
    return items, theta, ref


class TestGather:
    @pytest.mark.parametrize("env_spec", ["gap-env", "mini", "wide"], indirect=True)
    def test_matches_a_walk_over_decision_nodes(self, env_spec):
        items, theta, _ = _oracle_batch(env_spec, 1.0)
        assert any(not item.active.any() for item in items)
        got, expected = _gather(items, theta.shape), reference_gather(items, theta.shape)
        assert got.start.size > 0
        for name in ("start", "width", "action"):
            assert getattr(got, name).tolist() == getattr(expected, name).tolist(), name
        for name in ("logp_old", "adv", "inv_n"):
            assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name

    def test_misfit_in_an_item_without_active_steps_is_not_read(self):
        """Only the cells of active steps are read: an idle item's row may hold
        flat indices far outside the policy."""
        shape = PolicyShape(2, 1, 1, 2, 2)
        items = loss_table([(plain_traj(qid=0), 1.0, PROV_STANDARD),
                            (plain_traj(qid=1), 0.5, PROV_STANDARD)], shape)
        items[0].active[:] = False
        items.flat[: items.width] = 10**9
        steps = _gather(items, shape)
        assert steps.start.tolist() == [shape.think(1).start, shape.answer(1).start]


class TestMatchesReferenceLoop:
    @pytest.mark.parametrize("beta", [0.0, 1e-3, 0.05])
    @pytest.mark.parametrize("sharpness", [1 / 0.7, 1 / 1.3], ids=["sharp", "flat"])
    @pytest.mark.parametrize("env_spec", ["gap-env", "mini", "wide"], indirect=True)
    def test_bit_for_bit(self, env_spec, sharpness, beta):
        items, theta, ref = _oracle_batch(env_spec, sharpness)
        cfg = ObjectiveConfig(beta=beta)
        ratios = np.array(_active_ratios(items, theta))
        assert (ratios < 1.0 - cfg.eps_low).any() and (ratios > 1.0 + cfg.eps_high).any()
        assert ((ratios > 1.0 - cfg.eps_low) & (ratios < 1.0 + cfg.eps_high)).any()

        value, grad = _reference_evaluate(items, theta, ref, cfg)
        assert surrogate_objective(items, theta, ref, cfg).hex() == value.hex()
        assert policy_gradient(items, theta, ref, cfg).tobytes() == grad.tobytes()

    def test_no_active_step(self, mini_env):
        policy = mini_env.initial_policy()
        idle = _sample_items(mini_env, policy, rng(32))
        idle.active[:] = False
        zeros = np.zeros_like(policy.logits).tobytes()
        for items in (loss_table([], policy.shape), idle):
            assert surrogate_objective(items, policy, policy, ObjectiveConfig()).hex() == "0x0.0p+0"
            assert policy_gradient(items, policy, policy, ObjectiveConfig()).tobytes() == zeros
            got = finite_difference_gradient(items, policy, policy, ObjectiveConfig())
            assert got.tobytes() == zeros


# Shapes for the finite-difference property: mini (one call step), a small shape
# with two call steps, and a 580-logit one with two call steps whose probes run
# in a full chunk and a partial one.
_PROBE_SPECS = {
    "mini": ENV_PRESETS["mini"](seed=3),
    "two-steps": dataclasses.replace(
        WIDE_SPEC, num_questions=3, intents_per_question=2, variants_per_intent=3, num_answers=3
    ),
    "chunked": dataclasses.replace(WIDE_SPEC, num_questions=2, intents_per_question=8),
}


def _probe_batch(spec, sharpness: float, seed: int, scale: float = 1.0):
    """An axpo batch of two questions drawn under a noisy policy, a policy whose
    logits differ from it by noise of the given scale, and a reference policy.
    Every noise scale is multiplied by sharpness."""
    r = rng(seed)
    env = ToolEnv(spec)
    rollout = _perturbed(env.initial_policy(), r, 0.5 * sharpness)
    cfg = RunConfig(algorithm="axpo", env_preset="mini", questions_per_step=2, group_size=4,
                    resample_ratio=0.5, resample_k=2)
    qids = r.choice(env.num_questions, size=cfg.questions_per_step, replace=False)
    items = build_batch(rollout, env, qids, cfg, r, r).items
    return items, _perturbed(rollout, r, scale * sharpness), _perturbed(rollout, r, 0.4 * sharpness)


def _chunks(shape) -> int:
    per_chunk = max(1, _PROBE_STACK_VALUES // (2 * shape.size))
    return -(-shape.size // per_chunk)


class TestFiniteDifferences:
    """finite_difference_gradient evaluates its probes as chunked stacks; every
    entry must equal the per-logit loop's bit for bit."""

    def test_probe_specs_span_one_and_several_chunks(self):
        shapes = {name: ToolEnv(spec).policy_shape() for name, spec in _PROBE_SPECS.items()}
        assert _chunks(shapes["mini"]) == 1 and _chunks(shapes["chunked"]) >= 2
        assert shapes["two-steps"].call_steps == shapes["chunked"].call_steps == 2

    @pytest.mark.parametrize("spec", sorted(_PROBE_SPECS))
    @settings(derandomize=True, max_examples=12, deadline=None)
    @given(
        sharpness=st.sampled_from([2.0, 1.0, 0.5]),
        beta=st.sampled_from([0.0, 1e-3, 0.05]) | st.floats(0.0, 0.5),
        eps_low=st.floats(0.01, 0.9),
        eps_high=st.floats(0.01, 2.0),
        scale=st.sampled_from([0.0, 0.3, 1.0, 2.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_per_logit_loop(self, spec, sharpness, beta, eps_low, eps_high, scale,
                                       seed):
        items, theta, ref = _probe_batch(_PROBE_SPECS[spec], sharpness, seed, scale)
        cfg = ObjectiveConfig(eps_low=eps_low, eps_high=eps_high, beta=beta)
        got = finite_difference_gradient(items, theta, ref, cfg)
        expected = reference_finite_difference_gradient(items, theta, ref, cfg)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("beta", [0.0, 0.05])
    def test_equals_the_per_logit_loop_with_ratios_clipped_on_both_sides(self, beta):
        items, theta, ref = _oracle_batch(ENV_PRESETS["mini"](), 1.0)
        cfg = ObjectiveConfig(beta=beta)
        ratios = _active_ratios(items, theta)
        assert (ratios < 1.0 - cfg.eps_low).any() and (ratios > 1.0 + cfg.eps_high).any()
        got = finite_difference_gradient(items, theta, ref, cfg)
        expected = reference_finite_difference_gradient(items, theta, ref, cfg)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    def test_memory_stays_within_a_few_probe_stacks(self):
        """A 1185-logit shape runs its probes in six chunks, and the call's peak stays
        below ten stacks of _PROBE_STACK_VALUES float64 values (40 MiB). One stack of
        all 2 * 1185 probes would take 22 MB for each of its temporaries."""
        items, theta, ref = _probe_batch(dataclasses.replace(WIDE_SPEC, num_questions=3), 1.0, 5)
        assert theta.shape.size > 1000 and _chunks(theta.shape) >= 4
        tracemalloc.start()
        try:
            finite_difference_gradient(items, theta, ref, ObjectiveConfig(beta=0.05))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 8 * _PROBE_STACK_VALUES, peak
