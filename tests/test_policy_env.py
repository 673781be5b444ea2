import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from axpo.env import (
    EnvSpec,
    ToolEnv,
    make_env,
    sample_continuation,
    sample_rollout,
)
from axpo.policy import (
    NO_TOOL,
    PolicyShape,
    TabularPolicy,
    confidence,
    decision_nodes,
    load_policy,
    save_policy,
)
from axpo.trajectory import PREFIX_STEPS, NotToolUsing, Segment, deserialize, serialize

from conftest import (
    all_nodes,
    edited,
    node_softmax,
    one_hot_policy,
    prefix_success_prob,
    rng,
    tool_attempt_prob,
    zeros_policy,
)


def controlled_env(num_questions=2, intents=2, variants=2, seed=0, **kw) -> ToolEnv:
    return ToolEnv(
        EnvSpec(
            num_questions=num_questions,
            tool_necessary_fraction=0.5,
            intents_per_question=intents,
            variants_per_intent=variants,
            seed=seed,
            **kw,
        )
    )


class TestSampleRollout:
    def test_no_tool_path_deterministic(self):
        env = controlled_env()
        env.p_think[0] = 1.0
        policy = zeros_policy(env.policy_shape())
        policy = one_hot_policy(policy, policy.shape.think(0), NO_TOOL)
        traj = sample_rollout(policy, env, 0, rng(1))
        assert [s.segment for s in traj.steps] == [Segment.THINK, Segment.ANSWER]
        assert traj.reward == 1

    def test_tool_path_zero_success(self):
        env = controlled_env()
        env.p_variant[0] = 0.0
        policy = zeros_policy(env.policy_shape())
        policy = one_hot_policy(policy, policy.shape.think(0), 1)
        policy = one_hot_policy(policy, policy.shape.call(0, 0, 0), 1)
        traj = sample_rollout(policy, env, 0, rng(2))
        assert traj.is_tool_using()
        assert traj.reward == 0

    def test_tool_use_fraction_matches_node_mass(self):
        env = controlled_env()
        policy = env.initial_policy()
        r = rng(3)
        used = sum(sample_rollout(policy, env, 0, r).is_tool_using() for _ in range(10_000))
        assert abs(used / 10_000 - tool_attempt_prob(policy, 0)) < 0.02

    def test_logp_old_matches_sampling_policy(self):
        env = controlled_env()
        policy = env.initial_policy()
        traj = sample_rollout(policy, env, 1, rng(4))
        for step, node in zip(traj.steps, decision_nodes(policy.shape, traj)):
            if node is not None:
                assert step.logp_old == policy.logp[node][step.action_id]

    def test_product_law_correct_and_tool_using(self):
        env = controlled_env(seed=5)
        policy = env.initial_policy()
        qid = 0
        think = policy.probs(policy.shape.think(qid))
        expected = sum(
            think[1 + intent] * prefix_success_prob(env, policy, qid, intent)
            for intent in range(env.spec.intents_per_question)
        )
        trials = 30_000
        r = rng(5)
        hits = 0
        for _ in range(trials):
            t = sample_rollout(policy, env, qid, r)
            hits += int(t.is_tool_using() and t.reward == 1)
        se = math.sqrt(max(expected * (1 - expected), 1e-9) / trials)
        assert abs(hits / trials - expected) < 3 * se


class TestSampleContinuation:
    def test_shared_prefix_property(self):
        env = controlled_env()
        policy = env.initial_policy()
        r = rng(6)
        forced = one_hot_policy(policy, policy.shape.think(0), 1)
        source = sample_rollout(forced, env, 0, r)
        for _ in range(16):
            cont = sample_continuation(policy, env, source, r)
            assert cont.steps[:PREFIX_STEPS] == source.steps[:PREFIX_STEPS]
            assert cont.is_tool_using()

    def test_single_certain_variant(self):
        env = controlled_env(variants=1)
        env.p_variant[0, 0, 0] = 1.0
        policy = env.initial_policy()
        forced = one_hot_policy(policy, policy.shape.think(0), 1)
        r = rng(7)
        source = sample_rollout(forced, env, 0, r)
        assert all(sample_continuation(policy, env, source, r).reward == 1 for _ in range(20))

    def test_two_variant_success_rate(self):
        env = controlled_env(variants=2)
        env.p_variant[0, 0] = [0.0, 0.5]
        policy = zeros_policy(env.policy_shape())
        policy = one_hot_policy(policy, policy.shape.think(0), 1)
        r = rng(8)
        source = sample_rollout(policy, env, 0, r)
        trials = 10_000
        wins = sum(sample_continuation(policy, env, source, r).reward for _ in range(trials))
        assert abs(wins / trials - 0.25) < 3 * math.sqrt(0.25 * 0.75 / trials)

    def test_invalid_prefix_rejected(self):
        from conftest import tool_traj

        env = controlled_env()
        policy, r = env.initial_policy(), rng(9)
        while True:
            traj = sample_rollout(policy, env, 0, r)
            if not traj.is_tool_using():
                break
        # No tool call, and a tool call whose think step chose no tool intent.
        for source in (traj, tool_traj(think_action=NO_TOOL)):
            with pytest.raises(NotToolUsing):
                sample_continuation(policy, env, source, r)


class TestLayoutPositions:
    @pytest.mark.parametrize("env_spec", ["gap-env", "mini", "wide"], indirect=True)
    def test_rollouts_and_continuations(self, env_spec):
        """Every sampled trajectory has the one layout, round-trips through its
        record, and has a decision node at every step but the marker and the
        observation, with the log-probability it was drawn with."""
        env = ToolEnv(env_spec)
        policy = forced = env.initial_policy()
        for q in range(env.num_questions):
            forced = one_hot_policy(forced, forced.shape.think(q), 1 + q % env_spec.intents_per_question)
        r = rng(16)
        sampled = []
        for q in range(env.num_questions):
            sampled += [(policy, sample_rollout(policy, env, q, r)) for _ in range(3)]
            source = sample_rollout(forced, env, q, r)
            sampled += [(forced, sample_continuation(forced, env, source, r)) for _ in range(2)]
        assert {t.is_tool_using() for _, t in sampled} == {True, False}
        for sampler, traj in sampled:
            assert deserialize(serialize(traj)) == traj
            steps, nodes = traj.steps, decision_nodes(sampler.shape, traj)
            n = len(steps)
            if traj.is_tool_using():
                assert n == PREFIX_STEPS + env_spec.call_steps + 2
                assert [i for i, node in enumerate(nodes) if node is None] == [1, n - 2]
                assert (steps[1].segment, steps[-2].segment) == (
                    Segment.TOOL_CALL, Segment.OBSERVATION
                )
            else:
                assert n == 2 and None not in nodes
            for step, node in zip(steps, nodes):
                if node is not None:
                    assert step.logp_old == sampler.logp[node][step.action_id]


# Rows wider than 8 take numpy's unrolled summation path; two call steps per intent.
def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


class TestDecisionTable:
    @pytest.mark.parametrize("temperature", [0.7, 1.3])
    @pytest.mark.parametrize("env_spec", ["gap-env", "mini", "wide"], indirect=True)
    def test_matches_per_node_sampling_bit_for_bit(self, env_spec, temperature):
        # The golden digests hold only while the policy's vectors equal the per-node
        # computation exactly; a numpy or SIMD change that moves one bit fails here.
        env = ToolEnv(env_spec)

        def jitter(logits):
            logits += rng(14).normal(0.0, 1.5, logits.shape)

        policy = edited(env.initial_policy(temperature), jitter)
        draws, twin = rng(15), rng(15)
        for node in all_nodes(policy.shape):
            p = node_softmax(policy, node)
            q = p / p.sum()
            cdf = q.cumsum()
            cdf /= cdf[-1]
            z = policy.logits[node] / temperature
            z = z - np.max(z)
            logp = [z[a] - np.log(np.sum(np.exp(z))) for a in range(len(z))]
            assert _bits(policy.probs(node)) == _bits(p), node
            assert _bits(policy.pi[node]) == _bits(p), node
            assert _bits(policy.cdf[node]) == _bits(cdf), node
            assert _bits(policy.logp[node]) == _bits(logp), node
            for _ in range(3):
                action, action_logp = policy.draw(node, draws)
                assert action == int(twin.choice(len(p), p=q)), node
                assert _bits(action_logp) == _bits(logp[action]), node

    def test_is_a_read_only_value(self):
        """Nothing written after construction reaches the logits or the
        distributions: the constructor copies the caller's array, and the
        policy's own vectors refuse writes."""
        env = controlled_env()
        logits = env.initial_policy().logits.copy()
        policy = TabularPolicy(env.policy_shape(), logits)
        node = policy.shape.think(0)
        vectors = (policy.logits, policy.pi, policy.cdf, policy.logp)
        before = [_bits(v) for v in vectors]
        draws = [policy.draw(node, rng(17)) for _ in range(8)]
        logits[node] = [0.0, 500.0, 0.0]
        for vector in (*vectors, policy.probs(node)):
            with pytest.raises(ValueError, match="read-only"):
                vector[node.start] = 1.0
        assert [_bits(v) for v in vectors] == before
        assert [policy.draw(node, rng(17)) for _ in range(8)] == draws


class TestConfidence:
    def test_single_step(self):
        from conftest import tool_traj

        traj = tool_traj(args=((0, 0.3),))
        assert abs(confidence(traj) - 0.3) < 1e-12

    def test_mean_of_two_steps(self):
        from conftest import tool_traj

        traj = tool_traj(args=((0, 0.2), (1, 0.6)))
        assert abs(confidence(traj) - 0.4) < 1e-12

    def test_one_hot_policy_is_one(self):
        env = controlled_env()
        policy = zeros_policy(env.policy_shape())
        policy = one_hot_policy(policy, policy.shape.think(0), 1)
        policy = one_hot_policy(policy, policy.shape.call(0, 0, 0), 1)
        traj = sample_rollout(policy, env, 0, rng(11))
        assert confidence(traj) == pytest.approx(1.0, abs=1e-12)

    def test_requires_tool_use(self):
        from conftest import plain_traj

        with pytest.raises(NotToolUsing):
            confidence(plain_traj())


class TestPolicy:
    def test_probabilities_normalize_after_updates(self):
        env = controlled_env()
        policy = env.initial_policy()
        r = rng(12)

        def jitter(logits):
            think = policy.shape.split(logits)[0]
            think += r.normal(0, 1, think.shape)

        for _ in range(20):
            policy = edited(policy, jitter)
            for q in range(env.num_questions):
                assert abs(policy.probs(policy.shape.think(q)).sum() - 1.0) < 1e-12

    def test_initial_tool_rate(self):
        env = make_env("gap-env", seed=0)
        policy = env.initial_policy()
        for q in (0, 77, 199):
            assert abs(tool_attempt_prob(policy, q) - 0.3) < 1e-12

    def test_temperature_scaling(self):
        env = controlled_env()
        cold = env.initial_policy(temperature=0.5)
        assert abs(tool_attempt_prob(cold, 0) - 0.3) < 1e-12

    def test_checkpoint_bit_exact(self, tmp_path):
        env = controlled_env()

        def jitter(logits):
            call = env.policy_shape().split(logits)[1]
            call += rng(13).normal(0, 1, call.shape)

        policy = edited(env.initial_policy(), jitter)
        path = tmp_path / "p.json"
        save_policy(policy, path, step=7)
        back, step = load_policy(path)
        assert step == 7
        assert np.array_equal(back.logits, policy.logits)

    def test_checkpoint_with_transposed_table_rejected(self, tmp_path):
        env = controlled_env(intents=2, variants=3)
        path = tmp_path / "p.json"
        save_policy(env.initial_policy(), path)
        obj = json.loads(path.read_text())
        # (questions, intents, call steps, variants) -> (questions, variants, call steps, intents):
        # the same number of logits, so only a per-table shape check catches it.
        obj["call_logits"] = np.array(obj["call_logits"]).transpose(0, 3, 2, 1).tolist()
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match="call_logits"):
            load_policy(path)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(shape=st.builds(PolicyShape, *[st.integers(1, 4)] * 5))
def test_node_slices_tile_the_logits(shape):
    """think, call and answer slices cover 0..size once each, in table order,
    and each is its row of the split views."""
    flat = np.arange(shape.size)
    nodes = all_nodes(shape)
    assert np.array_equal(np.concatenate([flat[node] for node in nodes]), flat)
    think, call, answer = shape.split(flat)
    for q in range(shape.num_questions):
        assert np.array_equal(flat[shape.think(q)], think[q])
        assert np.array_equal(flat[shape.answer(q)], answer[q])
        for intent, j in np.ndindex(shape.num_intents, shape.call_steps):
            assert np.array_equal(flat[shape.call(q, intent, j)], call[q, intent, j])


class TestEnvSpec:
    def test_tool_necessary_questions_have_reachable_success(self):
        env = make_env("gap-env", seed=3)
        necessary = np.nonzero(env.tool_necessary)[0]
        assert len(necessary) == 120
        assert (env.p_think[necessary] == 0.0).all()
        for q in necessary:
            assert env.p_variant[q].max() > 0.0

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            EnvSpec(
                num_questions=4,
                tool_necessary_fraction=1.5,
                intents_per_question=1,
                variants_per_intent=1,
            )

    def test_same_seed_same_tables(self):
        a = make_env("mini", seed=4)
        b = make_env("mini", seed=4)
        assert np.array_equal(a.p_variant, b.p_variant)
        assert np.array_equal(a.p_think, b.p_think)
