import json
import math

import numpy as np
import pytest

from axpo.env import (
    EnvSpec,
    InvalidPrefix,
    ToolEnv,
    gap_env_spec,
    make_env,
    mini_env_spec,
    prefix_intent,
    sample_continuation,
    sample_rollout,
)
from axpo.policy import (
    NO_TOOL,
    DecisionTable,
    PolicyShape,
    TabularPolicy,
    confidence,
    decision_contexts,
    exact_kl,
    load_policy,
    save_policy,
)
from axpo.trajectory import NotToolUsing, Segment, first_tool_prefix

from conftest import one_hot_policy, rng


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
        policy = TabularPolicy.zeros(env.policy_shape())
        one_hot_policy(policy, ("think", 0), NO_TOOL)
        traj = sample_rollout(DecisionTable(policy), env, 0, rng(1))
        assert [s.segment for s in traj.steps] == [Segment.THINK, Segment.ANSWER]
        assert traj.reward == 1

    def test_tool_path_zero_success(self):
        env = controlled_env()
        env.p_variant[0] = 0.0
        policy = TabularPolicy.zeros(env.policy_shape())
        one_hot_policy(policy, ("think", 0), 1)
        one_hot_policy(policy, ("call", 0, 0, 0), 1)
        traj = sample_rollout(DecisionTable(policy), env, 0, rng(2))
        assert traj.is_tool_using()
        assert traj.reward == 0

    def test_tool_use_fraction_matches_node_mass(self):
        env = controlled_env()
        policy = env.initial_policy()
        table, r = DecisionTable(policy), rng(3)
        used = sum(sample_rollout(table, env, 0, r).is_tool_using() for _ in range(10_000))
        assert abs(used / 10_000 - policy.tool_attempt_prob(0)) < 0.02

    def test_logp_old_matches_sampling_policy(self):
        env = controlled_env()
        policy = env.initial_policy()
        table = DecisionTable(policy)
        traj = sample_rollout(table, env, 1, rng(4))
        for step, pair in zip(traj.steps, decision_contexts(traj)):
            if pair is not None:
                ctx, action = pair
                assert step.logp_old == table.logp[table.nodes[ctx]][action]

    def test_product_law_correct_and_tool_using(self):
        env = controlled_env(seed=5)
        policy = env.initial_policy()
        qid = 0
        think = policy.probs(("think", qid))
        expected = sum(
            think[1 + intent] * env.prefix_success_prob(policy, qid, intent)
            for intent in range(env.spec.intents_per_question)
        )
        trials = 30_000
        table, r = DecisionTable(policy), rng(5)
        hits = 0
        for _ in range(trials):
            t = sample_rollout(table, env, qid, r)
            hits += int(t.is_tool_using() and t.reward == 1)
        se = math.sqrt(max(expected * (1 - expected), 1e-9) / trials)
        assert abs(hits / trials - expected) < 3 * se


class TestSampleContinuation:
    def test_shared_prefix_property(self):
        env = controlled_env()
        policy = env.initial_policy()
        r = rng(6)
        forced = DecisionTable(one_hot_policy(policy.copy(), ("think", 0), 1))
        prefix = first_tool_prefix(sample_rollout(forced, env, 0, r))
        table = DecisionTable(policy)
        for _ in range(16):
            cont = sample_continuation(table, env, prefix, r)
            assert cont.steps[: prefix.cut_index + 1] == prefix.steps
            assert cont.is_tool_using()

    def test_single_certain_variant(self):
        env = controlled_env(variants=1)
        env.p_variant[0, 0, 0] = 1.0
        policy = env.initial_policy()
        forced = DecisionTable(one_hot_policy(policy.copy(), ("think", 0), 1))
        table, r = DecisionTable(policy), rng(7)
        prefix = first_tool_prefix(sample_rollout(forced, env, 0, r))
        assert all(sample_continuation(table, env, prefix, r).reward == 1 for _ in range(20))

    def test_two_variant_success_rate(self):
        env = controlled_env(variants=2)
        env.p_variant[0, 0] = [0.0, 0.5]
        policy = TabularPolicy.zeros(env.policy_shape())
        one_hot_policy(policy, ("think", 0), 1)
        table, r = DecisionTable(policy), rng(8)
        prefix = first_tool_prefix(sample_rollout(table, env, 0, r))
        trials = 10_000
        wins = sum(sample_continuation(table, env, prefix, r).reward for _ in range(trials))
        assert abs(wins / trials - 0.25) < 3 * math.sqrt(0.25 * 0.75 / trials)

    def test_invalid_prefix_rejected(self):
        env = controlled_env()
        table, r = DecisionTable(env.initial_policy()), rng(9)
        while True:
            traj = sample_rollout(table, env, 0, r)
            if not traj.is_tool_using():
                break
        from axpo.trajectory import Prefix

        with pytest.raises(InvalidPrefix):
            prefix_intent(Prefix(source=traj, cut_index=0))


# Rows wider than 8 take numpy's unrolled summation path; two call steps per intent.
WIDE_SPEC = EnvSpec(
    num_questions=6,
    tool_necessary_fraction=0.5,
    intents_per_question=11,
    variants_per_intent=17,
    call_steps=2,
    num_answers=9,
    seed=1,
)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


class TestDecisionTable:
    @pytest.mark.parametrize("temperature", [0.7, 1.3])
    @pytest.mark.parametrize(
        "spec", [gap_env_spec(), mini_env_spec(), WIDE_SPEC], ids=["gap-env", "mini", "wide"]
    )
    def test_matches_per_node_sampling_bit_for_bit(self, spec, temperature):
        # The golden digests hold only while the table equals the per-node
        # computation exactly; a numpy or SIMD change that moves one bit fails here.
        env = ToolEnv(spec)
        policy = env.initial_policy(temperature)
        policy.logits += rng(14).normal(0.0, 1.5, policy.logits.shape)
        table = DecisionTable(policy)
        draws, twin = rng(15), rng(15)
        for ctx, node in policy.nodes.items():
            p = policy.probs(ctx)
            q = p / p.sum()
            cdf = q.cumsum()
            cdf /= cdf[-1]
            z = policy.logits[node] / temperature
            z = z - np.max(z)
            logp = [z[a] - np.log(np.sum(np.exp(z))) for a in range(len(z))]
            assert _bits(table.probs[node]) == _bits(p), ctx
            assert _bits(table.cdf[node]) == _bits(cdf), ctx
            assert _bits(table.logp[node]) == _bits(logp), ctx
            for _ in range(3):
                action, action_logp = table.draw(ctx, draws)
                assert action == int(twin.choice(len(p), p=q)), ctx
                assert _bits(action_logp) == _bits(logp[action]), ctx

    def test_is_a_snapshot_of_the_logits(self):
        env = controlled_env()
        policy = env.initial_policy()
        before = DecisionTable(policy)
        one_hot_policy(policy, ("think", 0), 1)
        assert DecisionTable(policy).probs[policy.nodes[("think", 0)]][1] == 1.0
        assert before.probs[policy.nodes[("think", 0)]][1] < 1.0


class TestExactKL:
    def test_identical_is_zero(self):
        env = controlled_env()
        policy = env.initial_policy()
        assert exact_kl(policy, policy, ("think", 0)) == 0.0

    def test_half_half_vs_quarter(self):
        shape = PolicyShape(1, 1, 1, 2, 2)
        p = TabularPolicy.zeros(shape)
        q = TabularPolicy.zeros(shape)
        q.think_logits[0] = [math.log(0.25), math.log(0.75)]
        expected = 0.5 * math.log(2) + 0.5 * math.log(2 / 3)
        got = exact_kl(p, q, ("think", 0))
        assert abs(got - expected) < 1e-12
        assert abs(got - 0.14384) < 1e-5

    def test_nonnegative_on_random_pairs(self):
        shape = PolicyShape(1, 2, 1, 3, 4)
        r = rng(10)
        for _ in range(1_000):
            a = TabularPolicy.zeros(shape)
            b = TabularPolicy.zeros(shape)
            a.answer_logits[:] = r.normal(0, 2, a.answer_logits.shape)
            b.answer_logits[:] = r.normal(0, 2, b.answer_logits.shape)
            assert exact_kl(a, b, ("answer", 0)) >= 0.0


class TestConfidence:
    def test_single_step(self):
        from conftest import tool_traj

        traj = tool_traj(args=((0, 0.3),))
        assert abs(confidence(traj, first_tool_prefix(traj)) - 0.3) < 1e-12

    def test_mean_of_two_steps(self):
        from conftest import tool_traj

        traj = tool_traj(args=((0, 0.2), (1, 0.6)))
        assert abs(confidence(traj, first_tool_prefix(traj)) - 0.4) < 1e-12

    def test_one_hot_policy_is_one(self):
        env = controlled_env()
        policy = TabularPolicy.zeros(env.policy_shape())
        one_hot_policy(policy, ("think", 0), 1)
        one_hot_policy(policy, ("call", 0, 0, 0), 1)
        traj = sample_rollout(DecisionTable(policy), env, 0, rng(11))
        assert confidence(traj, first_tool_prefix(traj)) == pytest.approx(1.0, abs=1e-12)

    def test_requires_tool_use(self):
        from conftest import plain_traj

        with pytest.raises(NotToolUsing):
            confidence(plain_traj(), None)


class TestPolicy:
    def test_probabilities_normalize_after_updates(self):
        env = controlled_env()
        policy = env.initial_policy()
        r = rng(12)
        for _ in range(20):
            policy.think_logits += r.normal(0, 1, policy.think_logits.shape)
            for q in range(env.num_questions):
                assert abs(policy.probs(("think", q)).sum() - 1.0) < 1e-12

    def test_initial_tool_rate(self):
        env = make_env("gap-env", seed=0)
        policy = env.initial_policy()
        for q in (0, 77, 199):
            assert abs(policy.tool_attempt_prob(q) - 0.3) < 1e-12

    def test_temperature_scaling(self):
        env = controlled_env()
        cold = env.initial_policy(temperature=0.5)
        assert abs(cold.tool_attempt_prob(0) - 0.3) < 1e-12

    def test_checkpoint_bit_exact(self, tmp_path):
        env = controlled_env()
        policy = env.initial_policy()
        policy.call_logits += rng(13).normal(0, 1, policy.call_logits.shape)
        path = tmp_path / "p.json"
        save_policy(policy, path, step=7)
        back, step = load_policy(path)
        assert step == 7
        assert np.array_equal(back.think_logits, policy.think_logits)
        assert np.array_equal(back.call_logits, policy.call_logits)
        assert np.array_equal(back.answer_logits, policy.answer_logits)

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

    def test_node_table_partitions_the_logits(self):
        shape = PolicyShape(3, 2, 2, 4, 5)
        policy = TabularPolicy.zeros(shape)
        policy.logits[:] = np.arange(shape.size)
        covered = np.concatenate([policy.logits[s] for s in policy.nodes.values()])
        assert sorted(covered) == list(range(shape.size))
        for q in range(3):
            assert np.array_equal(policy.logits[policy.nodes[("think", q)]], policy.think_logits[q])
            assert np.array_equal(policy.logits[policy.nodes[("answer", q)]], policy.answer_logits[q])
            for intent in range(2):
                for j in range(2):
                    row = policy.logits[policy.nodes[("call", q, intent, j)]]
                    assert np.array_equal(row, policy.call_logits[q, intent, j])


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
