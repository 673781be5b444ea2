import dataclasses
import json
import math
import os
import pickle
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import axpo

from axpo.env import (
    ENV_PRESETS,
    EnvSpec,
    ToolEnv,
    draw_continuations,
    draw_rollouts,
    make_env,
    sample_continuation,
    sample_rollout,
)
from axpo.policy import (
    NO_TOOL,
    PolicyShape,
    TabularPolicy,
    encode_table,
    load_policy,
    save_policy,
    softmax,
)
from axpo.trajectory import PREFIX_STEPS, NotToolUsing, Segment

from conftest import (
    WIDE_SPEC,
    all_nodes,
    confidence,
    decision_nodes,
    edited,
    node_softmax,
    one_hot_policy,
    prefix_success_prob,
    read_lines,
    reference_continuation,
    reference_rollout,
    rng,
    tool_attempt_prob,
    written_lines,
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
        # One batch draws what 10,000 single rollouts would (TestBatchSampling).
        used = int(draw_rollouts(policy, env, [0] * 10_000, r).tool_using.sum())
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
        rollouts = draw_rollouts(policy, env, [qid] * trials, r).trajectories()
        hits = sum(int(t.is_tool_using() and t.reward == 1) for t in rollouts)
        se = math.sqrt(max(expected * (1 - expected), 1e-9) / trials)
        assert abs(hits / trials - expected) < 3 * se


class TestSampleContinuation:
    def test_shared_prefix_property(self):
        env = controlled_env()
        policy = env.initial_policy()
        r = rng(6)
        forced = one_hot_policy(policy, policy.shape.think(0), 1)
        table = draw_rollouts(forced, env, [0], r)
        source = table.trajectories()[0]
        for _ in range(16):
            cont = sample_continuation(policy, env, table, 0, r)
            assert cont.steps[:PREFIX_STEPS] == source.steps[:PREFIX_STEPS]
            assert cont.is_tool_using()

    def test_single_certain_variant(self):
        env = controlled_env(variants=1)
        env.p_variant[0, 0, 0] = 1.0
        policy = env.initial_policy()
        forced = one_hot_policy(policy, policy.shape.think(0), 1)
        r = rng(7)
        table = draw_rollouts(forced, env, [0], r)
        assert all(sample_continuation(policy, env, table, 0, r).reward == 1 for _ in range(20))

    def test_two_variant_success_rate(self):
        env = controlled_env(variants=2)
        env.p_variant[0, 0] = [0.0, 0.5]
        policy = zeros_policy(env.policy_shape())
        policy = one_hot_policy(policy, policy.shape.think(0), 1)
        r = rng(8)
        table = draw_rollouts(policy, env, [0], r)
        trials = 10_000
        wins = int(draw_continuations(policy, env, table, [0] * trials, r).reward.sum())
        assert abs(wins / trials - 0.25) < 3 * math.sqrt(0.25 * 0.75 / trials)

    def test_invalid_prefix_rejected(self):
        """A source row without a tool call, or whose tool call follows think
        action 0, raises NotToolUsing before anything is drawn."""
        env = controlled_env()
        policy = env.initial_policy()
        table = draw_rollouts(policy, env, [0, 1] * 8, rng(9))
        plain, tool = (int(np.flatnonzero(table.tool_using == flag)[0]) for flag in (False, True))
        action = table.action.copy()
        action[tool, 0] = NO_TOOL
        no_intent = dataclasses.replace(table, action=action)
        for source, row in ((table, plain), (no_intent, tool)):
            for draw in (
                lambda r: sample_continuation(policy, env, source, row, r),
                lambda r: draw_continuations(policy, env, source, [tool, row], r),
            ):
                r = rng(10)
                with pytest.raises(NotToolUsing, match=f"row {row}, question"):
                    draw(r)
                assert r.bit_generator.state == rng(10).bit_generator.state
        assert len(draw_continuations(policy, env, table, [tool], rng(10))) == 1


class TestBatchSampling:
    """A batch of rollouts or continuations is the trajectories one scalar draw
    per node would give, and leaves the generator where those draws would."""

    @pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "buffered-uint32"])
    @pytest.mark.parametrize("env_spec", ["gap-env", "mini", "wide"], indirect=True)
    def test_matches_scalar_draws(self, env_spec, buffered):
        env = ToolEnv(env_spec)

        def jitter(logits):
            logits += rng(19).normal(0.0, 1.0, logits.shape)

        policy = edited(env.initial_policy(), jitter)
        batch_rng, scalar_rng = rng(20), rng(20)
        if buffered:  # leaves half of a 64-bit draw buffered for the next 32-bit one
            for g in (batch_rng, scalar_rng):
                g.choice(12, 4, replace=False)
            assert batch_rng.bit_generator.state["has_uint32"] == 1
        qids = np.repeat(rng(21).integers(0, env.num_questions, size=24), 3)

        table = draw_rollouts(policy, env, qids, batch_rng)
        rollouts = table.trajectories()
        expected = [reference_rollout(policy, env, int(q), scalar_rng) for q in qids]
        assert rollouts == expected
        tool = np.flatnonzero(table.tool_using)
        assert 0 < len(tool) < len(rollouts)

        rows = np.repeat(tool, 3)
        continuations = draw_continuations(policy, env, table, rows, batch_rng).trajectories()
        assert continuations == [
            reference_continuation(policy, env, rollouts[i], scalar_rng) for i in rows
        ]
        assert batch_rng.bit_generator.state == scalar_rng.bit_generator.state
        for dtype in (np.int32, np.int64):
            assert np.array_equal(
                batch_rng.integers(0, 1000, size=5, dtype=dtype),
                scalar_rng.integers(0, 1000, size=5, dtype=dtype),
            )

    @pytest.mark.parametrize("env_spec", ["gap-env", "mini", "wide"], indirect=True)
    def test_drawn_trajectories_keep_the_segment_grammar(self, env_spec):
        """The layout is checked where records are read (the reader's template), not
        where the env draws tables, so every table the env draws must read back."""
        env = ToolEnv(env_spec)
        shape, qids = env.policy_shape(), np.repeat(np.arange(env.num_questions), 4)
        for seed, scale in enumerate([0.0, 1.0, 4.0]):
            logits = env.initial_policy().logits + rng(30, seed).normal(0.0, scale, shape.size)
            policy = TabularPolicy(shape, logits)
            table = draw_rollouts(policy, env, qids, rng(31, seed))
            rollouts, sources = table.trajectories(), np.flatnonzero(table.tool_using)
            assert 0 < len(sources) < len(rollouts)
            conts = draw_continuations(policy, env, table, sources, rng(32, seed))
            continuations = conts.trajectories()
            for drawn, trajectories in ((table, rollouts), (conts, continuations)):
                back = read_lines(written_lines(drawn)[:-1], shape)
                assert [t for b in back for t in b.trajectories()] == trajectories

    def test_empty_batch_draws_nothing(self):
        env = controlled_env()
        draws = rng(22)
        before = draws.bit_generator.state
        empty = draw_rollouts(env.initial_policy(), env, [], draws)
        assert empty.trajectories() == []
        assert draw_continuations(env.initial_policy(), env, empty, [], draws).trajectories() == []
        assert draws.bit_generator.state == before

    def test_question_outside_the_env_rejected(self):
        env = controlled_env()
        with pytest.raises(ValueError, match=r"question ids outside \[0, 2\)"):
            draw_rollouts(env.initial_policy(), env, [0, 2], rng(23))


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
        sampled = []  # each trajectory's sampler and one-row table
        for q in range(env.num_questions):
            sampled += [(policy, draw_rollouts(policy, env, [q], r)) for _ in range(3)]
            source = draw_rollouts(forced, env, [q], r)
            sampled += [(forced, draw_continuations(forced, env, source, [0], r)) for _ in range(2)]
        sampled = [(sampler, *table.trajectories(), table) for sampler, table in sampled]
        assert {t.is_tool_using() for _, t, _ in sampled} == {True, False}
        for sampler, traj, table in sampled:
            (line, _) = written_lines(table)
            assert read_lines([line], sampler.shape)[0].trajectories() == [traj]
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
    @pytest.mark.parametrize("sharpness", [1 / 0.7, 1 / 1.3], ids=["sharp", "flat"])
    @pytest.mark.parametrize("env_spec", ["gap-env", "mini", "wide"], indirect=True)
    def test_matches_per_node_sampling_bit_for_bit(self, env_spec, sharpness):
        # The golden digests hold only while the policy's vectors equal the per-node
        # computation exactly; a numpy or SIMD change that moves one bit fails here.
        # sharpness scales the jitter, so the nodes are sharper (> 1) or flatter (< 1).
        env = ToolEnv(env_spec)

        def jitter(logits):
            logits += rng(14).normal(0.0, 1.5 * sharpness, logits.shape)

        policy = edited(env.initial_policy(), jitter)
        draws, twin = rng(15), rng(15)
        for node in all_nodes(policy.shape):
            p = node_softmax(policy, node)
            q = p / p.sum()
            cdf = q.cumsum()
            cdf /= cdf[-1]
            z = policy.logits[node]
            z = z - np.max(z)
            logp = [z[a] - np.log(np.sum(np.exp(z))) for a in range(len(z))]
            assert _bits(policy.probs(node)) == _bits(p), node
            assert _bits(policy.pi[node]) == _bits(p), node
            assert _bits(policy.cdf[node]) == _bits(cdf), node
            assert _bits(policy.logp[node]) == _bits(logp), node
            for u in draws.random(3):
                assert (policy.cdf[node] <= u).sum() == int(twin.choice(len(p), p=q)), node

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
        logits[node] = [0.0, 500.0, 0.0]
        for vector in (*vectors, policy.probs(node)):
            with pytest.raises(ValueError, match="read-only"):
                vector[node.start] = 1.0
        assert [_bits(v) for v in vectors] == before

    def test_unpickled_copy_is_an_equal_read_only_value(self):
        """A policy crosses a process pool by pickle; the copy is rebuilt by the
        constructor, so it refuses writes and equals the original bit for bit."""

        def jitter(logits):
            logits += rng(18).normal(0.0, 1.0, logits.shape)

        policy = edited(controlled_env(intents=3).initial_policy(), jitter)
        back = pickle.loads(pickle.dumps(policy))
        assert back.shape == policy.shape
        for name in ("logits", "pi", "cdf", "logp"):
            vector = getattr(back, name)
            assert _bits(vector) == _bits(getattr(policy, name)), name
            with pytest.raises(ValueError, match="read-only"):
                vector[0] = 1.0


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

    def test_softmax_is_finite_and_unchanged_under_a_large_shift(self):
        """softmax subtracts each node's max, so logits far from 0 neither overflow
        nor underflow, and adding one constant to every logit moves no probability
        beyond rounding."""
        shape = controlled_env().policy_shape()
        logits = rng(14).normal(0, 3, shape.size)
        pi, logp = softmax(shape, logits)
        for shift in (-1000.0, 1000.0):
            pi_s, logp_s = softmax(shape, logits + shift)
            assert np.isfinite(pi_s).all() and np.isfinite(logp_s).all()
            assert np.allclose(pi_s, pi, rtol=0, atol=1e-12)
            assert np.allclose(logp_s, logp, rtol=0, atol=1e-10)

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


def _json_checkpoint(policy: TabularPolicy, step: int) -> str:
    """The checkpoint as json.dumps writes it from a dict of its keys: the
    reference the writer must match."""
    obj = {"step": step, "shape": asdict(policy.shape)}
    for family, table in zip(("think", "call", "answer"), policy.shape.split(policy.logits)):
        obj[f"{family}_logits"] = table.tolist()
    return json.dumps(obj)


# mini, gap-env, and a wide spec whose call blocks are 3-D (call_steps=2).
_CHECKPOINT_SHAPES = {
    name: ToolEnv(spec).policy_shape()
    for name, spec in (
        ("mini", ENV_PRESETS["mini"]()),
        ("gap-env", ENV_PRESETS["gap-env"]()),
        ("wide", WIDE_SPEC),
    )
}
# Values whose bits and text are easy to conflate: signed zeros, the least
# subnormal, and the non-finite floats json writes as NaN and Infinity.
_EDGE_LOGITS = [0.0, -0.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf]


@st.composite
def _checkpoint_saves(draw) -> list[tuple[str, float, list[tuple[int, str, float]]]]:
    """Saves in order: a shape name, a factor the saved logits are scaled by, and
    row edits made since that shape's last save, each (flat index, kind, edge value)."""
    edit = st.tuples(
        st.integers(0, 10**6),
        st.sampled_from(["ulp", "sign", "edge"]),
        st.sampled_from(_EDGE_LOGITS),
    )
    save = st.tuples(
        st.sampled_from(sorted(_CHECKPOINT_SHAPES)),
        st.sampled_from([1.0, 2.0, 0.5]),
        st.lists(edit, max_size=8),
    )
    return draw(st.lists(save, min_size=1, max_size=8))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(saves=_checkpoint_saves())
def test_checkpoints_write_what_json_dumps_writes(saves, tmp_path_factory):
    """A run of saves across shapes and logit scales, with one-ulp, signed-zero
    and non-finite row edits between them, writes json.dumps of each
    checkpoint dict, whatever the same file held from an earlier save."""
    path = tmp_path_factory.mktemp("checkpoints") / "policy.json"
    logits = {name: rng(3).normal(0, 1, shape.size) for name, shape in _CHECKPOINT_SHAPES.items()}
    for step, (name, scale, edits) in enumerate(saves):
        flat = logits[name] = logits[name].copy()
        for index, kind, value in edits:
            i = index % flat.size
            if kind == "ulp":
                flat[i] = np.nextafter(flat[i], math.inf)
            elif kind == "sign":
                flat[i] = 0.0 if math.copysign(1.0, flat[i]) < 0 else -0.0
            else:
                flat[i] = value
        with np.errstate(all="ignore"):
            policy = TabularPolicy(_CHECKPOINT_SHAPES[name], flat * scale)
        save_policy(policy, path, step=step)
        assert path.read_text(encoding="utf-8") == _json_checkpoint(policy, step)


# Finite floats whose text is easy to get wrong: signed zeros, the least
# subnormal, the least normal, the largest float, and exponents at which repr
# switches between positional and scientific notation.
_FINITE_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                 -1.7976931348623157e308, 1e16, 9999999999999998.0, 1e-7, 1e-5, 1e22, -3e300]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    block=arrays(
        np.float64,
        array_shapes(min_dims=1, max_dims=4, min_side=0, max_side=4),
        elements=st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_FINITE_EDGES),
    )
)
@example(block=np.array([[0.0, -0.0, 0.0], [-0.0, 1.5, 1.5], [0.0, 1.5, -0.0]]))
def test_repr_of_a_finite_block_is_its_json(block):
    """save_policy encodes a table of finite logits (the think and answer tables are
    2-D, the call table 4-D) as repr of its nested list writes it, with one repr per
    distinct bit pattern; both must write what json.dumps writes, signed zeros and
    repeated values included."""
    values = block.tolist()
    assert repr(values) == json.dumps(values)
    assert encode_table(block) == json.dumps(values)


def test_checkpoint_of_a_block_that_turns_nan_and_back(tmp_path):
    """One block of a gap-env policy turns NaN, finite, infinite and finite again
    over consecutive saves; each file is json.dumps of its checkpoint dict."""
    shape, path = _CHECKPOINT_SHAPES["gap-env"], tmp_path / "policy.json"
    logits = rng(5).normal(0, 1, shape.size)
    for step, value in enumerate([0.5, math.nan, 0.25, -math.inf, -0.0]):
        logits = logits.copy()
        logits[shape.call(3, 0, 0).start] = value
        with np.errstate(all="ignore"):
            policy = TabularPolicy(shape, logits)
        save_policy(policy, path, step=step)
        assert path.read_text(encoding="utf-8") == _json_checkpoint(policy, step)


@pytest.mark.parametrize(
    "shape",
    [PolicyShape(3, 0, 2, 3, 4), PolicyShape(0, 2, 2, 3, 4), PolicyShape(2, 2, 0, 3, 4)],
    ids=["no-intents", "no-questions", "no-call-steps"],
)
def test_checkpoint_of_a_shape_with_an_empty_axis(shape, tmp_path):
    path = tmp_path / "policy.json"
    for step, logits in enumerate([rng(4).normal(0, 1, shape.size), np.full(shape.size, -0.0)]):
        policy = TabularPolicy(shape, logits)
        save_policy(policy, path, step=step)
        assert path.read_text(encoding="utf-8") == _json_checkpoint(policy, step)


def test_first_checkpoint_of_a_fresh_process(tmp_path):
    """A process that has written no checkpoint yet writes json.dumps too."""
    path = tmp_path / "policy.json"
    script = (
        "import sys; from pathlib import Path; from axpo.env import make_env;"
        "from axpo.policy import save_policy;"
        "save_policy(make_env('gap-env', seed=5).initial_policy(), Path(sys.argv[1]), step=3)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(axpo.__file__).parent.parent)}
    subprocess.run([sys.executable, "-c", script, str(path)], check=True, env=env)
    expected = _json_checkpoint(make_env("gap-env", seed=5).initial_policy(), 3)
    assert path.read_text(encoding="utf-8") == expected


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
