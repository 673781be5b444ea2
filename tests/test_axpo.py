import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from axpo.advantage import (
    ObjectiveConfig,
    _evaluate,
    apply_update,
    grpo_advantage,
    policy_gradient,
    surrogate_objective,
)
from axpo.config import RunConfig
from axpo.env import ENV_PRESETS, ToolEnv, draw_rollouts
from axpo.harness import (
    _PHASE_QUESTIONS,
    _PHASE_RESAMPLE,
    _PHASE_ROLLOUT,
    build_batch,
    phase_rng,
    train_step,
)
from axpo.policy import TabularPolicy
from axpo.resample import (
    Candidate,
    ConflictingAssignment,
    SourceNotInGroup,
    allocate_budget,
    assemble_step_losses,
    detect_trigger,
    prefix_advantage,
    rank_candidates,
    recovery_indicator,
)
from axpo.trajectory import PREFIX_STEPS

import conftest
from conftest import (
    WIDE_SPEC,
    drawn_resample,
    edited,
    mini_env,
    plain_traj,
    reference_grpo_advantage,
    rng,
    table_of,
    tool_traj,
    written_lines,
)


def _triggered(*trajs) -> bool:
    """detect_trigger of one group of hand-built rollouts."""
    (flag,) = detect_trigger(table_of(trajs), len(trajs))
    return bool(flag)


class TestDetectTrigger:
    def test_mixed_group_triggers_despite_no_tool_success(self):
        assert _triggered(tool_traj(reward=0), tool_traj(reward=0), plain_traj(reward=1),
                          plain_traj(reward=0)) is True

    def test_no_tool_subgroup_does_not_trigger(self):
        assert _triggered(plain_traj(reward=1), plain_traj(reward=0)) is False

    def test_tool_success_blocks_trigger(self):
        assert _triggered(tool_traj(reward=1), tool_traj(reward=0)) is False


def _ranked(*trajs) -> list[Candidate]:
    """The candidates of one triggered group of hand-built rollouts."""
    table, n = table_of(trajs), len(trajs)
    triggered = detect_trigger(table, n)
    assert triggered.tolist() == [True]
    return rank_candidates(table, n, triggered)[0]


class TestRankCandidates:
    def test_ascending_confidence(self):
        # Distinct intents so the prefixes are distinct; confidences 0.9, 0.3, 0.6.
        cands = _ranked(
            tool_traj(think_action=1, args=((0, 0.9),)),
            tool_traj(think_action=2, args=((0, 0.3),)),
            tool_traj(think_action=3, args=((0, 0.6),)),
        )
        assert [c.source_index for c in cands] == [1, 2, 0]

    def test_single_candidate(self):
        cands = _ranked(tool_traj())
        assert len(cands) == 1 and cands[0].source_index == 0

    def test_tie_breaks_by_lower_index(self):
        cands = _ranked(
            plain_traj(),
            tool_traj(think_action=2, args=((0, 0.5),)),
            plain_traj(),
            tool_traj(think_action=3, args=((1, 0.5),)),
        )
        assert [c.source_index for c in cands] == [1, 3]

    def test_duplicate_prefixes_deduplicated_keeping_lowest_index(self):
        cands = _ranked(
            tool_traj(think_action=1, args=((0, 0.8),)),
            tool_traj(think_action=1, args=((1, 0.2),)),
        )
        assert len(cands) == 1
        assert cands[0].source_index == 0

    def test_candidates_carry_their_group(self):
        # Groups 0-2 hold no tool call; group 3, of question 7, triggers.
        table = table_of([*(plain_traj(qid=q) for q in (0, 0, 1, 1, 2, 2)),
                          tool_traj(qid=7, think_action=1), tool_traj(qid=7, think_action=2)])
        ranked = rank_candidates(table, 2, detect_trigger(table, 2))
        assert list(ranked) == [3]
        rows = [c.group_index * 2 + c.source_index for c in ranked[3]]
        assert [(c.group_index, table.question[row]) for c, row in zip(ranked[3], rows)] == [
            (3, 7), (3, 7)
        ]

    def test_mixed_group_ranks_only_tool_using_indices(self):
        # A no-tool success does not block the trigger, and yields no candidate.
        cands = _ranked(
            tool_traj(think_action=1), plain_traj(reward=1),
            tool_traj(think_action=2), plain_traj(), tool_traj(think_action=3),
        )
        assert sorted(c.source_index for c in cands) == [0, 2, 4]

    def test_group_without_tool_use_has_no_candidates(self):
        table = table_of([plain_traj() for _ in range(3)])
        assert detect_trigger(table, 3).tolist() == [False]
        assert rank_candidates(table, 3, np.array([True])) == {}


def _candidate(conf: float, idx: int = 0, group_index: int = 0) -> Candidate:
    return Candidate(group_index=group_index, source_index=idx, confidence=conf)


def _fake_triggered(group_index: int, confs: list[float]) -> list[Candidate]:
    """A triggered question's ranked candidates, with the given confidences."""
    return [_candidate(c, i, group_index) for i, c in enumerate(confs)]


class TestAllocateBudget:
    def test_six_questions_cap_sixteen(self):
        confs = [0.5, 0.2, 0.9, 0.1, 0.7, 0.4]
        triggered = [_fake_triggered(i, [c]) for i, c in enumerate(confs)]
        plan = allocate_budget(triggered, continuations_per_prefix=4, cap=16)
        assert len(plan.selected) == 4
        assert [s.group_index for s in plan.selected] == [3, 1, 5, 0]
        assert all(s.confidence <= 0.5 for s in plan.selected)

    def test_cap_zero_empty_plan(self):
        triggered = [_fake_triggered(0, [0.5])]
        plan = allocate_budget(triggered, continuations_per_prefix=4, cap=0)
        assert plan.selected == ()
        assert len(plan.selected) * plan.continuations_per_prefix == 0

    def test_second_round_after_first(self):
        triggered = [_fake_triggered(0, [0.3, 0.6]), _fake_triggered(1, [0.2, 0.9])]
        plan = allocate_budget(triggered, continuations_per_prefix=4, cap=16)
        assert len(plan.selected) == 4
        assert [(s.group_index, s.confidence) for s in plan.selected] == [
            (1, 0.2),
            (0, 0.3),
            (0, 0.6),
            (1, 0.9),
        ]

    def test_partial_prefix_not_selected(self):
        triggered = [_fake_triggered(0, [0.3]), _fake_triggered(1, [0.5])]
        plan = allocate_budget(triggered, continuations_per_prefix=4, cap=7)
        assert len(plan.selected) == 1  # second prefix would need 8 continuations total

    def test_breadth_first_property_random(self):
        r = rng(40)
        for _ in range(300):
            n_groups = int(r.integers(1, 6))
            triggered = [
                _fake_triggered(i, list(r.uniform(0.05, 0.95, size=int(r.integers(1, 4)))))
                for i in range(n_groups)
            ]
            k = int(r.integers(2, 5))
            cap = int(r.integers(0, 30))
            plan = allocate_budget(triggered, continuations_per_prefix=k, cap=cap)
            assert len(plan.selected) * plan.continuations_per_prefix <= cap
            counts = {i: 0 for i in range(n_groups)}
            for s in plan.selected:
                counts[s.group_index] += 1
            if plan.selected:
                max_count = max(counts.values())
                with_remaining = [
                    counts[i] for i, cands in enumerate(triggered)
                    if counts[i] < len(cands)
                ]
                for c in with_remaining:
                    assert c >= max_count - 1

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        groups=st.lists(
            st.lists(
                st.one_of(st.sampled_from([0.2, 0.5, 0.8]), st.floats(0.01, 1.0)),
                min_size=1, max_size=4,
            ).map(sorted),
            min_size=1, max_size=6,
        ),
        k=st.integers(1, 6),
        cap=st.integers(0, 40),
    )
    def test_allocation_invariants(self, groups, k, cap):
        # groups[i] holds question i's candidate confidences in rank order; the
        # sampled_from branch makes ties across questions common.
        triggered = [_fake_triggered(i, confs) for i, confs in enumerate(groups)]
        plan = allocate_budget(triggered, continuations_per_prefix=k, cap=cap)
        # Never over the cap, every selected prefix gets its full K, and no
        # further prefix would have fit.
        assert plan.continuations_per_prefix == k
        assert len(plan.selected) * k <= cap
        assert len(plan.selected) == min(cap // k, sum(map(len, groups)))
        counts = [0] * len(groups)
        last_key = None
        for sel in plan.selected:
            g = sel.group_index
            round_ = counts[g]
            # Breadth-first: the chosen question has the fewest prefixes among
            # the questions with a candidate left, and gets its next-ranked one.
            assert round_ == min(c for c, confs in zip(counts, groups) if c < len(confs))
            cand = triggered[g][round_]
            assert (sel.source_index, sel.confidence) == (cand.source_index, cand.confidence)
            # Rounds in order; within a round, ascending confidence, ties by group order.
            key = (round_, sel.confidence, g)
            assert last_key is None or key > last_key
            last_key = key
            counts[g] += 1


class TestContinuationAdvantages:
    def test_zero_variance(self):
        assert grpo_advantage([0, 0, 0, 0]) == [0.0] * 4

    def test_one_in_four(self):
        root3 = math.sqrt(3)
        assert grpo_advantage([1, 0, 0, 0]) == pytest.approx(
            [root3, -1 / root3, -1 / root3, -1 / root3], abs=1e-12
        )

    def test_two_in_four(self):
        assert grpo_advantage([1, 1, 0, 0]) == pytest.approx(
            [1.0, 1.0, -1.0, -1.0], abs=1e-12
        )


class TestRecoveryIndicator:
    def test_values(self):
        assert recovery_indicator([0, 0, 1, 0]) == 1
        assert recovery_indicator([0, 0, 0, 0]) == 0
        assert recovery_indicator([1, 1, 1, 1]) == 1


class TestPrefixAdvantage:
    def test_substitution(self):
        assert prefix_advantage([0, 1, 0, 0], 0, 1) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_zero(self):
        assert prefix_advantage([0, 0, 0, 0], 0, 0) == 0.0

    def test_all_zero_group_with_recovery(self):
        assert prefix_advantage([0, 0, 0, 0], 0, 1) == pytest.approx(math.sqrt(3), abs=1e-12)

    def test_out_of_range_source(self):
        with pytest.raises(SourceNotInGroup):
            prefix_advantage([0, 0], 5, 1)

    def test_monotone_in_recovery(self):
        r = rng(41)
        for _ in range(200):
            rewards = list(r.integers(0, 2, size=8))
            src = int(r.integers(0, 8))
            rewards[src] = 0
            hi = prefix_advantage(rewards, src, 1)
            lo = prefix_advantage(rewards, src, 0)
            with_one = rewards.copy()
            with_one[src] = 1
            if len(set(with_one)) > 1:  # non-degenerate after substitution
                assert hi > lo

    def test_rows_equal_the_reference_one_group_at_a_time(self):
        """Over (B, N) groups, each with its own source and recovery, every credit is the
        reference normalization's of its substituted group, bit for bit; the groups are
        left as they were."""
        r = rng(42)
        groups, sources, recovery = (r.integers(0, 2, size=(50, 6)), r.integers(0, 6, size=50),
                                     r.integers(0, 2, size=50))
        before = groups.copy()
        got = prefix_advantage(groups, sources, recovery)
        want = []
        for group, src, rec in zip(groups.tolist(), sources.tolist(), recovery.tolist()):
            group[src] = rec
            want.append(reference_grpo_advantage(group)[src])
        assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64))
        assert np.array_equal(groups, before)
        with pytest.raises(SourceNotInGroup):
            prefix_advantage(groups, np.r_[sources[:-1], 6], recovery)


def _all_wrong_setup(mini_env, seed):
    """A policy and a rollout table of 4 rollouts per question, with triggers common."""

    def favour_tools(logits):
        think = mini_env.policy_shape().split(logits)[0]
        think[:, 0] -= 1.0  # push tool rate up so triggers are common

    policy = edited(mini_env.initial_policy(), favour_tools)
    r = rng(42, seed)
    qids = np.repeat(np.arange(mini_env.num_questions), 4)
    return policy, draw_rollouts(policy, mini_env, qids, r), r


def _first_plan(table, cap, k=4):
    triggered = rank_candidates(table, 4, detect_trigger(table, 4))
    if not triggered:
        return None
    return allocate_budget(triggered.values(), continuations_per_prefix=k, cap=cap)


class TestResample:
    def test_certain_prefix_recovers(self, mini_env):
        policy, table, r = _all_wrong_setup(mini_env, 1)
        mini_env.p_variant[:] = 1.0
        plan = _first_plan(table, cap=4)
        if plan is None:
            pytest.skip("no trigger at this seed")
        results, continuations = drawn_resample(plan, table, 4, policy, mini_env, r)
        assert continuations.reward[results[0].continuations].tolist() == [1, 1, 1, 1]
        assert results[0].recovery == 1

    def test_impossible_prefix_never_recovers(self, mini_env):
        policy, table, r = _all_wrong_setup(mini_env, 2)
        mini_env.p_variant[:] = 0.0
        plan = _first_plan(table, cap=4)
        if plan is None:
            pytest.skip("no trigger at this seed")
        results, continuations = drawn_resample(plan, table, 4, policy, mini_env, r)
        assert continuations.reward[results[0].continuations].tolist() == [0, 0, 0, 0]
        assert results[0].recovery == 0

    def test_recovery_frequency_half_success(self, mini_env):
        policy, table, r = _all_wrong_setup(mini_env, 3)
        mini_env.p_variant[:] = 0.5
        plan = _first_plan(table, cap=4)
        if plan is None:
            pytest.skip("no trigger at this seed")
        trials = 10_000
        hits = sum(drawn_resample(plan, table, 4, policy, mini_env, r)[0][0].recovery
                   for _ in range(trials))
        expected = 1 - 0.5**4
        se = math.sqrt(expected * (1 - expected) / trials)
        assert abs(hits / trials - expected) < 3 * se

    def test_shared_prefix_in_continuations(self, mini_env):
        policy, table, r = _all_wrong_setup(mini_env, 4)
        plan = _first_plan(table, cap=8)
        if plan is None:
            pytest.skip("no trigger at this seed")
        results, continuations = drawn_resample(plan, table, 4, policy, mini_env, r)
        drawn, rollouts = continuations.trajectories(), table.trajectories()
        for result in results:
            source = rollouts[result.selected.group_index * 4 + result.selected.source_index]
            for i in result.continuations:
                assert drawn[i].steps[:PREFIX_STEPS] == source.steps[:PREFIX_STEPS]


def _assembled(mini_env, seed, cap=4, repeat=1):
    """A rollout table, its continuation table under the first plan and the
    items assemble_step_losses builds of them; None when nothing triggers."""
    policy, table, r = _all_wrong_setup(mini_env, seed)
    plan = _first_plan(table, cap=cap)
    if plan is None:
        pytest.skip("no trigger at this seed")
    results, continuations = drawn_resample(plan, table, 4, policy, mini_env, r)
    return policy, table, results, continuations, assemble_step_losses(
        table, continuations, 4, results * repeat
    )


class TestAssemble:
    def test_empty_resample_set_degenerates_to_standard(self, mini_env):
        policy, table, r = _all_wrong_setup(mini_env, 5)
        _, empty = drawn_resample(allocate_budget([], 4, 0), table, 4, policy, mini_env, r)
        items = assemble_step_losses(table, empty, 4, [])
        assert all(i.provenance == "standard" for i in items)
        assert len(items) == len(table)
        drawn = table.trajectories()
        for i, item in enumerate(items):
            advs = grpo_advantage(table.reward[i - i % 4 : i - i % 4 + 4].tolist())
            assert item.trajectory == drawn[i]
            assert (item.advantages == advs[i % 4]).all()
            assert (item.active == np.array([s.mask for s in drawn[i].steps])).all()

    def test_streams_and_masking(self, mini_env):
        _, table, results, _, items = _assembled(mini_env, 6)
        prefix_items = [i for i in items if i.provenance == "prefix-credit"]
        cont_items = [i for i in items if i.provenance == "continuation"]
        assert len(prefix_items) == 1 and len(cont_items) == 4
        sel = results[0].selected
        src_item = prefix_items[0]
        assert src_item is items[sel.group_index * 4 + sel.source_index]
        assert src_item.trajectory == table.trajectories()[sel.group_index * 4 + sel.source_index]
        assert not src_item.active[PREFIX_STEPS:].any()  # source continuation dropped
        for ci in cont_items:
            assert not ci.active[:PREFIX_STEPS].any()  # shared prefix masked

    def test_items_are_writable_views_of_one_step_table(self, mini_env):
        """Each item equals the reference's item of its trajectory, advantage and
        provenance, and its arrays are writable views of one advantage array and
        one active mask; its trajectory is built once and kept."""
        _, _, _, _, items = _assembled(mini_env, 6)
        for item in items:
            (alone,) = conftest.loss_items([(item.trajectory, item.advantages[0], item.provenance)])
            assert item.advantages.tobytes() == alone.advantages.tobytes()
            assert item.active.tolist() == alone.active.tolist()
            assert item.trajectory is item.trajectory
        for name in ("advantages", "active"):
            arrays = [getattr(item, name) for item in items]
            assert all(a.flags.writeable for a in arrays)
            assert all(a.base is arrays[0].base is not None for a in arrays)
        items[1].advantages[0] = 99.0
        assert items[1].advantages.base[len(items[0].trajectory.steps)] == 99.0

    def test_masked_advantage_perturbation_is_inert(self, mini_env):
        policy, _, _, _, items = _assembled(mini_env, 7)
        cfg = ObjectiveConfig()
        before = surrogate_objective(items, policy, policy, cfg)
        for item in items:
            inactive = np.nonzero(~item.active)[0]
            if len(inactive):
                item.advantages[inactive[0]] += 1234.5
        after = surrogate_objective(items, policy, policy, cfg)
        assert before == after

    def test_conflicting_assignment_detected(self, mini_env):
        with pytest.raises(ConflictingAssignment):
            _assembled(mini_env, 8, repeat=2)


# The property's envs: the two presets and WIDE_SPEC, whose two call steps make
# a confidence the mean of two probabilities.
_STEP_ENVS = {name: ToolEnv(spec) for name, spec in (
    ("mini", ENV_PRESETS["mini"]()), ("gap-env", ENV_PRESETS["gap-env"]()), ("wide", WIDE_SPEC),
)}


def _confidences(triggered) -> dict:
    return {gi: [(c.group_index, c.source_index, c.confidence.hex()) for c in cands]
            for gi, cands in triggered.items()}


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    env_name=st.sampled_from(sorted(_STEP_ENVS)),
    algorithm=st.sampled_from(["axpo", "grpo"]),
    group_size=st.integers(2, 6),
    questions=st.integers(1, 6),
    k=st.integers(2, 4),
    ratio=st.sampled_from([0.0, 0.3, 0.6, 0.9]),
    temperature=st.sampled_from([0.7, 1.0, 1.6]),
    beta=st.sampled_from([0.0, 1e-3, 0.05]),
    epochs=st.integers(1, 3),
    scale=st.sampled_from([0.0, 0.5, 2.0]),
    seed=st.integers(0, 2**16),
)
def test_step_equals_the_reference(env_name, algorithm, group_size, questions, k, ratio,
                                   temperature, beta, epochs, scale, seed):
    """build_batch and train_step read the draw tables' columns; the reference
    builds groups, candidates, continuations and loss items as objects from the
    rollout table's trajectories and gathers with decision_nodes. They agree bit
    for bit: the triggered lists, the plan, the continuation table, the audit
    records, every loss item, the gradient and the updated logits."""
    env = _STEP_ENVS[env_name]
    cfg = RunConfig(
        algorithm=algorithm, env_preset="mini", group_size=group_size,
        questions_per_step=questions, resample_k=k, resample_ratio=ratio,
        temperature=temperature, beta=beta, epochs_per_batch=epochs,
    )
    shape, step, run_id = env.policy_shape(), 3, "run"
    noise = rng(60, seed).normal(0.0, 1.0, (2, shape.size))
    policy, ref_policy = (
        TabularPolicy(shape, env.initial_policy(temperature).logits + scale * n, temperature)
        for n in noise
    )
    qids = phase_rng(seed, _PHASE_QUESTIONS, step).choice(
        env.num_questions, size=questions, replace=False
    )
    batch = build_batch(policy, env, qids, cfg, phase_rng(seed, _PHASE_ROLLOUT, step),
                        phase_rng(seed, _PHASE_RESAMPLE, step), run_id, step)
    ref = conftest.reference_batch(policy, env, batch.rollouts, cfg,
                                   phase_rng(seed, _PHASE_RESAMPLE, step), run_id, step)

    assert _confidences(batch.triggered) == _confidences(ref.triggered)
    assert (batch.plan.cap, batch.plan.continuations_per_prefix) == (ref.plan.cap, k)
    assert [(s.group_index, s.source_index) for s in batch.plan.selected] == [
        (s.group_index, s.source_index) for s in ref.plan.selected
    ]
    assert batch.continuations.trajectories() == [t for r in ref.results for t in r.continuations]
    assert [r.recovery for r in batch.results] == [r.recovery for r in ref.results]
    assert len(batch.items) == len(ref.items)
    for item, expected in zip(batch.items, ref.items):
        assert item.provenance == expected.provenance
        assert item.trajectory == expected.trajectory
        assert item.advantages.tobytes() == expected.advantages.tobytes()
        assert item.active.tolist() == expected.active.tolist()
    steps = conftest.reference_gather(ref.items, shape)
    for theta in (policy, ref_policy):
        _, gradient = _evaluate(steps, theta, ref_policy, cfg.objective, want_gradient=True)
        got = policy_gradient(batch.items, theta, ref_policy, cfg.objective)
        assert got.tobytes() == gradient.tobytes()

    new_policy, tables, audit = train_step(policy, ref_policy, env, cfg, seed, step, run_id)
    expected = policy
    for _ in range(epochs):
        _, gradient = _evaluate(steps, expected, ref_policy, cfg.objective, want_gradient=True)
        expected = apply_update(expected, gradient, cfg.learning_rate)
    assert new_policy.logits.tobytes() == expected.logits.tobytes()
    assert [json.dumps(rec) for rec in audit] == [json.dumps(rec) for rec in ref.audit]
    assert [written_lines(t) for t in tables] == [
        written_lines(t) for t in (batch.rollouts, batch.continuations)
    ]
