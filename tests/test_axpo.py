import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from axpo.advantage import ObjectiveConfig, grpo_advantage, surrogate_objective
from axpo.env import sample_rollout
from axpo.policy import DecisionTable
from axpo.resample import (
    Candidate,
    ConflictingAssignment,
    ResamplePlan,
    SelectedPrefix,
    SourceNotInGroup,
    TriggeredGroup,
    allocate_budget,
    assemble_step_losses,
    continuation_advantages,
    detect_trigger,
    prefix_advantage,
    rank_candidates,
    recovery_indicator,
    resample,
)
from axpo.trajectory import Group, first_tool_prefix

from conftest import group_of, mini_env, plain_traj, rng, tool_traj


class TestDetectTrigger:
    def test_mixed_group_triggers_despite_no_tool_success(self):
        g = group_of(tool_traj(reward=0), tool_traj(reward=0), plain_traj(reward=1), plain_traj(reward=0))
        tg = detect_trigger(g)
        assert tg is not None
        assert tg.tool_using_indices == (0, 1)

    def test_no_tool_subgroup_does_not_trigger(self):
        g = group_of(plain_traj(reward=1), plain_traj(reward=0))
        assert detect_trigger(g) is None

    def test_tool_success_blocks_trigger(self):
        g = group_of(tool_traj(reward=1), tool_traj(reward=0))
        assert detect_trigger(g) is None

    def test_triggered_group_requires_tool_indices(self):
        g = group_of(plain_traj(), plain_traj())
        with pytest.raises(ValueError):
            TriggeredGroup(group=g, group_index=0, tool_using_indices=())


def _triggered(*trajs) -> TriggeredGroup:
    return detect_trigger(group_of(*trajs))


class TestRankCandidates:
    def test_ascending_confidence(self):
        # Distinct intents so the prefixes are distinct; confidences 0.9, 0.3, 0.6.
        tg = _triggered(
            tool_traj(think_action=1, args=((0, 0.9),)),
            tool_traj(think_action=2, args=((0, 0.3),)),
            tool_traj(think_action=3, args=((0, 0.6),)),
        )
        assert [c.source_index for c in rank_candidates(tg)] == [1, 2, 0]

    def test_single_candidate(self):
        tg = _triggered(tool_traj())
        cands = rank_candidates(tg)
        assert len(cands) == 1 and cands[0].source_index == 0

    def test_tie_breaks_by_lower_index(self):
        tg = _triggered(
            plain_traj(),
            tool_traj(think_action=2, args=((0, 0.5),)),
            plain_traj(),
            tool_traj(think_action=3, args=((1, 0.5),)),
        )
        assert [c.source_index for c in rank_candidates(tg)] == [1, 3]

    def test_duplicate_prefixes_deduplicated_keeping_lowest_index(self):
        tg = _triggered(
            tool_traj(think_action=1, args=((0, 0.8),)),
            tool_traj(think_action=1, args=((1, 0.2),)),
        )
        cands = rank_candidates(tg)
        assert len(cands) == 1
        assert cands[0].source_index == 0


def _candidate(conf: float, idx: int = 0) -> Candidate:
    traj = tool_traj(args=((0, conf),))
    return Candidate(source_index=idx, prefix=first_tool_prefix(traj), confidence=conf)


def _fake_triggered(group_index: int, confs: list[float]) -> tuple[TriggeredGroup, list[Candidate]]:
    trajs = [tool_traj(args=((0, c),)) for c in confs]
    tg = TriggeredGroup(
        group=group_of(*trajs), group_index=group_index,
        tool_using_indices=tuple(range(len(confs))),
    )
    return tg, [_candidate(c, i) for i, c in enumerate(confs)]


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
        assert plan.extra_continuations == 0

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

    def test_plan_validates_budget(self):
        sel = (SelectedPrefix(0, 0, 0, first_tool_prefix(tool_traj()), 0.5),)
        with pytest.raises(ValueError):
            ResamplePlan(selected=sel, continuations_per_prefix=4, cap=3)

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
            assert plan.extra_continuations <= cap
            counts = {i: 0 for i in range(n_groups)}
            for s in plan.selected:
                counts[s.group_index] += 1
            if plan.selected:
                max_count = max(counts.values())
                with_remaining = [
                    counts[i] for i, (tg, cands) in enumerate(triggered)
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
            cand = triggered[g][1][round_]
            assert (sel.source_index, sel.confidence) == (cand.source_index, cand.confidence)
            # Rounds in order; within a round, ascending confidence, ties by group order.
            key = (round_, sel.confidence, g)
            assert last_key is None or key > last_key
            last_key = key
            counts[g] += 1


class TestContinuationAdvantages:
    def test_zero_variance(self):
        assert continuation_advantages([0, 0, 0, 0]) == [0.0] * 4

    def test_one_in_four(self):
        root3 = math.sqrt(3)
        assert continuation_advantages([1, 0, 0, 0]) == pytest.approx(
            [root3, -1 / root3, -1 / root3, -1 / root3], abs=1e-12
        )

    def test_two_in_four(self):
        assert continuation_advantages([1, 1, 0, 0]) == pytest.approx(
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


def _all_wrong_setup(mini_env, seed):
    """A policy/groups configuration guaranteed to contain triggers."""
    policy = mini_env.initial_policy()
    policy.think_logits[:, 0] -= 1.0  # push tool rate up so triggers are common
    r = rng(42, seed)
    table = DecisionTable(policy)
    groups = []
    for q in range(mini_env.num_questions):
        groups.append(Group(q, tuple(sample_rollout(table, mini_env, q, r) for _ in range(4))))
    return policy, groups, r


class TestResample:
    def test_certain_prefix_recovers(self, mini_env):
        policy, groups, r = _all_wrong_setup(mini_env, 1)
        mini_env.p_variant[:] = 1.0
        plan = _first_plan(groups, cap=4)
        if plan is None:
            pytest.skip("no trigger at this seed")
        results = resample(plan, groups, DecisionTable(policy), mini_env, r)
        assert results[0].rewards == (1, 1, 1, 1)
        assert results[0].recovery == 1

    def test_impossible_prefix_never_recovers(self, mini_env):
        policy, groups, r = _all_wrong_setup(mini_env, 2)
        mini_env.p_variant[:] = 0.0
        plan = _first_plan(groups, cap=4)
        if plan is None:
            pytest.skip("no trigger at this seed")
        results = resample(plan, groups, DecisionTable(policy), mini_env, r)
        assert results[0].rewards == (0, 0, 0, 0)
        assert results[0].recovery == 0

    def test_recovery_frequency_half_success(self, mini_env):
        policy, groups, r = _all_wrong_setup(mini_env, 3)
        mini_env.p_variant[:] = 0.5
        plan = _first_plan(groups, cap=4)
        if plan is None:
            pytest.skip("no trigger at this seed")
        trials = 10_000
        table = DecisionTable(policy)
        hits = sum(resample(plan, groups, table, mini_env, r)[0].recovery for _ in range(trials))
        expected = 1 - 0.5**4
        se = math.sqrt(expected * (1 - expected) / trials)
        assert abs(hits / trials - expected) < 3 * se

    def test_shared_prefix_in_continuations(self, mini_env):
        policy, groups, r = _all_wrong_setup(mini_env, 4)
        plan = _first_plan(groups, cap=8)
        if plan is None:
            pytest.skip("no trigger at this seed")
        for result in resample(plan, groups, DecisionTable(policy), mini_env, r):
            cut = result.selected.prefix.cut_index
            for cont in result.continuations:
                assert cont.steps[: cut + 1] == result.selected.prefix.steps


def _first_plan(groups, cap, k=4):
    triggered = []
    for gi, g in enumerate(groups):
        tg = detect_trigger(g, gi)
        if tg is not None:
            triggered.append((tg, rank_candidates(tg)))
    if not triggered:
        return None
    return allocate_budget(triggered, continuations_per_prefix=k, cap=cap)


class TestAssemble:
    def test_empty_resample_set_degenerates_to_standard(self, mini_env):
        policy, groups, _ = _all_wrong_setup(mini_env, 5)
        advs = [grpo_advantage(g.rewards()) for g in groups]
        items = assemble_step_losses(groups, advs, [])
        assert all(i.provenance == "standard" for i in items)
        assert len(items) == sum(g.n for g in groups)
        flat = iter(items)
        for gi, g in enumerate(groups):
            for ri, t in enumerate(g.rollouts):
                item = next(flat)
                assert item.trajectory is t
                assert (item.advantages == advs[gi][ri]).all()
                assert (item.active == np.array([s.mask for s in t.steps])).all()

    def test_streams_and_masking(self, mini_env):
        policy, groups, r = _all_wrong_setup(mini_env, 6)
        plan = _first_plan(groups, cap=4)
        if plan is None:
            pytest.skip("no trigger at this seed")
        advs = [grpo_advantage(g.rewards()) for g in groups]
        results = resample(plan, groups, DecisionTable(policy), mini_env, r)
        items = assemble_step_losses(groups, advs, results)
        prefix_items = [i for i in items if i.provenance == "prefix-credit"]
        cont_items = [i for i in items if i.provenance == "continuation"]
        assert len(prefix_items) == 1 and len(cont_items) == 4
        sel = results[0].selected
        cut = sel.prefix.cut_index
        src_item = prefix_items[0]
        assert src_item.trajectory is groups[sel.group_index].rollouts[sel.source_index]
        assert not src_item.active[cut + 1 :].any()  # source continuation dropped
        for ci in cont_items:
            assert not ci.active[: cut + 1].any()  # shared prefix masked

    def test_masked_advantage_perturbation_is_inert(self, mini_env):
        policy, groups, r = _all_wrong_setup(mini_env, 7)
        plan = _first_plan(groups, cap=4)
        if plan is None:
            pytest.skip("no trigger at this seed")
        advs = [grpo_advantage(g.rewards()) for g in groups]
        results = resample(plan, groups, DecisionTable(policy), mini_env, r)
        items = assemble_step_losses(groups, advs, results)
        cfg = ObjectiveConfig()
        before = surrogate_objective(items, policy, policy, cfg)
        for item in items:
            inactive = np.nonzero(~item.active)[0]
            if len(inactive):
                item.advantages[inactive[0]] += 1234.5
        after = surrogate_objective(items, policy, policy, cfg)
        assert before == after

    def test_conflicting_assignment_detected(self, mini_env):
        policy, groups, r = _all_wrong_setup(mini_env, 8)
        plan = _first_plan(groups, cap=4)
        if plan is None:
            pytest.skip("no trigger at this seed")
        advs = [grpo_advantage(g.rewards()) for g in groups]
        results = resample(plan, groups, DecisionTable(policy), mini_env, r)
        with pytest.raises(ConflictingAssignment):
            assemble_step_losses(groups, advs, results + results)
