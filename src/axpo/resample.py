"""Tool-call resampling: trigger detection, uncertainty-ranked budget
allocation, continuation resampling, and assembly of the advantage streams.

A group triggers when its tool-using subgroup is nonempty and entirely
wrong. Each tool-using rollout contributes one candidate prefix (its first
tool-call boundary); candidates are ranked by ascending confidence and the
per-step budget is allocated breadth-first across triggered questions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .advantage import (
    EmptyGroup,
    LossItem,
    PROV_CONTINUATION,
    PROV_PREFIX,
    grpo_advantage,
    standard_item,
)
from .env import ToolEnv, sample_continuation
from .policy import DecisionTable, confidence
from .trajectory import Group, Prefix, Trajectory, classify_subgroups, first_tool_prefix


class SourceNotInGroup(ValueError):
    """Prefix advantage requested for a rollout index outside its group."""


class ConflictingAssignment(ValueError):
    """A step would receive advantages from two sources."""


@dataclass(frozen=True)
class TriggeredGroup:
    group: Group
    group_index: int
    tool_using_indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.tool_using_indices:
            raise ValueError("a triggered group needs a nonempty tool-using subgroup")


@dataclass(frozen=True)
class Candidate:
    source_index: int
    prefix: Prefix
    confidence: float


@dataclass(frozen=True)
class SelectedPrefix:
    group_index: int
    question_id: int
    source_index: int
    prefix: Prefix
    confidence: float


@dataclass(frozen=True)
class ResamplePlan:
    selected: tuple[SelectedPrefix, ...]
    continuations_per_prefix: int
    cap: int

    def __post_init__(self) -> None:
        if len(self.selected) * self.continuations_per_prefix > self.cap:
            raise ValueError("plan exceeds the resampling budget")

    @property
    def extra_continuations(self) -> int:
        return len(self.selected) * self.continuations_per_prefix


@dataclass(frozen=True)
class ResampleResult:
    selected: SelectedPrefix
    continuations: tuple[Trajectory, ...]
    rewards: tuple[int, ...]
    continuation_advs: tuple[float, ...]
    recovery: int
    prefix_adv: float


def detect_trigger(group: Group, group_index: int = 0) -> Optional[TriggeredGroup]:
    """Triggered iff the tool-using subgroup is nonempty and all-wrong.

    No-tool successes in the same group do not block triggering.
    """
    tool_using, _ = classify_subgroups(group)
    if not tool_using:
        return None
    if any(group.rollouts[i].reward != 0 for i in tool_using):
        return None
    return TriggeredGroup(group=group, group_index=group_index, tool_using_indices=tuple(tool_using))


def rank_candidates(triggered: TriggeredGroup) -> list[Candidate]:
    """Candidates in ascending confidence order; ties broken by lower index.

    Duplicate prefixes (identical step sequences) keep only the
    lowest-indexed source rollout.
    """
    seen: dict[tuple, int] = {}
    candidates: list[Candidate] = []
    for i in sorted(triggered.tool_using_indices):
        traj = triggered.group.rollouts[i]
        prefix = first_tool_prefix(traj)
        key = tuple((s.action_id, s.segment) for s in prefix.steps)
        if key in seen:
            continue
        seen[key] = i
        candidates.append(Candidate(source_index=i, prefix=prefix, confidence=confidence(traj, prefix)))
    candidates.sort(key=lambda c: (c.confidence, c.source_index))
    return candidates


def allocate_budget(
    triggered_candidates: Sequence[tuple[TriggeredGroup, Sequence[Candidate]]],
    continuations_per_prefix: int,
    cap: int,
) -> ResamplePlan:
    """Breadth-first allocation: every triggered question receives its
    top-ranked prefix before any receives a second. Within a round, questions
    are taken in ascending confidence of that round's candidate. A prefix is
    selected only if its full continuation count fits in the budget.
    """
    max_prefixes = cap // continuations_per_prefix if continuations_per_prefix > 0 else 0
    selected: list[SelectedPrefix] = []
    rank = 0
    while len(selected) < max_prefixes:
        round_entries = [
            (cands[rank].confidence, order, tg, cands[rank])
            for order, (tg, cands) in enumerate(triggered_candidates)
            if rank < len(cands)
        ]
        if not round_entries:
            break
        round_entries.sort(key=lambda e: (e[0], e[1]))
        for _, _, tg, cand in round_entries:
            if len(selected) >= max_prefixes:
                break
            selected.append(
                SelectedPrefix(
                    group_index=tg.group_index,
                    question_id=tg.group.question_id,
                    source_index=cand.source_index,
                    prefix=cand.prefix,
                    confidence=cand.confidence,
                )
            )
        rank += 1
    return ResamplePlan(
        selected=tuple(selected), continuations_per_prefix=continuations_per_prefix, cap=cap
    )


def continuation_advantages(rewards: Sequence[int]) -> list[float]:
    """Per-prefix group normalization of the K resample rewards."""
    return grpo_advantage(rewards)


def recovery_indicator(rewards: Sequence[int]) -> int:
    if len(rewards) == 0:
        raise EmptyGroup("recovery indicator needs at least one continuation")
    return int(any(r == 1 for r in rewards))


def prefix_advantage(group_rewards: Sequence[int], source_index: int, recovery: int) -> float:
    """Source-prefix advantage: the recovery indicator replaces the source
    rollout's reward in its group's normalization."""
    if not 0 <= source_index < len(group_rewards):
        raise SourceNotInGroup(f"index {source_index} outside group of {len(group_rewards)}")
    substituted = list(group_rewards)
    substituted[source_index] = recovery
    return grpo_advantage(substituted)[source_index]


def resample(
    plan: ResamplePlan,
    groups: Sequence[Group],
    table: DecisionTable,
    env: ToolEnv,
    rng: np.random.Generator,
) -> list[ResampleResult]:
    """Draw K continuations per selected prefix and score both streams."""
    results = []
    for sel in plan.selected:
        continuations = tuple(
            sample_continuation(table, env, sel.prefix, rng)
            for _ in range(plan.continuations_per_prefix)
        )
        rewards = tuple(t.reward for t in continuations)
        recovery = recovery_indicator(rewards)
        group = groups[sel.group_index]
        results.append(
            ResampleResult(
                selected=sel,
                continuations=continuations,
                rewards=rewards,
                continuation_advs=tuple(continuation_advantages(rewards)),
                recovery=recovery,
                prefix_adv=prefix_advantage(group.rewards(), sel.source_index, recovery),
            )
        )
    return results


def assemble_step_losses(
    groups: Sequence[Group],
    group_advantages: Sequence[Sequence[float]],
    results: Sequence[ResampleResult],
) -> list[LossItem]:
    """Merge standard, continuation, and prefix-credit streams into one batch.

    Every unmasked step receives exactly one advantage source: unselected
    rollouts carry their standard GRPO advantage; a selected source rollout
    carries the prefix advantage on its prefix steps only (post-prefix steps
    drop out of the loss); each continuation carries its per-prefix advantage
    on post-prefix steps only.
    """
    by_group: dict[int, dict[int, ResampleResult]] = {}
    for r in results:
        slot = by_group.setdefault(r.selected.group_index, {})
        if r.selected.source_index in slot:
            raise ConflictingAssignment(
                f"rollout {r.selected.source_index} of group {r.selected.group_index} "
                "selected twice"
            )
        slot[r.selected.source_index] = r

    items: list[LossItem] = []
    for gi, group in enumerate(groups):
        advantages = group_advantages[gi]
        sources = by_group.get(gi, {})
        for ri, traj in enumerate(group.rollouts):
            if ri in sources:
                r = sources[ri]
                cut = r.selected.prefix.cut_index
                n = len(traj.steps)
                active = np.array(
                    [s.mask and i <= cut for i, s in enumerate(traj.steps)], dtype=bool
                )
                items.append(
                    LossItem(
                        trajectory=traj,
                        advantages=np.full(n, r.prefix_adv, dtype=np.float64),
                        active=active,
                        provenance=PROV_PREFIX,
                    )
                )
            else:
                items.append(standard_item(traj, advantages[ri]))
    for r in results:
        cut = r.selected.prefix.cut_index
        for k, traj in enumerate(r.continuations):
            n = len(traj.steps)
            active = np.array([s.mask and i > cut for i, s in enumerate(traj.steps)], dtype=bool)
            items.append(
                LossItem(
                    trajectory=traj,
                    advantages=np.full(n, r.continuation_advs[k], dtype=np.float64),
                    active=active,
                    provenance=PROV_CONTINUATION,
                )
            )
    return items
