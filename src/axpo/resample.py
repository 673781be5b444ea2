"""Tool-call resampling: trigger detection, uncertainty-ranked budget
allocation, scoring of drawn continuations, and assembly of the advantage
streams. Nothing here draws: `harness.build_batch` draws the continuations
and `resample` splits and scores them.

A group triggers when its tool-using subgroup is nonempty and entirely
wrong. A triggered question is then carried as one list: its ranked
`Candidate`s, one per distinct first-tool-call prefix of its tool-using
rollouts, in ascending confidence; a prefix is its source rollout's first
PREFIX_STEPS steps. The per-step budget is allocated breadth-first across
those lists, each selected candidate gets its K drawn continuations and
their recovery indicator, and `assemble_step_losses` computes the continuation
and prefix advantages where it builds the loss items.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .advantage import (
    EmptyGroup,
    LossItem,
    PROV_CONTINUATION,
    PROV_PREFIX,
    PROV_STANDARD,
    grpo_advantage,
    loss_items,
)
from .env import sample_continuation  # noqa: F401  (bound here for the benchmark's tracer)
from .policy import confidence
from .trajectory import PREFIX_STEPS, DrawTable, Group, Trajectory


class SourceNotInGroup(ValueError):
    """Prefix advantage requested for a rollout index outside its group."""


class ConflictingAssignment(ValueError):
    """A step would receive advantages from two sources."""


@dataclass(frozen=True)
class Candidate:
    """A source rollout's first-tool-call prefix, in its group of the batch;
    prefix is the source rollout, whose first PREFIX_STEPS steps it names."""

    group_index: int
    source_index: int
    prefix: Trajectory
    confidence: float


@dataclass(frozen=True)
class ResamplePlan:
    selected: tuple[Candidate, ...]
    continuations_per_prefix: int
    cap: int


@dataclass(frozen=True)
class ResampleResult:
    selected: Candidate
    continuations: tuple[Trajectory, ...]
    recovery: int


def detect_trigger(group: Group) -> bool:
    """Triggered iff the tool-using subgroup is nonempty and all-wrong.

    No-tool successes in the same group do not block triggering.
    """
    tool_rewards = [t.reward for t in group.rollouts if t.is_tool_using()]
    return bool(tool_rewards) and all(r == 0 for r in tool_rewards)


def rank_candidates(group: Group, group_index: int) -> list[Candidate]:
    """The group's tool-using rollouts as candidates, in ascending confidence
    order; ties broken by lower index.

    Duplicate prefixes (identical first PREFIX_STEPS steps) keep only the
    lowest-indexed source rollout.
    """
    seen: set[tuple] = set()
    candidates: list[Candidate] = []
    for i, traj in enumerate(group.rollouts):
        if not traj.is_tool_using():
            continue
        key = tuple((s.action_id, s.segment) for s in traj.steps[:PREFIX_STEPS])
        if key in seen:
            continue
        seen.add(key)
        candidates.append(
            Candidate(
                group_index=group_index,
                source_index=i,
                prefix=traj,
                confidence=confidence(traj),
            )
        )
    candidates.sort(key=lambda c: (c.confidence, c.source_index))
    return candidates


def allocate_budget(
    candidate_lists: Iterable[Sequence[Candidate]],
    continuations_per_prefix: int,
    cap: int,
) -> ResamplePlan:
    """Breadth-first allocation over the triggered questions' ranked
    candidate lists, given in question order: every question receives its
    top-ranked prefix before any receives a second. Within a round, questions
    are taken in ascending confidence of that round's candidate. A prefix is
    selected only if its full continuation count fits in the budget.
    """
    candidate_lists = list(candidate_lists)
    max_prefixes = cap // continuations_per_prefix if continuations_per_prefix > 0 else 0
    selected: list[Candidate] = []
    rank = 0
    while len(selected) < max_prefixes:
        round_cands = [cands[rank] for cands in candidate_lists if rank < len(cands)]
        if not round_cands:
            break
        # A stable sort: equal confidences stay in question order.
        round_cands.sort(key=lambda c: c.confidence)
        selected.extend(round_cands[: max_prefixes - len(selected)])
        rank += 1
    return ResamplePlan(
        selected=tuple(selected), continuations_per_prefix=continuations_per_prefix, cap=cap
    )


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


def resample(plan: ResamplePlan, table: DrawTable) -> list[ResampleResult]:
    """Each selected prefix's continuations, the table's rows K at a time in plan
    order, and their recovery indicator."""
    k = plan.continuations_per_prefix
    drawn = table.trajectories()
    return [
        ResampleResult(selected=sel, continuations=tuple(drawn[n * k : (n + 1) * k]),
                       recovery=recovery_indicator(table.reward[n * k : (n + 1) * k].tolist()))
        for n, sel in enumerate(plan.selected)
    ]


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

    entries = []
    for gi, group in enumerate(groups):
        sources = by_group.get(gi, {})
        for ri, traj in enumerate(group.rollouts):
            r = sources.get(ri)
            if r is None:
                entries.append((traj, group_advantages[gi][ri], PROV_STANDARD))
            else:
                prefix_adv = prefix_advantage(group.rewards(), ri, r.recovery)
                entries.append((traj, prefix_adv, PROV_PREFIX))
    for r in results:
        advs = grpo_advantage([t.reward for t in r.continuations])
        entries.extend((traj, adv, PROV_CONTINUATION) for traj, adv in zip(r.continuations, advs))
    return loss_items(entries)
