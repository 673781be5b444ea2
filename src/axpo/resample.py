"""Tool-call resampling: trigger detection, uncertainty-ranked budget
allocation, scoring of drawn continuations, and assembly of the advantage
streams. Nothing here draws: `harness.build_batch` draws the continuations
and `resample` splits and scores their rewards. Every step reads the draw
tables' columns; a question's group is its group_size consecutive rollout rows.

A group triggers when its tool-using subgroup is nonempty and entirely
wrong. A triggered question is then carried as one list: its ranked
`Candidate`s, one per distinct first-tool-call prefix of its tool-using
rollouts, in ascending confidence; a prefix is its source row's think
decision and opening marker, so prefixes are distinct when their think
actions are. The per-step budget is allocated breadth-first across those
lists, each selected candidate gets its K drawn continuation rows and their
recovery indicator, and `assemble_step_losses` computes the continuation and
prefix advantages where it builds the loss table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .advantage import _CONTINUATION, _PREFIX, _STANDARD, EmptyGroup, LossTable, normalize_groups
from .advantage import grpo_advantage  # noqa: F401  (bound here for the benchmark's tracer)
from .env import sample_continuation  # noqa: F401  (bound here for the benchmark's tracer)
from .trajectory import DrawTable


class SourceNotInGroup(ValueError):
    """Prefix advantage requested for a rollout index outside its group."""


class ConflictingAssignment(ValueError):
    """A step would receive advantages from two sources."""


@dataclass(frozen=True)
class Candidate:
    """A source rollout's first-tool-call prefix: rollout source_index of
    group group_index, row group_index * group_size + source_index of the
    rollout table."""

    group_index: int
    source_index: int
    confidence: float


@dataclass(frozen=True)
class ResamplePlan:
    selected: tuple[Candidate, ...]
    continuations_per_prefix: int
    cap: int


@dataclass(frozen=True)
class ResampleResult:
    """A selected prefix, its K rows of the continuation table, their rewards and
    their recovery."""

    selected: Candidate
    continuations: range
    rewards: list[int]
    recovery: int


def detect_trigger(table: DrawTable, group_size: int) -> np.ndarray:
    """Per question, triggered iff its tool-using rows are nonempty and all
    have reward 0. No-tool successes in the same group do not block triggering.
    """
    tool = table.tool_using.reshape(-1, group_size)
    won = table.reward.reshape(-1, group_size) != 0
    return tool.any(1) & ~(tool & won).any(1)


def rank_candidates(
    table: DrawTable, group_size: int, triggered: np.ndarray
) -> dict[int, list[Candidate]]:
    """Each triggered question's candidates by group index, in group order: its
    tool-using rows with distinct think actions, keeping the lowest index for
    each, in ascending confidence, ties broken by lower index. A candidate's
    confidence is the mean policy probability of its argument steps, the mean
    exp of its row's argument logps.
    """
    rows = np.flatnonzero(np.repeat(triggered, group_size) & table.tool_using)
    group, index = np.divmod(rows, group_size)
    think = table.action[rows, 0]
    _, first = np.unique(group * (think.max(initial=0) + 1) + think, return_index=True)
    rows, group, index = rows[first], group[first], index[first]
    confidence = np.exp(table.logp[rows, 1:-1]).mean(1)
    order = np.lexsort((index, confidence, group))
    ranked: dict[int, list[Candidate]] = {}
    for g, i, c in zip(*(a[order].tolist() for a in (group, index, confidence))):
        ranked.setdefault(g, []).append(Candidate(group_index=g, source_index=i, confidence=c))
    return ranked


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


def prefix_advantage(group_rewards, source_index, recovery) -> float | np.ndarray:
    """Source-prefix advantage: the recovery indicator replaces the source
    rollout's reward in its group's normalization. Of one group, a float; of
    (..., N) groups, each with its own source index and recovery, an array."""
    rows, index = np.array(group_rewards, dtype=np.float64), np.asarray(source_index)
    if np.any((index < 0) | (index >= rows.shape[-1])):
        raise SourceNotInGroup(f"index {source_index} outside group of {rows.shape[-1]}")
    at = (*np.indices(index.shape, sparse=True), index)
    rows[at] = recovery
    return normalize_groups(rows)[at]


def resample(plan: ResamplePlan, rewards: list[int]) -> list[ResampleResult]:
    """Each selected prefix's continuations, K rows at a time in plan order, with
    their rewards, from the continuation table's reward column, and recovery."""
    k = plan.continuations_per_prefix
    return [ResampleResult(sel, range(i * k, i * k + k), rewards[i * k : i * k + k],
                           recovery_indicator(rewards[i * k : i * k + k]))
            for i, sel in enumerate(plan.selected)]


def assemble_step_losses(
    rollouts: DrawTable,
    continuations: DrawTable,
    group_size: int,
    results: Sequence[ResampleResult],
) -> LossTable:
    """Merge standard, continuation, and prefix-credit streams into one loss
    table: one item per rollout row, then one per continuation row.

    Every unmasked step receives exactly one advantage source: unselected
    rollouts carry their group's GRPO advantage, from the reward column; a
    selected source rollout carries the prefix advantage on its prefix steps
    only (post-prefix steps drop out of the loss); each continuation carries
    its per-prefix advantage on post-prefix steps only.
    """
    group_rewards = rollouts.reward.reshape(-1, group_size)
    advantage = normalize_groups(group_rewards).ravel()
    provenance = [_STANDARD] * len(advantage)
    for r in results:  # in plan order, the continuation table's row order
        gi, si = r.selected.group_index, r.selected.source_index
        row = gi * group_size + si
        if provenance[row] == _PREFIX:
            raise ConflictingAssignment(f"rollout {si} of group {gi} selected twice")
        provenance[row] = _PREFIX
    if results:  # K continuation rows per result; with none there is no K to group them by
        groups, sources, recovery = np.array(
            [(r.selected.group_index, r.selected.source_index, r.recovery) for r in results]).T
        credit = prefix_advantage(group_rewards[groups], sources, recovery)
        advantage[groups * group_size + sources] = credit
        continued = normalize_groups(continuations.reward.reshape(len(results), -1)).ravel()
        advantage = np.concatenate([advantage, continued])
    provenance += [_CONTINUATION] * (len(advantage) - len(provenance))
    return LossTable((rollouts, continuations), advantage, provenance)
