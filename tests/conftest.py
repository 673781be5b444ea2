"""Shared builders for hand-constructed trajectories and controlled envs, and
the reference a training step is checked against."""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest

from axpo.advantage import (
    PROV_CONTINUATION,
    PROV_PREFIX,
    PROV_STANDARD,
    PROVENANCES,
    LossTable,
    _Steps,
    grpo_advantage,
)
from axpo.diagnostics import StepMetrics
from axpo.env import ENV_PRESETS, EnvSpec, ToolEnv, draw_continuations
from axpo.policy import NO_TOOL, PolicyShape, TabularPolicy
from axpo.resample import (
    ConflictingAssignment,
    ResamplePlan,
    allocate_budget,
    prefix_advantage,
    recovery_indicator,
    resample,
)
from axpo.trajectory import (
    PREFIX_STEPS,
    DrawTable,
    NotToolUsing,
    Segment,
    Step,
    Trajectory,
    read_complete_records,
    record_parser,
    tables_of,
    write_log,
)

# Reserved opening-marker id for hand-built trajectories (tests that never
# touch a policy don't care about the actual id).
MARKER = 9


def think_step(action: int = 0, p: float = 0.5) -> Step:
    return Step(action, Segment.THINK, logp_old=math.log(p))


def marker_step(action: int = MARKER) -> Step:
    return Step(action, Segment.TOOL_CALL, logp_old=0.0, mask=False)


def arg_step(action: int = 0, p: float = 0.5) -> Step:
    return Step(action, Segment.TOOL_CALL, logp_old=math.log(p))


def obs_step(action: int = 0) -> Step:
    return Step(action, Segment.OBSERVATION, logp_old=None, mask=False)


def answer_step(action: int = 0, p: float = 0.5) -> Step:
    return Step(action, Segment.ANSWER, logp_old=math.log(p))


def plain_traj(qid: int = 0, reward: int = 0, **meta) -> Trajectory:
    return Trajectory(
        question_id=qid, steps=(think_step(), answer_step()), reward=reward, **meta
    )


def tool_traj(
    qid: int = 0,
    reward: int = 0,
    think_action: int = 1,
    args: tuple[tuple[int, float], ...] = ((0, 0.5),),
    answer: int = 0,
    **meta,
) -> Trajectory:
    """Single-call trajectory; args are (action_id, sampling probability)."""
    steps = [think_step(think_action), marker_step()]
    steps.extend(arg_step(a, p) for a, p in args)
    steps.append(obs_step(args[0][0]))
    steps.append(answer_step(answer))
    return Trajectory(question_id=qid, steps=tuple(steps), reward=reward, **meta)


# The shape hand-built trajectories are laid onto when they become table rows:
# questions 0-7, think actions 0-3, one call step, three variants and answers.
HAND_SHAPE = PolicyShape(
    num_questions=8, num_intents=3, call_steps=1, num_variants=3, num_answers=3
)


def table_of(trajs, shape: PolicyShape = HAND_SHAPE, **meta) -> DrawTable:
    """The draw table whose rows are trajs: each decision's action, flat index
    (its node's start, from decision_nodes, plus the action) and logp_old, in the
    columns think, arguments, answer. A trajectory that does not fit shape raises
    decision_nodes' ValueError, naming the step."""
    width = 2 + shape.call_steps
    action = np.full((len(trajs), width), -1, dtype=np.int64)
    flat = np.full((len(trajs), width), -1, dtype=np.int64)
    logp = np.full((len(trajs), width), np.nan)
    for i, traj in enumerate(trajs):
        nodes = decision_nodes(shape, traj)
        decisions = [(node, s) for node, s in zip(nodes, traj.steps) if node is not None]
        for j, (node, s) in enumerate(decisions):
            col = j if j < len(decisions) - 1 else width - 1
            action[i, col], flat[i, col] = s.action_id, node.start + s.action_id
            logp[i, col] = s.logp_old
    question = np.array([t.question_id for t in trajs], dtype=np.int64)
    reward = np.array([t.reward for t in trajs], dtype=np.int64)
    return DrawTable(question, reward, action, flat, logp, shape.tool_open_id, **meta)


def loss_table(entries, shape: PolicyShape = HAND_SHAPE) -> LossTable:
    """The loss table of (trajectory, advantage, provenance) entries, one item per
    entry, built from the table of their trajectories."""
    trajs = [traj for traj, _, _ in entries]
    codes = [PROVENANCES.index(prov) for _, _, prov in entries]
    return LossTable((table_of(trajs, shape),), [adv for _, adv, _ in entries], codes)


def loss_item(traj: Trajectory, advantage: float, provenance: str = PROV_STANDARD,
              shape: PolicyShape = HAND_SHAPE):
    """The one item of the loss table of one entry."""
    return loss_table([(traj, advantage, provenance)], shape)[0]


def written_lines(table: DrawTable) -> list[str]:
    """What write_log writes of table, split at its newlines: a last "" after the last line."""
    fh = io.StringIO()
    write_log(table, fh)
    return fh.getvalue().split("\n")


def read_tables(path, shape: PolicyShape) -> list[DrawTable]:
    """A trajectory or eval log of a run under shape, read in full as the tables of its
    rows; a ParseError names path and the line record_parser refuses, or a torn last line."""
    return tables_of([row for _, row in read_complete_records(path, record_parser(shape))], shape)


def read_lines(lines, shape: PolicyShape = HAND_SHAPE) -> list[DrawTable]:
    """The tables of record lines read under shape, as read_tables reads a log of them."""
    parse = record_parser(shape)
    return tables_of([parse(line, number) for number, line in enumerate(lines, 1)], shape)


def drawn_resample(plan: ResamplePlan, table: DrawTable, group_size: int, policy, env, rng):
    """resample of plan over its K continuations per selected prefix, drawn from
    rng in plan order from the rows of table as build_batch draws them, and the
    continuation table."""
    k = plan.continuations_per_prefix
    rows = [s.group_index * group_size + s.source_index for s in plan.selected for _ in range(k)]
    continuations = draw_continuations(policy, env, table, rows, rng, is_resample=True)
    return resample(plan, continuations.reward.tolist()), continuations


def pass_at_k(rewards_per_question: dict[int, list[int]], k: int) -> float:
    """The reference for eval_passes: pass@1 is the mean per-rollout reward;
    pass@k (k>1) is the fraction of questions with >=1 correct among their
    first k rollouts."""
    assert rewards_per_question and all(len(r) >= k for r in rewards_per_question.values())
    if k == 1:
        all_rewards = [r for rewards in rewards_per_question.values() for r in rewards]
        return sum(all_rewards) / len(all_rewards)
    hits = [int(any(r == 1 for r in rewards[:k])) for rewards in rewards_per_question.values()]
    return sum(hits) / len(hits)


def reference_step_metrics(step: int, tables, audit) -> StepMetrics:
    """The reference for compute_step_metrics: each question's standard rollouts are
    found by their question id, in log order, wherever the tables hold them; a
    question's tool or no-tool subgroup is all-wrong when it is nonempty and has no
    correct rollout, a tool one not if its question recovered."""
    triggered = {rec["question_id"] for rec in audit}
    recovered = {rec["question_id"] for rec in audit if rec["recovery"] == 1}
    groups: dict[int, list[tuple[bool, int]]] = {}
    for table in tables:
        if not table.is_resample:
            for traj in table.trajectories():
                groups.setdefault(traj.question_id, []).append((traj.is_tool_using(), traj.reward))
    rows = [row for group in groups.values() for row in group]
    subgroups = {True: [0, 0], False: [0, 0]}  # tool or not: (nonempty, all-wrong) counts
    for qid, group in groups.items():
        for tool in (True, False):
            rewards = [reward for t, reward in group if t == tool]
            if rewards:
                subgroups[tool][0] += 1
                subgroups[tool][1] += not any(rewards) and not (tool and qid in recovered)

    def ratio(num: int, den: int):
        return num / den if den else None

    return StepMetrics(
        step=step,
        tool_use_rate=sum(t for t, _ in rows) / len(rows) if rows else 0.0,
        all_wrong_tool=ratio(subgroups[True][1], subgroups[True][0]),
        all_wrong_no_tool=ratio(subgroups[False][1], subgroups[False][0]),
        recovery_rate=ratio(len(recovered), len(triggered)),
        mean_reward=ratio(sum(r for _, r in rows), len(rows)),
        pass1_eval=None,
        pass4_eval=None,
        extra_continuations=sum(len(rec["rewards"]) for rec in audit),
    )


@pytest.fixture
def mini_env() -> ToolEnv:
    return ToolEnv(
        EnvSpec(
            num_questions=4,
            tool_necessary_fraction=0.5,
            intents_per_question=2,
            variants_per_intent=3,
            seed=7,
        )
    )


# Wide, unequal node widths (12, 17 and 9 actions): a distinct width per node
# family, each past the 8 elements below which numpy sums a row one by one.
WIDE_SPEC = EnvSpec(
    num_questions=6,
    tool_necessary_fraction=0.5,
    intents_per_question=11,
    variants_per_intent=17,
    call_steps=2,
    num_answers=9,
    seed=1,
)


@pytest.fixture
def env_spec(request) -> EnvSpec:
    """The spec an indirect parameter names: an env preset, or "wide"."""
    return WIDE_SPEC if request.param == "wide" else ENV_PRESETS[request.param]()


def zeros_policy(shape, temperature: float = 1.0) -> TabularPolicy:
    """The uniform policy: every logit 0."""
    return TabularPolicy(shape, np.zeros(shape.size), temperature)


def edited(policy, edit) -> TabularPolicy:
    """A new policy of policy's shape and temperature, built from a copy of its
    flat logits that edit(logits) has changed in place."""
    logits = policy.logits.copy()
    edit(logits)
    return TabularPolicy(policy.shape, logits, policy.temperature)


def one_hot_policy(policy, node: slice, action, logit: float = 500.0) -> TabularPolicy:
    """policy with a decision node's mass concentrated on one action."""

    def concentrate(logits):
        logits[node] = 0.0
        logits[node.start + action] = logit

    return edited(policy, concentrate)


def node_softmax(policy, node: slice) -> np.ndarray:
    """The per-node reference: softmax(logits / temperature) of one node on its own."""
    z = policy.logits[node] / policy.temperature
    z = z - np.max(z)
    e = np.exp(z)
    return e / e.sum()


def concatenated(*tables: DrawTable) -> DrawTable:
    """One table holding the rows of tables in turn, with the first one's metadata."""
    columns = {name: np.concatenate([getattr(t, name) for t in tables])
               for name in ("question", "reward", "action", "flat", "logp")}
    return DrawTable(**columns, tool_open_id=tables[0].tool_open_id)


def tool_attempt_prob(policy, question_id: int) -> float:
    """Exact think-node mass on tool intents."""
    return float(1.0 - policy.probs(policy.shape.think(question_id))[NO_TOOL])


def prefix_success_prob(env, policy, question_id: int, intent: int) -> float:
    """Exact success probability of a continuation committed to one intent."""
    var_probs = policy.probs(policy.shape.call(question_id, intent, 0))
    return float(var_probs @ env.p_variant[question_id, intent])


def all_nodes(shape) -> list[slice]:
    """Every decision node's slice, think nodes first, then call and answer nodes."""
    q, m, c = shape.num_questions, shape.num_intents, shape.call_steps
    return (
        [shape.think(i) for i in range(q)]
        + [shape.call(i, k, j) for i in range(q) for k in range(m) for j in range(c)]
        + [shape.answer(i) for i in range(q)]
    )


def rng(*key) -> np.random.Generator:
    return np.random.default_rng(key if key else 0)


# -- the reference: a training step as Trajectory, Group and Step objects -----
#
# The object chain build_batch and train_step ran before they read the draw
# tables' columns, kept as the reference they must equal bit for bit
# (test_axpo.py's step property): groups of trajectories, a trigger and a
# ranking per Group, continuations drawn one node at a time with
# Generator.choice, loss items built from (trajectory, advantage, provenance)
# entries, and a gather that maps each trajectory onto the policy with
# decision_nodes.


@dataclass(frozen=True)
class Group:
    """N rollouts for one question."""

    question_id: int
    rollouts: tuple[Trajectory, ...]

    def rewards(self) -> list[int]:
        return [t.reward for t in self.rollouts]


def group_of(*trajs: Trajectory) -> Group:
    return Group(question_id=trajs[0].question_id, rollouts=tuple(trajs))


def decision_nodes(shape: PolicyShape, traj: Trajectory) -> list:
    """Each step's decision node; None for the marker and observation steps.

    The first step is the think node, which fixes the intent, the argument
    steps are call nodes j = 0, 1, ... in order, and the last step is the
    answer node. Raises ValueError, naming the step, when traj does not fit the
    policy: a question outside the shape, a tool call under a think action that
    is not a tool intent, an argument count other than call_steps, or an
    action outside its node.
    """
    q, steps, m = traj.question_id, traj.steps, shape.num_intents
    if not 0 <= q < shape.num_questions:
        raise ValueError(f"step 0: question {q} outside [0, {shape.num_questions})")
    nodes = [shape.think(q)]
    if traj.is_tool_using():
        think, args = steps[0].action_id, len(steps) - PREFIX_STEPS - 2
        if not 1 <= think <= m:
            raise ValueError(f"step 0: think action {think} before a tool call is not in 1..{m}")
        if args != shape.call_steps:
            raise ValueError(f"step {PREFIX_STEPS}: {args} argument steps, not {shape.call_steps}")
        nodes += [None, *(shape.call(q, think - 1, j) for j in range(args)), None]
    nodes.append(shape.answer(q))
    for i, (node, step) in enumerate(zip(nodes, steps)):
        if node is not None and not 0 <= step.action_id < node.stop - node.start:
            raise ValueError(f"step {i}: action {step.action_id} outside its node")
    return nodes


def confidence(traj: Trajectory) -> float:
    """Mean policy probability over the argument steps of the tool call, the
    steps between the prefix and the observation."""
    if not traj.is_tool_using():
        raise NotToolUsing("confidence is defined only for tool-using rollouts")
    return float(np.mean([np.exp(s.logp_old) for s in traj.steps[PREFIX_STEPS:-2]]))


def detect_trigger(group: Group) -> bool:
    """Triggered iff the tool-using subgroup is nonempty and all-wrong."""
    tool_rewards = [t.reward for t in group.rollouts if t.is_tool_using()]
    return bool(tool_rewards) and all(r == 0 for r in tool_rewards)


class Candidate(NamedTuple):
    group_index: int
    source_index: int
    prefix: Trajectory  # the source rollout
    confidence: float


def rank_candidates(group: Group, group_index: int) -> list[Candidate]:
    """The group's tool-using rollouts with distinct prefixes (the lowest index
    of each), in ascending confidence, ties broken by lower index."""
    seen, candidates = set(), []
    for i, traj in enumerate(group.rollouts):
        key = tuple((s.action_id, s.segment) for s in traj.steps[:PREFIX_STEPS])
        if traj.is_tool_using() and key not in seen:
            seen.add(key)
            candidates.append(Candidate(group_index, i, traj, confidence(traj)))
    return sorted(candidates, key=lambda c: (c.confidence, c.source_index))


@dataclass
class LossItem:
    trajectory: Trajectory
    advantages: np.ndarray
    active: np.ndarray
    provenance: str


def loss_items(entries) -> list[LossItem]:
    """One item per (trajectory, advantage, provenance) entry: the advantage on
    every step, active on the unmasked steps of the provenance's span."""
    items = []
    for traj, adv, provenance in entries:
        span = {
            PROV_STANDARD: lambda i: True,
            PROV_PREFIX: lambda i: i < PREFIX_STEPS,
            PROV_CONTINUATION: lambda i: i >= PREFIX_STEPS,
        }[provenance]
        active = np.array([s.mask and span(i) for i, s in enumerate(traj.steps)], dtype=bool)
        items.append(LossItem(traj, np.full(len(traj.steps), float(adv)), active, provenance))
    return items


class Result(NamedTuple):
    selected: Candidate
    continuations: list[Trajectory]
    recovery: int


def assemble_step_losses(groups, group_advantages, results) -> list[LossItem]:
    """The standard, prefix-credit and continuation streams, rollouts in group
    order and then continuations in result order."""
    by_source = {}
    for r in results:
        key = (r.selected.group_index, r.selected.source_index)
        if key in by_source:
            raise ConflictingAssignment(f"rollout {key[1]} of group {key[0]} selected twice")
        by_source[key] = r
    entries = []
    for gi, group in enumerate(groups):
        for ri, traj in enumerate(group.rollouts):
            r = by_source.get((gi, ri))
            if r is None:
                entries.append((traj, group_advantages[gi][ri], PROV_STANDARD))
            else:
                credit = prefix_advantage(group.rewards(), ri, r.recovery)
                entries.append((traj, credit, PROV_PREFIX))
    for r in results:
        advs = grpo_advantage([t.reward for t in r.continuations])
        entries += [(traj, adv, PROV_CONTINUATION) for traj, adv in zip(r.continuations, advs)]
    return loss_items(entries)


def reference_gather(items, shape: PolicyShape) -> _Steps:
    """The active steps item by item, each trajectory's nodes from decision_nodes."""
    fields = {name: [] for name in _Steps._fields}
    for item in items:
        active = np.flatnonzero(item.active)
        nodes = decision_nodes(shape, item.trajectory) if active.size else []
        for i in active.tolist():
            node, step = nodes[i], item.trajectory.steps[i]
            if node is None:
                raise ValueError(f"step {i} is active but has no decision node")
            fields["start"].append(node.start)
            fields["width"].append(node.stop - node.start)
            fields["action"].append(step.action_id)
            fields["logp_old"].append(step.logp_old)
            fields["adv"].append(float(item.advantages[i]))
            fields["inv_n"].append(1.0 / active.size)
    ints = {"start", "width", "action"}
    return _Steps(**{name: np.array(v, dtype=np.int64 if name in ints else np.float64)
                     for name, v in fields.items()})


def reference_choice(policy, node, draws):
    """One action at a node by Generator.choice, and its log-probability."""
    p = policy.pi[node]
    action = int(draws.choice(len(p), p=p / p.sum()))
    return action, float(policy.logp[node.start + action])


def reference_finish(policy, env, qid, think, steps, draws, **meta):
    """A rollout's steps after its prefix and its reward, one scalar draw at a time."""
    shape = policy.shape
    if think == NO_TOOL:
        success_p = env.p_think[qid]
    else:
        args = [reference_choice(policy, shape.call(qid, think - 1, j), draws)
                for j in range(shape.call_steps)]
        steps += [Step(a, Segment.TOOL_CALL, logp_old=logp) for a, logp in args]
        steps.append(Step(args[0][0], Segment.OBSERVATION, logp_old=None, mask=False))
        success_p = env.p_variant[qid, think - 1, args[0][0]]
    answer, logp = reference_choice(policy, shape.answer(qid), draws)
    steps.append(Step(answer, Segment.ANSWER, logp_old=logp))
    return Trajectory(qid, tuple(steps), reward=int(draws.random() < success_p), **meta)


def reference_rollout(policy, env, qid, draws):
    think, logp = reference_choice(policy, policy.shape.think(qid), draws)
    steps = [Step(think, Segment.THINK, logp_old=logp)]
    if think != NO_TOOL:
        steps.append(Step(policy.shape.tool_open_id, Segment.TOOL_CALL, logp_old=0.0, mask=False))
    return reference_finish(policy, env, qid, think, steps, draws)


def reference_continuation(policy, env, source, draws, **meta):
    steps = list(source.steps[:PREFIX_STEPS])
    return reference_finish(policy, env, source.question_id, steps[0].action_id, steps, draws,
                            **meta)


def reference_batch(policy, env, rollouts: DrawTable, cfg, resample_rng, run_id="", step=0):
    """build_batch's chain on the rollout table's trajectories: its groups,
    triggered candidate lists, plan, results (whose continuations are drawn from
    resample_rng one node at a time), loss items and audit records."""
    n, drawn = cfg.group_size, rollouts.trajectories()
    groups = [group_of(*drawn[i : i + n]) for i in range(0, len(drawn), n)]
    advantages = [grpo_advantage(g.rewards()) for g in groups]
    triggered = {gi: rank_candidates(g, gi) for gi, g in enumerate(groups) if detect_trigger(g)}
    ratio = cfg.resample_ratio if cfg.algorithm == "axpo" else 0.0
    plan = allocate_budget(triggered.values(), cfg.resample_k, int(ratio * len(groups) * n))
    results = []
    for sel in plan.selected:
        meta = dict(run_id=run_id, step_index_in_training=step, is_resample=True,
                    source_prefix_id=f"{step}:{sel.prefix.question_id}:{sel.source_index}")
        conts = [reference_continuation(policy, env, sel.prefix, resample_rng, **meta)
                 for _ in range(plan.continuations_per_prefix)]
        results.append(Result(sel, conts, recovery_indicator([t.reward for t in conts])))
    audit = []
    for gi in triggered:
        head = {"step": step, "question_id": groups[gi].question_id}
        chosen = [r for r in results if r.selected.group_index == gi]
        audit += [{**head, "source_index": r.selected.source_index,
                   "confidence": r.selected.confidence,
                   "rewards": [t.reward for t in r.continuations], "recovery": r.recovery}
                  for r in chosen]
        if not chosen:
            audit.append({**head, "source_index": None, "confidence": None, "rewards": [],
                          "recovery": None})
    return SimpleNamespace(groups=groups, triggered=triggered, plan=plan, results=results,
                           items=assemble_step_losses(groups, advantages, results), audit=audit)
