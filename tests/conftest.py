"""Shared builders for hand-constructed trajectories and controlled envs."""

from __future__ import annotations

import io
import math

import numpy as np
import pytest

from axpo.advantage import PROV_STANDARD, LossItem, loss_items
from axpo.env import ENV_PRESETS, EnvSpec, ToolEnv, draw_continuations
from axpo.policy import NO_TOOL, TabularPolicy
from axpo.resample import ResamplePlan, ResampleResult, resample
from axpo.trajectory import DrawTable, Group, Segment, Step, Trajectory, write_log

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


def loss_item(traj: Trajectory, advantage: float, provenance: str = PROV_STANDARD) -> LossItem:
    """One loss item on its own: the advantage on every step of traj, active on its
    unmasked steps in its provenance's span."""
    return loss_items([(traj, advantage, provenance)])[0]


def group_of(*trajs: Trajectory) -> Group:
    return Group(question_id=trajs[0].question_id, rollouts=tuple(trajs))


def written_lines(table: DrawTable) -> list[str]:
    """What write_log writes of table, split at its newlines: a last "" after the last line."""
    fh = io.StringIO()
    write_log(table, fh)
    return fh.getvalue().split("\n")


def drawn_resample(plan: ResamplePlan, policy, env, rng) -> list[ResampleResult]:
    """resample of plan over its K continuations per selected prefix, drawn from
    rng in plan order as build_batch draws them."""
    k = plan.continuations_per_prefix
    sources = [sel.prefix for sel in plan.selected for _ in range(k)]
    return resample(plan, draw_continuations(policy, env, sources, rng, is_resample=True))


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
