"""Synthetic agentic task environment.

Each question admits two routes: answer directly after thinking (success
probability p_think), or commit to one of m tool intents and emit a short
tool call whose first argument id selects a variant with its own success
probability. A configurable fraction of questions is tool-necessary
(p_think = 0), which is what makes tool use load-bearing.

The preset parameters are engineered so a policy that starts with a ~30%
tool-attempt rate exhibits both gap symptoms: tool use stays a minority
behavior, and tool-using subgroups frequently fail together.

Rollouts and continuations are drawn in batches (`draw_rollouts`,
`draw_continuations`), each from one block of uniforms, in the order
single draws would take them: per rollout, in turn, its think action, then
under a tool intent one call argument per call step, then its answer, then
its reward, each one `rng.random()`. A rollout takes 3 uniforms without a
tool and 3 + call_steps with one; a continuation, whose prefix is fixed,
takes 2 + call_steps. Each action is the count of its node's cdf entries at
or below its uniform, which is the action `Generator.choice` picks, and a
reward is 1 when its uniform is below the success probability. So a batch
gives the trajectories, and leaves the generator in the state, that one
rollout at a time would; `sample_rollout` and `sample_continuation` are
one-element batches.

A batch is drawn into one `DrawTable`: per rollout its question, think
action, call arguments, answer and reward, each decision's flat policy index
and logp, and its caller's log metadata. So a table is its log records, and
`write_log` writes them from its columns; training reads its columns too. A
continuation's source is a row of a rollout table, and its think cells are
that row's. Every drawn logp is checked once, where `_finish` builds its
table, and nothing built from a table checks it again. A log is read back as tables
too, by `tables_of`. `DrawTable.trajectories()` and hand-built tests are
the only makers of trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .policy import NO_TOOL, PolicyShape, TabularPolicy
from .trajectory import DrawTable, NotToolUsing, Trajectory, bad_logp

# Each question's success probability without a tool is drawn from this range.
THINK_SUCCESS_LOW, THINK_SUCCESS_HIGH = 0.4, 0.9
# The initial policy's think-node mass on the tool intents, split evenly.
INITIAL_TOOL_RATE = 0.3


@dataclass(frozen=True)
class EnvSpec:
    num_questions: int
    tool_necessary_fraction: float
    intents_per_question: int
    variants_per_intent: int
    call_steps: int = 1
    num_answers: int = 4
    variant_zero_prob: float = 0.3
    variant_success_low: float = 0.05
    variant_success_high: float = 0.6
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.tool_necessary_fraction <= 1.0:
            raise ValueError("tool_necessary_fraction must be in [0, 1]")
        if self.intents_per_question < 1 or self.variants_per_intent < 1:
            raise ValueError("need at least one intent and one variant")
        if self.call_steps < 1:
            raise ValueError("call_steps must be positive")


class ToolEnv:
    """Materialized environment tables drawn once from an EnvSpec."""

    def __init__(self, spec: EnvSpec):
        self.spec = spec
        rng = np.random.default_rng(spec.seed)
        q_count = spec.num_questions
        m, v = spec.intents_per_question, spec.variants_per_intent

        n_necessary = int(round(spec.tool_necessary_fraction * q_count))
        order = rng.permutation(q_count)
        self.tool_necessary = np.zeros(q_count, dtype=bool)
        self.tool_necessary[order[:n_necessary]] = True

        self.p_think = rng.uniform(THINK_SUCCESS_LOW, THINK_SUCCESS_HIGH, size=q_count)
        self.p_think[self.tool_necessary] = 0.0

        self.p_variant = rng.uniform(
            spec.variant_success_low, spec.variant_success_high, size=(q_count, m, v)
        )
        self.p_variant[rng.random((q_count, m, v)) < spec.variant_zero_prob] = 0.0
        for q in np.nonzero(self.tool_necessary)[0]:
            while self.p_variant[q].max() <= 0.0:
                block = rng.uniform(spec.variant_success_low, spec.variant_success_high, size=(m, v))
                block[rng.random((m, v)) < spec.variant_zero_prob] = 0.0
                self.p_variant[q] = block

    @property
    def num_questions(self) -> int:
        return self.spec.num_questions

    def policy_shape(self) -> PolicyShape:
        s = self.spec
        return PolicyShape(
            num_questions=s.num_questions,
            num_intents=s.intents_per_question,
            call_steps=s.call_steps,
            num_variants=s.variants_per_intent,
            num_answers=s.num_answers,
        )

    def initial_policy(self, temperature: float = 1.0) -> TabularPolicy:
        """Uniform call/answer nodes; think node biased to the initial tool rate."""
        shape, q0 = self.policy_shape(), INITIAL_TOOL_RATE
        logits = np.zeros(shape.size)
        think = shape.split(logits)[0]
        think[:, NO_TOOL] = np.log(1.0 - q0) * temperature
        think[:, 1:] = np.log(q0 / self.spec.intents_per_question) * temperature
        return TabularPolicy(shape, logits, temperature)


def _draw(policy: TabularPolicy, first: np.ndarray, width: int, u: np.ndarray) -> np.ndarray:
    """The flat index each action node (the flat slice first:first + width)
    draws with its uniform in u, of first's shape: first plus the count of the
    node's cdf entries <= u, the action Generator.choice picks with that uniform."""
    return first + (policy.cdf[first[..., None] + np.arange(width)] <= u[..., None]).sum(-1)


def _finish(
    policy: TabularPolicy,
    env: ToolEnv,
    question_ids: np.ndarray,
    think: np.ndarray,
    u: np.ndarray,
    think_logp: Optional[np.ndarray] = None,
    **metadata,
) -> DrawTable:
    """The table of the rollouts of question_ids whose think actions are think.
    Row i of u holds the uniforms that follow rollout i's think decision: under
    a tool intent one per argument step, then the answer's and the reward's;
    without one, the answer's and the reward's. think_logp, given, holds the
    think decisions' logps in place of the policy's (a continuation's are its
    source's). A drawn logp must be finite and <= 0, as the reader requires of
    a read one, or ValueError names it: the one check of the sampler's output."""
    shape = policy.shape
    n, c = len(question_ids), shape.call_steps
    rows, tool = np.arange(n), np.flatnonzero(think != NO_TOOL)
    q, intent = question_ids[tool], think[tool] - 1
    first = shape.node_starts(question_ids, think)
    flat = np.full((n, 2 + c), -1, dtype=np.int64)
    flat[:, 0] = first[:, 0] + think
    flat[tool, 1:-1] = _draw(policy, first[tool, 1:-1], shape.num_variants, u[tool, :c])
    at = np.where(think != NO_TOOL, c, 0)  # the answer's uniform
    flat[:, -1] = _draw(policy, first[:, -1], shape.num_answers, u[rows, at])
    action = np.where(flat >= 0, flat - first, -1)
    logp = np.where(flat >= 0, policy.logp[flat], np.nan)
    if think_logp is not None:
        logp[:, 0] = think_logp
    bad = (flat >= 0) & ~(np.isfinite(logp) & (logp <= 0.0))
    if bad.any():
        raise ValueError(bad_logp(logp[bad][0].item()))
    success_p = env.p_think[question_ids]
    success_p[tool] = env.p_variant[q, intent, action[tool, 1]]  # the first argument's variant
    reward = (u[rows, at + 1] < success_p).astype(np.int64)
    return DrawTable(question_ids, reward, action, flat, logp, shape.tool_open_id, **metadata)


def draw_rollouts(
    policy: TabularPolicy, env: ToolEnv, question_ids: Sequence[int], rng: np.random.Generator,
    *, run_id: str = "", step: int = 0,
) -> DrawTable:
    """The table of one rollout and its Bernoulli outcome reward per entry of
    question_ids, in the draw order of the module docstring.

    A block of uniforms long enough for every rollout to use a tool is read
    and rng's state put back, and the think draws are walked in order to find
    each rollout's offset in it. Then exactly the used count is consumed from
    rng with one rng.random(used), which leaves rng where single draws would
    (`bit_generator.advance` would not: it drops a buffered 32-bit half-word),
    and every other decision is one array comparison per node family.
    """
    shape = policy.shape
    q = np.asarray(question_ids, dtype=np.int64).reshape(-1)
    if q.size and not (0 <= q.min() and q.max() < shape.num_questions):
        raise ValueError(f"question ids outside [0, {shape.num_questions})")
    stride = 3 + shape.call_steps  # the uniforms of a tool-using rollout
    state = rng.bit_generator.state
    block = rng.random(q.size * stride)
    rng.bit_generator.state = state
    think_first = shape.think(q).start
    # A think draw at or above its node's first cdf entry picks a tool intent.
    no_tool_below = policy.cdf[think_first].tolist()
    u, start, used = block.tolist(), [], 0
    for cut in no_tool_below:
        start.append(used)
        used += stride if u[used] >= cut else 3
    rng.random(used)

    start = np.array(start, dtype=np.int64)
    think = _draw(policy, think_first, 1 + shape.num_intents, block[start]) - think_first
    rest = block[start[:, None] + np.arange(1, stride)]
    return _finish(policy, env, q, think, rest, run_id=run_id, step=step)


def sample_rollout(
    policy: TabularPolicy, env: ToolEnv, question_id: int, rng: np.random.Generator
) -> Trajectory:
    """Draw one trajectory and its Bernoulli outcome reward."""
    return draw_rollouts(policy, env, [question_id], rng).trajectories()[0]


def draw_continuations(
    policy: TabularPolicy, env: ToolEnv, table: DrawTable, rows: Sequence[int],
    rng: np.random.Generator, *, run_id: str = "", step: int = 0,
    source_prefix_ids: Optional[Sequence[str]] = None,
) -> DrawTable:
    """The table of one continuation per entry of rows, whose source is that row
    of table: its source's think decision, then fresh call-argument steps,
    answer and reward, from one rng.random block; continuation i's
    source_prefix_id is source_prefix_ids[i], if given.

    Every continuation is tool-using by construction. A source row without a
    tool call, or whose think action is no tool intent, raises NotToolUsing
    before anything is drawn.
    """
    rows = np.asarray(rows, dtype=np.int64)
    bad = ~table.tool_using[rows] | (table.action[rows, 0] == NO_TOOL)
    if bad.any():
        row = rows[bad][0]
        raise NotToolUsing(f"row {row}, question {table.question[row]}, has no tool-call prefix")
    width = 2 + policy.shape.call_steps
    u = rng.random(rows.size * width).reshape(-1, width)
    return _finish(policy, env, table.question[rows], table.action[rows, 0], u,
                   table.logp[rows, 0], run_id=run_id, step=step,
                   source_prefix_ids=source_prefix_ids)


def sample_continuation(
    policy: TabularPolicy, env: ToolEnv, table: DrawTable, row: int, rng: np.random.Generator
) -> Trajectory:
    """Resample from a tool-using row's prefix: its first PREFIX_STEPS steps are
    its source's, and the call-argument steps, the answer and the reward are fresh."""
    return draw_continuations(policy, env, table, [row], rng).trajectories()[0]


def with_metadata(traj: Trajectory, **fields) -> Trajectory:
    """A copy of traj with the given log metadata replaced."""
    return replace(traj, **fields)


# -- presets -------------------------------------------------------------


def gap_env_spec(seed: int = 0) -> EnvSpec:
    """200 questions, 60% tool-necessary, starting tool-attempt rate ~0.3.

    Good tool-call variants are sparse (60% dead) but high-payoff, so raw
    sampling rarely reinforces tool use while prefix-fixed resampling finds
    the working variants quickly.
    """
    return EnvSpec(
        num_questions=200,
        tool_necessary_fraction=0.6,
        intents_per_question=3,
        variants_per_intent=4,
        variant_zero_prob=0.6,
        variant_success_low=0.3,
        variant_success_high=0.9,
        seed=seed,
    )


def mini_env_spec(seed: int = 0) -> EnvSpec:
    """Small preset for fast tests."""
    return EnvSpec(
        num_questions=12,
        tool_necessary_fraction=0.5,
        intents_per_question=2,
        variants_per_intent=3,
        seed=seed,
    )


ENV_PRESETS = {
    "gap-env": gap_env_spec,
    "mini": mini_env_spec,
}


def make_env(preset: str, seed: int = 0) -> ToolEnv:
    if preset not in ENV_PRESETS:
        raise ValueError(f"unknown env preset {preset!r}; known: {sorted(ENV_PRESETS)}")
    return ToolEnv(ENV_PRESETS[preset](seed=seed))
