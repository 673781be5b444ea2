"""Synthetic agentic task environment.

Each question admits two routes: answer directly after thinking (success
probability p_think), or commit to one of m tool intents and emit a short
tool call whose first argument id selects a variant with its own success
probability. A configurable fraction of questions is tool-necessary
(p_think = 0), which is what makes tool use load-bearing.

The preset parameters are engineered so a policy that starts with a ~30%
tool-attempt rate exhibits both gap symptoms: tool use stays a minority
behavior, and tool-using subgroups frequently fail together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .policy import NO_TOOL, DecisionTable, PolicyShape, TabularPolicy
from .trajectory import Prefix, Segment, Step, Trajectory


class InvalidPrefix(ValueError):
    """Raised when a continuation is requested from a non-tool-call boundary."""


@dataclass(frozen=True)
class EnvSpec:
    num_questions: int
    tool_necessary_fraction: float
    intents_per_question: int
    variants_per_intent: int
    call_steps: int = 1
    num_answers: int = 4
    think_success_low: float = 0.4
    think_success_high: float = 0.9
    variant_zero_prob: float = 0.3
    variant_success_low: float = 0.05
    variant_success_high: float = 0.6
    initial_tool_rate: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.tool_necessary_fraction <= 1.0:
            raise ValueError("tool_necessary_fraction must be in [0, 1]")
        if not 0.0 < self.initial_tool_rate < 1.0:
            raise ValueError("initial_tool_rate must be in (0, 1)")
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

        self.p_think = rng.uniform(spec.think_success_low, spec.think_success_high, size=q_count)
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
        s = self.spec
        policy = TabularPolicy.zeros(self.policy_shape(), temperature=temperature)
        q0 = s.initial_tool_rate
        policy.think_logits[:, NO_TOOL] = np.log(1.0 - q0) * temperature
        policy.think_logits[:, 1:] = np.log(q0 / s.intents_per_question) * temperature
        return policy

    # -- exact path probabilities (the policy is tabular, so these are exact) --

    def prefix_success_prob(self, policy: TabularPolicy, question_id: int, intent: int) -> float:
        """Exact success probability of a continuation committed to one intent."""
        var_probs = policy.probs(("call", question_id, intent, 0))
        return float(var_probs @ self.p_variant[question_id, intent])


def _finish(
    table: DecisionTable,
    env: ToolEnv,
    question_id: int,
    intent: Optional[int],
    steps: list[Step],
    rng: np.random.Generator,
) -> Trajectory:
    """Complete a trajectory after its think step (and opening marker, under a
    tool intent): the call-argument steps and the observation, then the answer
    step, then the Bernoulli outcome reward, drawn in that order. With intent
    None the rollout answers without a tool."""
    if intent is None:
        success_p = env.p_think[question_id]
    else:
        variant = None
        for j in range(table.shape.call_steps):
            arg, logp = table.draw(("call", question_id, intent, j), rng)
            steps.append(Step(arg, Segment.TOOL_CALL, logp_old=logp))
            if j == 0:
                variant = arg
        success_p = env.p_variant[question_id, intent, variant]
        steps.append(Step(int(variant), Segment.OBSERVATION, logp_old=None, mask=False))

    ans, logp = table.draw(("answer", question_id), rng)
    steps.append(Step(ans, Segment.ANSWER, logp_old=logp))

    reward = int(rng.random() < success_p)
    return Trajectory(question_id=question_id, steps=tuple(steps), reward=reward, turn_count=1)


def sample_rollout(
    table: DecisionTable, env: ToolEnv, question_id: int, rng: np.random.Generator
) -> Trajectory:
    """Draw one trajectory and its Bernoulli outcome reward."""
    a, logp = table.draw(("think", question_id), rng)
    steps = [Step(a, Segment.THINK, logp_old=logp)]
    if a == NO_TOOL:
        return _finish(table, env, question_id, None, steps, rng)
    # Opening marker: deterministic given the intent choice, excluded from the loss.
    steps.append(Step(table.shape.tool_open_id, Segment.TOOL_CALL, logp_old=0.0, mask=False))
    return _finish(table, env, question_id, a - 1, steps, rng)


def prefix_intent(prefix: Prefix) -> int:
    """The tool intent the prefix commits to; raises InvalidPrefix otherwise."""
    steps = prefix.source.steps
    cut = prefix.cut_index
    if cut >= len(steps) or steps[cut].segment is not Segment.TOOL_CALL:
        raise InvalidPrefix("prefix cut does not sit at a tool-call opening")
    if cut > 0 and steps[cut - 1].segment is Segment.TOOL_CALL:
        raise InvalidPrefix("prefix cut sits inside a tool call, not at its opening")
    think_action = None
    for s in steps[:cut]:
        if s.segment is Segment.THINK:
            think_action = s.action_id
    if think_action is None or think_action == NO_TOOL:
        raise InvalidPrefix("prefix does not commit to a tool intent")
    return think_action - 1


def sample_continuation(
    table: DecisionTable, env: ToolEnv, prefix: Prefix, rng: np.random.Generator
) -> Trajectory:
    """Resample from a fixed prefix: shared steps, fresh tool call and answer.

    Every continuation is tool-using by construction; the first post-prefix
    steps are the resampled call-argument steps.
    """
    intent = prefix_intent(prefix)
    return _finish(table, env, prefix.source.question_id, intent, list(prefix.steps), rng)


# The Trajectory fields that hold log metadata; its checks read none of them.
_METADATA_FIELDS = frozenset(
    ("run_id", "step_index_in_training", "is_resample", "source_prefix_id")
)


def with_metadata(traj: Trajectory, **fields) -> Trajectory:
    """Attach log metadata (run_id, training step, resample provenance).

    A copy of the already validated trajectory with only metadata replaced,
    so Trajectory's checks are not run again.
    """
    unknown = fields.keys() - _METADATA_FIELDS
    if unknown:
        raise TypeError(f"not metadata fields: {sorted(unknown)}")
    out = object.__new__(Trajectory)
    out.__dict__.update(traj.__dict__, **fields)
    return out


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
