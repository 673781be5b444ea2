"""Group-relative policy optimization with tool-call resampling, on a
synthetic agentic environment with exact coverage accounting."""

from .advantage import (
    ObjectiveConfig,
    apply_update,
    clipped_term,
    grpo_advantage,
    policy_gradient,
    surrogate_objective,
)
from .config import RunConfig, load_config, parse_config_text
from .coverage import (
    CoverageParams,
    coverage_raw,
    coverage_resample,
    monte_carlo_coverage,
)
from .env import EnvSpec, ToolEnv, make_env, sample_continuation, sample_rollout
from .harness import compare, gradcheck, train
from .policy import TabularPolicy, load_policy, save_policy
from .resample import (
    allocate_budget,
    assemble_step_losses,
    detect_trigger,
    prefix_advantage,
    rank_candidates,
    recovery_indicator,
    resample,
)
from .trajectory import Group, Segment, Step, Trajectory

__version__ = "0.1.0"

__all__ = [
    "CoverageParams",
    "EnvSpec",
    "Group",
    "ObjectiveConfig",
    "RunConfig",
    "Segment",
    "Step",
    "TabularPolicy",
    "ToolEnv",
    "Trajectory",
    "allocate_budget",
    "apply_update",
    "assemble_step_losses",
    "clipped_term",
    "compare",
    "coverage_raw",
    "coverage_resample",
    "detect_trigger",
    "gradcheck",
    "grpo_advantage",
    "load_config",
    "load_policy",
    "make_env",
    "monte_carlo_coverage",
    "parse_config_text",
    "policy_gradient",
    "prefix_advantage",
    "rank_candidates",
    "recovery_indicator",
    "resample",
    "sample_continuation",
    "sample_rollout",
    "save_policy",
    "surrogate_objective",
    "train",
]
