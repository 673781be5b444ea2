"""Run configuration: defaults, flat key=value config files, CLI overrides."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from pathlib import Path

from .advantage import ObjectiveConfig
from .env import ENV_PRESETS

OUTPUT_ROOT_ENV_VAR = "AXPO_OUTPUT_ROOT"

CONFIG_FILE_NAME = "config.txt"

ALGORITHMS = ("grpo", "axpo")


@dataclass(frozen=True)
class RunConfig:
    algorithm: str = "grpo"
    env_preset: str = "gap-env"
    group_size: int = 8          # N rollouts per question
    resample_k: int = 4          # K continuations per selected prefix
    resample_ratio: float = 0.25  # r, extra continuations capped at floor(r*B*N)
    questions_per_step: int = 32  # B
    steps: int = 200
    seeds: tuple[int, ...] = (0,)
    eps_low: float = 0.2
    eps_high: float = 0.4
    beta: float = 1e-3
    learning_rate: float = 0.1
    epochs_per_batch: int = 1
    eval_every: int = 10
    eval_rollouts: int = 4
    out_dir: str = ""

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")
        if self.env_preset not in ENV_PRESETS:
            raise ValueError(f"unknown env preset {self.env_preset!r}")
        if self.group_size < 2:
            raise ValueError("group_size must be >= 2")
        if self.resample_k < 2:
            raise ValueError("resample_k must be >= 2 (per-prefix normalization needs variance)")
        if not 0.0 <= self.resample_ratio < 1.0:
            raise ValueError("resample_ratio must be in [0, 1)")
        if self.steps < 0 or self.questions_per_step < 1:
            raise ValueError("steps must be >= 0 and questions_per_step >= 1")
        if not self.seeds or min(self.seeds) < 0:
            raise ValueError("need at least one seed, and seeds must be >= 0")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must be distinct, got {','.join(map(str, self.seeds))}")
        if self.eval_every < 1 or self.eval_rollouts < 1:
            raise ValueError("eval_every and eval_rollouts must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError("learning_rate must be finite and nonnegative")
        if self.epochs_per_batch < 1:
            raise ValueError("epochs_per_batch must be >= 1")
        self.objective  # validates the clip widths and beta

    @property
    def objective(self) -> ObjectiveConfig:
        return ObjectiveConfig(eps_low=self.eps_low, eps_high=self.eps_high, beta=self.beta)

    def resolved_out_dir(self) -> Path:
        if self.out_dir:
            return Path(self.out_dir)
        root = os.environ.get(OUTPUT_ROOT_ENV_VAR, "runs")
        return Path(root) / f"{self.algorithm}-{self.env_preset}"


# Each key parses as the type of its default; seeds is a comma-separated list.
_KEY_TYPES = {f.name: type(f.default) for f in fields(RunConfig)}


def parse_value(key: str, raw: str):
    """One config value from its text, as a config file line or a `train` flag gives it."""
    if key not in _KEY_TYPES:
        raise ValueError(f"unknown config key {key!r}")
    try:
        if key == "seeds":
            return tuple(int(s) for s in raw.split(","))
        return _KEY_TYPES[key](raw)
    except ValueError as exc:
        raise ValueError(f"bad value for {key}: {exc}") from None


def parse_config_text(text: str) -> RunConfig:
    """Parse `key = value` lines; '#' starts a comment."""
    overrides = {}
    for i, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {i}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        overrides[key] = parse_value(key, raw)
    return RunConfig(**overrides)


def load_config(path: Path) -> RunConfig:
    return parse_config_text(path.read_text(encoding="utf-8"))


def save_config(cfg: RunConfig, path: Path) -> None:
    """Write config_text(cfg) to a temp file that then replaces path, so a
    write that fails part-way leaves no torn config behind."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(config_text(cfg), encoding="utf-8")
    tmp.replace(path)


def config_text(cfg: RunConfig) -> str:
    """Effective config in the same flat key=value format."""
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.name == "seeds":
            value = ",".join(str(s) for s in value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
