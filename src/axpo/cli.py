"""Command-line entry points: train, coverage, diag, gradcheck, compare."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import harness
from .config import RunConfig, load_config, parse_value
from .coverage import (
    CoverageParams,
    DomainError,
    coverage_raw,
    coverage_resample,
    monte_carlo_coverage,
)
from .diagnostics import (
    METRICS_COLUMNS,
    compute_step_metrics,  # noqa: F401  (bound here for the benchmark's tracer)
    metrics_row,
    read_audit_log,  # noqa: F401  (bound here for the benchmark's tracer)
)
from .env import make_env
from .trajectory import ParseError
from .trajectory import read_records as read_trajectory_log  # noqa: F401  (for the tracer)


# `train` flags whose name is not the config key with dashes.
_FLAG_NAMES = {
    "env_preset": "--env", "learning_rate": "--lr", "epochs_per_batch": "--epochs", "out_dir": "--out"
}


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    """One flag per RunConfig field; its value parses as that key's config-file value."""
    p.add_argument("--config", type=Path, help="flat key=value config file")
    for f in fields(RunConfig):
        flag = _FLAG_NAMES.get(f.name, "--" + f.name.replace("_", "-"))
        p.add_argument(flag, dest=f.name)


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """Config file first, then command-line overrides on top."""
    cfg = RunConfig() if args.config is None else load_config(args.config)
    overrides = {
        f.name: parse_value(f.name, getattr(args, f.name))
        for f in fields(RunConfig)
        if getattr(args, f.name) is not None
    }
    return replace(cfg, **overrides)


def cmd_train(args: argparse.Namespace) -> int:
    """A config rejected before any file is written is a usage error (exit 2)."""
    try:
        cfg = config_from_args(args)
    except UnicodeDecodeError as exc:
        args.usage_error(f"cannot read --config {args.config}: {exc}")
    except ValueError as exc:
        args.usage_error(str(exc))
    except OSError as exc:
        args.usage_error(f"cannot read --config {exc.filename}: {exc.strerror}")
    out_dir = harness.train(cfg)
    print(f"run complete: {out_dir}")
    return 0


def cmd_coverage(args: argparse.Namespace) -> int:
    if args.random < 0:
        raise DomainError(f"random must be non-negative, got {args.random}")
    if args.seed < 0:
        raise DomainError(f"seed must be non-negative, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    rows = []
    if args.random > 0:
        for _ in range(args.random):
            rows.append((rng.random(), rng.random(), rng.random(), args.n))
    else:
        rows.append((args.q, args.p_tool, args.p_prefix, args.n))
    # Every row is computed before the first is printed, so a bad value prints nothing.
    lines = ["q,p_tool,p_prefix,n,raw_closed,resample_closed,raw_mc,resample_mc,margin"]
    for q, p_tool, p_prefix, n in rows:
        params = CoverageParams(q=q, p_tool=p_tool, p_prefix=p_prefix, n=n)
        raw_cf = coverage_raw(q, p_tool, n)
        res_cf = coverage_resample(p_prefix, n)
        mc = monte_carlo_coverage(params, args.trials, rng)
        lines.append(
            f"{q!r},{p_tool!r},{p_prefix!r},{n},"
            f"{raw_cf!r},{res_cf!r},{mc.raw_estimate!r},{mc.resample_estimate!r},"
            f"{res_cf - raw_cf!r}"
        )
    print("\n".join(lines))
    return 0


def recompute_metrics(sdir: Path) -> list[str]:
    """Rebuild every metrics row of one seed dir from its logs, read under its config.txt
    and seed (harness.seed_config): the rows harness.replay derives and checks, as resume
    does."""
    cfg, seed = harness.seed_config(sdir)
    shape = make_env(cfg.env_preset).policy_shape()
    rows = harness.replay(sdir, cfg, shape, seed)
    return [",".join(METRICS_COLUMNS), *(metrics_row(row) for row, _ in rows)]


def cmd_diag(args: argparse.Namespace) -> int:
    for line in recompute_metrics(args.run_dir):
        print(line)
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    report = harness.gradcheck(num_checks=args.checks, h=args.h, seed=args.seed)
    print(
        f"checked={report.configs_checked} kinks_excluded={report.kinks_excluded} "
        f"max_abs_error={report.max_abs_error:.3e}"
    )
    return 0 if report.passed else 1


def cmd_compare(args: argparse.Namespace) -> int:
    result = harness.compare(args.run_a, args.run_b)
    print(json.dumps(result, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="axpo")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run training for every configured seed")
    _add_train_flags(p_train)
    p_train.set_defaults(func=cmd_train, usage_errors=(harness.ConfigMismatch, ParseError))

    p_cov = sub.add_parser("coverage", help="closed-form vs Monte Carlo coverage sweep (CSV)")
    p_cov.add_argument("--q", type=float, default=0.3)
    p_cov.add_argument("--p-tool", dest="p_tool", type=float, default=0.2)
    p_cov.add_argument("--p-prefix", dest="p_prefix", type=float, default=0.2)
    p_cov.add_argument("--n", type=int, default=4)
    p_cov.add_argument("--random", type=int, default=0, help="emit this many random rows instead")
    p_cov.add_argument("--trials", type=int, default=200000)
    p_cov.add_argument("--seed", type=int, default=0)
    p_cov.set_defaults(func=cmd_coverage, usage_errors=(DomainError,))

    p_diag = sub.add_parser("diag", help="recompute metrics from a seed dir's logs")
    p_diag.add_argument("run_dir", type=Path)
    p_diag.set_defaults(func=cmd_diag, usage_errors=(OSError, ParseError, harness.ConfigMismatch))

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p_grad.add_argument("--checks", type=int, default=12)
    p_grad.add_argument("--h", type=float, default=1e-5)
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.set_defaults(func=cmd_gradcheck, usage_errors=(harness.BadGradcheckInput,))

    p_cmp = sub.add_parser("compare", help="final-metric deltas between two run dirs")
    p_cmp.add_argument("run_a", type=Path)
    p_cmp.add_argument("run_b", type=Path)
    p_cmp.set_defaults(
        func=cmd_compare, usage_errors=(harness.MissingRun, harness.ConfigMismatch, ParseError)
    )

    for p in sub.choices.values():
        p.set_defaults(usage_error=p.error)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run a subcommand; the input errors it names in usage_errors exit 2 with
    a one-line usage error instead of a traceback."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except args.usage_errors as exc:
        message = str(exc)
        if isinstance(exc, OSError) and exc.filename is not None:
            message = f"cannot read {exc.filename}: {exc.strerror}"
        args.usage_error(message)


if __name__ == "__main__":
    sys.exit(main())
