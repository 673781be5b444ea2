"""Golden digests: the sha256 of every byte-compared run file for a few fixed
runs, and of one coverage sweep's CSV, pinned across code versions.

Every draw comes from a (seed, phase, step) stream and every float is written
with repr, so these bytes depend only on the code and on numpy's generators.
A refactor that keeps behaviour keeps every digest. If a change alters them on
purpose, re-pin them in a commit of their own that says why.
"""

import hashlib
import json

import numpy as np
import pytest

from axpo import cli
from axpo.config import RunConfig
from axpo.harness import (
    AUDIT_LOG,
    CHECKPOINT,
    EVAL_LOG,
    METRICS_CSV,
    TRAJECTORY_LOG,
    gradcheck,
    seed_dir,
    train,
)

LOG_FILES = (TRAJECTORY_LOG, EVAL_LOG, AUDIT_LOG, METRICS_CSV, CHECKPOINT)

# The numpy version the digests below were taken with.
PINNED_NUMPY = "2.4.6"

RUNS = {
    "mini-axpo": dict(
        algorithm="axpo", env_preset="mini", questions_per_step=6, group_size=4,
        eval_every=5, steps=10,
    ),
    "gap-env-axpo": dict(algorithm="axpo", env_preset="gap-env", steps=5),
    "gap-env-grpo": dict(algorithm="grpo", env_preset="gap-env", steps=5),
}

GOLDEN = {
    "mini-axpo": {
        TRAJECTORY_LOG: "8d7d6bdb1428faaae9fbe2eb6ad2db5f71dfeabda3ef5c156cbf09ae90cc4698",
        EVAL_LOG: "441334d78788235424e44512399d3c3ec1e9611b5856a75a5fe3a788eb2bcb74",
        AUDIT_LOG: "594196f6961d20a3f95968daf8424bb4e4921b784e622771ce651b75d55158ce",
        METRICS_CSV: "753c3a499639d18592094e55ab7da44403009b02a0a97879e1b75c5152e28421",
        CHECKPOINT: "1c663b079fe388e4fda8b90a0a3f7b9fca6ced3f9b0ef74f27641caedee0ed8a",
    },
    "gap-env-axpo": {
        TRAJECTORY_LOG: "5bc6b21cb0cf6eaa7174d3aacc649080e5f49957ad52f0edaa718a3502b363e4",
        EVAL_LOG: "568ba6ed61c168e46db7f0546b4223a360bc630bee6eb914f5f470ddb719edfc",
        AUDIT_LOG: "d167a09d37f77c10bd00590e5e849a9a9b3ad7798365310572490b9539877579",
        METRICS_CSV: "d411695ece8c25215648f873526cd29f9882f7df6932486d208105b51c270c67",
        CHECKPOINT: "e9138345cf97060df723f6ac79068b5a8b43193a7a0c8949a8adc8d2b4ec7291",
    },
    "gap-env-grpo": {
        TRAJECTORY_LOG: "de5a28f2bef03383e893f576b87c3bd2bb3cf3c7aa388cc79885f1487cae0a3f",
        EVAL_LOG: "568ba6ed61c168e46db7f0546b4223a360bc630bee6eb914f5f470ddb719edfc",
        AUDIT_LOG: "9443b5d19daf9d834b501573284fca7c45956d9e7a0b58825017cc521a93c6e4",
        METRICS_CSV: "2796422aaa8fdcaab9e974a6d75d46f2128ccdb598a5c1fb6df7f59880ce1628",
        CHECKPOINT: "629c88f1c77264dd1b9d5e579fd8ea74a4bd1d7f9b84ab4f43f3cfc08019186a",
    },
}

GOLDEN_GRADCHECK = (
    "GradcheckReport(configs_checked=6, kinks_excluded=0, max_abs_error=4.29841717775048e-11)"
)

# Several Monte Carlo blocks and a partial last one per row.
COVERAGE_ARGV = ["coverage", "--random", "8", "--trials", "100003", "--seed", "0"]
GOLDEN_COVERAGE = "6a1a20b1e98efc7f6d67eb7156fa7e697523ed0c13bfc4dbdd54a4b243409c4f"


def _versions() -> str:
    return f"digests pinned with numpy {PINNED_NUMPY}, running numpy {np.__version__}"


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_log_digests(name, tmp_path):
    out = train(RunConfig(out_dir=str(tmp_path / name), **RUNS[name]))
    sdir = seed_dir(out, 0)
    got = {f: hashlib.sha256((sdir / f).read_bytes()).hexdigest() for f in LOG_FILES}
    changed = sorted(f for f in LOG_FILES if got[f] != GOLDEN[name][f])
    assert not changed, f"{name}: {changed} changed ({_versions()})"
    if RUNS[name]["algorithm"] == "axpo":
        audit = [json.loads(line) for line in (sdir / AUDIT_LOG).read_text().splitlines()]
        assert any(rec["rewards"] for rec in audit), f"{name} never resampled"


def test_gradcheck_report():
    got = repr(gradcheck(num_checks=6, seed=4))
    assert got == GOLDEN_GRADCHECK, f"{got} ({_versions()})"


def test_coverage_sweep_stdout(capsys):
    assert cli.main(COVERAGE_ARGV) == 0
    got = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == GOLDEN_COVERAGE, f"axpo {' '.join(COVERAGE_ARGV)} changed ({_versions()})"
