"""Acceptance suite: the ten release criteria, one test per criterion.

Each test prints a single PASS/FAIL line with its criterion number so the
suite output doubles as a release report.
"""

import dataclasses
import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from axpo.advantage import ObjectiveConfig, grpo_advantage, clipped_term, surrogate_objective
from axpo.config import RunConfig
from axpo.coverage import CoverageParams, coverage_raw, coverage_resample, monte_carlo_coverage
from axpo.diagnostics import parse_metrics_csv
from axpo.env import ToolEnv, mini_env_spec
from axpo.harness import (
    AUDIT_LOG,
    CHECKPOINT,
    EVAL_LOG,
    METRICS_CSV,
    TRAJECTORY_LOG,
    _active_ratios,
    _perturbed,
    build_batch,
    finite_difference_gradient,
    gradcheck,
    seed_dir,
    seed_summary,
    train,
)
from axpo.resample import prefix_advantage, recovery_indicator
from axpo.advantage import policy_gradient

LOG_FILES = (TRAJECTORY_LOG, EVAL_LOG, AUDIT_LOG, METRICS_CSV, CHECKPOINT)


@contextmanager
def report(number: int, description: str):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description} ({time.time() - start:.1f}s)")


def test_criterion_1_equation_exactness():
    with report(1, "advantage and clip equations reproduce worked examples to 1e-9"):
        start = time.time()
        root3 = math.sqrt(3)
        cases = [
            (grpo_advantage([1, 0]), [1.0, -1.0]),
            (grpo_advantage([1, 0, 0, 0]), [root3, -1 / root3, -1 / root3, -1 / root3]),
            (grpo_advantage([1, 1, 1, 1]), [0.0] * 4),
            (grpo_advantage([1, 0, 0, 0]), [root3, -1 / root3, -1 / root3, -1 / root3]),
            (grpo_advantage([1, 1, 0, 0]), [1.0, 1.0, -1.0, -1.0]),
            (grpo_advantage([0, 0, 0, 0]), [0.0] * 4),
        ]
        for got, want in cases:
            assert np.abs(np.array(got) - np.array(want)).max() < 1e-9
        assert recovery_indicator([0, 0, 1, 0]) == 1
        assert recovery_indicator([0, 0, 0, 0]) == 0
        assert recovery_indicator([1, 1, 1, 1]) == 1
        assert abs(prefix_advantage([0, 1, 0, 0], 0, 1) - 1.0) < 1e-9
        assert abs(prefix_advantage([0, 0, 0, 0], 0, 0)) < 1e-9
        assert abs(prefix_advantage([0, 0, 0, 0], 0, 1) - root3) < 1e-9
        cfg = ObjectiveConfig()
        assert abs(clipped_term(2.0, 1.0, cfg) - 1.4) < 1e-9
        assert abs(clipped_term(0.5, -1.0, cfg) - (-0.8)) < 1e-9
        assert abs(clipped_term(1.0, 0.5, cfg) - 0.5) < 1e-9
        assert time.time() - start < 1.0


def test_criterion_2_dominance_proposition():
    with report(2, "resampling coverage dominates raw coverage on 10,000 random points"):
        start = time.time()
        rng = np.random.default_rng(2)
        checked = 0
        while checked < 10_000:
            q, p_tool = rng.uniform(0, 1, size=2)
            raw_rate = q * p_tool
            p_prefix = rng.uniform(raw_rate, 1.0)
            n = int(rng.integers(1, 33))
            res = coverage_resample(p_prefix, n)
            raw = coverage_raw(q, p_tool, n)
            assert res >= raw
            if p_prefix > raw_rate and 0.0 < raw_rate < 1.0:
                if res < 1.0:
                    assert res - raw > 0.0
                else:
                    # Both coverages saturate to 1.0 in doubles; the strict
                    # margin is witnessed on the log-complement scale, where
                    # 1 - coverage = exp(n * log1p(-p)) never saturates.
                    assert n * math.log1p(-raw_rate) > n * math.log1p(-p_prefix)
            checked += 1
        assert time.time() - start < 5.0


def test_criterion_3_monte_carlo_vs_closed_form():
    with report(3, "100k-trial Monte Carlo lands within 3 SE of the closed forms"):
        start = time.time()
        params = CoverageParams(q=0.3, p_tool=0.2, p_prefix=0.2, n=4)
        raw_target, res_target = 0.21927, 0.5904
        raw_se = math.sqrt(raw_target * (1 - raw_target) / 100_000)
        res_se = math.sqrt(res_target * (1 - res_target) / 100_000)
        hits = 0
        for seed in range(100):
            mc = monte_carlo_coverage(params, 100_000, np.random.default_rng((3, seed)))
            if (
                abs(mc.raw_estimate - raw_target) <= 3 * raw_se
                and abs(mc.resample_estimate - res_target) <= 3 * res_se
            ):
                hits += 1
        assert hits >= 95, f"only {hits}/100 seeds inside the 3-SE envelope"
        assert time.time() - start < 30.0


def test_criterion_4_gradient_check():
    with report(4, "analytic gradient matches finite differences within 1e-6 over 20 configs"):
        start = time.time()
        rep = gradcheck(num_checks=20, h=1e-5, seed=4)
        assert rep.configs_checked + rep.kinks_excluded == 20
        assert rep.configs_checked >= 15
        assert rep.max_abs_error <= 1e-6, rep
        print(f"  gradcheck: {rep.configs_checked} checked, "
              f"{rep.kinks_excluded} kink-adjacent excluded, "
              f"max abs deviation {rep.max_abs_error:.2e}")

        # Explicitly exercise both clip sides in one strongly-shifted config.
        cfg = ObjectiveConfig(beta=1e-3)
        batch_cfg = RunConfig(
            algorithm="axpo", env_preset="mini", questions_per_step=4, group_size=4, steps=1
        )
        attempt = 0
        while True:
            rng = np.random.default_rng((4, attempt))
            env = ToolEnv(mini_env_spec(seed=attempt))
            rollout = _perturbed(env.initial_policy(), rng, 0.5)
            qids = rng.choice(env.num_questions, size=batch_cfg.questions_per_step, replace=False)
            items = build_batch(rollout, env, qids, batch_cfg, rng, rng).items
            theta = _perturbed(rollout, rng, 1.2)
            ratios = _active_ratios(items, theta)
            near_kink = any(
                abs(r - 0.8) < 1e-4 or abs(r - 1.4) < 1e-4 for r in ratios
            )
            if not near_kink and max(ratios) > 1.4 and min(ratios) < 0.8:
                break
            attempt += 1
        analytic = policy_gradient(items, theta, rollout, cfg)
        numeric = finite_difference_gradient(items, theta, rollout, cfg)
        assert np.abs(analytic - numeric).max() <= 1e-6
        assert time.time() - start < 60.0


def _random_assembled_batch(seed: int):
    rng = np.random.default_rng((5, seed))
    env = ToolEnv(mini_env_spec(seed=seed % 17))
    policy = _perturbed(env.initial_policy(), rng, 0.6)
    batch_cfg = RunConfig(
        algorithm="axpo", env_preset="mini", questions_per_step=4, group_size=4, steps=1,
        resample_ratio=float(rng.uniform(0.0, 0.5)),
        resample_k=int(rng.integers(2, 5)),
    )
    qids = rng.choice(env.num_questions, size=batch_cfg.questions_per_step, replace=False)
    return policy, batch_cfg, build_batch(policy, env, qids, batch_cfg, rng, rng), rng


def test_criterion_5_masking_partition():
    with report(5, "every unmasked step has exactly one advantage source; masked steps are inert"):
        provenances = {"standard", "continuation", "prefix-credit"}
        cfg = ObjectiveConfig()
        for seed in range(1_000):
            policy, _, batch, rng = _random_assembled_batch(seed)
            results, items = batch.results, batch.items
            seen = set()
            for item in items:
                assert item.provenance in provenances
                for i in np.nonzero(item.active)[0]:
                    key = (id(item.trajectory), int(i))
                    assert key not in seen, "step assigned two advantage sources"
                    seen.add(key)
            if not results:
                continue
            before = surrogate_objective(items, policy, policy, cfg)
            for item in items:
                inactive = np.nonzero(~item.active)[0]
                if len(inactive):
                    item.advantages[inactive] += float(rng.uniform(1.0, 10.0))
            after = surrogate_objective(items, policy, policy, cfg)
            assert before == after, "perturbing masked advantages moved the objective"


def test_criterion_6_budget_and_breadth_first():
    with report(6, "resampling never exceeds floor(r*B*N) and stays breadth-first over 1,000 steps"):
        for seed in range(1_000):
            _, batch_cfg, batch, _ = _random_assembled_batch(seed + 10_000)
            triggered, plan = batch.triggered, batch.plan
            cap = int(batch_cfg.resample_ratio * batch_cfg.questions_per_step * batch_cfg.group_size)
            assert plan.cap == cap
            assert len(plan.selected) * plan.continuations_per_prefix <= cap
            counts = {gi: 0 for gi, _ in triggered.items()}
            for sel in plan.selected:
                counts[sel.group_index] += 1
            if not plan.selected:
                continue
            max_count = max(counts.values())
            for gi, cands in triggered.items():
                if counts[gi] < len(cands):  # question with remaining candidates
                    assert counts[gi] >= max_count - 1


def _mini_cfg(**kw) -> RunConfig:
    base = dict(env_preset="mini", questions_per_step=6, group_size=4, eval_every=5)
    base.update(kw)
    return RunConfig(**base)


def test_criterion_7_zero_budget_degeneracy(tmp_path):
    with report(7, "a zero resampling budget reproduces the plain baseline byte-for-byte"):
        cfg = _mini_cfg(algorithm="grpo", steps=15, seeds=(11,), out_dir=str(tmp_path / "grpo"))
        train(cfg)
        train(dataclasses.replace(cfg, algorithm="axpo", resample_ratio=0.0,
                                  out_dir=str(tmp_path / "axpo0")))
        for name in LOG_FILES:
            a = (seed_dir(tmp_path / "grpo", 11) / name).read_bytes()
            b = (seed_dir(tmp_path / "axpo0", 11) / name).read_bytes()
            assert a == b, f"{name} differs"


def _brute_force_rows(sdir: Path) -> dict[int, dict]:
    """Recount every metric from the raw log lines, independent of the
    diagnostics module."""
    train_steps: dict[int, list[dict]] = {}
    for line in (sdir / TRAJECTORY_LOG).read_text().splitlines():
        rec = json.loads(line)
        train_steps.setdefault(rec["step_index_in_training"], []).append(rec)
    eval_steps: dict[int, list[dict]] = {}
    for line in (sdir / EVAL_LOG).read_text().splitlines():
        rec = json.loads(line)
        eval_steps.setdefault(rec["step_index_in_training"], []).append(rec)
    audit_steps: dict[int, list[dict]] = {}
    for line in (sdir / AUDIT_LOG).read_text().splitlines():
        rec = json.loads(line)
        audit_steps.setdefault(rec["step"], []).append(rec)

    def is_tool(rec):
        return any(s["seg"] == "TOOL_CALL" for s in rec["steps"])

    rows = {}
    for step in sorted(set(train_steps) | set(eval_steps)):
        records = train_steps.get(step) or eval_steps.get(step)
        groups: dict[int, list[dict]] = {}
        for rec in records:
            if not rec["is_resample"]:
                groups.setdefault(rec["question_id"], []).append(rec)
        total = sum(len(v) for v in groups.values())
        tool_flags = {q: [is_tool(r) for r in v] for q, v in groups.items()}
        audit = audit_steps.get(step, [])
        recovered = {r["question_id"] for r in audit if r["recovery"] == 1}
        triggered = {r["question_id"] for r in audit}

        aw_tool_total = aw_tool = aw_nt_total = aw_nt = 0
        for q, rollouts in groups.items():
            tools = [r for r, f in zip(rollouts, tool_flags[q]) if f]
            no_tools = [r for r, f in zip(rollouts, tool_flags[q]) if not f]
            if tools:
                aw_tool_total += 1
                if all(r["reward"] == 0 for r in tools) and q not in recovered:
                    aw_tool += 1
            if no_tools:
                aw_nt_total += 1
                if all(r["reward"] == 0 for r in no_tools):
                    aw_nt += 1

        evals = eval_steps.get(step)
        pass1 = pass4 = None
        if evals:
            by_q: dict[int, list[int]] = {}
            for rec in evals:
                by_q.setdefault(rec["question_id"], []).append(rec["reward"])
            all_rewards = [r for v in by_q.values() for r in v]
            pass1 = sum(all_rewards) / len(all_rewards)
            if min(len(v) for v in by_q.values()) >= 4:
                pass4 = sum(any(v[:4]) for v in by_q.values()) / len(by_q)

        rows[step] = {
            "step": step,
            "tool_use_rate": sum(sum(f) for f in tool_flags.values()) / total,
            "all_wrong_tool": aw_tool / aw_tool_total if aw_tool_total else None,
            "all_wrong_no_tool": aw_nt / aw_nt_total if aw_nt_total else None,
            "recovery_rate": len(recovered) / len(triggered) if triggered else None,
            "mean_reward": sum(r["reward"] for v in groups.values() for r in v) / total,
            "pass1_eval": pass1,
            "pass4_eval": pass4,
            "extra_continuations": sum(len(r["rewards"]) for r in audit),
        }
    return rows


def test_criterion_8_diagnostics_recount(tmp_path):
    with report(8, "metrics recounted from raw logs match the persisted CSV exactly on 100 steps"):
        steps_checked = 0
        for seed in (0, 1):
            cfg = _mini_cfg(algorithm="axpo", steps=50, seeds=(seed,),
                            out_dir=str(tmp_path / f"run{seed}"))
            out = train(cfg)
            sdir = seed_dir(out, seed)
            recount = _brute_force_rows(sdir)
            persisted = {r["step"]: r for r in parse_metrics_csv(sdir / METRICS_CSV)}
            assert set(recount) == set(persisted)
            for step, row in recount.items():
                for key, value in row.items():
                    assert persisted[step][key] == value, (step, key)
                if step > 0:
                    steps_checked += 1
        assert steps_checked == 100


def test_criterion_9_directional_dynamics(tmp_path):
    with report(9, "tool-call resampling beats the baseline directionally on the gap preset"):
        start = time.time()
        seeds = (0, 1, 2, 3, 4)
        base = dict(env_preset="gap-env", steps=200, seeds=seeds, eval_every=20)
        train(RunConfig(algorithm="grpo", out_dir=str(tmp_path / "grpo"), **base))
        train(RunConfig(algorithm="axpo", out_dir=str(tmp_path / "axpo"), **base))
        grpo = [seed_summary(seed_dir(tmp_path / "grpo", s)) for s in seeds]
        axpo = [seed_summary(seed_dir(tmp_path / "axpo", s)) for s in seeds]

        def mean(rows, key):
            return float(np.mean([r[key] for r in rows]))

        tool_gap = mean(axpo, "tool_use_rate") - mean(grpo, "tool_use_rate")
        pass1_gap = mean(axpo, "pass1_eval") - mean(grpo, "pass1_eval")
        aw_axpo = mean(axpo, "all_wrong_tool")
        aw_grpo = mean(grpo, "all_wrong_tool")
        recovery = mean(axpo, "recovery_rate")
        elapsed = time.time() - start
        print(f"  tool-use gap {tool_gap:+.3f}, pass@1 gap {pass1_gap:+.3f}, "
              f"post-resampling all-wrong {aw_grpo:.3f} -> {aw_axpo:.3f}, "
              f"mean recovery {recovery:.3f}, {elapsed:.0f}s")
        assert tool_gap >= 0.10
        assert aw_axpo < aw_grpo
        assert recovery > 0.0
        assert pass1_gap >= 0.05
        assert elapsed < 600.0


def test_criterion_10_interrupt_resume(tmp_path):
    with report(10, "interrupt/resume at the midpoint of a 50-step run is byte-identical"):
        cfg = _mini_cfg(algorithm="axpo", steps=50, seeds=(5,), out_dir=str(tmp_path / "full"))
        train(cfg)
        resumed = dataclasses.replace(cfg, steps=25, out_dir=str(tmp_path / "resumed"))
        train(resumed)  # first half, then resume to the end
        train(dataclasses.replace(resumed, steps=50))
        for name in LOG_FILES:
            a = (seed_dir(tmp_path / "full", 5) / name).read_bytes()
            b = (seed_dir(tmp_path / "resumed", 5) / name).read_bytes()
            assert a == b, f"{name} differs after resume"
