import argparse
import dataclasses
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from axpo.config import RunConfig, config_text, load_config, parse_config_text
from axpo.diagnostics import parse_metrics_csv
from axpo.harness import (
    CHECKPOINT,
    CONFIG_FILE_NAME,
    EVAL_LOG,
    METRICS_CSV,
    REF_CHECKPOINT,
    TRAJECTORY_LOG,
    AUDIT_LOG,
    ConfigMismatch,
    MissingRun,
    _truncate_logs,
    compare,
    gradcheck,
    seed_dir,
    train,
)
from axpo import cli

MINI = dict(env_preset="mini", questions_per_step=6, group_size=4, eval_every=5)

LOG_FILES = (TRAJECTORY_LOG, EVAL_LOG, AUDIT_LOG, METRICS_CSV, CHECKPOINT)


def mini_cfg(**kw) -> RunConfig:
    merged = {**MINI, **kw}
    return RunConfig(**merged)


class TestConfig:
    def test_defaults_follow_training_recipe(self):
        cfg = RunConfig()
        assert (cfg.group_size, cfg.resample_k, cfg.resample_ratio) == (8, 4, 0.25)
        assert (cfg.eps_low, cfg.eps_high, cfg.beta) == (0.2, 0.4, 1e-3)
        assert cfg.temperature == 1.0

    def test_invariants(self):
        with pytest.raises(ValueError):
            RunConfig(group_size=1)
        with pytest.raises(ValueError):
            RunConfig(resample_k=1)
        with pytest.raises(ValueError):
            RunConfig(resample_ratio=1.0)
        with pytest.raises(ValueError):
            RunConfig(algorithm="ppo")
        with pytest.raises(ValueError):
            RunConfig(env_preset="nope")

    def test_parse_round_trip(self):
        cfg = mini_cfg(algorithm="axpo", seeds=(3, 5), steps=17)
        assert parse_config_text(config_text(cfg)) == cfg

    def test_parse_overrides_and_comments(self):
        text = "algorithm = axpo  # comment\nseeds = 1,2,3\nlearning_rate = 0.05\n"
        cfg = parse_config_text(text)
        assert cfg.algorithm == "axpo"
        assert cfg.seeds == (1, 2, 3)
        assert cfg.learning_rate == 0.05

    def test_unknown_key_rejected(self):
        with pytest.raises(KeyError):
            parse_config_text("nonsense = 1\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            parse_config_text("just some words\n")

    def test_output_root_env_var(self, monkeypatch):
        monkeypatch.setenv("AXPO_OUTPUT_ROOT", "/tmp/axpo-root")
        cfg = RunConfig()
        assert cfg.resolved_out_dir() == Path("/tmp/axpo-root/grpo-gap-env")


def _train_flags() -> dict[str, argparse.Action]:
    """The `train` subcommand's flags by dest."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in sub.choices["train"]._actions if a.option_strings}


_STR_VALUES = {"algorithm": "axpo", "env_preset": "mini", "out_dir": "runs/elsewhere"}


def _non_default(f: dataclasses.Field):
    """A valid value for a RunConfig field that differs from its default."""
    if f.name in _STR_VALUES:
        return _STR_VALUES[f.name]
    if isinstance(f.default, tuple):
        return (3, 5)
    if isinstance(f.default, float):
        return f.default / 2
    return f.default + 1


class TestTrainFlags:
    def test_every_field_has_a_flag(self):
        flags = _train_flags()
        assert [f.name for f in fields(RunConfig) if f.name not in flags] == []

    @pytest.mark.parametrize("field", fields(RunConfig), ids=lambda f: f.name)
    def test_flag_round_trips(self, field):
        value = _non_default(field)
        assert value != field.default
        raw = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
        flag = _train_flags()[field.name].option_strings[0]
        args = cli.build_parser().parse_args(["train", flag, raw])
        assert getattr(cli.config_from_args(args), field.name) == value


class TestEarlyValidation:
    @pytest.mark.parametrize(
        "flags, message",
        [
            pytest.param(flags, message, id=" ".join(flags))
            for flags, message in [
                (["--epochs", "0"], "epochs_per_batch"),
                (["--lr", "-1"], "learning_rate"),
                (["--lr", "nan"], "learning_rate"),
                (["--eps-low", "0"], "clip widths"),
                (["--eps-low", "nan"], "clip widths"),
                (["--beta", "-1"], "beta"),
                (["--beta", "nan"], "beta"),
                (["--temperature", "0"], "temperature"),
                (["--temperature", "nan"], "temperature"),
                (["--lr", "inf"], "learning_rate"),
                (["--beta", "inf"], "beta"),
                (["--eps-high", "inf"], "clip widths"),
                (["--temperature", "inf"], "temperature"),
                (["--config", "nope.txt"], "cannot read --config nope.txt"),
                (["--questions-per-step", "50", "--env", "mini"], "questions_per_step"),
                (["--seeds", "-1"], "seeds must be >= 0"),
                (["--seeds", "1,,2"], "bad value for seeds"),
                (["--steps", "x"], "bad value for steps"),
                (["--algorithm", "ppo"], "algorithm must be one of"),
            ]
        ],
    )
    def test_bad_value_writes_nothing(self, tmp_path, capsys, flags, message):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["train", "--steps", "1", "--out", str(out), *flags])
        assert exit_info.value.code == 2
        last_line = capsys.readouterr().err.strip().splitlines()[-1]
        assert last_line.startswith("axpo train: error: ") and message in last_line
        assert not out.exists()

    def test_unknown_config_file_key_writes_nothing(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("nonsense = 1\n")
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["train", "--config", str(config), "--out", str(out)])
        assert exit_info.value.code == 2
        assert "unknown config key 'nonsense'" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize(
        "content, message",
        [
            (b"seeds = 1,,2\n", "bad value for seeds"),
            (b"steps = x\n", "bad value for steps"),
            (b"seeds = -1\n", "seeds must be >= 0"),
            (b"\xff\xfe\x00", "cannot read --config {path}: 'utf-8' codec can't decode"),
        ],
        ids=["empty seed", "bad int", "negative seed", "not utf-8"],
    )
    def test_bad_config_file_writes_nothing(self, tmp_path, capsys, content, message):
        config = tmp_path / "run.cfg"
        config.write_bytes(content)
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["train", "--config", str(config), "--out", str(out)])
        assert exit_info.value.code == 2
        assert message.format(path=config) in capsys.readouterr().err
        assert not out.exists()


class TestResumeConfig:
    def test_changed_config_refused_before_any_write(self, tmp_path):
        out = tmp_path / "run"
        train(mini_cfg(steps=5, out_dir=str(out)))
        files = [out / CONFIG_FILE_NAME] + [seed_dir(out, 0) / name for name in LOG_FILES]
        before = {path: path.read_bytes() for path in files}
        with pytest.raises(ConfigMismatch, match="algorithm='grpo', group_size=4"):
            train(mini_cfg(steps=8, algorithm="axpo", group_size=6, out_dir=str(out)))
        for path in files:
            assert path.read_bytes() == before[path], path.name

    def test_seed_without_stored_config_resumes_and_gets_one(self, tmp_path):
        cfg = mini_cfg(steps=3, out_dir=str(tmp_path / "run"))
        train(cfg)
        stored = seed_dir(tmp_path / "run", 0) / CONFIG_FILE_NAME
        stored.unlink()
        longer = dataclasses.replace(cfg, steps=5)
        train(longer)
        assert load_config(stored) == longer
        rows = parse_metrics_csv(seed_dir(tmp_path / "run", 0) / METRICS_CSV)
        assert rows[-1]["step"] == 5


class TestTruncation:
    def test_failed_rewrite_leaves_logs_intact(self, tmp_path, monkeypatch):
        out = train(mini_cfg(algorithm="axpo", steps=4, out_dir=str(tmp_path / "run")))
        sdir = seed_dir(out, 0)
        names = (TRAJECTORY_LOG, EVAL_LOG, AUDIT_LOG, METRICS_CSV)
        before = {name: (sdir / name).read_bytes() for name in names}

        class TornFile:
            """Writes half of what it is given, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                raise OSError("write interrupted")

        real_open = Path.open

        def torn_open(path, mode="r", *args, **kwargs):
            fh = real_open(path, mode, *args, **kwargs)
            return TornFile(fh) if "w" in mode else fh

        monkeypatch.setattr(Path, "open", torn_open)
        with pytest.raises(OSError):
            _truncate_logs(sdir, 2)
        for name in names:
            assert (sdir / name).read_bytes() == before[name], name


class Crash(Exception):
    """The failure injected into a run-file write."""


class FaultyWrites:
    """Counts every open of a run file for an append, a checkpoint write or a
    config write, and makes open number `fail_at` fail: before anything is
    written, or, when `torn`, after half of the text the call was given has
    reached the file."""

    def __init__(self, real_open):
        self.real_open = real_open
        self.count = 0
        self.fail_at = None
        self.torn = False

    def open(self, path, mode="r", *args, **kwargs):
        rewritten = (CHECKPOINT, REF_CHECKPOINT, CONFIG_FILE_NAME)
        if "a" in mode or ("w" in mode and path.name.startswith(rewritten)):
            self.count += 1
            if self.count == self.fail_at and not self.torn:
                raise Crash(f"before write {self.count}")
            if self.count == self.fail_at:
                return TornWrite(self.real_open(path, mode, *args, **kwargs))
        return self.real_open(path, mode, *args, **kwargs)


class TornWrite:
    """Collects what is written, then writes half of it and fails on close."""

    def __init__(self, fh):
        self.fh = fh
        self.text = ""

    def write(self, text):
        self.text += text
        return len(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        with self.fh:
            self.fh.write(self.text[: len(self.text) // 2])
        raise Crash("torn write")


class TestCrashResume:
    def test_resume_after_a_crash_in_any_write_reproduces_the_logs(self, tmp_path, monkeypatch):
        faulty = FaultyWrites(Path.open)
        monkeypatch.setattr(Path, "open", lambda path, *args, **kw: faulty.open(path, *args, **kw))
        cfg = mini_cfg(algorithm="axpo", steps=4, eval_every=2, checkpoint_every=2)
        reference = train(dataclasses.replace(cfg, out_dir=str(tmp_path / "reference")))
        expected = {name: (seed_dir(reference, 0) / name).read_bytes() for name in LOG_FILES}
        writes = faulty.count
        # The run's and the seed's config. Step 0: reference checkpoint, eval, metrics,
        # checkpoint. Steps 1-4: trajectories, audit, metrics. Steps 2 and 4: an eval and
        # a checkpoint each.
        assert writes == 2 + 4 + 4 * 3 + 2 * 2

        for n in range(1, writes + 1):
            for torn in (False, True):
                run = dataclasses.replace(cfg, out_dir=str(tmp_path / f"crash_{n}_{torn}"))
                faulty.count, faulty.fail_at, faulty.torn = 0, n, torn
                with pytest.raises(Crash):
                    train(run)
                faulty.fail_at = None
                sdir = seed_dir(train(run), 0)
                for name in LOG_FILES:
                    assert (sdir / name).read_bytes() == expected[name], (n, torn, name)


class TestTrain:
    def test_zero_steps_emits_initial_eval_only(self, tmp_path):
        out = train(mini_cfg(steps=0, out_dir=str(tmp_path / "run")))
        sdir = seed_dir(out, 0)
        rows = parse_metrics_csv(sdir / METRICS_CSV)
        assert [r["step"] for r in rows] == [0]
        assert rows[0]["pass1_eval"] is not None
        assert (sdir / TRAJECTORY_LOG).read_text() == ""
        assert (sdir / EVAL_LOG).read_text() != ""

    def test_config_echo_written(self, tmp_path):
        cfg = mini_cfg(steps=0, out_dir=str(tmp_path / "run"))
        out = train(cfg)
        assert load_config(out / CONFIG_FILE_NAME) == cfg

    def test_deterministic_across_directories(self, tmp_path):
        cfg_a = mini_cfg(algorithm="axpo", steps=8, seeds=(3,), out_dir=str(tmp_path / "a"))
        cfg_b = dataclasses.replace(cfg_a, out_dir=str(tmp_path / "b"))
        train(cfg_a)
        train(cfg_b)
        for name in LOG_FILES:
            a = (seed_dir(tmp_path / "a", 3) / name).read_bytes()
            b = (seed_dir(tmp_path / "b", 3) / name).read_bytes()
            assert a == b, name

    def test_metrics_row_per_step(self, tmp_path):
        out = train(mini_cfg(algorithm="axpo", steps=7, out_dir=str(tmp_path / "run")))
        rows = parse_metrics_csv(seed_dir(out, 0) / METRICS_CSV)
        assert [r["step"] for r in rows] == list(range(8))
        assert all(r["pass1_eval"] is None for r in rows if r["step"] % 5 not in (0,))

    def test_resume_extends_run(self, tmp_path):
        cfg = mini_cfg(steps=4, out_dir=str(tmp_path / "run"))
        train(cfg)
        train(dataclasses.replace(cfg, steps=9))
        rows = parse_metrics_csv(seed_dir(tmp_path / "run", 0) / METRICS_CSV)
        assert rows[-1]["step"] == 9


class TestGradcheck:
    def test_report_passes(self):
        report = gradcheck(num_checks=4, seed=1)
        assert report.configs_checked + report.kinks_excluded == 4
        assert report.configs_checked > 0
        assert report.max_abs_error <= 1e-6
        assert report.passed

    def test_pure_kl_gradient_scales_with_beta(self, tmp_path):
        # Zero advantages leave only the -beta*KL term; its gradient is linear in beta.
        from axpo.advantage import ObjectiveConfig, policy_gradient, standard_item
        from axpo.env import make_env, sample_rollout
        from axpo.policy import DecisionTable

        env = make_env("mini", seed=6)
        policy = env.initial_policy()
        theta = policy.copy()
        theta.think_logits += np.random.default_rng(6).normal(0, 0.5, theta.think_logits.shape)
        r = np.random.default_rng(7)
        table = DecisionTable(policy)
        items = [standard_item(sample_rollout(table, env, 0, r), 0.0) for _ in range(6)]
        g1 = policy_gradient(items, theta, policy, ObjectiveConfig(beta=1e-3))
        g2 = policy_gradient(items, theta, policy, ObjectiveConfig(beta=2e-3))
        assert np.abs(g2 - 2 * g1).max() < 1e-15


class TestCompare:
    def test_identical_runs_zero_deltas(self, tmp_path):
        cfg = mini_cfg(steps=6, seeds=(0, 1), out_dir=str(tmp_path / "a"))
        train(cfg)
        train(dataclasses.replace(cfg, out_dir=str(tmp_path / "b")))
        result = compare(tmp_path / "a", tmp_path / "b")
        for key, value in result["mean_delta"].items():
            if value is not None:
                assert value == 0.0, key

    def test_mismatched_presets_refused(self, tmp_path):
        train(mini_cfg(steps=0, out_dir=str(tmp_path / "a")))
        train(
            RunConfig(
                env_preset="gap-env", steps=0, questions_per_step=6, group_size=4,
                out_dir=str(tmp_path / "b"),
            )
        )
        with pytest.raises(ConfigMismatch):
            compare(tmp_path / "a", tmp_path / "b")

    def test_missing_run(self, tmp_path):
        with pytest.raises(MissingRun):
            compare(tmp_path / "nope", tmp_path / "also-nope")


class TestCli:
    def test_train_and_diag(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert cli.main([
            "train", "--env", "mini", "--steps", "3", "--questions-per-step", "4",
            "--group-size", "4", "--algorithm", "axpo", "--out", out,
        ]) == 0
        assert cli.main(["diag", str(tmp_path / "run" / "seed_0")]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1].startswith("3,")

    def test_diag_matches_persisted_metrics(self, tmp_path):
        out = train(mini_cfg(algorithm="axpo", steps=6, out_dir=str(tmp_path / "run")))
        sdir = seed_dir(out, 0)
        recomputed = cli.recompute_metrics(sdir)
        persisted = (sdir / METRICS_CSV).read_text().strip().splitlines()
        assert recomputed == persisted

    def test_diag_matches_persisted_metrics_without_pass4(self, tmp_path):
        """With fewer than 4 eval rollouts per question pass@4 is absent, both
        in training and in the recomputation."""
        cfg = mini_cfg(algorithm="axpo", steps=5, eval_rollouts=2, out_dir=str(tmp_path / "run"))
        sdir = seed_dir(train(cfg), 0)
        rows = parse_metrics_csv(sdir / METRICS_CSV)
        eval_rows = [r for r in rows if r["pass1_eval"] is not None]
        assert [r["step"] for r in eval_rows] == [0, 5]
        assert all(r["pass4_eval"] is None for r in eval_rows)
        persisted = (sdir / METRICS_CSV).read_text().strip().splitlines()
        assert cli.recompute_metrics(sdir) == persisted

    def test_coverage_csv(self, capsys):
        assert cli.main(["coverage", "--trials", "2000", "--random", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("q,p_tool,p_prefix,n,")
        assert len(lines) == 3

    def test_gradcheck_exit_code(self, capsys):
        assert cli.main(["gradcheck", "--checks", "2"]) == 0

    def test_compare_output(self, tmp_path, capsys):
        cfg = mini_cfg(steps=3, out_dir=str(tmp_path / "a"))
        train(cfg)
        train(dataclasses.replace(cfg, out_dir=str(tmp_path / "b")))
        assert cli.main(["compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 0
        assert '"mean_delta"' in capsys.readouterr().out
