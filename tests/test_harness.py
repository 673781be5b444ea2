import argparse
import concurrent.futures
import dataclasses
import json
import re
import shutil
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from axpo.config import RunConfig, config_text, load_config, parse_config_text
from axpo.diagnostics import METRICS_COLUMNS, parse_metrics_csv
from axpo.env import make_env
from axpo.harness import (
    CHECKPOINT,
    CONFIG_FILE_NAME,
    EVAL_LOG,
    METRICS_CSV,
    REF_CHECKPOINT,
    RUN_LOGS,
    TRAJECTORY_LOG,
    AUDIT_LOG,
    ConfigMismatch,
    MissingRun,
    compare,
    gradcheck,
    seed_dir,
    train,
)
from axpo import cli, harness
from axpo.advantage import apply_update, policy_gradient
from axpo.trajectory import Step, Trajectory

from conftest import edited, pass_at_k, read_tables, rng, written_lines

MINI = dict(env_preset="mini", questions_per_step=6, group_size=4, eval_every=5)

LOG_FILES = (TRAJECTORY_LOG, EVAL_LOG, AUDIT_LOG, METRICS_CSV, CHECKPOINT)


def mini_cfg(**kw) -> RunConfig:
    merged = {**MINI, **kw}
    return RunConfig(**merged)


def _with_temperature(text: str, temperature: float) -> str:
    """An initial-policy checkpoint as a run at this temperature wrote it while
    RunConfig had that field: a "temperature" key after the shape, and every logit
    times the temperature, as the initial policy's were. At 1.0 only the key is new."""
    obj = json.loads(text)
    tables = {key: (temperature * np.array(value)).tolist()
              for key, value in obj.items() if key.endswith("_logits")}
    return json.dumps({"step": obj["step"], "shape": obj["shape"], "temperature": temperature,
                       **tables})


def _tree(root: Path) -> dict[Path, bytes]:
    """Every file under root and its bytes."""
    return {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}


class TestConfig:
    def test_defaults_follow_training_recipe(self):
        cfg = RunConfig()
        assert (cfg.group_size, cfg.resample_k, cfg.resample_ratio) == (8, 4, 0.25)
        assert (cfg.eps_low, cfg.eps_high, cfg.beta) == (0.2, 0.4, 1e-3)

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
        with pytest.raises(ValueError, match="unknown config key 'nonsense'"):
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
                (["--lr", "inf"], "learning_rate"),
                (["--beta", "inf"], "beta"),
                (["--eps-high", "inf"], "clip widths"),
                (["--config", "nope.txt"], "cannot read --config nope.txt"),
                (["--questions-per-step", "50", "--env", "mini"], "questions_per_step"),
                (["--seeds", "-1"], "seeds must be >= 0"),
                (["--seeds", "1,,2"], "bad value for seeds"),
                (["--seeds", "0,0"], "seeds must be distinct, got 0,0"),
                (["--steps", "x"], "bad value for steps"),
                (["--algorithm", "ppo"], "algorithm must be one of"),
                (["--group-size", "1"], "group_size must be >= 2"),
                (["--resample-k", "1"], "resample_k must be >= 2"),
                (["--resample-ratio", "1"], "resample_ratio must be in [0, 1)"),
                (["--steps", "-1"], "steps must be >= 0"),
                (["--eval-every", "0"], "eval_every and eval_rollouts must be >= 1"),
                (["--eval-rollouts", "0"], "eval_every and eval_rollouts must be >= 1"),
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

    def test_malformed_stored_config_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        train(mini_cfg(steps=1, out_dir=str(out)))
        stored = seed_dir(out, 0) / CONFIG_FILE_NAME
        stored.write_text("no equals sign\n")
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["train", "--env", "mini", "--steps", "2", "--questions-per-step", "6",
                      "--group-size", "4", "--out", str(out)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"config line 1: expected 'key = value', got 'no equals sign' ({stored})" in err

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda text: text[:-1], "malformed checkpoint: Expecting ',' delimiter"),
            (lambda text: text.replace('"step"', '"steps"'), "checkpoint missing key 'step'"),
            (lambda text: text.replace('"think_logits": [[', '"think_logits": [[[', 1)
             .replace("]], \"call_logits\"", "]]], \"call_logits\"", 1),
             "malformed checkpoint: think_logits has shape"),
            # Steps save_policy never writes: a negative one, and one that int() would read.
            *((lambda text, step=step: text.replace('{"step": 1,', f'{{"step": {step},'),
               f"malformed checkpoint: step {json.loads(step)!r} is not a non-negative int")
              for step in ("-1", "2.5", '"1"', "true")),
        ],
        ids=["not-json", "missing-key", "wrong-shape", "negative-step",
             "float-step", "string-step", "bool-step"],
    )
    def test_malformed_checkpoint_is_a_usage_error(self, tmp_path, capsys, damage, message):
        out = tmp_path / "run"
        argv = ["train", "--env", "mini", "--questions-per-step", "6", "--group-size", "4",
                "--out", str(out)]
        assert cli.main([*argv, "--steps", "1"]) == 0
        sdir = seed_dir(out, 0)
        checkpoint = sdir / CHECKPOINT
        checkpoint.write_text(damage(checkpoint.read_text()))
        before = {path: path.read_bytes() for path in sdir.iterdir()}
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*argv, "--steps", "2"])
        assert exit_info.value.code == 2
        last_line = capsys.readouterr().err.strip().splitlines()[-1]
        assert last_line.startswith("axpo train: error: ") and message in last_line
        assert last_line.endswith(f"({checkpoint})")
        assert {path: path.read_bytes() for path in sdir.iterdir()} == before

    @pytest.mark.parametrize(
        "edit",
        [
            lambda text: re.sub(r'("think_logits": \[\[)([-0-9.e]+)',
                                lambda m: m[1] + repr(float(m[2]) + 3.0), text, count=1),
            lambda text: text.replace('{"step": 0,', '{"step": 1,'),
            lambda text: _with_temperature(text, 2.0),
        ],
        ids=["one-logit", "step-1", "another-temperature"],
    )
    def test_reference_that_is_not_the_initial_policy_is_refused(self, tmp_path, capsys, edit):
        """A seed's reference policy is its config's initial policy: resume refuses a
        ref_policy.json that does not hold it at step 0, naming the file, and changes
        no file. That of a run started at a temperature other than 1 is refused too."""
        out = tmp_path / "run"
        argv = ["train", "--env", "mini", "--questions-per-step", "6", "--group-size", "4",
                "--out", str(out)]
        assert cli.main([*argv, "--steps", "2"]) == 0
        reference = seed_dir(out, 0) / REF_CHECKPOINT
        text = reference.read_text()
        reference.write_text(edit(text))
        assert reference.read_text() != text
        before = _tree(out)
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*argv, "--steps", "4"])
        assert exit_info.value.code == 2
        last_line = capsys.readouterr().err.strip().splitlines()[-1]
        assert last_line == (
            f"axpo train: error: not the initial policy of the run's config ({reference})")
        assert _tree(out) == before

    def test_foreign_shape_checkpoint_is_a_usage_error(self, tmp_path, capsys):
        """A mini seed's checkpoints copied into a gap-env seed do not fit its env."""
        argv = ["train", "--questions-per-step", "6", "--group-size", "4", "--steps", "1"]
        assert cli.main([*argv, "--env", "mini", "--out", str(tmp_path / "mini")]) == 0
        assert cli.main([*argv, "--env", "gap-env", "--out", str(tmp_path / "gap")]) == 0
        sdir = seed_dir(tmp_path / "gap", 0)
        for name in (CHECKPOINT, REF_CHECKPOINT):
            (sdir / name).write_bytes((seed_dir(tmp_path / "mini", 0) / name).read_bytes())
        before = {path: path.read_bytes() for path in sdir.iterdir()}
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*argv[:-1], "2", "--env", "gap-env", "--out", str(tmp_path / "gap")])
        assert exit_info.value.code == 2
        last_line = capsys.readouterr().err.strip().splitlines()[-1]
        assert last_line.startswith("axpo train: error: checkpoint shape PolicyShape(")
        assert "differs from the run's PolicyShape(num_questions=200," in last_line
        assert last_line.endswith(f"({sdir / CHECKPOINT})")
        assert {path: path.read_bytes() for path in sdir.iterdir()} == before

    def test_temperature_one_seed_resumes_once_its_config_line_is_deleted(self, tmp_path):
        """A seed started at temperature 1.0 while RunConfig had that field: its
        config.txt files hold the line and both checkpoints the key. With the line
        deleted it resumes to a fresh run's bytes, since load_policy reads only the
        keys it needs; its ref_policy.json is read, and kept, as it was."""
        old, fresh = tmp_path / "old", tmp_path / "fresh"
        train(mini_cfg(steps=2, out_dir=str(old)))
        sdir = seed_dir(old, 0)
        for path in (sdir / CHECKPOINT, sdir / REF_CHECKPOINT):
            path.write_text(_with_temperature(path.read_text(), 1.0))
        reference = (sdir / REF_CHECKPOINT).read_bytes()
        assert b'"temperature": 1.0, "think_logits"' in reference
        for path in (old / CONFIG_FILE_NAME, sdir / CONFIG_FILE_NAME):
            started = path.read_text().replace("eval_every", "temperature = 1.0\neval_every")
            path.write_text(re.sub(r"^temperature = .*\n", "", started, flags=re.M))
        train(mini_cfg(steps=4, out_dir=str(old)))
        train(mini_cfg(steps=4, out_dir=str(fresh)))
        assert (sdir / REF_CHECKPOINT).read_bytes() == reference
        for name in LOG_FILES:
            assert (sdir / name).read_bytes() == (seed_dir(fresh, 0) / name).read_bytes(), name

    def test_checkpoint_without_stored_config_is_refused(self, tmp_path, capsys):
        """A seed whose config.txt is gone cannot be checked, so it is not resumed."""
        out = tmp_path / "run"
        argv = ["train", "--env", "mini", "--questions-per-step", "6", "--group-size", "4",
                "--out", str(out)]
        assert cli.main([*argv, "--steps", "1"]) == 0
        sdir = seed_dir(out, 0)
        (sdir / CONFIG_FILE_NAME).unlink()
        before = _tree(out)
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*argv, "--steps", "2"])
        assert exit_info.value.code == 2
        last_line = capsys.readouterr().err.strip().splitlines()[-1]
        assert last_line == f"axpo train: error: {sdir} has a checkpoint but no {CONFIG_FILE_NAME}"
        assert _tree(out) == before

    def test_checkpoint_without_reference_is_refused(self, tmp_path, capsys):
        """A seed whose ref_policy.json is gone has no reference to check, so it is
        refused naming the file, with no traceback, and no file changes."""
        out = tmp_path / "run"
        argv = ["train", "--env", "mini", "--questions-per-step", "6", "--group-size", "4",
                "--out", str(out)]
        assert cli.main([*argv, "--steps", "2"]) == 0
        sdir = seed_dir(out, 0)
        (sdir / REF_CHECKPOINT).unlink()
        before = _tree(out)
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*argv, "--steps", "4"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().splitlines()[-1] == (
            f"axpo train: error: {sdir} has a checkpoint but no {REF_CHECKPOINT}")
        assert _tree(out) == before

    @pytest.mark.parametrize("name", RUN_LOGS)
    def test_checkpoint_without_a_log_is_refused(self, tmp_path, capsys, name):
        """A seed whose log is gone cannot be replayed, so it is a usage error naming the
        file, with no traceback, and no file changes."""
        out = tmp_path / "run"
        argv = ["train", "--env", "mini", "--questions-per-step", "6", "--group-size", "4",
                "--algorithm", "axpo", "--out", str(out)]
        assert cli.main([*argv, "--steps", "2"]) == 0
        sdir = seed_dir(out, 0)
        (sdir / name).unlink()
        before = _tree(out)
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*argv, "--steps", "4"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("usage: axpo train")
        assert err.strip().splitlines()[-1] == (
            f"axpo train: error: {sdir} has a checkpoint but no {name}")
        assert _tree(out) == before

    def test_another_seeds_directory_is_refused(self, tmp_path, capsys):
        """A copy of seed 0's directory in seed 1's slot holds seed 0's records, which
        no run of seed 1 writes, so it is not resumed: the error names the first such
        record read, step 0's first eval record, and every file stays as it was."""
        out = tmp_path / "run"
        argv = ["train", "--env", "mini", "--questions-per-step", "6", "--group-size", "4",
                "--out", str(out)]
        assert cli.main([*argv, "--seeds", "0", "--steps", "1"]) == 0
        shutil.copytree(seed_dir(out, 0), seed_dir(out, 1))
        before = _tree(out)
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*argv, "--seeds", "1", "--steps", "2"])
        assert exit_info.value.code == 2
        last_line = capsys.readouterr().err.strip().splitlines()[-1]
        assert last_line == (
            'axpo train: error: run_id "mini-seed0" is not this seed\'s "mini-seed1" '
            f"({seed_dir(out, 1) / EVAL_LOG}, line 1, field 'run_id')"
        )
        assert _tree(out) == before


def _without_first(lines: list[str], text: str) -> list[str]:
    """lines without the first line that holds text."""
    i = next(i for i, line in enumerate(lines) if text in line)
    return lines[:i] + lines[i + 1 :]


def _without_first_prefix(lines: list[str]) -> list[str]:
    """A trajectory log without the K continuations of its first selected prefix,
    whose audit record stays."""
    first = next(line for line in lines if '"is_resample":true' in line)
    prefix = json.loads(first)["source_prefix_id"]
    return [line for line in lines if json.loads(line)["source_prefix_id"] != prefix]


class TestTruncation:
    AXPO_ARGV = ("train", "--env", "mini", "--questions-per-step", "6", "--group-size", "4",
                 "--algorithm", "axpo")

    @pytest.mark.parametrize(
        "name, damage",
        [
            (CHECKPOINT, lambda text: text[:-1]),
            (AUDIT_LOG, lambda text: text + "not json\n"),
        ],
        ids=["checkpoint", "audit-line"],
    )
    def test_refused_seed_leaves_every_seed_as_it_was(self, tmp_path, capsys, name, damage):
        """Every seed is read and checked before the first file is written."""
        out = tmp_path / "run"
        argv = [*self.AXPO_ARGV, "--seeds", "0,1", "--out", str(out)]
        assert cli.main([*argv, "--steps", "1"]) == 0
        path = seed_dir(out, 1) / name
        path.write_text(damage(path.read_text()))
        before = _tree(out)
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*argv, "--steps", "3"])
        assert exit_info.value.code == 2
        assert f"({path}" in capsys.readouterr().err.strip().splitlines()[-1]
        assert _tree(out) == before

    def test_malformed_step_past_an_early_checkpoint_cuts_no_log(self, tmp_path, capsys):
        out = tmp_path / "run"
        argv = [*self.AXPO_ARGV, "--out", str(out)]
        assert cli.main([*argv, "--steps", "2"]) == 0
        sdir = seed_dir(out, 0)
        (sdir / CHECKPOINT).write_bytes((sdir / REF_CHECKPOINT).read_bytes())
        metrics = sdir / METRICS_CSV
        header, step_0, *rest = metrics.read_text().splitlines(keepends=True)
        metrics.write_text("".join([header, "x" + step_0[1:], *rest]))
        before = _tree(out)
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*argv, "--steps", "3"])
        assert exit_info.value.code == 2
        last_line = capsys.readouterr().err.strip().splitlines()[-1]
        assert last_line.endswith(f"({metrics}, line 2, field 'step')")
        assert _tree(out) == before

    def test_log_not_utf8_stops_resume_as_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        argv = [*self.AXPO_ARGV, "--out", str(out)]
        assert cli.main([*argv, "--steps", "1"]) == 0
        log = seed_dir(out, 0) / EVAL_LOG
        with log.open("ab") as fh:
            fh.write(b'\xff\xfe{"x":1}\n')
        line_number = log.read_bytes().count(b"\n")
        before = _tree(out)
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*argv, "--steps", "2"])
        assert exit_info.value.code == 2
        last_line = capsys.readouterr().err.strip().splitlines()[-1]
        assert last_line == (
            f"axpo train: error: not UTF-8: invalid start byte ({log}, line {line_number})"
        )
        assert _tree(out) == before

    @pytest.mark.parametrize(
        "name, line, message, field, seeds",
        [
            (TRAJECTORY_LOG, '{"run_id":"mini-seed0","question_id":0}',
             'expected ,"step_index_in_training":<int>', "step_index_in_training", "0"),
            (EVAL_LOG, '{"run_id":"mini-seed0","step_index_in_training":"1"}',
             'expected ,"step_index_in_training":<int>', "step_index_in_training", "0"),
            (AUDIT_LOG, '{"x":1}', "expected a record of a step after 1", "step", "0"),
            (AUDIT_LOG, '{"step":0,"question_id":0,"source_index":null,"confidence":null,'
             '"rewards":[],"recovery":null}', "expected a record of a step after 1", "step",
             "0"),
            (METRICS_CSV, "x" + "," * (len(METRICS_COLUMNS) - 1), "invalid literal for int()",
             "step", "0"),
            (METRICS_CSV, "x,1", f"row has 2 of {len(METRICS_COLUMNS)} cells", None, "0"),
            (AUDIT_LOG, "not json", "expected a record of a step after 1", "step", "0,1"),
        ],
        ids=["trajectory", "eval", "audit", "audit-step-0", "metrics", "metrics-short-row",
             "audit-two-seeds"],
    )
    def test_malformed_line_stops_resume_as_a_usage_error(
        self, tmp_path, capsys, name, line, message, field, seeds
    ):
        out = tmp_path / "run"
        argv = ["train", "--env", "mini", "--questions-per-step", "6", "--group-size", "4",
                "--algorithm", "axpo", "--seeds", seeds, "--out", str(out)]
        assert cli.main([*argv, "--steps", "1"]) == 0
        sdir = seed_dir(out, int(seeds[-1]))
        with (sdir / name).open("a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        line_number = len((sdir / name).read_text(encoding="utf-8").splitlines())
        before = {path: path.read_bytes() for path in sdir.iterdir()}
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*argv, "--steps", "2"])
        assert exit_info.value.code == 2
        last_line = capsys.readouterr().err.strip().splitlines()[-1]
        assert last_line.startswith("axpo train: error: ") and message in last_line
        where = f"{sdir / name}, line {line_number}" + ("" if field is None else f", field {field!r}")
        assert last_line.endswith(f"({where})")
        assert {path: path.read_bytes() for path in sdir.iterdir()} == before

    def test_selected_prefix_of_another_continuation_count_is_refused(self, tmp_path, capsys):
        """A selected prefix's audit record holds the rewards of its resample_k continuations,
        as the trajectory log holds them."""
        out = tmp_path / "run"
        argv = [*self.AXPO_ARGV, "--out", str(out)]
        assert cli.main([*argv, "--steps", "2"]) == 0
        audit = seed_dir(out, 0) / AUDIT_LOG
        lines = audit.read_text().splitlines(keepends=True)
        i = next(i for i, line in enumerate(lines) if '"source_index":null' not in line)
        rec = json.loads(lines[i])
        written = f'"rewards":{json.dumps(rec["rewards"], separators=(",", ":"))},'
        rec["rewards"] = rec["rewards"][1:]
        rec["recovery"] = int(any(rec["rewards"]))
        lines[i] = json.dumps(rec, separators=(",", ":")) + "\n"
        audit.write_text("".join(lines))
        before = _tree(out)
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*argv, "--steps", "3"])
        assert exit_info.value.code == 2
        last_line = capsys.readouterr().err.strip().splitlines()[-1]
        at = lines[i].index('"rewards"')
        assert last_line == (f"axpo train: error: expected {written!r}, got "
                             f"{lines[i][at : at + len(written) + 8]!r} ({audit}, line {i + 1}, "
                             "field 'rewards')")
        assert _tree(out) == before

    @pytest.mark.parametrize(
        "damage",
        [
            lambda lines: [],
            lambda lines: lines[:1],
            lambda lines: [*lines[:2], *lines[3:]],
        ],
        ids=["empty", "header-only", "middle-row-dropped"],
    )
    def test_metrics_that_do_not_reach_the_checkpoint_are_refused(self, tmp_path, capsys, damage):
        """A checkpoint is written after its step's metrics row, so a resumed seed's
        metrics.csv holds the header and the rows of every step up to the checkpoint."""
        out = tmp_path / "run"
        argv = [*self.AXPO_ARGV, "--seeds", "0,1", "--out", str(out)]
        assert cli.main([*argv, "--steps", "2"]) == 0
        metrics = seed_dir(out, 1) / METRICS_CSV
        metrics.write_text("".join(damage(metrics.read_text().splitlines(keepends=True))))
        before = _tree(out)
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*argv, "--steps", "4"])
        assert exit_info.value.code == 2
        last_line = capsys.readouterr().err.strip().splitlines()[-1]
        assert last_line == (
            f"axpo train: error: expected a header and rows 0 to 2 ({metrics})"
        )
        assert _tree(out) == before

    @pytest.mark.parametrize(
        "name, damage, expected, where",
        [
            (TRAJECTORY_LOG, lambda lines: [], "step 1 holds 0 rollouts, expected 24", ""),
            (EVAL_LOG, lambda lines: [], "step 0 holds 0 records, expected 48",
             ", line 1, field 'step_index_in_training'"),
            (TRAJECTORY_LOG,
             lambda lines: [line for line in lines if '"step_index_in_training":2,' not in line],
             "expected the records of steps 1 to 3, in order", ""),
            (AUDIT_LOG, lambda lines: lines[::-1],
             """expected '{"step":1,', got '{"step":3,"questio'""", ", line 1, field 'step'"),
            (TRAJECTORY_LOG, lambda lines: lines[1:], "step 1 holds 23 rollouts, expected 24", ""),
            (TRAJECTORY_LOG, lambda lines: _without_first(lines, '"is_resample":true'),
             "step 1 holds 27 records, expected 28", ""),
            (TRAJECTORY_LOG, _without_first_prefix, "step 1 holds 24 records, expected 28", ""),
            (EVAL_LOG, lambda lines: lines[1:], "step 0 holds 47 records, expected 48",
             ", line 48, field 'step_index_in_training'"),
            (TRAJECTORY_LOG, lambda lines: lines[::-1],
             "expected the records of steps 1 to 3, in order", ""),
        ],
        ids=["trajectory-empty", "eval-empty", "trajectory-middle-step-dropped",
             "audit-out-of-order", "rollout-dropped", "continuation-dropped",
             "prefix-continuations-dropped", "eval-record-dropped", "trajectory-out-of-order"],
    )
    def test_logs_that_do_not_reach_the_checkpoint_are_refused(
        self, tmp_path, capsys, name, damage, expected, where
    ):
        """Every log line of a step is written before its checkpoint, so a resumed seed's
        logs keep the records of each training step and each eval step up to it, in order;
        a step whose rollout or record count is off is named, an eval step's with the line
        after its last record that fits, and an audit line that is not its step's derived
        record names its line and field."""
        out = tmp_path / "run"
        argv = [*self.AXPO_ARGV, "--seeds", "0,1", "--out", str(out)]
        assert cli.main([*argv, "--steps", "3"]) == 0
        path = seed_dir(out, 1) / name
        path.write_text("".join(damage(path.read_text().splitlines(keepends=True))))
        before = _tree(out)
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*argv, "--steps", "5"])
        assert exit_info.value.code == 2
        last_line = capsys.readouterr().err.strip().splitlines()[-1]
        assert last_line == f"axpo train: error: {expected} ({path}{where})"
        assert _tree(out) == before


def _first_continuation(edit):
    """A damage to a log that edits its first continuation's line."""

    def damage(lines: list[str]) -> list[str]:
        i = next(i for i, line in enumerate(lines) if '"is_resample":true' in line)
        return [*lines[:i], edit(lines[i]), *lines[i + 1 :]]

    return damage


class TestReplay:
    """diag and resume replay each training step from its rollouts: its continuations
    must be the ones its plan draws, and its audit records are derived, not read."""

    ARGV = TestTruncation.AXPO_ARGV

    @pytest.mark.parametrize(
        "name, damage, expected, where",
        [
            (TRAJECTORY_LOG, _first_continuation(
                lambda line: re.sub(r'("source_prefix_id":"\d+:\d+:)\d+"', r'\g<1>9"', line)),
             "step 1: continuation source_prefix_id 1:7:9, not the plan's 1:7:0",
             ", line 25, field 'source_prefix_id'"),
            (TRAJECTORY_LOG, _without_first_prefix, "step 1 holds 24 records, expected 28", ""),
            (TRAJECTORY_LOG, _first_continuation(
                lambda line: line.replace('{"a":1,"seg":"THINK"', '{"a":2,"seg":"THINK"')),
             "step 1: continuation think action 2, not the plan's 1", ", line 25, field 'a'"),
            (EVAL_LOG, lambda lines: [lines[0].replace('"is_resample":false', '"is_resample":true'),
                                      *lines[1:]],
             "a continuation in a log of rollouts only", ", line 1, field 'is_resample'"),
        ],
        ids=["source-prefix-id-edited", "continuation-block-dropped", "think-action-edited",
             "eval-continuation"],
    )
    def test_diag_and_resume_refuse_what_the_plan_does_not_give(
        self, tmp_path, capsys, name, damage, expected, where
    ):
        out = tmp_path / "run"
        argv = [*self.ARGV, "--out", str(out)]
        assert cli.main([*argv, "--steps", "2"]) == 0
        path = seed_dir(out, 0) / name
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(damage(lines)))
        assert path.read_text() != "".join(lines)
        before = _tree(out)
        for command in (["diag", str(path.parent)], [*argv, "--steps", "4"]):
            with pytest.raises(SystemExit) as exit_info:
                cli.main(command)
            assert exit_info.value.code == 2
            last_line = capsys.readouterr().err.strip().splitlines()[-1]
            assert last_line == f"axpo {command[0]}: error: {expected} ({path}{where})"
        assert _tree(out) == before


def _set_question(number: int, question):
    """A damage that sets line number's question_id to question(its question_id)."""

    def damage(lines: list[str]) -> list[str]:
        q = json.loads(lines[number - 1])["question_id"]
        edited = lines[number - 1].replace(f'"question_id":{q},', f'"question_id":{question(q)},')
        return [*lines[: number - 1], edited, *lines[number:]]

    return damage


# The eval log of a TestQuestionColumn run holds 48 records (12 questions, 4 rollouts
# each) at each of steps 0, 2 and 4, on lines 1-48, 49-96 and 97-144.
def _without_eval_step(step: int):
    """A damage that drops every eval record of step."""
    start = 48 * (step // 2)
    return lambda lines: [*lines[:start], *lines[start + 48 :]]


def _eval_step_copied_to(step: int):
    """A damage that adds a copy of step 0's eval records, relabelled step, after them."""

    def damage(lines: list[str]) -> list[str]:
        copy = [line.replace('"step_index_in_training":0,', f'"step_index_in_training":{step},')
                for line in lines[:48]]
        return [*lines[:48], *copy, *lines[48:]]

    return damage


class TestQuestionColumn:
    """A question's group is its rows, so diag and resume derive each log's question
    column: a training step's rollouts are np.repeat(step_questions, N), and each multiple
    of eval_every holds one eval pass, np.repeat(arange(Q), R), and any other step no eval
    record. Each refuses a log of another layout, naming the file, the line and the field,
    and leaves every file as it was."""

    ARGV = (*TestTruncation.AXPO_ARGV, "--eval-every", "2")

    @pytest.mark.parametrize(
        "name, damage, expected, line, field",
        [
            (TRAJECTORY_LOG, _set_question(2, lambda q: (q + 1) % 12),
             "step 1: rollout question {edited}, not the draw's {q}", 2, "question_id"),
            (EVAL_LOG, _set_question(2, lambda q: 5), "step 0: eval question 5, not the draw's 0",
             2, "question_id"),
            (EVAL_LOG, lambda lines: [*lines[:3], lines[4], lines[3], *lines[5:]],
             "step 0: eval question 1, not the draw's 0", 4, "question_id"),
            (EVAL_LOG, lambda lines: [*lines[:49], *lines[50:]],
             "step 2 holds 47 records, expected 48", 96, "step_index_in_training"),
            (EVAL_LOG, _without_eval_step(2), "step 2 holds 0 records, expected 48", 49,
             "step_index_in_training"),
            (EVAL_LOG, _without_eval_step(4), "step 4 holds 0 records, expected 48", 97,
             "step_index_in_training"),
            (EVAL_LOG, _eval_step_copied_to(1), "step 1 holds 48 records, expected 0", 49,
             "step_index_in_training"),
        ],
        ids=["rollout-question", "eval-question", "eval-questions-interleaved",
             "eval-record-dropped", "eval-step-dropped", "last-eval-step-dropped",
             "eval-records-off-eval-every"],
    )
    def test_diag_and_resume_refuse_a_log_of_another_layout(
        self, tmp_path, capsys, name, damage, expected, line, field
    ):
        out = tmp_path / "run"
        argv = [*self.ARGV, "--out", str(out)]
        assert cli.main([*argv, "--steps", "4"]) == 0
        path = seed_dir(out, 0) / name
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(damage(lines)))
        q = json.loads(lines[1])["question_id"]  # the rollout case names line 2's question
        expected = expected.format(q=q, edited=(q + 1) % 12)
        before = _tree(out)
        for command in (["diag", str(path.parent)], [*argv, "--steps", "6"]):
            with pytest.raises(SystemExit) as exit_info:
                cli.main(command)
            assert exit_info.value.code == 2
            last_line = capsys.readouterr().err.strip().splitlines()[-1]
            assert last_line == (f"axpo {command[0]}: error: {expected} "
                                 f"({path}, line {line}, field {field!r})")
        assert _tree(out) == before

    def test_resume_refuses_a_metrics_row_the_logs_do_not_give(self, tmp_path, capsys):
        """diag rebuilds metrics.csv and does not read it; resume reads it and refuses a row
        whose cell is not what metrics_row writes of the row the logs give, naming the line
        and the column."""
        out = tmp_path / "run"
        argv = [*self.ARGV, "--out", str(out)]
        assert cli.main([*argv, "--steps", "4"]) == 0
        path = seed_dir(out, 0) / METRICS_CSV
        lines = path.read_text().splitlines(keepends=True)
        cells = lines[4].rstrip("\n").split(",")  # step 3's row, line 5
        column = METRICS_COLUMNS.index("mean_reward")
        logged, cells[column] = cells[column], "0.5"
        assert logged != "0.5"
        lines[4] = ",".join(cells) + "\n"
        path.write_text("".join(lines))
        before = _tree(out)
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*argv, "--steps", "6"])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.strip().splitlines()[-1] == (
            f"axpo train: error: step 3: mean_reward '0.5', not the logs' {logged!r} "
            f"({path}, line 5, field 'mean_reward')")
        assert _tree(out) == before
        assert cli.main(["diag", str(path.parent)]) == 0
        assert capsys.readouterr().out.splitlines()[4].split(",")[column] == logged


def _edit_middle_line(edit):
    """A damage to a run file that edits its middle line."""

    def damage(data: bytes) -> bytes:
        lines = data.split(b"\n")
        middle = (len(lines) - 1) // 2
        lines[middle] = edit(lines[middle])
        return b"\n".join(lines)

    return damage


def _first_changed_line(old: bytes, new: bytes) -> int:
    return next(
        number
        for number, (a, b) in enumerate(zip(old.split(b"\n"), new.split(b"\n")), start=1)
        if a != b
    )


# A blank or a whitespace-only line inserted as a run file's line 2.
_LINE_2 = {kind: lambda data, text=text: data.replace(b"\n", b"\n" + text + b"\n", 1)
           for kind, text in (("blank", b""), ("whitespace", b" \t "))}


class TestOneReader:
    """Resume reads every run file through the reader that diag (the logs) or compare
    (metrics.csv) reads it with, so both take or refuse the same line."""

    ARGV = ("train", "--env", "mini", "--questions-per-step", "6", "--group-size", "4",
            "--algorithm", "axpo")
    NOT_UTF8 = _edit_middle_line(lambda line: line.replace(b",", b",\xff", 1))

    @pytest.mark.parametrize(
        "name, damage, outcome",
        [
            (TRAJECTORY_LOG, NOT_UTF8, "refused"),
            (EVAL_LOG, NOT_UTF8, "refused"),
            (AUDIT_LOG, NOT_UTF8, "refused"),
            (METRICS_CSV, NOT_UTF8, "refused"),
            (METRICS_CSV, lambda data: data.replace(b"tool_use_rate", b"tool_rate", 1), "refused"),
            (METRICS_CSV, _edit_middle_line(lambda line: b",".join(line.split(b",")[:2])),
             "refused"),
            # Step 3's row, cut before its last byte: a full-width row with a short cell.
            (METRICS_CSV, lambda data: data + b"3" + data.split(b"\n")[-2][1:-1], "torn"),
            (TRAJECTORY_LOG, _edit_middle_line(lambda line: line.replace(b",", b",\r", 1)),
             "refused"),
            # Every line is a record: a blank or whitespace-only one is refused by its number.
            *[(name, insert, "refused") for name in RUN_LOGS for insert in _LINE_2.values()],
            (METRICS_CSV, lambda data: b"\n" + data, "refused"),
            (TRAJECTORY_LOG, lambda data: data + b" \t ", "torn"),
        ],
        ids=["trajectory-not-utf8", "eval-not-utf8", "audit-not-utf8", "metrics-not-utf8",
             "metrics-renamed-header", "metrics-short-row", "metrics-torn-row",
             "trajectory-bare-cr",
             *[f"{Path(log).stem}-{kind}-line-2" for log in RUN_LOGS for kind in _LINE_2],
             "metrics-blank-header", "trajectory-torn-whitespace"],
    )
    def test_resume_and_the_reader_take_or_refuse_the_same_line(
        self, tmp_path, capsys, name, damage, outcome
    ):
        runs = {run: tmp_path / run for run in ("a", "b", "fresh")}
        for run in ("a", "b"):
            assert cli.main([*self.ARGV, "--steps", "2", "--out", str(runs[run])]) == 0
        path = seed_dir(runs["b"], 0) / name
        original = path.read_bytes()
        path.write_bytes(damage(original))
        line = _first_changed_line(original, path.read_bytes())
        reader = (["compare", str(runs["a"]), str(runs["b"])] if name == METRICS_CSV
                  else ["diag", str(path.parent)])
        resume = [*self.ARGV, "--steps", "4", "--out", str(runs["b"])]
        before = _tree(runs["b"])

        with pytest.raises(SystemExit) as exit_info:
            cli.main(reader)
        assert exit_info.value.code == 2
        read_error = capsys.readouterr().err.strip().splitlines()[-1].split(": error: ")[1]
        assert re.search(rf"\({re.escape(str(path))}, line {line}(, field '\w+')?\)$", read_error)
        if outcome == "torn":
            assert cli.main(resume) == 0
            assert cli.main([*self.ARGV, "--steps", "4", "--out", str(runs["fresh"])]) == 0
            for log in LOG_FILES:
                fresh = seed_dir(runs["fresh"], 0) / log
                assert (path.parent / log).read_bytes() == fresh.read_bytes(), log
            return
        with pytest.raises(SystemExit) as exit_info:
            cli.main(resume)
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.strip().splitlines()[-1].split(": error: ")[1] == read_error
        assert _tree(runs["b"]) == before


class TestMetricsCells:
    """A metrics cell is read only as the text metrics_row writes for its value."""

    ARGV = TestOneReader.ARGV

    @pytest.mark.parametrize(
        "column, raw, message",
        [
            ("step", "1_0", "'1_0' is not a metrics_row cell"),
            ("extra_continuations", " 3", "' 3' is not a metrics_row cell"),
            ("mean_reward", "nan", "'nan' is not a metrics_row cell"),
            ("tool_use_rate", "inf", "'inf' is not a metrics_row cell"),
            ("extra_continuations", "1.0", "invalid literal for int() with base 10: '1.0'"),
            ("extra_continuations", "0\r", "'0\\r' is not a metrics_row cell"),
        ],
        ids=["underscore", "space", "nan", "inf", "float-in-int-column", "carriage-return"],
    )
    def test_resume_and_compare_refuse_a_cell_metrics_row_does_not_write(
        self, tmp_path, capsys, column, raw, message
    ):
        runs = {run: tmp_path / run for run in ("a", "b")}
        for run in runs.values():
            assert cli.main([*self.ARGV, "--steps", "2", "--out", str(run)]) == 0
        path = seed_dir(runs["b"], 0) / METRICS_CSV
        lines = path.read_text().splitlines(keepends=True)
        cells = lines[2].rstrip("\n").split(",")  # step 1's row, line 3
        cells[METRICS_COLUMNS.index(column)] = raw
        lines[2] = ",".join(cells) + "\n"
        path.write_text("".join(lines))
        before = _tree(runs["b"])
        expected = f"{message} ({path}, line 3, field {column!r})"
        for argv in (["compare", str(runs["a"]), str(runs["b"])],
                     [*self.ARGV, "--steps", "4", "--out", str(runs["b"])]):
            with pytest.raises(SystemExit) as exit_info:
                cli.main(argv)
            assert exit_info.value.code == 2
            assert capsys.readouterr().err.strip().splitlines()[-1].endswith(f"error: {expected}")
        assert _tree(runs["b"]) == before


class TestLogRecords:
    """A drawn trajectory is its log record: the trajectories a step's loss items and an
    eval pass are built on are, metadata included, what the logs hold, item for item."""

    CFG = RunConfig(algorithm="axpo", env_preset="gap-env", steps=1)

    def _spy(self, monkeypatch, name) -> list:
        calls, real = [], getattr(harness, name)

        def spy(*args, **kwargs):
            calls.append(real(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(harness, name, spy)
        return calls

    def test_logged_lines_are_the_trajectories_trained_and_evaluated_on(
        self, tmp_path, monkeypatch
    ):
        batches = self._spy(monkeypatch, "build_batch")
        drawn = self._spy(monkeypatch, "draw_rollouts")
        evals = self._spy(monkeypatch, "run_eval")
        sdir = seed_dir(train(dataclasses.replace(self.CFG, out_dir=str(tmp_path))), 0)
        (batch,) = batches
        assert batch.results, "the step resampled nothing"
        trained = [item.trajectory for item in batch.items]
        continuations = batch.continuations.trajectories()
        assert trained == [
            *batch.rollouts.trajectories(),
            *(continuations[i] for r in batch.results for i in r.continuations),
        ]
        eval_drawn, train_drawn = drawn  # step 0 evaluates, step 1 trains
        assert train_drawn is batch.rollouts
        ((table, _, _),) = evals  # only step 0 evaluates
        assert eval_drawn is table
        eval_pass = table.trajectories()
        run_id = harness.run_id_for(self.CFG, 0)
        assert {(t.run_id, t.step_index_in_training) for t in eval_pass} == {(run_id, 0)}
        shape = make_env(self.CFG.env_preset).policy_shape()
        for log, trajectories in ((TRAJECTORY_LOG, trained), (EVAL_LOG, eval_pass)):
            tables = read_tables(sdir / log, shape)
            assert [t for table in tables for t in table.trajectories()] == trajectories
        assert all(t.is_resample and t.source_prefix_id for t in continuations)


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
        cfg = mini_cfg(algorithm="axpo", steps=4, eval_every=2)
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


class SeedFailure(Exception):
    """The failure injected into one seed; defined at module level, so a
    worker's instance pickles back to the parent."""


class TestCheckpointCadence:
    """A seed checkpoints at step 0, at each multiple of eval_every and at its last step."""

    def test_checkpoint_steps(self, tmp_path, monkeypatch):
        steps, real_save = [], harness.save_policy

        def save(policy, path, step=0):
            if path.name == CHECKPOINT:
                steps.append(step)
            real_save(policy, path, step)

        monkeypatch.setattr(harness, "save_policy", save)
        train(mini_cfg(steps=7, eval_every=3, out_dir=str(tmp_path / "run")))
        assert steps == [0, 3, 6, 7]

    def test_failed_step_resumes_from_the_last_eval_step(self, tmp_path, monkeypatch):
        cfg = mini_cfg(algorithm="axpo", steps=5, eval_every=2, out_dir=str(tmp_path / "run"))
        real_step = harness.train_step

        def failing_step(policy, ref_policy, env, cfg, seed, step, run_id):
            if step == 4:
                raise SeedFailure("failed at step 4")
            return real_step(policy, ref_policy, env, cfg, seed, step, run_id)

        monkeypatch.setattr(harness, "train_step", failing_step)
        with pytest.raises(SeedFailure):
            train(cfg)
        monkeypatch.undo()
        sdir = seed_dir(Path(cfg.out_dir), 0)
        assert json.loads((sdir / CHECKPOINT).read_text())["step"] == 2
        out = train(cfg)
        reference = train(dataclasses.replace(cfg, out_dir=str(tmp_path / "reference")))
        for name in LOG_FILES:
            got = (seed_dir(out, 0) / name).read_bytes()
            assert got == (seed_dir(reference, 0) / name).read_bytes(), name


class TestSeedPool:
    def test_pooled_seeds_match_one_seed_runs(self, tmp_path):
        cfg = mini_cfg(algorithm="axpo", steps=6, seeds=(0, 1, 2), out_dir=str(tmp_path / "pooled"))
        pooled = train(cfg)
        for seed in cfg.seeds:
            alone = train(dataclasses.replace(cfg, seeds=(seed,), out_dir=str(tmp_path / f"s{seed}")))
            for name in LOG_FILES:
                got = (seed_dir(pooled, seed) / name).read_bytes()
                assert got == (seed_dir(alone, seed) / name).read_bytes(), (seed, name)

    def test_failed_seed_raises_and_every_seed_resumes(self, tmp_path, monkeypatch):
        cfg = mini_cfg(algorithm="axpo", steps=4, seeds=(0, 1, 2), out_dir=str(tmp_path / "run"))
        real_step = harness.train_step

        def failing_step(policy, ref_policy, env, cfg, seed, step, run_id):
            if seed == 1 and step == 3:
                raise SeedFailure("seed 1 failed at step 3")
            return real_step(policy, ref_policy, env, cfg, seed, step, run_id)

        # Forked workers inherit the patch.
        monkeypatch.setattr(harness, "train_step", failing_step)
        with pytest.raises(SeedFailure) as failure:
            train(cfg)
        assert type(failure.value) is SeedFailure
        assert str(failure.value) == "seed 1 failed at step 3"
        monkeypatch.undo()
        out = train(cfg)
        reference = train(dataclasses.replace(cfg, out_dir=str(tmp_path / "reference")))
        for seed in cfg.seeds:
            for name in LOG_FILES:
                got = (seed_dir(out, seed) / name).read_bytes()
                assert got == (seed_dir(reference, seed) / name).read_bytes(), (seed, name)

    def test_one_seed_builds_no_pool(self, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-seed run built a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        out = train(mini_cfg(steps=2, out_dir=str(tmp_path / "run")))
        assert parse_metrics_csv(seed_dir(out, 0) / METRICS_CSV)[-1]["step"] == 2

    @pytest.mark.skipif(harness._usable_cpus() < 2, reason="needs two usable CPUs")
    def test_seeds_train_in_a_fork_pool(self, tmp_path, monkeypatch):
        built = []

        class Spy(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, mp_context):
                built.append((max_workers, mp_context.get_start_method()))
                super().__init__(max_workers, mp_context=mp_context)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
        train(mini_cfg(steps=1, seeds=(0, 1, 2), out_dir=str(tmp_path / "run")))
        assert built == [(min(3, harness._usable_cpus()), "fork")]


class TestRunEval:
    """An eval pass is its draw table: scored and logged from its columns."""

    CFG = RunConfig(env_preset="gap-env")

    def _policy(self, env):
        """The initial policy with unit normal noise on every logit."""
        def jitter(logits):
            logits += rng(50).normal(0.0, 1.0, logits.shape)

        return edited(env.initial_policy(), jitter)

    def test_nan_think_logit_raises_the_step_error(self):
        def nan_think_logit(logits):
            logits[0] = np.nan  # question 0's think node: every logp there is nan

        env = make_env("gap-env", seed=0)
        policy = edited(env.initial_policy(), nan_think_logit)
        with pytest.raises(ValueError, match=r"^logp_old must be finite and <= 0, got nan$"):
            harness.run_eval(policy, env, self.CFG, 0, 0, "run")

    def test_builds_no_trajectory_and_no_step(self, monkeypatch):
        built = []
        for cls in (Trajectory, Step):
            init = cls.__init__
            monkeypatch.setattr(cls, "__init__", lambda obj, *args, init=init, **kwargs: (
                built.append(type(obj)), init(obj, *args, **kwargs))[1])
        env = make_env("gap-env", seed=0)
        table, _, _ = harness.run_eval(self._policy(env), env, self.CFG, 0, 0, "run")
        assert built == []
        assert len(table) == env.num_questions * self.CFG.eval_rollouts
        table.trajectories()  # the spies see what the table's boundary builds
        assert {Trajectory, Step} <= set(built)

    @pytest.mark.parametrize("eval_rollouts", [1, 3, 4, 6])
    def test_passes_from_columns_are_pass_at_k_of_its_trajectories(self, eval_rollouts):
        cfg = dataclasses.replace(self.CFG, eval_rollouts=eval_rollouts)
        env = make_env("gap-env", seed=2)
        table, pass1, pass4 = harness.run_eval(self._policy(env), env, cfg, 2, 10, "run")
        rewards: dict[int, list[int]] = {}
        for t in table.trajectories():
            rewards.setdefault(t.question_id, []).append(t.reward)
        assert type(pass1) is float and pass1 == pass_at_k(rewards, 1)
        assert pass4 == (pass_at_k(rewards, 4) if eval_rollouts >= 4 else None)


class TestTrainStep:
    """A training step reads its draw tables' columns from the draws to the update."""

    CFG = RunConfig(algorithm="axpo", env_preset="gap-env")

    def _step(self, cfg, seed=3, step=2):
        """train_step on gap-env from a jittered policy, the step's batch built
        from the streams train_step draws from, and both policies."""
        env = make_env(cfg.env_preset, seed=seed)

        def jitter(logits):
            logits += rng(51).normal(0.0, 1.0, logits.shape)

        policy = env.initial_policy()
        ref = edited(policy, jitter)
        qids = harness.phase_rng(seed, harness._PHASE_QUESTIONS, step).choice(
            env.num_questions, size=cfg.questions_per_step, replace=False
        )
        batch = harness.build_batch(
            policy, env, qids, cfg, harness.phase_rng(seed, harness._PHASE_ROLLOUT, step),
            harness.phase_rng(seed, harness._PHASE_RESAMPLE, step), "run", step,
        )
        return harness.train_step(policy, ref, env, cfg, seed, step, "run"), batch, policy, ref

    def test_builds_no_trajectory_and_no_step(self, monkeypatch):
        """No Trajectory or Step from the draws to the update, nor when write_log
        writes the step's two tables."""
        built = []
        for cls in (Trajectory, Step):
            init = cls.__init__
            monkeypatch.setattr(cls, "__init__", lambda obj, *args, init=init, **kwargs: (
                built.append(type(obj)), init(obj, *args, **kwargs))[1])
        env = make_env("gap-env", seed=0)
        policy = env.initial_policy()
        _, tables, audit = harness.train_step(policy, policy, env, self.CFG, 0, 1, "run")
        assert built == []
        assert len(tables[1]) == sum(len(rec["rewards"]) for rec in audit) > 0
        for table in tables:
            assert len(written_lines(table)) == len(table) + 1
        assert built == []

    def test_epochs_equal_policy_gradient_rounds(self):
        """The batch is gathered once: three epochs are three policy_gradient and
        apply_update rounds on the step's loss items, bit for bit."""
        cfg = dataclasses.replace(self.CFG, epochs_per_batch=3, beta=0.05)
        (new_policy, _, _), batch, policy, ref = self._step(cfg)
        assert batch.results, "the step resampled nothing"
        expected = policy
        for _ in range(3):
            gradient = policy_gradient(batch.items, expected, ref, cfg.objective)
            expected = apply_update(expected, gradient, cfg.learning_rate)
        assert new_policy.logits.tobytes() == expected.logits.tobytes()
        assert not np.array_equal(new_policy.logits, policy.logits)


class TestTrain:
    def test_zero_steps_emits_initial_eval_only(self, tmp_path):
        out = train(mini_cfg(steps=0, out_dir=str(tmp_path / "run")))
        sdir = seed_dir(out, 0)
        rows = parse_metrics_csv(sdir / METRICS_CSV)
        assert [r["step"] for r in rows] == [0]
        assert rows[0]["pass1_eval"] is not None
        assert (sdir / TRAJECTORY_LOG).read_text() == ""
        assert (sdir / EVAL_LOG).read_text() != ""
        # Step 0 trains nothing, so its checkpoint is the reference policy, byte for byte.
        assert (sdir / CHECKPOINT).read_bytes() == (sdir / REF_CHECKPOINT).read_bytes()

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
        from axpo.advantage import ObjectiveConfig, policy_gradient
        from axpo.env import make_env, sample_rollout

        from conftest import edited, loss_table

        env = make_env("mini", seed=6)
        policy = env.initial_policy()

        def jitter(logits):
            think = policy.shape.split(logits)[0]
            think += np.random.default_rng(6).normal(0, 0.5, think.shape)

        theta = edited(policy, jitter)
        r = np.random.default_rng(7)
        items = loss_table([(sample_rollout(policy, env, 0, r), 0.0, "standard") for _ in range(6)],
                           policy.shape)
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

    def _usage_error(self, capsys, argv: list[str]) -> str:
        """Run a command that must fail as a usage error, printing its usage line and no
        traceback; its one-line message."""
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"usage: axpo {argv[0]}") and "Traceback" not in err
        last_line = err.strip().splitlines()[-1]
        assert last_line.startswith(f"axpo {argv[0]}: error: ")
        return last_line

    def test_diag_usage_errors(self, tmp_path, capsys):
        missing = self._usage_error(capsys, ["diag", str(tmp_path)])
        assert f"cannot read {tmp_path / CONFIG_FILE_NAME}: No such file" in missing
        sdir = seed_dir(train(mini_cfg(steps=1, out_dir=str(tmp_path / "run"))), 0)
        with (sdir / TRAJECTORY_LOG).open("a") as fh:
            fh.write("not json\n")
        bad_json = self._usage_error(capsys, ["diag", str(sdir)])
        assert """expected {"run_id":<string>, got 'not json'""" in bad_json
        assert str(sdir / TRAJECTORY_LOG) in bad_json

    def test_diag_log_not_utf8(self, tmp_path, capsys):
        sdir = seed_dir(train(mini_cfg(steps=1, out_dir=str(tmp_path / "run"))), 0)
        with (sdir / EVAL_LOG).open("ab") as fh:
            fh.write(b'\xff\xfe{"x":1}\n')
        line_number = (sdir / EVAL_LOG).read_bytes().count(b"\n")
        error = self._usage_error(capsys, ["diag", str(sdir)])
        where = f"({sdir / EVAL_LOG}, line {line_number})"
        assert error.endswith(f"not UTF-8: invalid start byte {where}")

    def test_compare_metrics_not_utf8(self, tmp_path, capsys):
        cfg = mini_cfg(steps=1, out_dir=str(tmp_path / "a"))
        train(cfg)
        train(dataclasses.replace(cfg, out_dir=str(tmp_path / "b")))
        metrics = seed_dir(tmp_path / "b", 0) / METRICS_CSV
        with metrics.open("ab") as fh:
            fh.write(b"\xff\xfe\n")
        error = self._usage_error(capsys, ["compare", str(tmp_path / "a"), str(tmp_path / "b")])
        assert error.endswith(f"not UTF-8: invalid start byte ({metrics}, line 4)")

    def test_compare_torn_metrics_row(self, tmp_path, capsys):
        cfg = mini_cfg(steps=1, out_dir=str(tmp_path / "a"))
        train(cfg)
        train(dataclasses.replace(cfg, out_dir=str(tmp_path / "b")))
        metrics = seed_dir(tmp_path / "b", 0) / METRICS_CSV
        metrics.write_bytes(metrics.read_bytes()[:-2])
        error = self._usage_error(capsys, ["compare", str(tmp_path / "a"), str(tmp_path / "b")])
        assert error.endswith(f"last line has no newline ({metrics}, line 3)")

    def test_diag_reads_a_seed_directory_under_its_seed(self, tmp_path, capsys):
        """diag takes the seed from the directory's name, seed_<n>, which must be one of its
        config's seeds, and refuses a record of another seed's run."""
        out = train(mini_cfg(steps=1, seeds=(0, 1), out_dir=str(tmp_path / "run")))
        renamed, lone = tmp_path / "renamed", tmp_path / "lone" / "seed_2"
        shutil.copytree(seed_dir(out, 0), renamed)
        shutil.copytree(seed_dir(out, 0), lone)
        for sdir in (renamed, lone):
            error = self._usage_error(capsys, ["diag", str(sdir)])
            assert error.endswith(f"{sdir} is not seed_<n> for a seed n in "
                                  f"{sdir / CONFIG_FILE_NAME}'s seeds (0, 1)")
        log = seed_dir(out, 0) / TRAJECTORY_LOG
        log.write_text(log.read_text().replace('"mini-seed0"', '"mini-seed1"', 1))
        error = self._usage_error(capsys, ["diag", str(log.parent)])
        assert error.endswith(f"""run_id "mini-seed1" is not this seed's "mini-seed0" """
                              f"""({log}, line 1, field 'run_id')""")

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--q", "1.5"], "q must be in [0, 1], got 1.5"),
            (["--n", "0"], "n must be positive, got 0"),
            (["--trials", "0"], "trials must be positive"),
            (["--random", "-2"], "random must be non-negative, got -2"),
            (["--seed", "-1"], "seed must be non-negative, got -1"),
        ],
        ids=["q", "n", "trials", "negative-random", "negative-seed"],
    )
    def test_coverage_usage_errors(self, capsys, flags, message):
        assert message in self._usage_error(capsys, ["coverage", *flags])

    def test_compare_usage_errors(self, tmp_path, capsys):
        train(mini_cfg(steps=0, out_dir=str(tmp_path / "a")))
        no_run = self._usage_error(capsys, ["compare", str(tmp_path / "a"), str(tmp_path)])
        assert f"no {CONFIG_FILE_NAME} under {tmp_path}" in no_run
        train(RunConfig(steps=0, questions_per_step=6, group_size=4, out_dir=str(tmp_path / "b")))
        mismatch = self._usage_error(capsys, ["compare", str(tmp_path / "a"), str(tmp_path / "b")])
        assert "environment presets differ: 'mini' vs 'gap-env'" in mismatch

    def test_compare_malformed_config(self, tmp_path, capsys):
        for name in ("a", "b"):
            train(mini_cfg(steps=1, out_dir=str(tmp_path / name)))
        (tmp_path / "b" / CONFIG_FILE_NAME).write_text("no equals sign\n")
        error = self._usage_error(capsys, ["compare", str(tmp_path / "a"), str(tmp_path / "b")])
        assert "config line 1: expected 'key = value'" in error
        assert str(tmp_path / "b" / CONFIG_FILE_NAME) in error

    def test_compare_malformed_metrics_row(self, tmp_path, capsys):
        for name in ("a", "b"):
            train(mini_cfg(steps=1, out_dir=str(tmp_path / name)))
        metrics = seed_dir(tmp_path / "a", 0) / METRICS_CSV
        with metrics.open("a") as fh:
            fh.write(",".join(["2", "abc"] + [""] * (len(METRICS_COLUMNS) - 2)) + "\n")
        error = self._usage_error(capsys, ["compare", str(tmp_path / "a"), str(tmp_path / "b")])
        assert "could not convert string to float: 'abc'" in error
        assert f"({metrics}, line 4, field 'tool_use_rate')" in error

    @pytest.mark.parametrize(
        "edit, last_step",
        [
            (lambda lines: [*lines[:2], lines[3], lines[2]], 2),
            (lambda lines: [*lines, lines[-1]], 3),
        ],
        ids=["swapped", "repeated"],
    )
    def test_compare_refuses_rows_out_of_step_order(self, tmp_path, capsys, edit, last_step):
        for name in ("a", "b"):
            train(mini_cfg(steps=2, out_dir=str(tmp_path / name)))
        metrics = seed_dir(tmp_path / "b", 0) / METRICS_CSV
        metrics.write_text("".join(edit(metrics.read_text().splitlines(keepends=True))))
        before = _tree(tmp_path)
        error = self._usage_error(capsys, ["compare", str(tmp_path / "a"), str(tmp_path / "b")])
        assert error.endswith(f"error: expected a header and rows 0 to {last_step} ({metrics})")
        assert _tree(tmp_path) == before

    @pytest.mark.parametrize("line", ["checkpoint_every = 1", "temperature = 1.0"],
                             ids=["checkpoint_every", "temperature"])
    def test_run_with_a_checkpoint_every_key_is_refused(self, tmp_path, capsys, line):
        """Runs started while RunConfig had checkpoint_every or temperature hold it in
        their config.txt."""
        key = line.split(" = ")[0]
        for name in ("a", "b"):
            train(mini_cfg(steps=2, out_dir=str(tmp_path / name)))
        old = tmp_path / "b"
        for path in (old / CONFIG_FILE_NAME, seed_dir(old, 0) / CONFIG_FILE_NAME):
            path.write_text(path.read_text().replace("out_dir", f"{line}\nout_dir"))
        before = _tree(tmp_path)
        for argv, path in [
            (["train", "--env", "mini", "--questions-per-step", "6", "--group-size", "4",
              "--eval-every", "5", "--steps", "4", "--out", str(old)], seed_dir(old, 0)),
            (["diag", str(seed_dir(old, 0))], seed_dir(old, 0)),
            (["compare", str(tmp_path / "a"), str(old)], old),
        ]:
            error = self._usage_error(capsys, argv)
            assert error.endswith(f"unknown config key '{key}' ({path / CONFIG_FILE_NAME})")
        assert _tree(tmp_path) == before

    def test_compare_renamed_metrics_column(self, tmp_path, capsys):
        for name in ("a", "b"):
            train(mini_cfg(steps=1, out_dir=str(tmp_path / name)))
        metrics = seed_dir(tmp_path / "b", 0) / METRICS_CSV
        metrics.write_text(metrics.read_text().replace("tool_use_rate", "tool_rate", 1))
        error = self._usage_error(capsys, ["compare", str(tmp_path / "a"), str(tmp_path / "b")])
        assert f"header is not {','.join(METRICS_COLUMNS)} ({metrics}, line 1)" in error

    def test_gradcheck_usage_error(self, capsys):
        message = self._usage_error(capsys, ["gradcheck", "--h", "0"])
        assert "h must be finite and positive, got 0.0" in message

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--checks", "0"], "checks must be positive, got 0"),
            (["--checks", "-3"], "checks must be positive, got -3"),
            (["--seed", "-1"], "seed must be non-negative, got -1"),
        ],
        ids=["no-checks", "negative-checks", "negative-seed"],
    )
    def test_gradcheck_count_and_seed_usage_errors(self, capsys, flags, message):
        assert message in self._usage_error(capsys, ["gradcheck", *flags])
