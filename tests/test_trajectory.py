import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from axpo.config import RunConfig
from axpo.env import (
    ToolEnv,
    draw_continuations,
    draw_rollouts,
    make_env,
    sample_continuation,
)
from axpo import harness
from axpo.harness import build_batch, run_eval, train_step
from axpo.policy import PolicyShape, TabularPolicy
from axpo.trajectory import (
    PREFIX_STEPS,
    DrawTable,
    NotToolUsing,
    ParseError,
    Segment,
    Step,
    Trajectory,
    read_records,
    record_parser,
    write_log,
)

from conftest import (
    HAND_SHAPE,
    answer_step,
    arg_step,
    concatenated,
    group_of,
    marker_step,
    obs_step,
    plain_traj,
    read_lines,
    read_tables,
    rng,
    table_of,
    think_step,
    tool_traj,
    written_lines,
)

# The opening marker of a record under HAND_SHAPE.
MARKER = HAND_SHAPE.tool_open_id


def _read_line(line: str, shape: PolicyShape = HAND_SHAPE) -> list[Trajectory]:
    """The trajectories of one record line, read back under shape."""
    return [t for table in read_lines([line], shape) for t in table.trajectories()]


def _write(tmp_path, lines) -> Path:
    """A log holding lines."""
    path = tmp_path / "log.jsonl"
    path.write_text("".join(f"{line}\n" for line in lines))
    return path


def _read_at_line_4(tmp_path, line: str) -> ParseError:
    """The refusal of a log whose line 4 is line, after three lines write_log writes."""
    good = written_lines(table_of([tool_traj(), plain_traj(), tool_traj(qid=1)]))[:-1]
    path = _write(tmp_path, [*good, line])
    with pytest.raises(ParseError) as err:
        read_tables(path, HAND_SHAPE)
    assert str(path) in str(err.value)
    return err.value


class TestGrammar:
    """The reader's template holds the one layout; a record of any other is refused."""

    def test_observation_needs_tool_call(self):
        with pytest.raises(ParseError, match="expected"):
            _read_line(_record_line(think_step(), obs_step(), answer_step()))

    def test_nothing_after_answer(self):
        with pytest.raises(ParseError, match="expected"):
            _read_line(_record_line(think_step(), answer_step(), think_step()))

    def test_tool_call_needs_think(self):
        with pytest.raises(ParseError, match="expected"):
            _read_line(_record_line(marker_step(MARKER), obs_step(), answer_step()))

    def test_multi_turn_rejected(self):
        line = _record_line(
            think_step(1), marker_step(MARKER), arg_step(), obs_step(),
            think_step(2), marker_step(MARKER), arg_step(), obs_step(), answer_step(),
        )
        with pytest.raises(ParseError, match="expected"):
            _read_line(line)

    def test_two_thinks_rejected(self):
        line = _record_line(
            think_step(0), think_step(1), marker_step(MARKER), arg_step(), obs_step(), answer_step()
        )
        with pytest.raises(ParseError, match="expected"):
            _read_line(line)

    def test_second_tool_call_rejected(self):
        line = _record_line(
            think_step(1), marker_step(MARKER), arg_step(), obs_step(),
            marker_step(MARKER), arg_step(), obs_step(), answer_step(),
        )
        with pytest.raises(ParseError, match="expected"):
            _read_line(line)

    def test_call_without_argument_rejected(self):
        with pytest.raises(ParseError, match="expected"):
            _read_line(_record_line(think_step(1), marker_step(MARKER), obs_step(), answer_step()))


# A record's keys in file order; each names the Trajectory field it holds but
# turn_count, which the records keep as 1.
_RECORD_KEYS = ("run_id", "step_index_in_training", "question_id", "reward", "turn_count",
                "is_resample", "source_prefix_id", "steps")


def _json_record(traj: Trajectory) -> str:
    """The record as json.dumps writes it from a dict of the record keys, in
    order: the reference the writer's template must match."""
    record = {key: getattr(traj, key, 1) for key in _RECORD_KEYS}  # turn_count is 1
    record["steps"] = [
        {"a": s.action_id, "seg": s.segment.value, "logp": s.logp_old, "mask": s.mask}
        for s in traj.steps
    ]
    return json.dumps(record, separators=(",", ":"))


def _record(traj: Trajectory = None) -> dict:
    """The record of traj, a tool-using trajectory by default, as written under HAND_SHAPE."""
    (line, _) = written_lines(table_of([traj or tool_traj()]))
    return json.loads(line)


def _record_line(*steps: Step) -> str:
    """A record line of a tool-using trajectory with its steps replaced."""
    record = _record()
    record["steps"] = [
        {"a": s.action_id, "seg": s.segment.value, "logp": s.logp_old, "mask": s.mask}
        for s in steps
    ]
    return json.dumps(record, separators=(",", ":"))


class TestFirstToolPrefix:
    def test_no_tool_raises(self, mini_env):
        policy = mini_env.initial_policy()
        table = draw_rollouts(policy, mini_env, [0] * 8, rng(0))
        with pytest.raises(NotToolUsing):
            sample_continuation(policy, mini_env, table, int(np.argmin(table.tool_using)), rng(0))

    def test_prefix_has_no_argument_or_observation_steps(self):
        prefix = tool_traj(args=((0, 0.5), (1, 0.5))).steps[:PREFIX_STEPS]
        assert [s.segment for s in prefix] == [Segment.THINK, Segment.TOOL_CALL]
        assert not prefix[-1].mask  # the opening marker


class TestSerialization:
    def test_round_trip_identity(self):
        table = table_of([tool_traj(qid=3, reward=1, args=((2, 0.3),))], run_id="r", step=5,
                         is_resample=True, source_prefix_ids=["5:3:0"])
        (traj,) = table.trajectories()
        assert (traj.run_id, traj.step_index_in_training, traj.is_resample,
                traj.source_prefix_id) == ("r", 5, True, "5:3:0")
        (line, _) = written_lines(table)
        assert line == _json_record(traj)
        assert _read_line(line) == [traj]

    def test_logp_bit_exact(self):
        (line, _) = written_lines(table_of([tool_traj(args=((0, 0.3),))]))
        (back,) = _read_line(line)
        assert back.steps[2].logp_old == math.log(0.3)

    def test_missing_reward_field(self, tmp_path):
        record = _record(plain_traj())
        del record["reward"]
        line = json.dumps(record, separators=(",", ":"))
        assert _read_at_line_4(tmp_path, line).field_name == "reward"

    def test_observation_with_logp_rejected(self, tmp_path):
        record = _record()
        for step in record["steps"]:
            if step["seg"] == "OBSERVATION":
                step["logp"] = -0.5
        error = _read_at_line_4(tmp_path, json.dumps(record, separators=(",", ":")))
        assert error.field_name == "logp"

    @pytest.mark.parametrize("literal", ["NaN", "-Infinity", "Infinity"])
    def test_non_finite_logp_rejected(self, tmp_path, literal):
        (line, _) = written_lines(table_of([tool_traj()]))
        line = line.replace('"logp":-0.6931471805599453', f'"logp":{literal}', 1)
        assert literal in line
        error = _read_at_line_4(tmp_path, line)
        assert (error.reason, error.field_name) == (
            f"logp_old must be finite and <= 0, got {literal}", "logp"
        )

    @pytest.mark.parametrize(
        "mutate, field",
        [
            (lambda r: r.update(steps=5), "steps"),
            (lambda r: r.update(steps=[5]), "steps"),
            (lambda r: r["steps"][0].update(logp="x"), "logp"),
            (lambda r: r["steps"][0].update(seg=["THINK"]), "seg"),
            (lambda r: r["steps"][0].update(a="x"), "a"),
            (lambda r: r["steps"][0].pop("mask"), "mask"),
            (lambda r: r.update(turn_count="x"), "turn_count"),
            (lambda r: r.update(turn_count=7), "turn_count"),
        ],
        ids=["steps-not-a-list", "step-not-an-object", "logp-a-string", "seg-a-list",
             "action-a-string", "mask-missing", "turn-count-a-string", "turn-count-not-one"],
    )
    def test_malformed_field_is_a_parse_error(self, tmp_path, mutate, field):
        record = _record()
        mutate(record)
        error = _read_at_line_4(tmp_path, json.dumps(record, separators=(",", ":")))
        assert (error.line, error.field_name) == (4, field)

    @pytest.mark.parametrize(
        "keep, field",
        [((0, 1, 4), "seg"), ((0, 1, 2), "steps")],
        ids=["THINK TOOL_CALL ANSWER", "THINK TOOL_CALL TOOL_CALL"],
    )
    def test_tool_call_without_observation_rejected(self, tmp_path, keep, field):
        record = _record()
        record["steps"] = [record["steps"][i] for i in keep]
        error = _read_at_line_4(tmp_path, json.dumps(record, separators=(",", ":")))
        assert (error.line, error.field_name) == (4, field)

    @pytest.mark.parametrize(
        "mutate, message, field",
        [
            (lambda r: r["steps"][2].update(logp=None),
             "logp_old must be finite and <= 0, got null", "logp"),
            (lambda r: r["steps"][1].update(mask=True), 'expected ,"mask":false}', "mask"),
            (lambda r: r["steps"][3].update(mask=True), 'expected ,"mask":false}', "mask"),
            (lambda r: r["steps"][0].update(logp=0.5), "logp_old must be finite and <= 0, got 0.5",
             "logp"),
            (lambda r: r.update(reward=2), 'expected ,"reward":<0|1>', "reward"),
            (lambda r: r.update(reward=-1), 'expected ,"reward":<0|1>', "reward"),
        ],
        ids=["policy-step-without-logp", "unmasked-marker", "unmasked-observation",
             "positive-logp", "reward-2", "reward--1"],
    )
    def test_step_the_loss_cannot_read_is_a_parse_error(self, tmp_path, mutate, message, field):
        record = _record()
        mutate(record)
        error = _read_at_line_4(tmp_path, json.dumps(record, separators=(",", ":")))
        assert error.reason.startswith(message)
        assert (error.line, error.field_name) == (4, field)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ParseError) as err:
            read_tables(path, HAND_SHAPE)
        assert err.value.line == 1

    def test_log_round_trip(self, tmp_path):
        env = make_env("mini")
        table = draw_rollouts(env.initial_policy(), env, [0] * 4, rng(50), run_id="r", step=3)
        trajs = table.trajectories()
        assert {t.is_tool_using() for t in trajs} == {True, False}
        assert {t.reward for t in trajs} == {0, 1}
        path = tmp_path / "log.jsonl"
        with path.open("w") as fh:
            write_log(table, fh)
        ends, _ = zip(*read_records(path, record_parser(env.policy_shape())))
        (back,) = read_tables(path, env.policy_shape())
        assert back.trajectories() == trajs
        assert ends[-1] == path.stat().st_size

    def test_prefix_stable_under_reserialization(self):
        table = table_of([tool_traj(qid=1)])
        (back,) = _read_line(written_lines(table)[0])
        assert back.steps[:PREFIX_STEPS] == table.trajectories()[0].steps[:PREFIX_STEPS]


# Strings that json escapes: quotes, backslashes, controls, non-ASCII and astral code points.
_ESCAPED = st.sampled_from(['"', "\\", "\n\t\x00\x1f", "caf\u00e9", "\u2028", "\U0001f600", ""])
# Log-probabilities whose text is easy to get wrong: signed zero, an int, subnormals.
_EDGE_LOGPS = st.sampled_from([-0.0, 0, 0.0, -5e-324, -1e-300, -1e16, -0.1, -2.5])


_MINI = make_env("mini")


@st.composite
def _edge_tables(draw) -> DrawTable:
    """A drawn mini-env table, of rollouts or of continuations of its tool-using
    rows, with some drawn logps replaced by the edge values and its log metadata
    by strings json escapes."""
    policy = _MINI.initial_policy()
    qids = draw(st.lists(st.integers(0, _MINI.num_questions - 1), max_size=6))
    table = draw_rollouts(policy, _MINI, qids, rng(draw(st.integers(0, 2**32 - 1))))
    if draw(st.booleans()):
        sources = np.flatnonzero(table.tool_using)
        table = draw_continuations(policy, _MINI, table, sources,
                                   rng(draw(st.integers(0, 2**32 - 1))))
    logp = table.logp.copy()
    for cell in np.flatnonzero(table.flat >= 0):
        if draw(st.booleans()):
            logp.flat[cell] = draw(_EDGE_LOGPS)
    text, n, is_resample = _ESCAPED | st.text(), len(table), draw(st.booleans())
    return dataclasses.replace(
        table, logp=logp, run_id=draw(text), step=draw(st.integers()), is_resample=is_resample,
        # A continuation has a source_prefix_id, and a rollout none.
        source_prefix_ids=draw(st.lists(text, min_size=n, max_size=n)) if is_resample else None,
    )


@settings(derandomize=True, max_examples=200, deadline=None)
@given(table=_edge_tables())
def test_write_log_writes_what_json_dumps_writes(table):
    trajectories = table.trajectories()
    lines = written_lines(table)
    assert lines == [_json_record(t) for t in trajectories] + [""]
    shape = _MINI.policy_shape()
    back = read_lines(lines[:-1], shape)
    assert [t for table in back for t in table.trajectories()] == trajectories


def _columns(table: DrawTable) -> dict:
    """Every column and log field of a table, each array as its dtype, shape and bytes."""
    arrays = {name: (getattr(table, name).dtype, getattr(table, name).shape,
                     getattr(table, name).tobytes())
              for name in ("question", "reward", "action", "flat", "logp")}
    ids = table.source_prefix_ids
    return {**arrays, "tool_open_id": table.tool_open_id, "run_id": table.run_id,
            "step": table.step, "is_resample": table.is_resample,
            "source_prefix_ids": [None] * len(table) if ids is None else list(ids)}


@settings(derandomize=True, max_examples=200, deadline=None)
@given(table=_edge_tables())
def test_record_round_trip_is_bit_exact(table):
    """write_log of a drawn table, read back, is the table column for column, bit for bit,
    and writes the same lines again."""
    lines = written_lines(table)[:-1]
    back = read_lines(lines, _MINI.policy_shape())
    if not len(table):
        assert back == []
        return
    (back,) = back
    assert _columns(back) == _columns(table)
    assert written_lines(back)[:-1] == lines


class TestNonCanonicalLines:
    """A line is read only if it is exactly what write_log writes for the row it parses
    to, and only a row the env draws; each refusal names the file, the line and the field."""

    TABLE = table_of([tool_traj(qid=2, args=((1, 0.25),), answer=2), plain_traj(qid=3)],
                     run_id="run", step=4, is_resample=True, source_prefix_ids=["4:2:0", "4:3:1"])

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda line: line.replace(",", ", ", 1), "step_index_in_training"),
            (lambda line: line.replace(":", ": ", 1), "run_id"),
            (lambda line: line.replace('"reward":0,"turn_count":1',
                                       '"turn_count":1,"reward":0'), "reward"),
            (lambda line: line.replace('"step_index_in_training":4',
                                       '"step_index_in_training":4.0'), "step_index_in_training"),
            (lambda line: line.replace('"turn_count":1', '"turn_count":1.0'), "turn_count"),
            (lambda line: line.replace('"question_id":2', '"question_id":02'), "question_id"),
            (lambda line: line.replace('"is_resample":true', '"is_resample":1'), "is_resample"),
            (lambda line: line.replace('"logp":0.0', '"logp":0', 1), "logp"),
            (lambda line: line.replace('"logp":-1.3862943611198906', '"logp":-1.38629436111989060',
                                       1), "logp"),
            (lambda line: line.replace('"logp":-1.3862943611198906', '"logp":-0', 1), "logp"),
            (lambda line: line.replace('"logp":-1.3862943611198906', '"logp":-1.3862943611198906e0',
                                       1), "logp"),
            (lambda line: line.replace('"run_id":"run"', '"run_id":"r\\u0075n"'), "run_id"),
            (lambda line: line.replace('"4:2:0"', '"4:2:\u00e9"'), "source_prefix_id"),
            (lambda line: line.replace('"a":4,', '"a":3,'), "a"),  # not the shape's marker
            (lambda line: line.replace('{"a":1,"seg":"OBS', '{"a":0,"seg":"OBS'), "a"),
            (lambda line: line.replace('{"a":2,"seg":"ANSWER"', '{"a":3,"seg":"ANSWER"'), "a"),
            (lambda line: line.replace('{"a":1,"seg":"THINK"', '{"a":4,"seg":"THINK"'), "a"),
            (lambda line: line.replace('{"a":1,"seg":"TOOL_CALL"', '{"a":3,"seg":"TOOL_CALL"')
             .replace('{"a":1,"seg":"OBS', '{"a":3,"seg":"OBS'), "a"),
            (lambda line: line.replace('{"a":1,"seg":"THINK"', '{"a":0,"seg":"THINK"'), "a"),
            (lambda line: line.replace('"question_id":2', '"question_id":8'), "question_id"),
            (lambda line: line + "}", None),
            (lambda line: line + " ", None),
            (lambda line: line + "\r", None),
            (lambda line: " " + line, "run_id"),
            (lambda line: line.replace('"is_resample":true', '"is_resample":false'),
             "source_prefix_id"),
            (lambda line: line.replace('"source_prefix_id":"4:2:0"', '"source_prefix_id":null'),
             "source_prefix_id"),
        ],
        ids=["space-after-comma", "space-after-colon", "key-order", "float-for-int",
             "float-for-turn-count", "leading-zero", "int-for-bool", "int-for-float-logp",
             "logp-not-repr", "minus-zero-int-for-float", "logp-exponent", "escaped-ascii",
             "raw-non-ascii", "marker-not-the-shape-s", "observation-not-first-argument",
             "answer-outside-its-node", "think-outside-its-node", "argument-outside-its-node",
             "tool-call-under-no-tool", "question-outside-the-shape", "trailing-text",
             "trailing-space", "carriage-return", "leading-space", "rollout-with-a-prefix",
             "continuation-without-a-prefix"],
    )
    def test_refused_naming_file_line_and_field(self, tmp_path, edit, field):
        lines = written_lines(self.TABLE)[:-1]
        assert read_lines(lines)[0].trajectories() == self.TABLE.trajectories()
        bad = edit(lines[0])
        assert bad != lines[0]
        path = _write(tmp_path, [lines[1], bad, lines[1]])
        with pytest.raises(ParseError) as err:
            read_tables(path, HAND_SHAPE)
        assert (err.value.line, err.value.field_name) == (2, field)
        assert f"({path}, line 2" in str(err.value)

    def test_a_continuation_is_refused_where_none_may_be(self):
        """An eval log holds rollouts only: its parser refuses a continuation's record."""
        line = written_lines(self.TABLE)[0]
        record_parser(HAND_SHAPE)(line, 1)
        with pytest.raises(ParseError) as err:
            record_parser(HAND_SHAPE, continuations=False)(line, 1)
        assert err.value.field_name == "is_resample"

    def test_consecutive_rows_of_one_step_and_kind_are_one_table(self):
        rollouts = table_of([plain_traj(qid=1), tool_traj(qid=2)], run_id="r", step=1)
        continuations = table_of([tool_traj(qid=2)], run_id="r", step=1, is_resample=True,
                                 source_prefix_ids=["1:2:1"])
        step_2 = dataclasses.replace(rollouts, step=2)
        lines = [line for t in (rollouts, continuations, step_2) for line in written_lines(t)[:-1]]
        back = read_lines(lines)
        assert [(t.step, t.is_resample, len(t)) for t in back] == [(1, False, 2), (1, True, 1),
                                                                   (2, False, 2)]
        assert [t for b in back for t in b.trajectories()] == [
            t for table in (rollouts, continuations, step_2) for t in table.trajectories()
        ]


class TestWriteLogOnRealBatches:
    """write_log fills the template from a table's cells, one logp text per distinct
    bit pattern; records that share decisions must still read as json.dumps of each
    record."""

    def test_axpo_step_and_eval_pass(self, monkeypatch):
        batches, build = [], harness.build_batch

        def spy(*args):
            batches.append(build(*args))
            return batches[-1]

        monkeypatch.setattr(harness, "build_batch", spy)
        cfg = RunConfig(algorithm="axpo", env_preset="gap-env")
        env = make_env(cfg.env_preset, seed=11)
        policy = env.initial_policy(cfg.temperature)
        _, tables, _ = train_step(policy, policy, env, cfg, 11, 1, "axpo-gap-env-seed11")
        (batch,) = batches
        records = [t for drawn in tables for t in drawn.trajectories()]  # rollouts first
        assert records == [item.trajectory for item in batch.items]
        table, _, _ = run_eval(policy, env, cfg, 11, 1, "axpo-gap-env-seed11")
        evals = table.trajectories()
        continuations = [t for t in records if t.is_resample]
        assert continuations, "the step resampled nothing"
        for written, batch in ((tables, records), ((table,), evals)):
            steps = [s for t in batch for s in t.steps]
            assert len({id(s) for s in steps}) < len(steps)  # the batch shares step objects
            lines = [line for t in written for line in written_lines(t)[:-1]]
            assert lines == [_json_record(t) for t in batch]

    def test_signed_zero_logps_in_one_call(self):
        shape = _MINI.policy_shape()
        think, answer = shape.think(0).start, shape.answer(0).start
        table = DrawTable(
            np.array([0, 0]), np.array([1, 1]), np.array([[0, -1, 0]] * 2),
            np.array([[think, -1, answer]] * 2), np.array([[-0.5, np.nan, z] for z in (0.0, -0.0)]),
            shape.tool_open_id,
        )
        batch = table.trajectories()
        zero, negative_zero = (t.steps[-1] for t in batch)
        assert zero == negative_zero
        lines = written_lines(table)
        assert lines == [_json_record(t) for t in batch] + [""]
        assert '"logp":0.0,' in lines[0] and '"logp":-0.0,' in lines[1]


class TestWriteLogOfTables:
    """write_log writes a draw table's records from its columns: for each row,
    what json.dumps writes for the table's trajectory of that row. Read back under
    the env's shape, they are the table, column for column and bit for bit."""

    # Run ids and prefix ids that json escapes: quotes, backslashes, controls, non-ASCII.
    RUN_IDS = ("axpo-gap-env-seed0", 'q"uote\\back\nline\x00', "caf\u00e9\u2028\U0001f600")

    @pytest.mark.parametrize("env_spec", ["gap-env", "mini", "wide"], indirect=True)
    def test_rollout_and_continuation_tables(self, env_spec):
        env = ToolEnv(env_spec)
        shape, qids = env.policy_shape(), np.repeat(np.arange(env.num_questions), 3)
        for seed, (scale, temperature) in enumerate([(0.0, 1.0), (1.0, 0.7), (4.0, 1.6)]):
            noise = rng(40, seed).normal(0.0, scale, (2, shape.size))
            policy, other = (
                TabularPolicy(shape, env.initial_policy(temperature).logits + n, temperature)
                for n in noise
            )
            run_id = self.RUN_IDS[seed]
            tables = [
                draw_rollouts(drawer, env, qids, rng(41, seed), run_id=run_id, step=seed)
                for drawer in (policy, other)
            ]
            # Sources of both policies, so one think decision may hold two logps.
            both = concatenated(*tables)
            sources = np.flatnonzero(both.tool_using)
            assert 0 < len(sources) < 2 * len(qids)
            prefix_ids = [f"{run_id}:{i}" for i in range(len(sources))]
            tables.append(draw_continuations(
                policy, env, both, sources, rng(42, seed), run_id=run_id, step=seed,
                is_resample=True, source_prefix_ids=prefix_ids,
            ))
            for table in tables:
                trajectories = table.trajectories()
                assert len(trajectories) == len(table)
                lines = written_lines(table)
                assert lines == [_json_record(t) for t in trajectories] + [""]
                (back,) = read_lines(lines[:-1], shape)
                assert _columns(back) == _columns(table)
                assert written_lines(back) == lines

    def test_empty_table_writes_nothing(self):
        env = make_env("mini")
        table = draw_rollouts(env.initial_policy(), env, [], rng(43))
        assert table.trajectories() == [] and written_lines(table) == [""]


def _assert_readable(traj: Trajectory) -> None:
    """traj holds what the reader checks of a read record's reward and steps."""
    assert traj.reward in (0, 1)
    for step in traj.steps:
        if step.segment is Segment.OBSERVATION:
            assert step.logp_old is None and not step.mask
        else:
            assert type(step.logp_old) is float and -math.inf < step.logp_old <= 0.0


class TestDrawnValues:
    """Steps, trajectories and plans check nothing when built; the sampler's
    output is checked once, by DrawTable. So everything the sampler and build_batch
    build must already hold what a read record is checked for."""

    @pytest.mark.parametrize("env_spec", ["gap-env", "mini", "wide"], indirect=True)
    def test_drawn_values_hold_what_is_checked_on_read(self, env_spec):
        env = ToolEnv(env_spec)
        shape, qids = env.policy_shape(), np.arange(env.num_questions)
        cfg = RunConfig(algorithm="axpo", group_size=4, resample_ratio=0.5, eval_rollouts=2)
        resampled = 0
        for seed, scale in enumerate([0.0, 1.0, 4.0]):
            policy, other = (
                TabularPolicy(shape, env.initial_policy().logits + noise)
                for noise in rng(44, seed).normal(0.0, scale, (2, shape.size))
            )
            table = concatenated(*(draw_rollouts(drawer, env, np.repeat(qids, 3), rng(45, seed))
                                   for drawer in (policy, other)))
            rollouts = table.trajectories()
            # Sources of both policies, so one think decision may hold two logps.
            rows = np.flatnonzero(table.tool_using)
            continuations = draw_continuations(policy, env, table, rows,
                                               rng(46, seed)).trajectories()
            batch = build_batch(policy, env, qids, cfg, rng(47, seed), rng(48, seed))
            assert batch.rollouts.question.tolist() == np.repeat(qids, cfg.group_size).tolist()
            drawn = batch.rollouts.trajectories()
            resampled_drawn = batch.continuations.trajectories()
            pairs = [*((rollouts[i], t) for i, t in zip(rows, continuations)),
                     *((drawn[r.selected.group_index * cfg.group_size + r.selected.source_index],
                        resampled_drawn[i]) for r in batch.results for i in r.continuations)]
            for source, continuation in pairs:
                assert continuation.steps[:PREFIX_STEPS] == source.steps[:PREFIX_STEPS]
            resampled += len(batch.results)
            (evals, _, _) = run_eval(policy, env, cfg, seed, 0, "run")
            for traj in [*rollouts, *continuations, *(item.trajectory for item in batch.items),
                         *evals.trajectories()]:
                _assert_readable(traj)
        assert resampled


_LETTER = {
    Segment.THINK: "T", Segment.TOOL_CALL: "C", Segment.OBSERVATION: "O", Segment.ANSWER: "A"
}
# The grammar before the single-turn layout: any number of turns, each a think,
# a call and an observation run, then a last think run and the answer run.
_OLD_GRAMMAR = re.compile(r"(T+C+O+)*T*A*")
_TWO_CALL_SHAPE = dataclasses.replace(HAND_SHAPE, call_steps=2)


@st.composite
def near_grammar_segments(draw) -> list[Segment]:
    """A sequence of the form THINK (TOOL_CALL TOOL_CALL+ OBSERVATION)? ANSWER
    after up to three one-segment edits (insert, delete or replace), so that
    most rejected sequences are near misses."""
    segments = [Segment.THINK]
    if draw(st.booleans()):
        segments += [Segment.TOOL_CALL] * draw(st.integers(2, 4)) + [Segment.OBSERVATION]
    segments.append(Segment.ANSWER)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(segments)))
        edit = draw(st.lists(st.sampled_from(Segment), max_size=1))
        segments[i : i + draw(st.integers(0, 1))] = edit
    return segments


def _steps_of(segments: list[Segment], shape: PolicyShape) -> list[Step]:
    """A step per segment as write_log writes it under shape: the first TOOL_CALL
    the opening marker, the others arguments; a think action that is a tool
    intent when there is a call; action 0 everywhere else."""
    tool = Segment.TOOL_CALL in segments
    steps, marked = [], False
    for seg in segments:
        if seg is Segment.OBSERVATION:
            steps.append(obs_step(0))
        elif seg is Segment.TOOL_CALL and not marked:
            steps.append(marker_step(shape.tool_open_id))
            marked = True
        else:
            steps.append(Step(int(tool and seg is Segment.THINK), seg, logp_old=-0.5))
    return steps


@settings(derandomize=True, max_examples=300, deadline=None)
@given(segments=near_grammar_segments() | st.lists(st.sampled_from(Segment), max_size=8))
def test_segment_grammar_matches_regex(segments):
    """A record is read exactly when its segments are the layout with the
    shape's call_steps argument steps."""
    word = "".join(_LETTER[s] for s in segments)
    for shape in (HAND_SHAPE, _TWO_CALL_SHAPE):
        line = _record_line(*_steps_of(segments, shape))
        try:
            _read_line(line, shape)
            accepted = True
        except ParseError:
            accepted = False
        assert accepted == bool(re.fullmatch(f"T(?:C{{{1 + shape.call_steps}}}O)?A", word))
        # The layout only narrows the old grammar: whatever it accepts, that accepted.
        assert not accepted or _OLD_GRAMMAR.fullmatch(word)


class TestGroup:
    def test_rewards(self):
        g = group_of(plain_traj(reward=1), plain_traj(reward=0))
        assert g.rewards() == [1, 0]
        assert len(g.rollouts) == 2
