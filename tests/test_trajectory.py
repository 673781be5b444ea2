import dataclasses
import json
import math
import re

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
from axpo.policy import TabularPolicy
from axpo.trajectory import (
    PREFIX_STEPS,
    DrawTable,
    NotToolUsing,
    ParseError,
    Segment,
    Step,
    Trajectory,
    _RECORD_KEYS,
    check_segment_grammar,
    deserialize,
    read_records,
    write_log,
)

from conftest import (
    answer_step,
    arg_step,
    group_of,
    marker_step,
    obs_step,
    plain_traj,
    rng,
    think_step,
    tool_traj,
    written_lines,
)


class TestGrammar:
    def test_observation_needs_tool_call(self):
        with pytest.raises(ParseError, match="is not THINK"):
            deserialize(_record_line(think_step(), obs_step(), answer_step()))

    def test_nothing_after_answer(self):
        with pytest.raises(ParseError, match="is not THINK"):
            deserialize(_record_line(think_step(), answer_step(), think_step()))

    def test_tool_call_needs_think(self):
        with pytest.raises(ParseError, match="is not THINK"):
            deserialize(_record_line(marker_step(), obs_step(), answer_step()))

    def test_multi_turn_rejected(self):
        line = _record_line(
            think_step(1), marker_step(), arg_step(), obs_step(),
            think_step(2), marker_step(), arg_step(), obs_step(), answer_step(),
        )
        with pytest.raises(ParseError, match="is not THINK"):
            deserialize(line)

    def test_two_thinks_rejected(self):
        line = _record_line(
            think_step(0), think_step(1), marker_step(), arg_step(), obs_step(), answer_step()
        )
        with pytest.raises(ParseError, match="is not THINK"):
            deserialize(line)

    def test_second_tool_call_rejected(self):
        line = _record_line(
            think_step(1), marker_step(), arg_step(), obs_step(),
            marker_step(), arg_step(), obs_step(), answer_step(),
        )
        with pytest.raises(ParseError, match="is not THINK"):
            deserialize(line)

    def test_call_without_argument_rejected(self):
        with pytest.raises(ParseError, match="is not THINK"):
            deserialize(_record_line(think_step(1), marker_step(), obs_step(), answer_step()))


def _json_record(traj: Trajectory) -> str:
    """The record as json.dumps writes it from a dict of the record keys, in
    order: the reference the writer's template must match."""
    record = {key: getattr(traj, key, 1) for key in _RECORD_KEYS}  # turn_count is 1
    record["steps"] = [
        {"a": s.action_id, "seg": s.segment.value, "logp": s.logp_old, "mask": s.mask}
        for s in traj.steps
    ]
    return json.dumps(record, separators=(",", ":"))


def _record_line(*steps: Step) -> str:
    """A record line of a tool-using trajectory with its steps replaced."""
    record = json.loads(_json_record(tool_traj()))
    record["steps"] = [
        {"a": s.action_id, "seg": s.segment.value, "logp": s.logp_old, "mask": s.mask}
        for s in steps
    ]
    return json.dumps(record)


class TestFirstToolPrefix:
    def test_no_tool_raises(self, mini_env):
        policy = mini_env.initial_policy()
        with pytest.raises(NotToolUsing):
            sample_continuation(policy, mini_env, plain_traj(), rng(0))

    def test_prefix_has_no_argument_or_observation_steps(self):
        prefix = tool_traj(args=((0, 0.5), (1, 0.5))).steps[:PREFIX_STEPS]
        assert [s.segment for s in prefix] == [Segment.THINK, Segment.TOOL_CALL]
        assert not prefix[-1].mask  # the opening marker


class TestSerialization:
    def test_round_trip_identity(self):
        traj = tool_traj(
            qid=3,
            reward=1,
            args=((2, 0.3),),
            run_id="r",
            step_index_in_training=5,
            is_resample=True,
            source_prefix_id="5:3:0",
        )
        assert deserialize(_json_record(traj)) == traj

    def test_logp_bit_exact(self):
        traj = tool_traj(args=((0, 0.3),))
        back = deserialize(_json_record(traj))
        assert back.steps[2].logp_old == math.log(0.3)

    def test_missing_reward_field(self):
        record = json.loads(_json_record(plain_traj()))
        del record["reward"]
        with pytest.raises(ParseError):
            deserialize(json.dumps(record))

    def test_observation_with_logp_rejected(self):
        record = json.loads(_json_record(tool_traj()))
        for step in record["steps"]:
            if step["seg"] == "OBSERVATION":
                step["logp"] = -0.5
        with pytest.raises(ParseError):
            deserialize(json.dumps(record))

    @pytest.mark.parametrize("literal", ["NaN", "-Infinity", "Infinity"])
    def test_non_finite_logp_rejected(self, literal):
        line = _json_record(tool_traj()).replace('"logp":-0.6931471805599453', f'"logp":{literal}', 1)
        assert literal in line
        with pytest.raises(ParseError):
            deserialize(line)

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
    def test_malformed_field_is_a_parse_error(self, mutate, field):
        record = json.loads(_json_record(tool_traj()))
        mutate(record)
        with pytest.raises(ParseError) as err:
            deserialize(json.dumps(record), line_number=4)
        assert (err.value.line, err.value.field_name) == (4, field)

    @pytest.mark.parametrize(
        "keep, message",
        [
            ((0, 1, 4), "THINK TOOL_CALL ANSWER is not THINK"),
            ((0, 1, 2), "THINK TOOL_CALL TOOL_CALL is not THINK"),
        ],
        ids=["THINK TOOL_CALL ANSWER", "THINK TOOL_CALL TOOL_CALL"],
    )
    def test_tool_call_without_observation_rejected(self, keep, message):
        record = json.loads(_json_record(tool_traj()))
        record["steps"] = [record["steps"][i] for i in keep]
        with pytest.raises(ParseError, match=message):
            deserialize(json.dumps(record))

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda r: r["steps"][2].update(logp=None), "logp_old must be finite and <= 0, got None"),
            (lambda r: r["steps"][1].update(mask=True), "opening marker"),
            (lambda r: r["steps"][3].update(mask=True), "OBSERVATION steps are never unmasked"),
            (lambda r: r["steps"][0].update(logp=0.5), "logp_old must be finite and <= 0, got 0.5"),
            (lambda r: r.update(reward=2), "reward must be 0 or 1, got 2"),
            (lambda r: r.update(reward=-1), "reward must be 0 or 1, got -1"),
        ],
        ids=["policy-step-without-logp", "unmasked-marker", "unmasked-observation",
             "positive-logp", "reward-2", "reward--1"],
    )
    def test_step_the_loss_cannot_read_is_a_parse_error(self, mutate, message):
        record = json.loads(_json_record(tool_traj()))
        mutate(record)
        with pytest.raises(ParseError, match=message) as err:
            deserialize(json.dumps(record), line_number=4)
        assert err.value.line == 4

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ParseError) as err:
            list(read_records(path, deserialize))
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
        ends, back = zip(*read_records(path, deserialize))
        assert list(back) == trajs
        assert ends[-1] == path.stat().st_size

    def test_prefix_stable_under_reserialization(self):
        traj = tool_traj(qid=1)
        back = deserialize(_json_record(traj))
        assert back.steps[:PREFIX_STEPS] == traj.steps[:PREFIX_STEPS]


def _policy_step(segment: Segment, mask=st.booleans()):
    logp = st.floats(max_value=0.0, allow_nan=False, allow_infinity=False)
    return st.builds(Step, st.integers(), st.just(segment), logp, mask)


def _observation_step():
    return st.builds(Step, st.integers(), st.just(Segment.OBSERVATION), st.none(), st.just(False))


@st.composite
def grammar_valid_steps(draw) -> list[Step]:
    """THINK (TOOL_CALL TOOL_CALL+ OBSERVATION)? ANSWER, with arbitrary ids and
    logps, and arbitrary masks but on the opening marker, which is masked."""
    steps = [draw(_policy_step(Segment.THINK))]
    if draw(st.booleans()):
        steps.append(draw(_policy_step(Segment.TOOL_CALL, mask=st.just(False))))
        steps += draw(st.lists(_policy_step(Segment.TOOL_CALL), min_size=1, max_size=3))
        steps.append(draw(_observation_step()))
    return steps + [draw(_policy_step(Segment.ANSWER))]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    traj=st.builds(
        Trajectory,
        question_id=st.integers(),
        steps=grammar_valid_steps(),
        reward=st.sampled_from((0, 1)),
        run_id=st.text(),
        step_index_in_training=st.integers(),
        is_resample=st.booleans(),
        source_prefix_id=st.none() | st.text(),
    )
)
def test_record_round_trip_is_bit_exact(traj):
    line = _json_record(traj)
    back = deserialize(line)
    assert back == traj
    # repr writes every float's exact bits, -0.0 included, so equal lines mean equal bits.
    assert _json_record(back) == line


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
        sources = [t for t in table.trajectories() if t.is_tool_using()]
        table = draw_continuations(policy, _MINI, sources, rng(draw(st.integers(0, 2**32 - 1))))
    logp = table.logp.copy()
    for cell in np.flatnonzero(table.flat >= 0):
        if draw(st.booleans()):
            logp.flat[cell] = draw(_EDGE_LOGPS)
    text, n = _ESCAPED | st.text(), len(table)
    return dataclasses.replace(
        table, logp=logp, run_id=draw(text), step=draw(st.integers()),
        is_resample=draw(st.booleans()),
        source_prefix_ids=draw(st.none() | st.lists(text, min_size=n, max_size=n)),
    )


@settings(derandomize=True, max_examples=200, deadline=None)
@given(table=_edge_tables())
def test_write_log_writes_what_json_dumps_writes(table):
    trajectories = table.trajectories()
    lines = written_lines(table)
    assert lines == [_json_record(t) for t in trajectories] + [""]
    assert [deserialize(line) for line in lines[:-1]] == trajectories


class TestWriteLogOnRealBatches:
    """write_log writes one step text per distinct decision; records that share
    decisions must still read as json.dumps of each record."""

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
        records = [item.trajectory for item in batch.items]  # groups first, continuations after
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
    what json.dumps writes for the table's trajectory of that row."""

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
            sources = [t for table in tables for t in table.trajectories() if t.is_tool_using()]
            assert 0 < len(sources) < 2 * len(qids)
            prefix_ids = [f"{run_id}:{i}" for i in range(len(sources))]
            tables.append(draw_continuations(
                policy, env, sources, rng(42, seed), run_id=run_id, step=seed, is_resample=True,
                source_prefix_ids=prefix_ids,
            ))
            for table in tables:
                trajectories = table.trajectories()
                assert len(trajectories) == len(table)
                assert written_lines(table) == [_json_record(t) for t in trajectories] + [""]

    def test_empty_table_writes_nothing(self):
        env = make_env("mini")
        table = draw_rollouts(env.initial_policy(), env, [], rng(43))
        assert table.trajectories() == [] and written_lines(table) == [""]


def _assert_readable(traj: Trajectory) -> None:
    """traj holds what deserialize checks of a read record's reward and steps."""
    assert traj.reward in (0, 1)
    for step in traj.steps:
        if step.segment is Segment.OBSERVATION:
            assert step.logp_old is None and not step.mask
        else:
            assert type(step.logp_old) is float and -math.inf < step.logp_old <= 0.0


class TestDrawnValues:
    """Steps, trajectories, groups and plans check nothing when built; the sampler's
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
            rollouts = [t for drawer in (policy, other)
                        for t in draw_rollouts(drawer, env, np.repeat(qids, 3),
                                               rng(45, seed)).trajectories()]
            # Sources of both policies, so one think decision may hold two logps.
            sources = [t for t in rollouts if t.is_tool_using()]
            continuations = draw_continuations(policy, env, sources, rng(46, seed)).trajectories()
            batch = build_batch(policy, env, qids, cfg, rng(47, seed), rng(48, seed))
            for group in batch.groups:
                assert group.rollouts
                assert all(t.question_id == group.question_id for t in group.rollouts)
            pairs = [*zip(sources, continuations),
                     *((r.selected.prefix, t) for r in batch.results for t in r.continuations)]
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
# A think step, an optional tool call (marker, arguments, observation), the answer.
_GRAMMAR = re.compile(r"T(CC+O)?A")
# The grammar before the single-turn layout: any number of turns, each a think,
# a call and an observation run, then a last think run and the answer run.
_OLD_GRAMMAR = re.compile(r"(T+C+O+)*T*A*")


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


@settings(derandomize=True, max_examples=300, deadline=None)
@given(segments=near_grammar_segments() | st.lists(st.sampled_from(Segment), max_size=8))
def test_segment_grammar_matches_regex(segments):
    # Tool-call steps are masked, so an opening marker in any position is.
    steps = [
        Step(0, seg, logp_old=None, mask=False)
        if seg is Segment.OBSERVATION
        else Step(0, seg, logp_old=-0.5, mask=seg is not Segment.TOOL_CALL)
        for seg in segments
    ]
    try:
        check_segment_grammar(steps)
        accepted = True
    except ValueError:
        accepted = False
    word = "".join(_LETTER[s] for s in segments)
    assert accepted == bool(_GRAMMAR.fullmatch(word))
    # The layout only narrows the old grammar: whatever it accepts, that accepted.
    assert not accepted or _OLD_GRAMMAR.fullmatch(word)


class TestGroup:
    def test_rewards(self):
        g = group_of(plain_traj(reward=1), plain_traj(reward=0))
        assert g.rewards() == [1, 0]
        assert len(g.rollouts) == 2
