import io
import json
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from axpo.config import RunConfig
from axpo.env import make_env, sample_continuation
from axpo.harness import run_eval, train_step
from axpo.trajectory import (
    PREFIX_STEPS,
    Group,
    NotToolUsing,
    ParseError,
    Segment,
    Step,
    Trajectory,
    _RECORD_KEYS,
    check_segment_grammar,
    deserialize,
    read_records,
    serialize,
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
)


class TestStepValidation:
    def test_observation_rejects_logp(self):
        with pytest.raises(ValueError):
            Step(0, Segment.OBSERVATION, logp_old=-0.1, mask=False)

    def test_observation_rejects_unmasked(self):
        with pytest.raises(ValueError):
            Step(0, Segment.OBSERVATION, logp_old=None, mask=True)

    @pytest.mark.parametrize("segment", [Segment.THINK, Segment.TOOL_CALL, Segment.ANSWER])
    def test_policy_step_needs_logp(self, segment):
        with pytest.raises(ValueError, match="got None"):
            Step(0, segment, logp_old=None, mask=False)

    def test_positive_logp_rejected(self):
        with pytest.raises(ValueError):
            Step(0, Segment.THINK, logp_old=0.5)

    @pytest.mark.parametrize("logp", [math.inf, -math.inf, math.nan])
    def test_non_finite_logp_rejected(self, logp):
        with pytest.raises(ValueError):
            Step(0, Segment.THINK, logp_old=logp)


class TestGrammar:
    def test_observation_needs_tool_call(self):
        with pytest.raises(ValueError):
            Trajectory(0, (think_step(), obs_step(), answer_step()), reward=0)

    def test_nothing_after_answer(self):
        with pytest.raises(ValueError):
            Trajectory(0, (think_step(), answer_step(), think_step()), reward=0)

    def test_tool_call_needs_think(self):
        with pytest.raises(ValueError):
            Trajectory(0, (marker_step(), obs_step(), answer_step()), reward=0)

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
        with pytest.raises(ValueError):
            Trajectory(0, (think_step(1), marker_step(), obs_step(), answer_step()), 0)


def _record_line(*steps: Step) -> str:
    """A record line of a tool-using trajectory with its steps replaced."""
    record = json.loads(serialize(tool_traj()))
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
        assert deserialize(serialize(traj)) == traj

    def test_logp_bit_exact(self):
        traj = tool_traj(args=((0, 0.3),))
        back = deserialize(serialize(traj))
        assert back.steps[2].logp_old == math.log(0.3)

    def test_missing_reward_field(self):
        record = json.loads(serialize(plain_traj()))
        del record["reward"]
        with pytest.raises(ParseError):
            deserialize(json.dumps(record))

    def test_observation_with_logp_rejected(self):
        record = json.loads(serialize(tool_traj()))
        for step in record["steps"]:
            if step["seg"] == "OBSERVATION":
                step["logp"] = -0.5
        with pytest.raises(ParseError):
            deserialize(json.dumps(record))

    @pytest.mark.parametrize("literal", ["NaN", "-Infinity", "Infinity"])
    def test_non_finite_logp_rejected(self, literal):
        line = serialize(tool_traj()).replace('"logp":-0.6931471805599453', f'"logp":{literal}', 1)
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
        record = json.loads(serialize(tool_traj()))
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
        record = json.loads(serialize(tool_traj()))
        record["steps"] = [record["steps"][i] for i in keep]
        with pytest.raises(ParseError, match=message):
            deserialize(json.dumps(record))

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda r: r["steps"][2].update(logp=None), "logp_old must be finite and <= 0, got None"),
            (lambda r: r["steps"][1].update(mask=True), "opening marker"),
        ],
        ids=["policy-step-without-logp", "unmasked-marker"],
    )
    def test_step_the_loss_cannot_read_is_a_parse_error(self, mutate, message):
        record = json.loads(serialize(tool_traj()))
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
        trajs = [plain_traj(qid=0), tool_traj(qid=0, reward=1)]
        path = tmp_path / "log.jsonl"
        with path.open("w") as fh:
            write_log(trajs, fh)
        ends, back = zip(*read_records(path, deserialize))
        assert list(back) == trajs
        assert ends[-1] == path.stat().st_size

    def test_prefix_stable_under_reserialization(self):
        traj = tool_traj(qid=1)
        back = deserialize(serialize(traj))
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
    line = serialize(traj)
    back = deserialize(line)
    assert back == traj
    # repr writes every float's exact bits, -0.0 included, so equal lines mean equal bits.
    assert serialize(back) == line


def _json_record(traj: Trajectory) -> str:
    """The record as json.dumps writes it from a dict of the record keys, in
    order: the reference the writer's template must match."""
    record = {key: getattr(traj, key, 1) for key in _RECORD_KEYS}  # turn_count is 1
    record["steps"] = [
        {"a": s.action_id, "seg": s.segment.value, "logp": s.logp_old, "mask": s.mask}
        for s in traj.steps
    ]
    return json.dumps(record, separators=(",", ":"))


# Strings that json escapes: quotes, backslashes, controls, non-ASCII and astral code points.
_ESCAPED = st.sampled_from(['"', "\\", "\n\t\x00\x1f", "caf\u00e9", "\u2028", "\U0001f600", ""])
# Log-probabilities whose text is easy to get wrong: signed zero, an int, subnormals.
_EDGE_LOGPS = st.sampled_from([-0.0, 0, 0.0, -5e-324, -1e-300, -1e16, -0.1, -2.5])


@st.composite
def _edge_steps(draw) -> list[Step]:
    """grammar_valid_steps with some logps replaced by the edge values."""
    steps = draw(grammar_valid_steps())
    for i, step in enumerate(steps):
        if step.logp_old is not None and draw(st.booleans()):
            steps[i] = Step(step.action_id, step.segment, draw(_EDGE_LOGPS), step.mask)
    return steps


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    traj=st.builds(
        Trajectory,
        question_id=st.integers(),
        steps=_edge_steps(),
        reward=st.sampled_from((0, 1)),
        run_id=_ESCAPED | st.text(),
        step_index_in_training=st.integers(),
        is_resample=st.booleans(),
        source_prefix_id=st.none() | _ESCAPED | st.text(),
    )
)
def test_serialize_writes_what_json_dumps_writes(traj):
    line = serialize(traj)
    assert line == _json_record(traj)
    assert deserialize(line) == traj


def _written_lines(trajectories) -> list[str]:
    fh = io.StringIO()
    write_log(trajectories, fh)
    return fh.getvalue().split("\n")


class TestWriteLogOnRealBatches:
    """write_log encodes each Step object once; records that share step
    objects must still read as json.dumps of each record."""

    def test_axpo_step_and_eval_pass(self):
        cfg = RunConfig(algorithm="axpo", env_preset="gap-env")
        env = make_env(cfg.env_preset, seed=11)
        policy = env.initial_policy(cfg.temperature)
        _, records, _ = train_step(policy, policy, env, cfg, 11, 1, "axpo-gap-env-seed11")
        evals, _, _ = run_eval(policy, env, cfg, 11, 1, "axpo-gap-env-seed11")
        continuations = [t for t in records if t.is_resample]
        assert continuations, "the step resampled nothing"
        for batch in (records, evals):
            steps = [s for t in batch for s in t.steps]
            assert len({id(s) for s in steps}) < len(steps)  # the batch shares step objects
            assert _written_lines(batch) == [_json_record(t) for t in batch] + [""]
        # A continuation reuses its source's prefix steps.
        sources = {id(s) for t in records if not t.is_resample for s in t.steps[:PREFIX_STEPS]}
        assert all(id(t.steps[0]) in sources for t in continuations)

    def test_signed_zero_logps_in_one_call(self):
        zero, negative_zero = (Step(0, Segment.ANSWER, logp_old=z) for z in (0.0, -0.0))
        assert zero == negative_zero
        batch = [Trajectory(0, (think_step(), answer), 1) for answer in (zero, negative_zero)]
        lines = _written_lines(batch)
        assert lines == [_json_record(t) for t in batch] + [""]
        assert '"logp":0.0,' in lines[0] and '"logp":-0.0,' in lines[1]

    def test_generator_that_drops_what_it_built(self):
        """Each trajectory is freed once written, so a later one may reuse its id."""

        def built(i: int) -> Trajectory:
            answer = Step(i % 3, Segment.ANSWER, logp_old=(-0.0, 0.0, -0.25)[i % 3])
            return Trajectory(i, (think_step(p=1 / (i + 2)), answer), i % 2, run_id=f"r{i % 2}")

        assert _written_lines(built(i) for i in range(60)) == [
            _json_record(built(i)) for i in range(60)
        ] + [""]


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
    def test_requires_shared_question(self):
        with pytest.raises(ValueError):
            Group(question_id=0, rollouts=(plain_traj(qid=0), plain_traj(qid=1)))

    def test_rewards(self):
        g = group_of(plain_traj(reward=1), plain_traj(reward=0))
        assert g.rewards() == [1, 0]
        assert len(g.rollouts) == 2
