import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from axpo.trajectory import (
    Group,
    NotToolUsing,
    ParseError,
    Segment,
    Step,
    Trajectory,
    classify_subgroups,
    deserialize,
    first_tool_prefix,
    read_log,
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
            Trajectory(0, (think_step(), obs_step(), answer_step()), reward=0, turn_count=1)

    def test_nothing_after_answer(self):
        with pytest.raises(ValueError):
            Trajectory(0, (think_step(), answer_step(), think_step()), reward=0, turn_count=1)

    def test_tool_call_needs_think(self):
        with pytest.raises(ValueError):
            Trajectory(0, (marker_step(), obs_step(), answer_step()), reward=0, turn_count=1)

    def test_multi_turn_allowed(self):
        steps = (
            think_step(1),
            marker_step(),
            arg_step(),
            obs_step(),
            think_step(2),
            marker_step(),
            arg_step(),
            obs_step(),
            answer_step(),
        )
        Trajectory(0, steps, reward=1, turn_count=2)


class TestClassifySubgroups:
    def test_mixed(self):
        g = group_of(tool_traj(), plain_traj(), tool_traj(), plain_traj())
        assert classify_subgroups(g) == ([0, 2], [1, 3])

    def test_no_tool_calls(self):
        g = group_of(*(plain_traj() for _ in range(3)))
        assert classify_subgroups(g) == ([], [0, 1, 2])

    def test_all_tool(self):
        g = group_of(*(tool_traj() for _ in range(3)))
        assert classify_subgroups(g) == ([0, 1, 2], [])

    def test_partition_is_exhaustive(self):
        r = rng(11)
        for _ in range(50):
            trajs = [tool_traj() if r.random() < 0.5 else plain_traj() for _ in range(8)]
            tool, no_tool = classify_subgroups(group_of(*trajs))
            assert sorted(tool + no_tool) == list(range(8))


class TestFirstToolPrefix:
    def test_cut_after_two_thinks(self):
        steps = (
            think_step(0),
            think_step(1),
            marker_step(),
            arg_step(),
            obs_step(),
            answer_step(),
        )
        traj = Trajectory(0, steps, reward=0, turn_count=1)
        prefix = first_tool_prefix(traj)
        assert prefix.cut_index == 2
        assert [s.segment for s in prefix.steps] == [
            Segment.THINK,
            Segment.THINK,
            Segment.TOOL_CALL,
        ]

    def test_no_tool_raises(self):
        with pytest.raises(NotToolUsing):
            first_tool_prefix(plain_traj())

    def test_first_call_not_second(self):
        steps = (
            think_step(1),
            marker_step(),
            obs_step(),
            think_step(2),
            marker_step(),
            obs_step(),
            answer_step(),
        )
        traj = Trajectory(0, steps, reward=0, turn_count=2)
        assert first_tool_prefix(traj).cut_index == 1

    def test_prefix_has_no_argument_or_observation_steps(self):
        prefix = first_tool_prefix(tool_traj())
        assert all(s.segment is not Segment.OBSERVATION for s in prefix.steps)
        assert sum(s.segment is Segment.TOOL_CALL for s in prefix.steps) == 1


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
        ],
        ids=["steps-not-a-list", "step-not-an-object", "logp-a-string", "seg-a-list",
             "action-a-string", "mask-missing", "turn-count-a-string"],
    )
    def test_malformed_field_is_a_parse_error(self, mutate, field):
        record = json.loads(serialize(tool_traj()))
        mutate(record)
        with pytest.raises(ParseError) as err:
            deserialize(json.dumps(record), line_number=4)
        assert (err.value.line, err.value.field_name) == (4, field)

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            list(read_log(io.StringIO("not json\n")))
        assert err.value.line == 1

    def test_log_round_trip(self):
        trajs = [plain_traj(qid=0), tool_traj(qid=0, reward=1)]
        buf = io.StringIO()
        write_log(trajs, buf)
        buf.seek(0)
        assert list(read_log(buf)) == trajs

    def test_prefix_stable_under_reserialization(self):
        traj = tool_traj(qid=1)
        back = deserialize(serialize(traj))
        assert first_tool_prefix(back).cut_index == first_tool_prefix(traj).cut_index


def _policy_step(segment: Segment):
    logp = st.none() | st.floats(max_value=0.0, allow_nan=False, allow_infinity=False)
    return st.builds(Step, st.integers(), st.just(segment), logp, st.booleans())


@st.composite
def grammar_valid_steps(draw) -> list[Step]:
    """(THINK+ TOOL_CALL+ OBSERVATION+)* THINK* ANSWER*, with arbitrary ids, logps and masks."""

    def run(segment: Segment, least: int) -> list[Step]:
        if segment is Segment.OBSERVATION:
            step = st.builds(Step, st.integers(), st.just(segment), st.none(), st.just(False))
        else:
            step = _policy_step(segment)
        return draw(st.lists(step, min_size=least, max_size=least + 2))

    steps = []
    for _ in range(draw(st.integers(0, 2))):
        steps += run(Segment.THINK, 1) + run(Segment.TOOL_CALL, 1) + run(Segment.OBSERVATION, 1)
    return steps + run(Segment.THINK, 0) + run(Segment.ANSWER, 0)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    traj=st.builds(
        Trajectory,
        question_id=st.integers(),
        steps=grammar_valid_steps(),
        reward=st.sampled_from((0, 1)),
        turn_count=st.integers(min_value=0),
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


class TestGroup:
    def test_requires_shared_question(self):
        with pytest.raises(ValueError):
            Group(question_id=0, rollouts=(plain_traj(qid=0), plain_traj(qid=1)))

    def test_rewards(self):
        g = group_of(plain_traj(reward=1), plain_traj(reward=0))
        assert g.rewards() == [1, 0]
        assert g.n == 2
