import io
import math
from dataclasses import astuple
from typing import get_type_hints

import pytest
from hypothesis import given, settings, strategies as st

from axpo.diagnostics import (
    METRICS_COLUMNS,
    InsufficientRollouts,
    StepMetrics,
    compute_step_metrics,
    eval_passes,
    group_by_question,
    metrics_row,
    parse_audit_record,
    parse_metrics_csv,
    read_audit_log,
    write_audit_records,
)
from axpo.env import draw_rollouts, make_env, sample_continuation
from axpo.policy import PolicyShape
from axpo.trajectory import DrawTable, ParseError, Segment, Trajectory

from conftest import plain_traj, rng, table_of, tool_traj

# The shape of the hand-built tables with many questions, an eval pass of 1,000 of them.
MANY_QUESTIONS = PolicyShape(
    num_questions=1_000, num_intents=3, call_steps=1, num_variants=3, num_answers=3
)


def first_call_sequence(traj: Trajectory) -> tuple[int, ...]:
    """Canonical action-id sequence of the first tool call (argument steps)."""
    seq: list[int] = []
    in_call = False
    for s in traj.steps:
        if s.segment is Segment.TOOL_CALL:
            if in_call:
                seq.append(s.action_id)
            in_call = True
        elif in_call:
            break
    if not seq:
        raise ValueError("trajectory has no tool-call argument steps")
    return tuple(seq)


def cluster_count(calls) -> int:
    """Number of distinct tool-call sequences (exact-match clustering)."""
    if not calls:
        raise ValueError("cluster count needs at least one call")
    return len(set(calls))


def groups_from(spec: dict) -> dict:
    """spec: question -> list of (is_tool, reward)."""
    out = {}
    for q, rollouts in spec.items():
        out[q] = [
            tool_traj(qid=q, reward=rw) if is_tool else plain_traj(qid=q, reward=rw)
            for is_tool, rw in rollouts
        ]
    return out


def metrics_of(spec: dict, audit: list = ()) -> StepMetrics:
    """compute_step_metrics over the table of the rollouts of groups_from(spec)."""
    trajs = [t for rollouts in groups_from(spec).values() for t in rollouts]
    return compute_step_metrics(1, [table_of(trajs, MANY_QUESTIONS)], list(audit))


def recovered(*qids: int) -> list[dict]:
    """Audit records of questions whose resamples recovered."""
    return [
        {"step": 1, "question_id": q, "source_index": 0, "rewards": [1, 0], "recovery": 1}
        for q in qids
    ]


class TestToolUseRate:
    def test_no_tools(self):
        m = metrics_of({0: [(False, 0)] * 4, 1: [(False, 1)] * 4})
        assert m.tool_use_rate == 0.0

    def test_all_tools(self):
        assert metrics_of({0: [(True, 0)] * 3}).tool_use_rate == 1.0

    def test_two_of_eight_in_each_group(self):
        spec = {q: [(True, 0)] * 2 + [(False, 0)] * 6 for q in range(8)}
        assert metrics_of(spec).tool_use_rate == 0.25

    def test_resamples_excluded_from_grouping(self):
        tables = [table_of([plain_traj(qid=0)]), table_of([tool_traj(qid=0)], is_resample=True)]
        groups = group_by_question(tables)
        assert len(groups[0]) == 1


class TestAllWrongRate:
    def test_all_correct(self):
        m = metrics_of({0: [(True, 1), (False, 1)]})
        assert (m.all_wrong_tool, m.all_wrong_no_tool) == (0.0, 0.0)

    def test_all_wrong(self):
        m = metrics_of({0: [(True, 0), (False, 0)], 1: [(True, 0), (False, 0)]})
        assert (m.all_wrong_tool, m.all_wrong_no_tool) == (1.0, 1.0)

    def test_four_of_ten(self):
        spec = {}
        for q in range(10):
            wrong = q < 4
            spec[q] = [(True, 0 if wrong else 1), (True, 0), (False, 1)]
        assert metrics_of(spec).all_wrong_tool == 0.4

    def test_absent_when_subgroup_missing(self):
        m = metrics_of({0: [(False, 1)] * 2})
        assert m.all_wrong_tool is None and m.all_wrong_no_tool == 0.0

    def test_post_resampling_excludes_recovered(self):
        spec = {q: [(True, 0), (True, 0)] for q in range(4)}
        pre = metrics_of(spec).all_wrong_tool
        assert pre == 1.0
        assert metrics_of(spec, recovered(0, 2)).all_wrong_tool == 0.5
        assert metrics_of(spec, recovered(1)).all_wrong_tool <= pre


class TestRecoveryRate:
    def test_absent_without_triggers(self):
        assert compute_step_metrics(1, [], []).recovery_rate is None

    def test_every_selected_recovers(self):
        assert compute_step_metrics(1, [], recovered(*range(5))).recovery_rate == 1.0

    def test_fifty_triggered_six_recovered(self):
        records = []
        for q in range(50):
            rec = 1 if q < 6 else 0
            records.append(
                {"step": 1, "question_id": q, "source_index": 0, "rewards": [rec], "recovery": rec}
            )
        assert compute_step_metrics(1, [], records).recovery_rate == pytest.approx(0.12, abs=1e-15)

    def test_null_records_count_as_triggered(self):
        records = [
            {"step": 1, "question_id": 0, "source_index": None, "rewards": [], "recovery": None},
            {"step": 1, "question_id": 1, "source_index": 0, "rewards": [1], "recovery": 1},
        ]
        assert compute_step_metrics(1, [], records).recovery_rate == 0.5


def _eval_pass(rewards_per_question: dict[int, list[int]]) -> list[DrawTable]:
    """An eval pass's table: each question's rollouts, with the given rewards, in turn."""
    trajs = [plain_traj(qid=q, reward=r) for q, rs in rewards_per_question.items() for r in rs]
    return [table_of(trajs, MANY_QUESTIONS)]


class TestPassAtK:
    """eval_passes' pass@1 and pass@4 of an eval pass's records."""

    def test_single_question(self):
        assert eval_passes(_eval_pass({0: [1, 0, 0, 0]})) == (0.25, 1.0)

    def test_all_zero(self):
        assert eval_passes(_eval_pass({q: [0, 0, 0, 0] for q in range(3)})) == (0.0, 0.0)

    def test_binomial_pass_at_four(self):
        r = rng(60)
        rewards = {q: r.integers(0, 2, size=4).tolist() for q in range(1_000)}
        expected = 1 - 0.5**4
        se = math.sqrt(expected * (1 - expected) / 1_000)
        assert abs(eval_passes(_eval_pass(rewards))[1] - expected) < 3 * se

    def test_first_four_rollouts_in_log_order(self):
        """pass@1 is the mean over rollouts; pass@4 reads each question's first 4
        in log order, where the questions' rollouts interleave."""
        records = [
            plain_traj(qid=q, reward=int((q, i) in {(0, 4), (1, 3)}))
            for i in range(5) for q in (1, 0) if q == 0 or i < 4
        ]
        assert eval_passes([table_of(records)]) == (2 / 9, 0.5)

    def test_insufficient_rollouts(self):
        assert eval_passes(_eval_pass({0: [1, 0, 1], 1: [0, 0, 0, 0]})) == (2 / 7, None)
        with pytest.raises(InsufficientRollouts):
            eval_passes([])

    def test_pass1_never_exceeds_pass4(self):
        r = rng(61)
        for _ in range(50):
            pass1, pass4 = eval_passes(
                _eval_pass({q: r.integers(0, 2, size=4).tolist() for q in range(20)})
            )
            assert pass1 <= pass4


class TestClusterCount:
    def test_identical_calls(self):
        assert cluster_count([(1, 2)] * 16) == 1

    def test_three_distinct(self):
        assert cluster_count([(0,), (0,), (1,), (2,)]) == 3

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            cluster_count([])

    def test_gap_env_resamples_diverge(self):
        env = make_env("gap-env", seed=9)
        policy = env.initial_policy()
        r = rng(62)
        counts = []
        attempts = 0
        while len(counts) < 100 and attempts < 10_000:
            attempts += 1
            table = draw_rollouts(policy, env, [int(r.integers(0, env.num_questions))], r)
            if not table.tool_using[0]:
                continue
            calls = [
                first_call_sequence(sample_continuation(policy, env, table, 0, r))
                for _ in range(16)
            ]
            counts.append(cluster_count(calls))
        assert sum(counts) / len(counts) > 1.0


class TestMetricsIO:
    def test_audit_log_round_trip(self, tmp_path):
        records = [
            {"step": 3, "question_id": 1, "source_index": 0, "confidence": 0.25,
             "rewards": [0, 1, 0, 0], "recovery": 1},
            {"step": 3, "question_id": 2, "source_index": None, "confidence": None,
             "rewards": [], "recovery": None},
        ]
        path = tmp_path / "audit.jsonl"
        with path.open("w") as fh:
            write_audit_records(records, fh)
        assert read_audit_log(path) == {3: records}

    # A selected prefix's record and a question's that selected none, as train_step makes them.
    SELECTED = {"step": 3, "question_id": 1, "source_index": 0, "confidence": 0.25,
                "rewards": [0, 1, 0, 0], "recovery": 1}
    NONE = {"step": 3, "question_id": 2, "source_index": None, "confidence": None,
            "rewards": [], "recovery": None}

    @pytest.mark.parametrize(
        "record, edit, field",
        [
            (SELECTED, lambda line: line.replace(",", ", ", 1), "question_id"),
            (SELECTED, lambda line: line.replace(":", ": ", 1), "step"),
            (SELECTED, lambda line: " " + line, "step"),
            (SELECTED, lambda line: line + " ", None),
            (SELECTED, lambda line: line.replace('"question_id":1,"source_index":0',
                                                 '"source_index":0,"question_id":1'), "source_index"),
            (SELECTED, lambda line: line[:-1] + ',"extra":0}', "extra"),
            (SELECTED, lambda line: line.replace('"step":3', '"step":0'), "step"),
            (SELECTED, lambda line: line.replace('"question_id":1', '"question_id":-1'),
             "question_id"),
            (SELECTED, lambda line: line.replace('"source_index":0', '"source_index":-1'),
             "source_index"),
            (SELECTED, lambda line: line.replace("0.25", "1.5"), "confidence"),
            (SELECTED, lambda line: line.replace("0.25", "-0.5"), "confidence"),
            (SELECTED, lambda line: line.replace("0.25", "NaN"), "confidence"),
            (SELECTED, lambda line: line.replace("0.25", "null"), "confidence"),
            (SELECTED, lambda line: line.replace("[0,1,0,0]", "[]"), "rewards"),
            (SELECTED, lambda line: line.replace("[0,1,0,0]", "[0,2,0,0]"), "rewards"),
            (SELECTED, lambda line: line.replace('"recovery":1', '"recovery":7'), "recovery"),
            (SELECTED, lambda line: line.replace('"recovery":1', '"recovery":0'), "recovery"),
            (SELECTED, lambda line: line.replace('"recovery":1', '"recovery":null'), "recovery"),
            (NONE, lambda line: line.replace('"confidence":null', '"confidence":0.5'),
             "confidence"),
            (NONE, lambda line: line.replace('"rewards":[]', '"rewards":[0]'), "rewards"),
            (NONE, lambda line: line.replace('"recovery":null', '"recovery":0'), "recovery"),
        ],
        ids=["space-after-comma", "space-after-colon", "leading-space", "trailing-space",
             "key-order", "extra-key", "step-0", "negative-question", "negative-source",
             "confidence-above-1", "confidence-below-0", "confidence-nan", "confidence-null",
             "no-rewards", "reward-2", "recovery-7", "recovery-not-any-reward", "recovery-null",
             "none-with-confidence", "none-with-rewards", "none-with-recovery"],
    )
    def test_audit_line_refused_naming_its_field(self, record, edit, field):
        """An audit line is read only if write_audit_records writes exactly that line for a
        record train_step makes."""
        fh = io.StringIO()
        write_audit_records([record], fh)
        line = fh.getvalue()[:-1]
        assert parse_audit_record(line, 7) == record
        bad = edit(line)
        assert bad != line
        with pytest.raises(ParseError) as err:
            parse_audit_record(bad, 7)
        assert (err.value.line, err.value.field_name) == (7, field)

    def test_metrics_csv_round_trip(self, tmp_path):
        m = StepMetrics(
            step=4, tool_use_rate=0.375, all_wrong_tool=None, all_wrong_no_tool=0.2,
            recovery_rate=1 / 3, mean_reward=0.5, pass1_eval=None, pass4_eval=None,
            extra_continuations=8,
        )
        path = tmp_path / "metrics.csv"
        path.write_text("step,tool_use_rate,all_wrong_tool,all_wrong_no_tool,recovery_rate,"
                        "mean_reward,pass1_eval,pass4_eval,extra_continuations\n"
                        + metrics_row(m) + "\n")
        (row,) = parse_metrics_csv(path)
        assert row["step"] == 4
        assert row["all_wrong_tool"] is None
        assert row["recovery_rate"] == 1 / 3  # bit-exact via repr round trip
        assert row["extra_continuations"] == 8

    def test_compute_step_metrics_counts(self):
        trajs = [tool_traj(qid=0, reward=0), tool_traj(qid=0, reward=0),
                 plain_traj(qid=1, reward=1), plain_traj(qid=1, reward=0)]
        audit = [{"step": 1, "question_id": 0, "source_index": 0, "confidence": 0.5,
                  "rewards": [0, 1, 0, 0], "recovery": 1}]
        m = compute_step_metrics(1, [table_of(trajs)], audit)
        assert m.tool_use_rate == 0.5
        assert m.all_wrong_tool == 0.0  # question 0 recovered
        assert m.all_wrong_no_tool == 0.0
        assert m.recovery_rate == 1.0
        assert m.mean_reward == 0.25
        assert m.extra_continuations == 4


def _column(tp) -> st.SearchStrategy:
    """Values of one metrics column: ints, finite floats, or also None when optional."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return {int: st.integers(), float: finite}.get(tp, st.none() | finite)


def _bits(x):
    """A float by its exact bits (so -0.0 and 0.0 differ); ints and None as they are."""
    return x.hex() if isinstance(x, float) else x


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.builds(StepMetrics, **{k: _column(t) for k, t in get_type_hints(StepMetrics).items()}),
        min_size=1,
        max_size=3,
    )
)
def test_metrics_csv_round_trip_is_bit_exact(tmp_path_factory, rows):
    path = tmp_path_factory.getbasetemp() / "round_trip_metrics.csv"
    path.write_text("\n".join([",".join(METRICS_COLUMNS), *map(metrics_row, rows)]) + "\n")
    parsed = parse_metrics_csv(path)
    assert [tuple(row) for row in parsed] == [METRICS_COLUMNS] * len(rows)
    assert [[_bits(v) for v in row.values()] for row in parsed] == [
        [_bits(v) for v in astuple(m)] for m in rows
    ]
