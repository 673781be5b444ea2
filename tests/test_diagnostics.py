import json
import math
import re
import shutil
from dataclasses import astuple
from itertools import zip_longest
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from axpo import cli
from axpo.diagnostics import (
    METRICS_COLUMNS,
    InsufficientRollouts,
    StepMetrics,
    check_audit_line,
    compute_step_metrics,
    eval_passes,
    metrics_row,
    parse_metrics_csv,
    read_audit_log,
    write_audit_records,
)
from axpo.env import draw_rollouts, make_env, sample_continuation
from axpo.harness import AUDIT_LOG, seed_dir
from axpo.policy import PolicyShape
from axpo.trajectory import Segment, Trajectory

from conftest import (HAND_SHAPE, pass_at_k, plain_traj, reference_step_metrics, rng, table_of,
                      tool_traj)

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
    """compute_step_metrics over the table of the rollouts of groups_from(spec), each
    question's in turn: groups of the one length of spec's lists."""
    (group,) = {len(rollouts) for rollouts in spec.values()}
    trajs = [t for rollouts in groups_from(spec).values() for t in rollouts]
    return compute_step_metrics(1, table_of(trajs, MANY_QUESTIONS), list(audit), group)


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
        """A continuation table is not a group's rows: the metrics of the step's rollouts
        are the reference's over both tables, where its tool-using row counts nowhere."""
        rollouts = table_of([plain_traj(qid=0)])
        continuations = table_of([tool_traj(qid=0)], source_prefix_ids=["1:0:0"])
        m = compute_step_metrics(1, rollouts, [], 1)
        assert m == reference_step_metrics(1, [rollouts, continuations], [])
        assert (m.tool_use_rate, m.all_wrong_tool, m.all_wrong_no_tool) == (0.0, None, 1.0)


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
        assert compute_step_metrics(1, table_of([]), [], 4).recovery_rate is None

    def test_every_selected_recovers(self):
        assert compute_step_metrics(1, table_of([]), recovered(*range(5)), 4).recovery_rate == 1.0

    def test_fifty_triggered_six_recovered(self):
        records = []
        for q in range(50):
            rec = 1 if q < 6 else 0
            records.append(
                {"step": 1, "question_id": q, "source_index": 0, "rewards": [rec], "recovery": rec}
            )
        rate = compute_step_metrics(1, table_of([]), records, 4).recovery_rate
        assert rate == pytest.approx(0.12, abs=1e-15)

    def test_null_records_count_as_triggered(self):
        records = [
            {"step": 1, "question_id": 0, "source_index": None, "rewards": [], "recovery": None},
            {"step": 1, "question_id": 1, "source_index": 0, "rewards": [1], "recovery": 1},
        ]
        assert compute_step_metrics(1, table_of([]), records, 4).recovery_rate == 0.5


def passes_of(rewards_per_question: dict[int, list[int]]) -> tuple:
    """eval_passes of an eval pass's table: each question's rollouts, with the given
    rewards, in turn, groups of the one length of the lists."""
    (group,) = {len(rewards) for rewards in rewards_per_question.values()}
    trajs = [plain_traj(qid=q, reward=r) for q, rs in rewards_per_question.items() for r in rs]
    return eval_passes(table_of(trajs, MANY_QUESTIONS), group)


class TestPassAtK:
    """eval_passes' pass@1 and pass@4 of an eval pass's records."""

    def test_single_question(self):
        assert passes_of({0: [1, 0, 0, 0]}) == (0.25, 1.0)

    def test_all_zero(self):
        assert passes_of({q: [0, 0, 0, 0] for q in range(3)}) == (0.0, 0.0)

    def test_binomial_pass_at_four(self):
        r = rng(60)
        rewards = {q: r.integers(0, 2, size=4).tolist() for q in range(1_000)}
        expected = 1 - 0.5**4
        se = math.sqrt(expected * (1 - expected) / 1_000)
        assert abs(passes_of(rewards)[1] - expected) < 3 * se

    def test_first_four_rollouts_in_log_order(self):
        """pass@1 is the mean over rollouts; pass@4 reads each group's first 4 rows in
        log order, so a question whose only correct rollout is its fifth misses. A log
        whose questions interleave is refused before it is read
        (test_harness.TestQuestionColumn)."""
        assert passes_of({0: [0, 0, 0, 0, 1], 1: [0, 0, 0, 1, 0]}) == (2 / 10, 0.5)

    def test_insufficient_rollouts(self):
        assert passes_of({0: [1, 0, 1], 1: [0, 0, 0]}) == (2 / 6, None)
        with pytest.raises(InsufficientRollouts):
            eval_passes(table_of([]), 4)

    def test_pass1_never_exceeds_pass4(self):
        r = rng(61)
        for _ in range(50):
            pass1, pass4 = passes_of({q: r.integers(0, 2, size=4).tolist() for q in range(20)})
            assert pass1 <= pass4


@settings(derandomize=True, max_examples=120, deadline=None)
@given(data=st.data(), group=st.integers(2, 8), eval_rollouts=st.integers(1, 6))
def test_grouped_metrics_equal_the_by_question_reference(data, group, eval_rollouts):
    """compute_step_metrics and eval_passes read a question's group as its rows, groups of
    consecutive rows of distinct questions, as a step draws them; on such a table they
    equal the reference that finds each question's rollouts by question id, bit for bit,
    the step's metrics the reference's over its rollouts among continuation tables."""
    questions = data.draw(st.permutations(range(HAND_SHAPE.num_questions)))
    cell = st.tuples(st.booleans(), st.integers(0, 1))  # a row's tool flag and reward

    def rows(qids, n, **meta):
        cells = data.draw(st.lists(cell, min_size=len(qids) * n, max_size=len(qids) * n))
        return table_of([(tool_traj if tool else plain_traj)(qid=q, reward=r)
                         for q, (tool, r) in zip(np.repeat(qids, n).tolist(), cells)], **meta)

    step_questions = questions[: data.draw(st.integers(1, len(questions)))]
    rollouts = rows(step_questions, group)
    tables = [rollouts]
    for _ in range(data.draw(st.integers(0, 2))):  # continuation tables, before or after
        sources = data.draw(st.lists(st.sampled_from(step_questions), max_size=4))
        continuations = rows(sources, 1, source_prefix_ids=[f"3:{q}:0" for q in sources])
        tables.insert(data.draw(st.integers(0, len(tables))), continuations)
    audit = [{"question_id": q, "rewards": data.draw(st.lists(st.integers(0, 1), max_size=3)),
              "recovery": data.draw(st.sampled_from([None, 0, 1]))}
             for q in data.draw(st.sets(st.sampled_from(step_questions)))]
    expected = reference_step_metrics(3, tables, audit)
    assert compute_step_metrics(3, rollouts, audit, group) == expected

    eval_questions = questions[: data.draw(st.integers(1, len(questions)))]
    evals = rows(eval_questions, eval_rollouts)
    rewards = {q: [] for q in eval_questions}
    for traj in evals.trajectories():
        rewards[traj.question_id].append(traj.reward)
    pass4 = pass_at_k(rewards, 4) if eval_rollouts >= 4 else None
    assert eval_passes(evals, eval_rollouts) == (pass_at_k(rewards, 1), pass4)


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


# An axpo run on mini whose steps select prefixes and leave triggered questions without one.
AUDIT_ARGV = ("train", "--env", "mini", "--questions-per-step", "6", "--group-size", "4",
              "--algorithm", "axpo")


@pytest.fixture(scope="module")
def audited_run(tmp_path_factory) -> Path:
    """A 2-step AUDIT_ARGV run; its audit log opens with a selected record, then null ones."""
    out = tmp_path_factory.mktemp("audited") / "run"
    assert cli.main([*AUDIT_ARGV, "--steps", "2", "--out", str(out)]) == 0
    return out


def _first(selected: bool, edit):
    """An edit of an audit log's lines that edits its first selected or null record's."""

    def apply(lines: list[str]) -> list[str]:
        i = next(i for i, line in enumerate(lines) if ('"source_index":null' in line) != selected)
        return [*lines[:i], edit(lines[i]), *lines[i + 1 :]]

    return apply


def _value(key: str, text: str):
    """An edit of a line that writes text as the value of key."""
    return lambda line: re.sub(rf'"{key}":(\[[^\]]*\]|[^,}}]*)', lambda _: f'"{key}":{text}', line,
                               count=1)


def _appended(line: str):
    return lambda lines: [*lines, line]


SELECTED, NULL = True, False
# Each edit of a run's audit log and the field of the first line it changes that a
# refusal names; every edit yields a log write_audit_records does not write.
AUDIT_EDITS = {
    "space-after-comma": (_first(SELECTED, lambda line: line.replace(",", ", ", 1)), "question_id"),
    "space-after-colon": (_first(SELECTED, lambda line: line.replace(":", ": ", 1)), "step"),
    "leading-space": (_first(SELECTED, lambda line: " " + line), "step"),
    "trailing-space": (_first(SELECTED, lambda line: line + " "), "recovery"),
    "key-order": (_first(SELECTED, lambda line: re.sub(r'("question_id":\d+),("source_index":\d+)',
                                                       r"\2,\1", line)), "question_id"),
    "extra-key": (_first(SELECTED, lambda line: line[:-1] + ',"extra":0}'), "recovery"),
    "step-0": (_first(SELECTED, _value("step", "0")), "step"),
    "negative-question": (_first(SELECTED, _value("question_id", "-1")), "question_id"),
    "negative-source": (_first(SELECTED, _value("source_index", "-1")), "source_index"),
    "confidence-above-1": (_first(SELECTED, _value("confidence", "1.5")), "confidence"),
    "confidence-below-0": (_first(SELECTED, _value("confidence", "-0.5")), "confidence"),
    "confidence-nan": (_first(SELECTED, _value("confidence", "NaN")), "confidence"),
    "confidence-null": (_first(SELECTED, _value("confidence", "null")), "confidence"),
    "no-rewards": (_first(SELECTED, _value("rewards", "[]")), "rewards"),
    "reward-2": (_first(SELECTED, lambda line: re.sub(r'"rewards":\[[01]', '"rewards":[2', line)),
                 "rewards"),
    "k-minus-1-rewards": (_first(SELECTED, lambda line: re.sub(r",[01]\]", "]", line, count=1)),
                          "rewards"),
    "recovery-7": (_first(SELECTED, _value("recovery", "7")), "recovery"),
    "recovery-not-any-reward": (
        _first(SELECTED, lambda line: re.sub(r'"recovery":([01])',
                                             lambda m: f'"recovery":{1 - int(m[1])}', line)),
        "recovery"),
    "recovery-null": (_first(SELECTED, _value("recovery", "null")), "recovery"),
    "none-with-confidence": (_first(NULL, _value("confidence", "0.5")), "confidence"),
    "none-with-rewards": (_first(NULL, _value("rewards", "[0]")), "rewards"),
    "none-with-recovery": (_first(NULL, _value("recovery", "0")), "recovery"),
    "dropped-line": (lambda lines: lines[:1] + lines[2:], "question_id"),
    "duplicated-line": (lambda lines: lines[:1] + lines, "question_id"),
    "swapped-lines": (lambda lines: [lines[1], lines[0], *lines[2:]], "question_id"),
    "appended-no-step": (_appended('{"x":1}'), "step"),
    "appended-not-an-object": (_appended("[1]"), "step"),
    "appended-no-question-id": (_appended('{"step":1}'), "step"),
    "appended-float-reward": (_appended('{"step":1,"question_id":0,"source_index":null,'
                                        '"confidence":null,"rewards":[0.5],"recovery":null}'),
                              "step"),
    "appended-str-question-id": (_appended('{"step":1,"question_id":"0","source_index":null,'
                                           '"confidence":null,"rewards":[],"recovery":null}'),
                                 "step"),
}


def _files(root: Path) -> dict[Path, bytes]:
    return {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}


class TestMetricsIO:
    def test_audit_log_round_trip(self, tmp_path):
        """read_audit_log gives each line write_audit_records wrote, with its number, and
        check_audit_line takes each as the record it was written from."""
        records = [
            {"step": 3, "question_id": 1, "source_index": 0, "confidence": 0.25,
             "rewards": [0, 1, 0, 0], "recovery": 1},
            {"step": 3, "question_id": 2, "source_index": None, "confidence": None,
             "rewards": [], "recovery": None},
        ]
        path = tmp_path / "audit.jsonl"
        with path.open("w") as fh:
            write_audit_records(records, fh)
        read = [(number, line) for _, number, line in read_audit_log(path)]
        assert read == [(n, json.dumps(rec, separators=(",", ":")))
                        for n, rec in enumerate(records, 1)]
        for (number, line), rec in zip(read, records):
            check_audit_line(line, rec, number, path)

    @pytest.mark.parametrize("edit, field", AUDIT_EDITS.values(), ids=AUDIT_EDITS.keys())
    def test_audit_line_refused_naming_its_field(self, audited_run, tmp_path, capsys, edit,
                                                 field):
        """An audit log is what write_audit_records writes of the records the trajectory
        log determines: diag and resume each refuse any other as a usage error naming the
        file, its first changed line and that line's field, and write nothing."""
        out = tmp_path / "run"
        shutil.copytree(audited_run, out)
        path = seed_dir(out, 0) / AUDIT_LOG
        lines = path.read_text().splitlines()
        edited = edit(lines)
        path.write_text("".join(line + "\n" for line in edited))
        number = next(n for n, (a, b) in enumerate(zip_longest(lines, edited), 1) if a != b)
        before = _files(out)
        for argv in (["diag", str(path.parent)], [*AUDIT_ARGV, "--steps", "4", "--out", str(out)]):
            with pytest.raises(SystemExit) as exit_info:
                cli.main(argv)
            assert exit_info.value.code == 2
            error = capsys.readouterr().err.strip().splitlines()[-1]
            assert error.startswith(f"axpo {argv[0]}: error: expected ")
            assert error.endswith(f"({path}, line {number}, field {field!r})")
        assert _files(out) == before

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
        m = compute_step_metrics(1, table_of(trajs), audit, 2)
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
