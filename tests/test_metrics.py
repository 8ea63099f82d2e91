"""Tests for metrics recording (repro.runtime.metrics).

One recorder serves every tier.  A serial or agent run records
``(1, S)`` rows, so the single-run cases below read trial 0 of the
``(M, periods)`` accessors; an ensemble of such runs is the ``merge``
of their recorders.  Each recorder is also checked against
``ListRecorder``, the list-of-copies oracle of the slab tests.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from test_batch_engine import ListRecorder

from repro.runtime.metrics import BatchMetricsRecorder, WindowStats, trial_rows


def record(recorder, period, counts, alive, transitions=None, members=None):
    """Record one run's plain-integer observations as ``(1, S)`` rows."""
    recorder.record(
        period, *trial_rows(recorder.states, counts, alive, transitions or {}),
        members=None if members is None else [members],
    )


class TestRecording:
    def test_counts_series(self):
        recorder = ListRecorder(["a", "b"], 1)
        record(recorder, 0, {"a": 10, "b": 0}, alive=10)
        record(recorder, 1, {"a": 7, "b": 3}, alive=10)
        assert recorder.counts("a")[0].tolist() == [10, 7]
        assert recorder.counts("b")[0].tolist() == [0, 3]
        assert recorder.alive_tensor()[0].tolist() == [10, 10]
        recorder.check()

    def test_stride_skips_periods(self):
        recorder = ListRecorder(["a"], 1, stride=5)
        for period in range(12):
            record(recorder, period, {"a": period}, alive=1)
        assert recorder.times.tolist() == [0, 5, 10]
        assert recorder.counts("a")[0].tolist() == [0, 5, 10]
        recorder.check()

    def test_invalid_stride(self):
        with pytest.raises(ValueError):
            BatchMetricsRecorder(["a"], 1, stride=0)

    def test_fractions(self):
        recorder = ListRecorder(["a", "b"], 1)
        record(recorder, 0, {"a": 25, "b": 75}, alive=100)
        assert recorder.fractions("a")[0].tolist() == [0.25]
        recorder.check()

    def test_empty_series(self):
        recorder = BatchMetricsRecorder(["a"], 1)
        assert recorder.counts("a").shape == (1, 0)
        assert recorder.counts("a").size == 0


class TestTransitions:
    def test_transition_series(self):
        recorder = ListRecorder(["a", "b"], 1)
        record(recorder, 0, {"a": 9, "b": 1}, alive=10,
               transitions={("a", "b"): 1})
        record(recorder, 1, {"a": 7, "b": 3}, alive=10,
               transitions={("a", "b"): 2})
        assert recorder.transition_tensor(("a", "b"))[0].tolist() == [1, 2]
        recorder.check()

    def test_unseen_edge_zero(self):
        recorder = ListRecorder(["a", "b"], 1)
        record(recorder, 0, {"a": 10, "b": 0}, alive=10, transitions={})
        assert recorder.transition_tensor(("b", "a"))[0].tolist() == [0]
        recorder.check()

    def test_edges_seen(self):
        recorder = ListRecorder(["a", "b"], 1)
        empty = {"a": 0, "b": 0}
        record(recorder, 0, empty, alive=0, transitions={("a", "b"): 1})
        record(recorder, 1, empty, alive=0, transitions={("b", "a"): 4})
        assert recorder.edges_seen() == [("a", "b"), ("b", "a")]
        recorder.check()

    def test_disabled_tracking_raises(self):
        recorder = BatchMetricsRecorder(["a"], 1, track_transitions=False)
        record(recorder, 0, {"a": 1}, alive=1)
        with pytest.raises(RuntimeError):
            recorder.transition_tensor(("a", "a"))


class TestMemberLog:
    def test_members_stored_when_enabled(self):
        recorder = ListRecorder(["a", "b"], 1, member_log_state="b")
        record(recorder, 0, {"a": 8, "b": 2}, alive=10,
               members=np.array([3, 7]))
        assert len(recorder.member_log) == 1
        [(period, members)] = recorder.trial_member_log(0)
        assert period == 0 and members.tolist() == [3, 7]
        recorder.check()


class TestWindows:
    def test_window_stats(self):
        recorder = ListRecorder(["a"], 1)
        for period, value in enumerate([0, 10, 20, 30, 40]):
            record(recorder, period, {"a": value}, alive=100)
        stats = recorder.window("a", start_period=2)
        assert stats.median == 30
        assert stats.minimum == 20
        assert stats.maximum == 40
        recorder.check()

    def test_window_with_end(self):
        recorder = ListRecorder(["a"], 1)
        for period in range(10):
            record(recorder, period, {"a": period}, alive=10)
        stats = recorder.window("a", start_period=2, end_period=4)
        assert stats.mean == pytest.approx(3.0)
        recorder.check()

    def test_window_pools_every_trial_in_row_major_order(self):
        recorder = ListRecorder(["a", "b"], 3)
        series = np.array([[1, 2, 3, 4], [10, 20, 30, 40], [7, 0, 7, 5]])
        for period in range(4):
            counts = np.stack([series[:, period], 50 - series[:, period]], 1)
            recorder.record(period, counts, np.full(3, 50))
        stats = recorder.window("a", start_period=1, end_period=2)
        pooled = np.concatenate([row[1:3] for row in series])
        assert stats == WindowStats.of(pooled)  # bit for bit, same order
        assert (stats.minimum, stats.maximum) == (0, 30)
        recorder.check()

    def test_window_stats_of_empty_raises(self):
        with pytest.raises(ValueError):
            WindowStats.of(np.array([]))

    def test_last_counts(self):
        recorder = ListRecorder(["a", "b"], 1)
        record(recorder, 0, {"a": 1, "b": 2}, alive=3)
        record(recorder, 5, {"a": 4, "b": 5}, alive=9)
        assert recorder.last_counts().tolist() == [[4, 5]]
        recorder.check()

    def test_last_counts_per_trial(self):
        recorder = ListRecorder(["a", "b"], 3)
        assert recorder.last_counts().tolist() == [[0, 0]] * 3
        recorder.record(0, np.ones((3, 2), dtype=int), np.full(3, 2))
        recorder.record(5, np.array([[4, 5], [6, 7], [8, 9]]), np.full(3, 9))
        assert recorder.last_counts().tolist() == [[4, 5], [6, 7], [8, 9]]
        recorder.check()


EDGES = [("a", "b"), ("b", "c"), ("c", "a")]


@st.composite
def rows(draw, width, logged):
    """One part's observations of one period: some edges, maybe members."""
    counts = draw(hnp.arrays(np.int64, (width, 3), elements=st.integers(0, 9)))
    moved = {
        edge: draw(hnp.arrays(np.int64, width, elements=st.integers(0, 9)))
        for edge in draw(st.lists(st.sampled_from(EDGES), unique=True))
    }
    members = [
        np.array(draw(st.lists(st.integers(0, 99), max_size=3)), dtype=np.int64)
        for _ in range(width)
    ] if logged else None
    return counts, counts.sum(axis=1), moved, members


@given(
    widths=st.lists(st.integers(1, 3), min_size=1, max_size=4),
    stride=st.integers(1, 3),
    periods=st.integers(1, 8),
    logged=st.booleans(),
    data=st.data(),
)
def test_merge_equals_one_recorder_fed_the_stacked_rows(
    widths, stride, periods, logged, data
):
    """Serial and agent ensembles are merged one-trial recorders: the
    merge of any parts must be the recorder that saw every trial."""
    options = dict(stride=stride, member_log_state="c" if logged else None)
    parts = [ListRecorder(("a", "b", "c"), w, **options) for w in widths]
    whole = ListRecorder(("a", "b", "c"), sum(widths), **options)
    for period in range(periods):
        seen = [data.draw(rows(w, logged)) for w in widths]
        for part, (counts, alive, moved, members) in zip(parts, seen):
            part.record(period, counts, alive, moved, members)
        whole.record(
            period,
            np.concatenate([counts for counts, _, _, _ in seen]),
            np.concatenate([alive for _, alive, _, _ in seen]),
            {
                edge: np.concatenate([
                    moved.get(edge, np.zeros(w, dtype=np.int64))
                    for w, (_, _, moved, _) in zip(widths, seen)
                ])
                for edge in EDGES
                if any(edge in moved for _, _, moved, _ in seen)
            },
            [m for *_, members in seen for m in members] if logged else None,
        )
    merged = BatchMetricsRecorder.merge(parts)
    for recorder in parts + [whole]:
        recorder.check()
    assert merged.trials == whole.trials
    assert merged.periods == whole.periods
    assert np.array_equal(merged.count_tensor(), whole.count_tensor())
    assert np.array_equal(merged.alive_tensor(), whole.alive_tensor())
    assert merged.edges_seen() == whole.edges_seen()
    for edge in EDGES:
        assert np.array_equal(
            merged.transition_tensor(edge), whole.transition_tensor(edge)
        )
    assert [
        (period, [m.tolist() for m in members])
        for period, members in merged.member_log
    ] == [
        (period, [m.tolist() for m in members])
        for period, members in whole.member_log
    ]
