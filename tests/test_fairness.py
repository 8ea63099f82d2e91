"""Tests for fairness/untraceability statistics (repro.analysis.fairness)."""

import numpy as np
import pytest

from repro.analysis.fairness import (
    analyze_member_log,
    attack_window_decay,
    fairness_over_time,
    jain_index,
)
from repro.protocols.endemic import STASH, figure1_protocol
from repro.runtime import BatchMetricsRecorder, RoundEngine


@pytest.fixture(scope="module")
def fig8_log():
    """A shared Figure 8-style run's member log: N=1000."""
    from repro.protocols.endemic import EndemicParams

    params = EndemicParams(alpha=0.01, gamma=0.1, b=2)
    spec = figure1_protocol(params)
    engine = RoundEngine(spec, n=1000, initial=params.equilibrium_counts(1000), seed=42)
    recorder = BatchMetricsRecorder(spec.states, 1, member_log_state=STASH)
    engine.run(1000, recorder=recorder)
    return recorder.trial_member_log(0)


class TestJainIndex:
    def test_equal_shares(self):
        assert jain_index([5, 5, 5, 5]) == 1.0

    def test_single_hog(self):
        assert jain_index([10, 0, 0, 0]) == pytest.approx(0.25)

    def test_all_zero(self):
        assert jain_index([0, 0]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            jain_index([])


class TestMemberLogAnalysis:
    def test_figure8_statistics(self, fig8_log):
        report = analyze_member_log(fig8_log, 1000, gamma=0.1)
        # Load balancing: most hosts get a turn within 1000 periods.
        assert report.hosts_ever_responsible > 900
        # Fairness accumulates.
        assert report.jain_index > 0.8
        # No host stores dramatically longer than the geometric tail.
        assert report.max_run_length < 3 * report.expected_max_run_length
        # Untraceability: host id and time uncorrelated, ids uniform.
        assert abs(report.host_time_correlation) < 0.02
        assert report.host_id_uniformity_pvalue > 0.01

    def test_render(self, fig8_log):
        text = analyze_member_log(fig8_log, 1000, gamma=0.1).render()
        assert "Jain" in text

    def test_requires_member_log(self):
        with pytest.raises(ValueError):
            analyze_member_log([], 10)

    def test_skewed_log_detected(self):
        # A deliberately unfair log: host 0 always responsible.
        recorder = BatchMetricsRecorder(["a", "b"], 1, member_log_state="b")
        for period in range(50):
            recorder.record(period, np.array([[9, 1]]), np.array([10]),
                            members=[np.array([0])])
        report = analyze_member_log(recorder.trial_member_log(0), 10, gamma=0.1)
        assert report.hosts_ever_responsible == 1
        assert report.jain_index < 0.2
        assert report.max_run_length == 50


class TestAttackWindow:
    def test_decay_with_lag(self, fig8_log):
        decay = attack_window_decay(fig8_log, lags=(1, 10, 30))
        assert decay[1] > decay[10] > decay[30]

    def test_matches_geometric_prediction(self, fig8_log):
        # Mean-field: overlap after lag L ~ (1-gamma)^L.
        decay = attack_window_decay(fig8_log, lags=(10,))
        assert decay[10] == pytest.approx(0.9**10, abs=0.12)

    def test_requires_member_log(self):
        with pytest.raises(ValueError):
            attack_window_decay([])


class TestFairnessOverTime:
    def test_index_grows_with_window(self, fig8_log):
        series = fairness_over_time(fig8_log, 1000, checkpoints=4)
        assert len(series) == 4
        indices = [v for _, v in series]
        assert indices[-1] > indices[0]
