"""Tests for fairness/untraceability statistics (repro.analysis.fairness)."""

import math

import numpy as np
import pytest

from repro.analysis.fairness import (
    analyze_member_log,
    attack_window_decay,
    chi_square_sf,
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


class TestChiSquareSurvival:
    def test_known_answers(self):
        # dof 2: e^(-x/2); dof 1: erfc(sqrt(x/2)); and the whole mass at 0.
        assert chi_square_sf(3.0, 2) == pytest.approx(math.exp(-1.5), rel=1e-15)
        assert chi_square_sf(3.0, 1) == pytest.approx(
            math.erfc(math.sqrt(1.5)), rel=1e-15
        )
        assert [chi_square_sf(0.0, dof) for dof in (1, 2, 7)] == [1.0] * 3

    def test_matches_chdtrc(self):
        chdtrc = pytest.importorskip("scipy.special").chdtrc
        dof, x = np.meshgrid(
            np.arange(1, 41),
            np.concatenate([[1e-9, 1e-3], np.linspace(0.1, 200.0, 61)]),
        )
        ours = [chi_square_sf(float(a), int(k)) for a, k in zip(x.flat, dof.flat)]
        np.testing.assert_allclose(ours, chdtrc(dof, x).ravel(), rtol=1e-12, atol=0)


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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
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
        # One host throughout: no correlation to measure, and no warning.
        assert math.isnan(report.host_time_correlation)


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
