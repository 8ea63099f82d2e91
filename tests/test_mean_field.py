"""Tests for the simulation-vs-analysis harness (repro.analysis.mean_field)."""

import pytest

from repro.analysis.mean_field import compare_trajectory
from repro.odes import library
from repro.synthesis import synthesize


class TestTrajectoryComparison:
    def test_epidemic_tracks_discrete_map(self):
        # p = 1: the synchronous protocol is the discrete map
        # X_{n+1} = X_n + f(X_n); the continuous ODE runs visibly
        # faster at such coarse steps, so the exact reference is the
        # discrete one.
        spec = synthesize(library.epidemic())
        comparison = compare_trajectory(
            spec, n=20000, initial_counts={"x": 19000, "y": 1000},
            periods=25, seed=3, reference="discrete",
        )
        assert comparison.worst_rms_fraction_error() < 0.02

    def test_epidemic_small_p_tracks_ode(self):
        # As p shrinks, the discrete map converges to the ODE.
        spec = synthesize(library.epidemic(), p=0.1)
        comparison = compare_trajectory(
            spec, n=20000, initial_counts={"x": 19000, "y": 1000},
            periods=250, seed=3, reference="ode",
        )
        assert comparison.worst_rms_fraction_error() < 0.02

    def test_error_shrinks_with_n(self):
        spec = synthesize(library.lv(), p=0.05)
        errors = []
        for n in (500, 32000):
            comparison = compare_trajectory(
                spec, n=n, initial_counts={"x": 0.55 * n, "y": 0.45 * n, "z": 0},
                periods=120, seed=4,
            )
            errors.append(comparison.worst_rms_fraction_error())
        assert errors[1] < errors[0]

    def test_requires_source(self):
        from repro.synthesis import FlipAction, ProtocolSpec

        spec = ProtocolSpec(
            name="manual", states=("a", "b"),
            actions=(FlipAction("a", 0.5, "b"),),
        )
        with pytest.raises(ValueError):
            compare_trajectory(spec, 100, {"a": 100}, periods=5)

    def test_compensated_protocol_on_lossy_network(self):
        """Section 3 failure compensation: with connection failures and
        the compensated coin bias, the protocol still tracks the
        original equations."""
        f = 0.3
        spec = synthesize(library.lv(), p=0.01, failure_rate=f)
        comparison = compare_trajectory(
            spec, n=20000, initial_counts={"x": 12000, "y": 8000, "z": 0},
            periods=250, seed=5, connection_failure_rate=f,
        )
        assert comparison.worst_rms_fraction_error() < 0.03

    def test_uncompensated_protocol_drifts_on_lossy_network(self):
        """Control for the test above: without compensation the lossy
        run visibly lags the source equations."""
        f = 0.5
        spec = synthesize(library.lv(), p=0.01)
        lossy = compare_trajectory(
            spec, n=20000, initial_counts={"x": 12000, "y": 8000, "z": 0},
            periods=250, seed=5, connection_failure_rate=f,
        )
        clean = compare_trajectory(
            spec, n=20000, initial_counts={"x": 12000, "y": 8000, "z": 0},
            periods=250, seed=5,
        )
        assert lossy.worst_rms_fraction_error() > 2 * clean.worst_rms_fraction_error()
