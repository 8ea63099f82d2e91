"""Tests for convergence complexity (repro.analysis.convergence)."""

import math

import numpy as np
import pytest

from repro.analysis.convergence import (
    decay_rate_estimate,
    endemic_case,
    endemic_displacement,
    endemic_settling_time,
    first_period_below,
    lv_majority_fraction,
    lv_minority_fraction,
    lv_periods_to_minority,
)
from repro.odes import integrate, library
from repro.protocols.endemic import EndemicParams


class TestEndemicDisplacement:
    def test_fig2_params_spiral_case(self, fig2_params):
        assert endemic_case(fig2_params) == "spiral"

    def test_node_case_params(self):
        params = EndemicParams(alpha=1.0, gamma=0.001, b=2)
        assert endemic_case(params) == "node"

    def test_initial_value(self, fig2_params):
        u = endemic_displacement(fig2_params, np.array([0.0]), u0=0.05)
        assert u[0] == pytest.approx(0.05)

    def test_decays_to_zero(self, fig2_params):
        t = np.linspace(0, 500, 200)
        u = endemic_displacement(fig2_params, t, u0=0.05)
        assert abs(u[-1]) < 1e-3 * 0.05

    def test_spiral_oscillates(self, fig2_params):
        t = np.linspace(0, 200, 2000)
        u = endemic_displacement(fig2_params, t, u0=0.05)
        assert (np.sign(u[np.abs(u) > 1e-9]) < 0).any()

    def test_node_case_monotone_tail(self):
        params = EndemicParams(alpha=1.0, gamma=0.001, b=2)
        t = np.linspace(0, 50, 500)
        u = np.abs(endemic_displacement(params, t, u0=0.05))
        assert (np.diff(u[10:]) <= 1e-12).all()

    def test_closed_form_matches_linearized_ode(self, fig2_params):
        """u(t) from the paper vs the relative deviation of the actual
        nonlinear trajectory: close for small perturbations."""
        system = fig2_params.system()
        eq = fig2_params.equilibrium()
        u0 = 0.01
        start = {"x": eq["x"] * (1 + u0), "y": eq["y"], "z": eq["z"] - eq["x"] * u0}
        trajectory = integrate(system, start, t_end=60.0, samples=200)
        sim_u = trajectory.series("x") / eq["x"] - 1.0
        # The closed form assumes u'(0) from the reduced dynamics; use
        # the measured initial derivative for an apples-to-apples check.
        du0 = float(np.gradient(sim_u, trajectory.times)[0])
        theory_u = endemic_displacement(
            fig2_params, trajectory.times, u0=u0, udot0=du0
        )
        assert np.max(np.abs(theory_u - sim_u)) < 0.25 * u0

    def test_settling_time_finite_and_scaling(self, fig2_params):
        t100 = endemic_settling_time(fig2_params, ratio=100.0)
        t10 = endemic_settling_time(fig2_params, ratio=10.0)
        assert 0 < t10 < t100
        assert t100 == pytest.approx(2 * t10, rel=1e-9)


class TestLVClosedForms:
    def test_minority_decay(self):
        t = np.array([0.0, 1.0])
        u = lv_minority_fraction(t, u0=0.4)
        assert u[0] == pytest.approx(0.4)
        assert u[1] == pytest.approx(0.4 * math.exp(-3.0))

    def test_majority_approaches_one(self):
        t = np.linspace(0, 10, 50)
        y = lv_majority_fraction(t, u0=0.4, v0=0.4)
        assert y[0] == pytest.approx(0.6)
        assert y[-1] == pytest.approx(1.0, abs=1e-6)

    def test_matches_integrated_lv_near_stable_point(self):
        """The paper's (x, y)(t) vs the true nonlinear LV flow."""
        system = library.lv()
        u0, v0 = 0.02, 0.05
        start = {"x": u0, "y": 1 - v0, "z": v0 - u0}
        trajectory = integrate(system, start, t_end=3.0, samples=100)
        x_theory = lv_minority_fraction(trajectory.times, u0)
        y_theory = lv_majority_fraction(trajectory.times, u0, v0)
        assert np.max(np.abs(trajectory.series("x") - x_theory)) < 0.01
        assert np.max(np.abs(trajectory.series("y") - y_theory)) < 0.01

    def test_periods_log_scaling(self):
        small = lv_periods_to_minority(10_000)
        large = lv_periods_to_minority(10_000_000)
        assert large - small == pytest.approx(math.log(1000) / 0.03, rel=1e-6)

    def test_periods_zero_when_already_converged(self):
        assert lv_periods_to_minority(100, u0=0.001, minority=1.0) == 0.0


class TestEmpiricalMeasurement:
    def test_first_period_below(self):
        series = np.array([100, 60, 30, 10, 2, 0])
        measurement = first_period_below(
            np.arange(len(series)), series, threshold=10
        )
        assert measurement.converged
        assert measurement.period == 3
        assert measurement.value_at_convergence == 10.0

    def test_first_period_below_never(self):
        assert not first_period_below([0], [100], 10).converged

    def test_decay_rate_estimate(self):
        t = np.linspace(0, 5, 40)
        values = 100 * np.exp(-0.7 * t)
        assert decay_rate_estimate(t, values) == pytest.approx(0.7, rel=1e-6)

    def test_decay_rate_needs_positive_samples(self):
        with pytest.raises(ValueError):
            decay_rate_estimate([0, 1], [0.0, 0.0])

    def test_lv_simulated_decay_matches_3p(self):
        """The simulated minority decays at rate ~3p per period."""
        from repro.protocols.lv import LVMajority

        instance = LVMajority(20000, zeros=14000, ones=6000, p=0.01, seed=0)
        outcome = instance.run(260, stop_on_convergence=False)
        series = outcome.recorder.counts("y")[0].astype(float)
        times = outcome.recorder.times.astype(float)
        # Fit over the mid-range (after z fills, before extinction).
        mask = (series > 50) & (times > 60)
        rate = decay_rate_estimate(times[mask], series[mask])
        assert rate == pytest.approx(0.03, rel=0.35)
