"""Tests for the mean-field integrator (repro.odes.integrate)."""

import math

import numpy as np
import pytest

from repro.odes import library
from repro.odes.integrate import _ATOL, Trajectory, integrate
from repro.odes.phase import FIGURE2_STARTS, FIGURE4_STARTS, phase_portrait
from repro.odes.system import SystemError, build_system
from repro.protocols.endemic import EndemicParams

#: Van der Pol in Lienard form, x' = (y - (x^3/3 - x)) / eps, y' = a - x,
#: at eps = 1, a = 0.5: the fixed point (a, a^3/3 - a) has trace
#: (1 - a^2) / eps > 0, an unstable focus inside a limit cycle.
VAN_DER_POL = build_system(
    "van-der-pol", ["x", "y"],
    {
        "x": [(1.0, {"y": 1}), (-1 / 3, {"x": 3}), (1.0, {"x": 1})],
        "y": [(0.5, {}), (-1.0, {"x": 1})],
    },
)


class TestBasicIntegration:
    def test_linear_decay_exact(self):
        system = build_system(
            "decay", ["x", "y"],
            {"x": [(-0.5, {"x": 1})], "y": [(0.5, {"x": 1})]},
        )
        traj = integrate(system, {"x": 1.0, "y": 0.0}, t_end=4.0)
        assert traj.final["x"] == pytest.approx(math.exp(-2.0), rel=1e-6)

    def test_epidemic_logistic_solution(self, epidemic_system):
        # y' = y(1-y) from y0 has closed form y = 1/(1 + (1/y0 - 1)e^-t).
        y0 = 0.01
        traj = integrate(epidemic_system, {"x": 1 - y0, "y": y0}, t_end=10.0)
        expected = 1.0 / (1.0 + (1.0 / y0 - 1.0) * math.exp(-10.0))
        assert traj.final["y"] == pytest.approx(expected, rel=1e-5)

    def test_mass_conserved(self, endemic_system):
        traj = integrate(endemic_system, {"x": 0.9, "y": 0.1, "z": 0.0}, 200.0)
        assert traj.mass_drift() < 1e-6

    def test_missing_initial_variable_rejected(self, endemic_system):
        with pytest.raises(SystemError):
            integrate(endemic_system, {"x": 1.0}, 1.0)

    def test_sample_count(self, epidemic_system):
        traj = integrate(epidemic_system, {"x": 0.99, "y": 0.01}, 5.0, samples=123)
        assert len(traj.times) == 123

    @pytest.mark.parametrize(
        "t_end, samples, match",
        [
            (0.0, 10, "t_end"), (-1.0, 10, "t_end"), (np.inf, 10, "t_end"),
            (1.0, 0, "samples"),
        ],
    )
    def test_refuses_an_empty_horizon_by_name(
        self, epidemic_system, t_end, samples, match
    ):
        with pytest.raises(ValueError, match=match):
            integrate(
                epidemic_system, {"x": 0.5, "y": 0.5}, t_end, samples=samples
            )

    def test_blow_up_raises_near_its_time(self):
        # x' = x^2 from x = 1 is 1 / (1 - t): it leaves every float at t = 1.
        system = build_system("blow-up", ["x"], {"x": [(1.0, {"x": 2})]})
        with pytest.raises(RuntimeError, match=r"t = (0\.99\d*|1)\b"):
            integrate(system, {"x": 1.0}, 50.0)


class TestTrajectoryQueries:
    @pytest.fixture
    def trajectory(self, epidemic_system):
        return integrate(epidemic_system, {"x": 0.99, "y": 0.01}, 15.0)

    def test_series_shape(self, trajectory):
        assert trajectory.series("x").shape == trajectory.times.shape

    def test_initial_final(self, trajectory):
        assert trajectory.initial["x"] == pytest.approx(0.99)
        assert trajectory.final["x"] == pytest.approx(0.0, abs=1e-4)

    def test_at_interpolation(self, trajectory):
        mid = trajectory.at(7.5)
        assert 0.0 < mid["y"] < 1.0
        assert mid["x"] + mid["y"] == pytest.approx(1.0, abs=1e-6)

    def test_at_out_of_range(self, trajectory):
        with pytest.raises(ValueError):
            trajectory.at(100.0)

    def test_time_to_reach_decreasing(self, trajectory):
        t = trajectory.time_to_reach("x", 0.5)
        assert t is not None and 0 < t < 15.0
        # Consistency: x(t) ~= 0.5 there.
        assert trajectory.at(t)["x"] == pytest.approx(0.5, abs=0.01)

    def test_time_to_reach_unreached(self, trajectory):
        assert trajectory.time_to_reach("x", 2.0) is None


class TestEquilibrium:
    def test_endemic_converges_to_eq2(self, fig2_params):
        system = fig2_params.system()
        traj = integrate(system, {"x": 0.5, "y": 0.5, "z": 0.0}, 1000.0)
        expected = fig2_params.equilibrium()
        for state, value in expected.items():
            assert traj.final[state] == pytest.approx(value, rel=1e-3, abs=1e-9)


def upward_crossings(trajectory, variable, level):
    """Times the series crosses ``level`` upwards: inverse cubic
    interpolation through the two samples either side."""
    series = trajectory.series(variable) - level
    hits = np.nonzero((series[:-1] < 0) & (series[1:] >= 0))[0]
    return np.array([
        np.polyfit(series[i - 1:i + 3], trajectory.times[i - 1:i + 3], 3)[-1]
        for i in hits if 0 < i < len(series) - 2
    ])


class TestOracles:
    """``integrate`` is ``solve_ivp(method="RK45")`` step for step, and
    holds known answers against a DOP853 reference."""

    @pytest.fixture(scope="class")
    def solve_ivp(self):
        return pytest.importorskip("scipy.integrate").solve_ivp

    def reference(self, solve_ivp, trajectory, rtol, method="RK45"):
        system = trajectory.system
        solution = solve_ivp(
            lambda _t, y: system.rhs(y), (0.0, trajectory.times[-1]),
            trajectory.states[0], method=method, t_eval=trajectory.times,
            rtol=rtol, atol=_ATOL if method == "RK45" else rtol * 1e-2,
        )
        assert solution.success
        return solution.y.T

    @pytest.mark.parametrize(
        "system, starts, t_end",
        [
            (EndemicParams(alpha=0.01, gamma=1.0, b=2).system(), FIGURE2_STARTS, 400.0),
            (library.lv(), FIGURE4_STARTS, 30.0),
        ],
        ids=["figure 2", "figure 4"],
    )
    def test_figure_starts_equal_rk45(self, solve_ivp, system, starts, t_end):
        # The figures' own call: phase_portrait's rtol 1e-9, 600 samples.
        portrait = phase_portrait(
            system, starts, t_end=t_end, scale=1000, normalize_counts=True
        )
        for trajectory in portrait.trajectories:
            expected = self.reference(solve_ivp, trajectory, rtol=1e-9)
            np.testing.assert_allclose(
                trajectory.states, expected, rtol=0, atol=1e-12
            )

    def test_van_der_pol_equals_rk45(self, solve_ivp):
        trajectory = integrate(VAN_DER_POL, {"x": 2.0, "y": 0.0}, 30.0)
        expected = self.reference(solve_ivp, trajectory, rtol=1e-8)
        np.testing.assert_allclose(trajectory.states, expected, rtol=0, atol=1e-12)

    def test_van_der_pol_limit_cycle(self, solve_ivp):
        trajectory = integrate(
            VAN_DER_POL, {"x": 2.0, "y": 0.0}, 60.0, samples=6001, rtol=1e-10,
        )
        exact = Trajectory(
            VAN_DER_POL, trajectory.times,
            self.reference(solve_ivp, trajectory, 1e-12, "DOP853"),
        )
        # The start is near the cycle; its last three laps are on it.
        laps = np.diff(upward_crossings(trajectory, "x", 0.5)[-4:])
        exact_laps = np.diff(upward_crossings(exact, "x", 0.5)[-4:])
        assert np.ptp(exact_laps) < 1e-9 * exact_laps.mean()
        np.testing.assert_allclose(laps, exact_laps, rtol=1e-9)
        tail = trajectory.times > 40.0
        assert trajectory.series("x")[tail].max() == pytest.approx(
            exact.series("x")[tail].max(), rel=1e-9
        )
