"""Tests for phase portraits (repro.odes.phase) -- Figures 2 and 4."""

import numpy as np
import pytest

from repro.odes import library
from repro.odes.phase import (
    FIGURE2_STARTS,
    FIGURE4_STARTS,
    phase_portrait,
)


class TestPhasePortrait:
    def test_figure2_portrait_spirals_to_equilibrium(self, fig2_params):
        system = fig2_params.system()
        portrait = phase_portrait(
            system, FIGURE2_STARTS, t_end=400.0, scale=1000.0,
            normalize_counts=True,
        )
        assert len(portrait.trajectories) == 7
        expected = fig2_params.equilibrium_counts(1000)
        for end in portrait.endpoints():
            # Every start (all contain at least one stasher) converges
            # to the second equilibrium -- Theorem 3.
            assert end["x"] == pytest.approx(expected["x"], rel=0.02)
            assert end["y"] == pytest.approx(expected["y"], rel=0.05, abs=0.5)

    def test_figure4_bistability(self):
        system = library.lv()
        portrait = phase_portrait(
            system, FIGURE4_STARTS, t_end=30.0, scale=1000.0,
            normalize_counts=True,
        )
        for start, end in zip(portrait.start_points(), portrait.endpoints()):
            if start["x"] > start["y"]:
                assert end["x"] == pytest.approx(1000.0, rel=1e-3)
            elif start["x"] < start["y"]:
                assert end["y"] == pytest.approx(1000.0, rel=1e-3)
            else:
                # x = y: moves toward the (1/3, 1/3, 1/3) saddle.
                assert end["x"] == pytest.approx(end["y"], rel=1e-6)
                assert end["x"] == pytest.approx(1000 / 3, rel=0.02)

    def test_projected_series_scaled(self, fig2_params):
        portrait = phase_portrait(
            fig2_params.system(), [{"x": 0.5, "y": 0.5, "z": 0.0}],
            t_end=10.0, scale=200.0,
        )
        xs, ys = portrait.projected("x", "y")[0]
        assert xs[0] == pytest.approx(100.0)
        assert ys[0] == pytest.approx(100.0)

    def test_spiral_crosses_equilibrium_value(self, fig2_params):
        # A stable spiral overshoots: x(t) - x_inf changes sign.
        portrait = phase_portrait(
            fig2_params.system(), [{"x": 0.999, "y": 0.001, "z": 0.0}],
            t_end=300.0,
        )
        x_inf = fig2_params.equilibrium()["x"]
        signs = np.sign(portrait.trajectories[0].series("x") - x_inf)
        assert len(set(signs[np.nonzero(signs)])) == 2


class TestFigureStarts:
    def test_figure_starts_sum_to_group(self):
        for start in FIGURE2_STARTS:
            assert sum(start.values()) == 1000
        for start in FIGURE4_STARTS:
            assert sum(start.values()) == 1000
