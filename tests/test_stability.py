"""The one stability classifier (repro.odes.equilibria) and Theorem 3.

Every equilibrium is labelled from the spectrum of its reduced operator.
The planar trace-determinant chart of the paper's Theorem 3 proof lives
on here only as the oracle: on every two-dimensional operator the
spectral label must be the chart's, and above two dimensions the chart
is wrong (the 4-cycle regression below).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_check import chain_specs

from repro.analysis.stability import endemic_stability
from repro.odes import classify_point, find_equilibria, parse_system
from repro.odes.equilibria import classify_eigenvalues


def planar_chart(trace, determinant, tol=1e-9):
    """The trace-determinant chart (Strogatz), in the spectral labels."""
    if determinant < -tol:
        return "saddle point"
    if abs(determinant) <= tol:
        # A zero root: the other one, the trace, decides only if it grows.
        return "unstable non-hyperbolic" if trace > tol else "non-hyperbolic"
    if abs(trace) <= tol:
        return "center"
    prefix = "stable" if trace < 0 else "unstable"
    if trace * trace < 4.0 * determinant:
        return f"{prefix} spiral"
    return f"{prefix} node"


def companion(trace, determinant):
    """A 2x2 operator with the given trace and determinant."""
    return np.array([[trace, -determinant], [1.0, 0.0]])


class TestPlanarCase:
    @pytest.mark.parametrize(
        "trace, determinant, label",
        [
            (0.5, -1.0, "saddle point"),
            (-3.0, 2.0, "stable node"),
            (-1.0, 2.0, "stable spiral"),
            (3.0, 2.0, "unstable node"),
            (1.0, 2.0, "unstable spiral"),
            (0.0, 1.0, "center"),
            (-2.0, 1.0, "stable node"),  # repeated root: a degenerate node
            (-1.0, 0.0, "non-hyperbolic"),  # a line of equilibria
            (1.0, 0.0, "unstable non-hyperbolic"),  # ... leaving it
        ],
    )
    def test_chart_rows(self, trace, determinant, label):
        eigenvalues = np.linalg.eigvals(companion(trace, determinant))
        assert classify_eigenvalues(eigenvalues) == label
        assert planar_chart(trace, determinant) == label

    @given(
        trace=st.floats(-5.0, 5.0, allow_nan=False),
        determinant=st.floats(-5.0, 5.0, allow_nan=False),
    )
    def test_spectrum_agrees_with_the_chart(self, trace, determinant):
        if min(abs(trace), abs(determinant),
               abs(trace * trace - 4.0 * determinant)) < 1e-3:
            return  # on a chart boundary: the tolerances decide
        eigenvalues = np.linalg.eigvals(companion(trace, determinant))
        assert classify_eigenvalues(eigenvalues) == planar_chart(
            trace, determinant
        )


class TestGeneratedSpecs:
    @settings(max_examples=25, deadline=None)
    @given(chain_specs())
    def test_rings_attract_and_agree_with_the_chart_in_two_dimensions(
        self, spec
    ):
        # A ring of flips is an irreducible linear flow: its one
        # equilibrium attracts.  The chart read the 1x1 operator of a
        # 2-state ring and the 3x3 of a 4-state ring as saddles.
        system = spec.mean_field_system(effective=False)
        (equilibrium,) = find_equilibria(system)
        assert equilibrium.stable
        assert equilibrium.abscissa < 0
        if equilibrium.operator.shape == (2, 2):
            assert equilibrium.classification == planar_chart(
                equilibrium.trace, equilibrium.determinant
            )


FOUR_CYCLE = parse_system("a' = d - a\nb' = a - b\nc' = b - c\nd' = c - d")


class TestFourCycle:
    """The chart's failure above two dimensions, pinned."""

    def test_stable_spiral_with_a_negative_determinant(self):
        equilibrium = classify_point(
            FOUR_CYCLE, {"a": 0.25, "b": 0.25, "c": 0.25, "d": 0.25}
        )
        assert np.sort_complex(equilibrium.eigenvalues) == pytest.approx(
            [-2.0, -1.0 - 1.0j, -1.0 + 1.0j], abs=1e-12
        )
        assert equilibrium.classification == "stable spiral"
        assert equilibrium.determinant == pytest.approx(-4.0)
        assert planar_chart(
            equilibrium.trace, equilibrium.determinant
        ) == "saddle point"

    def test_found_and_labelled(self):
        (equilibrium,) = find_equilibria(FOUR_CYCLE)
        assert equilibrium.vector() == pytest.approx([0.25] * 4, abs=1e-9)
        assert equilibrium.classification == "stable spiral"
        assert equilibrium.abscissa == pytest.approx(-1.0)


class TestEndemicStability:
    def test_fig2_stable_spiral(self):
        verdict = endemic_stability(alpha=0.01, gamma=1.0, beta=4.0)
        assert verdict.classification == "stable spiral"
        assert verdict.stable

    def test_fig5_configuration_stable(self):
        verdict = endemic_stability(alpha=1e-6, gamma=1e-3, beta=4.0)
        assert verdict.stable

    def test_node_regime_exists(self):
        # Large alpha relative to gamma: discriminant goes positive.
        verdict = endemic_stability(alpha=1.0, gamma=0.001, beta=4.0)
        assert verdict.classification == "stable node"

    def test_always_stable_sweep(self):
        for alpha in (1e-5, 0.01, 1.0):
            for gamma in (0.001, 0.5, 1.0):
                verdict = endemic_stability(alpha=alpha, gamma=gamma, beta=4.0)
                assert verdict.stable, (alpha, gamma)

    def test_render(self):
        text = endemic_stability(alpha=0.01, gamma=1.0, beta=4.0).render()
        assert "stable spiral" in text and "tau=" in text


class TestSystemClassification:
    def test_matches_paper_for_lv(self, lv_system):
        assert classify_point(lv_system, {"x": 1.0, "y": 0.0, "z": 0.0}).stable
        assert classify_point(lv_system, {"x": 0.0, "y": 1.0, "z": 0.0}).stable
        assert classify_point(
            lv_system, {"x": 1 / 3, "y": 1 / 3, "z": 1 / 3}
        ).classification == "saddle point"
        assert not classify_point(
            lv_system, {"x": 0.0, "y": 0.0, "z": 1.0}
        ).stable

    def test_endemic_equilibrium_verdict(self, endemic_system, fig2_params):
        verdict = classify_point(endemic_system, fig2_params.equilibrium())
        assert verdict.classification == "stable spiral"
        assert verdict.trace == pytest.approx(fig2_params.trace(), rel=1e-9)

    def test_spectral_abscissa_signs(self, lv_system):
        assert classify_point(lv_system, {"x": 1.0, "y": 0.0, "z": 0.0}).abscissa < 0
        assert classify_point(lv_system, {"x": 0.0, "y": 0.0, "z": 1.0}).abscissa > 0

    def test_incomplete_system_reads_the_full_jacobian(self):
        system = parse_system("x' = -0.2*x*y\ny' = 0.4*x*y")
        equilibrium = classify_point(system, {"x": 0.0, "y": 1.0})
        assert equilibrium.operator.shape == (2, 2)
        assert equilibrium.operator == pytest.approx(system.jacobian([0.0, 1.0]))
