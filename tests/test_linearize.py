"""Tests for perturbation analysis (repro.analysis.linearize).

The numeric linearization is the reduced operator of
:func:`repro.odes.classify_point`; here it is checked against the
paper's closed forms.
"""

import numpy as np
import pytest

from repro.analysis.linearize import (
    endemic_closed_form_matrix,
    perturb,
)
from repro.analysis.stability import endemic_stability
from repro.odes import classify_point, library


class TestNumericLinearization:
    def test_reduced_operator_shape(self, endemic_system, fig2_params):
        local = classify_point(endemic_system, fig2_params.equilibrium())
        assert local.operator.shape == (2, 2)

    def test_trace_matches_paper(self, endemic_system, fig2_params):
        local = classify_point(endemic_system, fig2_params.equilibrium())
        assert local.trace == pytest.approx(fig2_params.trace(), rel=1e-9)

    def test_determinant_matches_paper(self, endemic_system, fig2_params):
        local = classify_point(endemic_system, fig2_params.equilibrium())
        assert local.determinant == pytest.approx(
            fig2_params.determinant(), rel=1e-9
        )

    def test_discriminant_sign_spiral(self, endemic_system, fig2_params):
        local = classify_point(endemic_system, fig2_params.equilibrium())
        assert local.trace ** 2 - 4.0 * local.determinant < 0
        assert "spiral" in local.classification

    def test_decay_rate_positive_at_stable_point(self, endemic_system, fig2_params):
        local = classify_point(endemic_system, fig2_params.equilibrium())
        assert -local.abscissa > 0

    def test_eigenvalues_match_closed_form(self, endemic_system, fig2_params):
        local = classify_point(endemic_system, fig2_params.equilibrium())
        numeric = sorted(local.eigenvalues, key=lambda e: (e.real, e.imag))
        closed = sorted(fig2_params.eigenvalues(), key=lambda e: (e.real, e.imag))
        for a, b in zip(numeric, closed):
            assert a == pytest.approx(b, rel=1e-9)


class TestClosedForms:
    @pytest.mark.parametrize(
        "alpha, gamma, beta", [(0.01, 1.0, 4.0), (1.0, 0.001, 4.0), (0.3, 0.2, 64.0)]
    )
    def test_matrix_a_is_similar_to_the_reduced_operator(self, alpha, gamma, beta):
        closed = endemic_stability(alpha, gamma, beta)
        numeric = classify_point(
            library.endemic(alpha=alpha, gamma=gamma, beta=beta), closed.point
        )
        assert numeric.operator.shape == (2, 2)
        assert np.sort_complex(numeric.eigenvalues) == pytest.approx(
            np.sort_complex(np.linalg.eigvals(
                endemic_closed_form_matrix(alpha, gamma, beta)
            )), rel=1e-9,
        )
        assert numeric.classification == closed.classification

    def test_trace_det_equation5(self):
        alpha, gamma, beta = 0.001, 0.1, 4.0
        sigma = (beta - gamma) / (1 + gamma / alpha)
        verdict = endemic_stability(alpha, gamma, beta)
        assert verdict.trace == pytest.approx(-(sigma + alpha))
        assert verdict.determinant == pytest.approx(sigma * (gamma + alpha))

    def test_theorem3_always_stable(self):
        # Across a parameter sweep: tau < 0 < Delta whenever
        # alpha, gamma > 0 and beta > gamma.
        for alpha in (1e-6, 1e-3, 0.5, 1.0):
            for gamma in (1e-3, 0.1, 1.0):
                for beta in (2.0, 4.0, 64.0):
                    if beta <= gamma:
                        continue
                    verdict = endemic_stability(alpha, gamma, beta)
                    assert verdict.trace < 0
                    assert verdict.determinant > 0


def relative_deviation(point, equilibrium):
    """``u = x / x_inf - 1`` per variable: what :func:`perturb` applied."""
    return {name: point[name] / value - 1.0 for name, value in equilibrium.items()}


class TestPerturbationHelpers:
    def test_perturb_roundtrip(self, fig2_params):
        equilibrium = fig2_params.equilibrium()
        deviated = perturb(equilibrium, {"x": 0.05, "y": -0.02})
        recovered = relative_deviation(deviated, equilibrium)
        assert recovered["x"] == pytest.approx(0.05)
        assert recovered["y"] == pytest.approx(-0.02)
        assert recovered["z"] == pytest.approx(0.0)

    def test_perturbation_decays(self, endemic_system, fig2_params):
        # Integrate from a 5% perturbation: deviation must shrink.
        from repro.odes import integrate

        equilibrium = fig2_params.equilibrium()
        start = perturb(equilibrium, {"x": 0.05, "y": 0.05, "z": -0.0023})
        # Renormalize onto the simplex.
        total = sum(start.values())
        start = {k: v / total for k, v in start.items()}
        trajectory = integrate(endemic_system, start, t_end=400.0)
        final_dev = relative_deviation(trajectory.final, equilibrium)
        initial_dev = relative_deviation(start, equilibrium)
        assert abs(final_dev["x"]) < abs(initial_dev["x"]) / 10
