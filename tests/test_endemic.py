"""Tests for endemic replication (repro.protocols.endemic)."""

import numpy as np
import pytest

from repro.odes import integrate
from repro.protocols.endemic import (
    AVERSE,
    RECEPTIVE,
    STASH,
    EndemicParams,
    alpha_for_target_stashers,
    figure1_protocol,
    pure_protocol,
    stasher_birth_rate,
)
from repro.runtime import RoundEngine


class TestParams:
    def test_beta_is_2b(self):
        assert EndemicParams(alpha=0.01, gamma=0.1, b=2).beta == 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            EndemicParams(alpha=0.0, gamma=0.1, b=2)
        with pytest.raises(ValueError):
            EndemicParams(alpha=0.01, gamma=1.5, b=2)
        with pytest.raises(ValueError):
            EndemicParams(alpha=0.01, gamma=0.1, b=0)
        # With integer b >= 1, beta = 2b >= 2 > gamma <= 1 always holds;
        # boundary values are accepted.
        EndemicParams(alpha=1.0, gamma=1.0, b=1)

    def test_equilibrium_formula_fig8(self, fig8_params):
        eq = fig8_params.equilibrium_counts(1000)
        # The paper's stated stable stasher count: 88.63.
        assert eq[STASH] == pytest.approx(88.64, abs=0.05)
        assert eq[RECEPTIVE] == pytest.approx(25.0, abs=1e-9)

    def test_equilibrium_fractions_sum_to_one(self, fig7_params):
        assert sum(fig7_params.equilibrium().values()) == pytest.approx(1.0)

    def test_equilibrium_is_ode_fixed_point(self, fig2_params):
        system = fig2_params.system()
        eq = fig2_params.equilibrium()
        assert np.max(np.abs(system.rhs(system.state_vector(eq)))) < 1e-12

    def test_ode_converges_to_equilibrium(self, fig2_params):
        trajectory = integrate(
            fig2_params.system(), {"x": 0.9, "y": 0.1, "z": 0.0}, 1000.0
        )
        for state, value in fig2_params.equilibrium().items():
            assert trajectory.final[state] == pytest.approx(value, rel=1e-3)

    def test_reality_check_stashers(self):
        # N=100,000 with Figure 5 parameters: ~100 stashers.
        params = EndemicParams(alpha=1e-6, gamma=1e-3, b=2)
        assert params.equilibrium_counts(100_000)[STASH] == pytest.approx(
            99.9, abs=0.1
        )


class TestPerturbationFormulas:
    def test_sigma_equals_beta_y_inf(self, fig2_params):
        sigma = fig2_params.sigma()
        assert sigma == pytest.approx(
            fig2_params.beta * fig2_params.equilibrium()[STASH]
        )

    def test_trace_negative_det_positive(self, fig2_params):
        # Theorem 3: always stable.
        assert fig2_params.trace() < 0
        assert fig2_params.determinant() > 0

    def test_discriminant_formula(self, fig2_params):
        sigma, alpha, gamma = (
            fig2_params.sigma(), fig2_params.alpha, fig2_params.gamma
        )
        expected = (sigma - alpha) ** 2 - 4 * sigma * gamma
        assert fig2_params.discriminant() == pytest.approx(expected)

    def test_fig2_is_spiral(self, fig2_params):
        assert fig2_params.spiral()

    def test_eigenvalues_satisfy_characteristic(self, fig2_params):
        for eig in fig2_params.eigenvalues():
            residual = eig * eig - fig2_params.trace() * eig + fig2_params.determinant()
            assert abs(residual) < 1e-12

    def test_matrix_matches_trace_det(self, fig2_params):
        A = fig2_params.perturbation_matrix()
        assert np.trace(A) == pytest.approx(fig2_params.trace())
        assert np.linalg.det(A) == pytest.approx(fig2_params.determinant())


class TestProtocols:
    def test_figure1_action_set(self, fig7_params):
        spec = figure1_protocol(fig7_params)
        kinds = sorted(a.kind for a in spec.actions)
        assert kinds == [
            "AnyOfSampleAction", "FlipAction", "FlipAction", "PushAction"
        ]

    def test_pure_protocol_exact(self, fig8_params):
        spec = pure_protocol(fig8_params)
        assert spec.verify_equivalence()

    def test_figure1_matches_equilibrium(self, fig8_params):
        n = 2000
        spec = figure1_protocol(fig8_params)
        engine = RoundEngine(spec, n=n, initial=fig8_params.equilibrium_counts(n), seed=0)
        result = engine.run(periods=600)
        recorder = result.recorder
        expected = fig8_params.equilibrium_counts(n)
        assert recorder.window(STASH, 200).median == pytest.approx(
            expected[STASH], rel=0.2
        )
        assert recorder.window(RECEPTIVE, 200).median == pytest.approx(
            expected[RECEPTIVE], rel=0.25
        )

    def test_single_stasher_seeds_equilibrium(self, fig8_params):
        # The trivial equilibrium is a saddle: one stasher escapes it.
        n = 1000
        spec = figure1_protocol(fig8_params)
        engine = RoundEngine(
            spec, n=n, initial={RECEPTIVE: n - 1, STASH: 1, AVERSE: 0}, seed=1
        )
        engine.run(periods=600)
        assert engine.counts()[STASH] > 20

    def test_liveness_every_stasher_eventually_leaves(self, fig8_params):
        # gamma > 0: Liveness. After many periods, the original
        # stashers have rotated out at least once.
        n = 500
        spec = figure1_protocol(fig8_params)
        engine = RoundEngine(spec, n=n, initial=fig8_params.equilibrium_counts(n), seed=2)
        original = set(engine.members_in(STASH).tolist())
        departures = set()
        for _ in range(400):
            engine.step()
            current = set(engine.members_in(STASH).tolist())
            departures |= original - current
        assert departures == original


class TestParameterSelection:
    def test_alpha_for_target(self):
        n = 10_000
        alpha = alpha_for_target_stashers(n, target_stashers=100, gamma=0.1, b=2)
        params = EndemicParams(alpha=alpha, gamma=0.1, b=2)
        assert params.equilibrium_counts(n)[STASH] == pytest.approx(100.0)

    def test_infeasible_target_rejected(self):
        with pytest.raises(ValueError):
            alpha_for_target_stashers(100, target_stashers=99, gamma=0.1, b=2)

    def test_birth_rate_fig8(self, fig8_params):
        # "one stasher is created every 40.6 seconds": gamma * y_inf =
        # 8.863/period; at 360 s per period, one every 40.6 s.
        births = stasher_birth_rate(fig8_params, 1000)
        assert 360.0 / births == pytest.approx(40.6, abs=0.1)
