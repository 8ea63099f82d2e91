"""Tests for the TTL-adjusted token analysis (repro.analysis.tokens)."""

import numpy as np
import pytest

from repro.analysis.mean_field import discrete_mean_field
from repro.analysis.tokens import (
    compare_ttl_models,
    iterate_ttl_adjusted,
    ttl_adjusted_rhs,
    ttl_delivery_probability,
)
from repro.odes.system import build_system
from repro.runtime import BatchMetricsRecorder, RoundEngine
from repro.synthesis import synthesize


def token_system():
    """A bounded system with a tokenized term (-0.4xy in z')."""
    return build_system(
        "token-demo",
        ["x", "y", "z"],
        {
            "x": [(-0.3, {"x": 1}), (0.4, {"x": 1, "y": 1})],
            "y": [(0.3, {"x": 1}), (-0.5, {"y": 1})],
            "z": [(0.5, {"y": 1}), (-0.4, {"x": 1, "y": 1})],
        },
    )


class TestDeliveryProbability:
    def test_oracle(self):
        assert ttl_delivery_probability(0.5, None) == 1.0
        assert ttl_delivery_probability(0.0, None) == 0.0

    def test_ttl_formula(self):
        assert ttl_delivery_probability(0.3, 2) == pytest.approx(1 - 0.7**2)

    def test_monotone_in_ttl(self):
        probs = [ttl_delivery_probability(0.2, ttl) for ttl in (1, 2, 5, 20)]
        assert probs == sorted(probs)
        assert probs[-1] <= 1.0

    def test_clipped_inputs(self):
        assert ttl_delivery_probability(1.5, 3) == 1.0
        assert ttl_delivery_probability(-0.5, 3) == 0.0


class TestAdjustedField:
    def test_oracle_matches_mean_field_map(self):
        spec = synthesize(token_system())
        g = ttl_adjusted_rhs(spec)
        system = spec.mean_field_system(effective=True)
        for point in ([0.5, 0.25, 0.25], [0.2, 0.4, 0.4]):
            state = np.array(point)
            assert g(state) == pytest.approx(system.rhs(state))

    def test_ttl_reduces_token_flow(self):
        oracle = synthesize(token_system())
        walk = synthesize(token_system(), token_ttl=1)
        state = np.array([0.5, 0.25, 0.25])
        delta_oracle = ttl_adjusted_rhs(oracle)(state)
        delta_walk = ttl_adjusted_rhs(walk)(state)
        # The tokenized flow (z -> x) shrinks: z loses less, x gains less.
        assert delta_walk[2] > delta_oracle[2]

    def test_iterate_stays_in_simplex(self):
        spec = synthesize(token_system(), token_ttl=2)
        series = iterate_ttl_adjusted(
            spec, {"x": 0.5, "y": 0.25, "z": 0.25}, periods=200
        )
        for values in series.values():
            assert (values >= -1e-12).all() and (values <= 1 + 1e-12).all()

    def test_failure_compensation_mirrored(self):
        f = 0.3
        spec = synthesize(token_system(), failure_rate=f)
        g = ttl_adjusted_rhs(spec)
        system = spec.mean_field_system(effective=True)
        state = np.array([0.4, 0.3, 0.3])
        assert g(state) == pytest.approx(system.rhs(state))


class TestAgainstSimulation:
    def _simulate_fractions(self, spec, n, initial, periods, seed):
        engine = RoundEngine(spec, n=n, initial=initial, seed=seed)
        recorder = BatchMetricsRecorder(spec.states, 1)
        engine.run(periods, recorder=recorder)
        return {
            s: recorder.counts(s)[0].astype(float) / n for s in spec.states
        }

    def test_ttl_simulation_matches_adjusted_model(self):
        """The paper's Section 6 claim: the TTL protocol's deviation
        from the source equations is captured by the modified system."""
        n = 30_000
        periods = 120
        spec = synthesize(token_system(), token_ttl=1)
        initial = {"x": n // 2, "y": n // 4, "z": n - n // 2 - n // 4}
        fractions = self._simulate_fractions(spec, n, initial, periods, seed=6)
        errors = compare_ttl_models(
            spec, fractions,
            {k: v / n for k, v in initial.items()},
        )
        # Adjusted model fits the TTL run; the unadjusted one does not.
        assert errors["adjusted"] < 0.01
        assert errors["unadjusted"] > 2 * errors["adjusted"]

    def test_oracle_simulation_matches_unadjusted_model(self):
        n = 30_000
        periods = 120
        spec = synthesize(token_system())
        initial = {"x": n // 2, "y": n // 4, "z": n - n // 2 - n // 4}
        fractions = self._simulate_fractions(spec, n, initial, periods, seed=7)
        errors = compare_ttl_models(
            spec, fractions, {k: v / n for k, v in initial.items()},
        )
        # With oracle routing both models coincide.
        assert errors["adjusted"] == pytest.approx(
            errors["unadjusted"], abs=1e-6
        )
        assert errors["adjusted"] < 0.01
