"""Tests for the equation-to-protocol mapper (repro.synthesis.mapper)."""

import pytest

from repro.odes import library, make_complete
from repro.odes.system import build_system
from repro.odes.term import Term
from repro.synthesis import (
    FlipAction,
    NormalizationError,
    NotCompleteError,
    NotRestrictedError,
    SampleAction,
    TokenizeAction,
    choose_normalizer,
    failure_compensation,
    synthesize,
)


class TestEpidemicMapping:
    def test_single_sampling_action(self):
        spec = synthesize(library.epidemic())
        assert len(spec.actions) == 1
        action = spec.actions[0]
        assert isinstance(action, SampleAction)
        assert action.actor_state == "x"
        assert action.target_state == "y"
        assert action.required_states == ("y",)
        assert action.probability == 1.0


class TestEndemicMapping:
    def test_three_actions(self):
        spec = synthesize(library.endemic(alpha=0.01, gamma=1.0, b=2))
        kinds = sorted(a.kind for a in spec.actions)
        assert kinds == ["FlipAction", "FlipAction", "SampleAction"]

    def test_flip_biases_scaled_by_p(self):
        spec = synthesize(library.endemic(alpha=0.01, gamma=1.0, b=2))
        flips = {a.actor_state: a.probability for a in spec.actions
                 if isinstance(a, FlipAction)}
        # p = 1/beta = 0.25: gamma*p = 0.25, alpha*p = 0.0025.
        assert flips["y"] == pytest.approx(0.25)
        assert flips["z"] == pytest.approx(0.0025)


class TestLVMapping:
    def test_figure3_shape(self):
        spec = synthesize(library.lv(), p=0.01)
        assert len(spec.actions) == 4
        for action in spec.actions:
            assert isinstance(action, SampleAction)
            assert len(action.required_states) == 1
            assert action.probability == pytest.approx(0.03)  # 3p

    def test_z_actions_target_both_camps(self):
        spec = synthesize(library.lv(), p=0.01)
        z_targets = sorted(a.target_state for a in spec.actions_of("z"))
        assert z_targets == ["x", "y"]


class TestSamplePatterns:
    def test_own_power_pattern(self):
        # x' = -2 x^3 y^2 z + ... : pattern = (x, x, y, y, z).
        system = build_system(
            "deep", ["x", "y", "z"],
            {
                "x": [(-2.0, {"x": 3, "y": 2, "z": 1})],
                "y": [(2.0, {"x": 3, "y": 2, "z": 1})],
                "z": [],
            },
        )
        spec = synthesize(system)
        action = spec.actions[0]
        assert isinstance(action, SampleAction)
        assert action.required_states == ("x", "x", "y", "y", "z")

    def test_pattern_lexicographic(self):
        system = build_system(
            "lex", ["m", "a", "b"],
            {
                "m": [(-1.0, {"m": 1, "b": 1, "a": 1})],
                "a": [(1.0, {"m": 1, "b": 1, "a": 1})],
                "b": [],
            },
        )
        action = synthesize(system).actions[0]
        assert action.required_states == ("a", "b")


class TestTokenizing:
    def test_token_action_created(self):
        spec = synthesize(library.higher_order_demo())
        tokens = [a for a in spec.actions if isinstance(a, TokenizeAction)]
        assert len(tokens) == 1
        token = tokens[0]
        # z' = -x: host w = x, token recipients in z, moving to u.
        assert token.actor_state == "x"
        assert token.token_state == "z"
        assert token.target_state == "u"

    def test_tokenize_disabled_raises(self):
        with pytest.raises(NotRestrictedError):
            synthesize(library.higher_order_demo(), tokenize=False)

    def test_token_ttl_marks_inexact(self):
        spec = synthesize(library.higher_order_demo(), token_ttl=4)
        assert not spec.exact_mean_field
        token = [a for a in spec.actions if isinstance(a, TokenizeAction)][0]
        assert token.ttl == 4


class TestNormalizer:
    def test_auto_p(self):
        assert choose_normalizer([4.0, 1.0]) == pytest.approx(0.25)

    def test_auto_p_capped_at_one(self):
        assert choose_normalizer([0.5]) == 1.0

    def test_empty_magnitudes(self):
        assert choose_normalizer([]) == 1.0

    def test_explicit_p_validated(self):
        with pytest.raises(NormalizationError):
            synthesize(library.endemic(alpha=0.01, gamma=1.0, b=2), p=0.5)

    def test_p_out_of_range(self):
        with pytest.raises(NormalizationError):
            synthesize(library.epidemic(), p=0.0)

    def test_max_bias_headroom(self):
        """max_bias bounds each actor state's total coin mass: LV's z
        samples twice (equation (7)), so its two coins share it."""
        spec = synthesize(library.lv(), max_bias=0.3)
        for state in spec.states:
            mass = sum(a.probability for a in spec.actions_of(state))
            assert mass <= 0.3 + 1e-12
        assert sum(a.probability for a in spec.actions_of("z")) == (
            pytest.approx(0.3)
        )

    def test_explicit_p_that_overflows_a_state_names_it(self):
        # Each LV term alone fits at p = 1/3; z's two samples do not.
        with pytest.raises(NormalizationError, match="state z's coin mass 2"):
            synthesize(library.lv(), p=1 / 3)
        assert synthesize(library.lv(), p=1 / 6).normalizer == 1 / 6

    def test_equation_7_gets_one_sixth(self):
        assert synthesize(library.lv()).normalizer == pytest.approx(1 / 6)


class TestFailureCompensation:
    def test_factor_formula(self):
        term = Term(-1.0, {"x": 1, "y": 1})  # |T| = 2
        assert failure_compensation(term, 0.5) == pytest.approx(2.0)

    def test_flip_terms_uncompensated(self):
        term = Term(-1.0, {"x": 1})
        assert failure_compensation(term, 0.9) == 1.0

    def test_higher_occurrences(self):
        term = Term(-1.0, {"x": 2, "y": 1})  # |T| = 3
        assert failure_compensation(term, 0.2) == pytest.approx(1.25**2)

    def test_invalid_rate(self):
        with pytest.raises(Exception):
            failure_compensation(Term(-1.0, {"x": 1}), 1.0)

    def test_compensation_raises_bias(self):
        plain = synthesize(library.epidemic())
        compensated = synthesize(library.epidemic(), failure_rate=0.5, p=0.5)
        assert compensated.actions[0].probability == pytest.approx(
            plain.actions[0].probability, abs=1e-12
        )  # 0.5 * (1/(1-0.5)) = 1.0

    def test_compensation_shrinks_auto_p(self):
        plain = synthesize(library.lv())
        compensated = synthesize(library.lv(), failure_rate=0.5)
        assert compensated.normalizer < plain.normalizer


class TestErrors:
    def test_incomplete_rejected_with_hint(self):
        with pytest.raises(NotCompleteError, match="make_complete"):
            synthesize(library.lv_raw())

    def test_completed_raw_lv_synthesizes_via_tokens(self):
        completed = make_complete(library.lv_raw())
        spec = synthesize(completed)
        assert spec.verify_equivalence()
        assert any(isinstance(a, TokenizeAction) for a in spec.actions)
