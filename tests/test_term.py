"""Tests for polynomial terms (repro.odes.term)."""

import math

import pytest

from repro.odes.term import Term, combine_like_terms


class TestConstruction:
    def test_basic_term(self):
        term = Term(-3.0, {"x": 1, "y": 1})
        assert term.coefficient == -3.0
        assert term.exponents == (("x", 1), ("y", 1))

    def test_zero_exponents_dropped(self):
        term = Term(2.0, {"x": 1, "y": 0})
        assert term.variables == ("x",)

    def test_exponents_sorted_canonically(self):
        a = Term(1.0, {"z": 1, "a": 2})
        assert a.exponents == (("a", 2), ("z", 1))

    def test_integral_float_exponent_accepted(self):
        term = Term(1.0, {"x": 2.0})
        assert term.exponent_of("x") == 2

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ValueError):
            Term(1.0, {"x": 1.5})

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Term(1.0, {"x": -1})

    def test_constant_term(self):
        term = Term(5.0)
        assert term.is_constant()
        assert term.degree == 0

    def test_terms_hashable_and_equal(self):
        assert Term(2.0, {"x": 1}) == Term(2.0, {"x": 1})
        assert hash(Term(2.0, {"x": 1})) == hash(Term(2.0, {"x": 1}))


class TestIntrospection:
    def test_magnitude_and_sign(self):
        assert Term(-3.0, {"x": 1}).magnitude == 3.0
        assert Term(-3.0, {"x": 1}).sign == -1
        assert Term(3.0, {"x": 1}).sign == 1
        assert Term(0.0, {"x": 1}).sign == 0

    def test_degree_counts_multiplicity(self):
        assert Term(1.0, {"x": 2, "y": 1}).degree == 3

    def test_occurrences_equals_degree(self):
        term = Term(1.0, {"x": 2, "y": 1})
        assert term.occurrences == 3

    def test_exponent_of_absent_variable(self):
        assert Term(1.0, {"x": 1}).exponent_of("y") == 0

    def test_is_linear_in(self):
        assert Term(-0.5, {"x": 1}).is_linear_in("x")
        assert not Term(-0.5, {"x": 2}).is_linear_in("x")
        assert not Term(-0.5, {"x": 1, "y": 1}).is_linear_in("x")

    def test_is_zero_is_scale_free(self):
        # A tiny rate is a rate: only a zero coefficient is zero.
        assert Term(0.0, {"x": 1}).is_zero()
        assert not Term(1e-15, {"x": 1}).is_zero()
        assert not Term(1e-9, {"x": 1}).is_zero()
        assert Term(-1e-15, {"x": 1}).sign == -1

    def test_expanded_variables_lexicographic(self):
        term = Term(1.0, {"y": 1, "x": 2})
        assert term.expanded_variables() == ("x", "x", "y")


class TestAlgebra:
    def test_evaluate(self):
        term = Term(-2.0, {"x": 1, "y": 2})
        assert term.evaluate({"x": 3.0, "y": 2.0}) == -24.0

    def test_evaluate_constant(self):
        assert Term(7.0).evaluate({}) == 7.0

    def test_negated(self):
        term = Term(-2.0, {"x": 1})
        assert term.negated().coefficient == 2.0
        assert term.negated().monomial == term.monomial

    def test_scaled(self):
        assert Term(2.0, {"x": 1}).scaled(0.5).coefficient == 1.0

    def test_times_variable_new(self):
        term = Term(3.0, {"x": 1}).times_variable("y")
        assert term.exponent_of("y") == 1
        assert term.exponent_of("x") == 1

    def test_times_variable_existing(self):
        term = Term(3.0, {"x": 1}).times_variable("x")
        assert term.exponent_of("x") == 2

    def test_split_preserves_total(self):
        pieces = Term(-6.0, {"x": 1, "y": 1}).split(3)
        assert len(pieces) == 3
        assert math.isclose(sum(p.coefficient for p in pieces), -6.0)

    def test_split_rejects_zero_pieces(self):
        with pytest.raises(ValueError):
            Term(1.0).split(0)

    def test_cancels(self):
        a = Term(3.0, {"x": 1, "y": 1})
        b = Term(-3.0, {"y": 1, "x": 1})
        assert a.cancels(b)
        assert not a.cancels(Term(-2.0, {"x": 1, "y": 1}))
        assert not a.cancels(Term(-3.0, {"x": 1}))

    def test_same_monomial(self):
        assert Term(1.0, {"x": 1}).same_monomial(Term(-5.0, {"x": 1}))
        assert not Term(1.0, {"x": 1}).same_monomial(Term(1.0, {"x": 2}))


class TestRendering:
    def test_render_leading_negative(self):
        assert Term(-3.0, {"x": 1, "y": 2}).render(leading=True) == "- 3*x*y^2"

    def test_render_inner_positive(self):
        assert Term(1.0, {"x": 1}).render() == "+ x"

    def test_render_unit_coefficient_hidden(self):
        assert "1*" not in Term(1.0, {"x": 1}).render(leading=True)

    def test_render_constant(self):
        assert Term(0.5).render(leading=True) == "0.5"


class TestCombineLikeTerms:
    def test_merges_same_monomial(self):
        merged = combine_like_terms(
            [Term(3.0, {"x": 1}), Term(2.0, {"x": 1})]
        )
        assert len(merged) == 1
        assert merged[0].coefficient == 5.0

    def test_cancellation_drops_term(self):
        merged = combine_like_terms(
            [Term(3.0, {"x": 1}), Term(-3.0, {"x": 1})]
        )
        assert merged == ()

    def test_preserves_first_appearance_order(self):
        merged = combine_like_terms(
            [Term(1.0, {"y": 1}), Term(1.0, {"x": 1}), Term(1.0, {"y": 1})]
        )
        assert [t.variables for t in merged] == [("y",), ("x",)]
