"""Tests for the equation text parser (repro.odes.parser)."""

import re

import pytest

from repro.odes import library
from repro.odes.parser import ParseError, parse_system


class TestBasicParsing:
    def test_epidemic(self):
        system = parse_system("x' = -x*y\ny' = x*y")
        assert system.equivalent_to(library.epidemic())

    def test_parameters_substituted(self):
        system = parse_system(
            "x' = -beta*x*y + alpha*z\n"
            "y' = beta*x*y - gamma*y\n"
            "z' = gamma*y - alpha*z",
            parameters={"beta": 4.0, "gamma": 1.0, "alpha": 0.01},
        )
        assert system.equivalent_to(library.endemic(alpha=0.01, gamma=1.0, beta=4.0))

    def test_explicit_coefficients(self):
        system = parse_system("x' = 3*x*y - 2*x\ny' = -3*x*y + 2*x")
        terms = system.terms_of("x")
        assert sorted(t.coefficient for t in terms) == [-2.0, 3.0]

    def test_exponent_caret(self):
        system = parse_system("x' = -2*x^2*y\ny' = 2*x^2*y")
        assert system.terms_of("x")[0].exponent_of("x") == 2

    def test_exponent_double_star(self):
        system = parse_system("x' = -x**3\ny' = x**3")
        assert system.terms_of("x")[0].exponent_of("x") == 3

    def test_implicit_multiplication(self):
        system = parse_system("x' = -3x y\ny' = 3x y")
        term = system.terms_of("x")[0]
        assert term.coefficient == -3.0
        assert term.variables == ("x", "y")

    def test_scientific_notation(self):
        system = parse_system("x' = -1e-3*x\ny' = 1e-3*x")
        assert system.terms_of("x")[0].coefficient == pytest.approx(-1e-3)

    def test_dot_suffix(self):
        system = parse_system("x dot = -x*y\ny dot = x*y")
        assert system.equivalent_to(library.epidemic())

    def test_comments_and_blank_lines(self):
        system = parse_system(
            """
            # the epidemic equations
            x' = -x*y   # outflow
            y' = x*y
            """
        )
        assert system.equivalent_to(library.epidemic())

    def test_like_terms_combined(self):
        system = parse_system("x' = -x - x\ny' = 2*x")
        assert system.terms_of("x")[0].coefficient == -2.0


class TestVariableHandling:
    def test_variable_order_default(self):
        system = parse_system("b' = -b*a\na' = b*a")
        assert system.variables == ("b", "a")

    def test_variable_order_override(self):
        system = parse_system("b' = -b*a\na' = b*a", variables=["a", "b"])
        assert system.variables == ("a", "b")

    def test_variable_order_mismatch_rejected(self):
        with pytest.raises(ParseError):
            parse_system("x' = -x", variables=["x", "y"])

    def test_unbound_symbol_rejected(self):
        with pytest.raises(ParseError, match="unbound"):
            parse_system("x' = -beta*x\ny' = beta*x")

    def test_duplicate_equation_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_system("x' = -x\nx' = x")

    def test_parameter_and_variable_collision(self):
        with pytest.raises(ParseError):
            parse_system("x' = -x", parameters={"x": 1.0})


class TestErrorCases:
    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_system("   \n  # nothing\n")

    def test_missing_rhs(self):
        with pytest.raises(ParseError):
            parse_system("x' =")

    def test_missing_equals(self):
        with pytest.raises(ParseError):
            parse_system("x' -x*y")

    def test_garbage_characters(self):
        with pytest.raises(ParseError):
            parse_system("x' = -x / y")

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_system("x' = -x^1.5")

    def test_dangling_operator(self):
        with pytest.raises(ParseError):
            parse_system("x' = -x +")

    def test_rhs_must_start_with_name(self):
        with pytest.raises(ParseError):
            parse_system("3 = -x")

    @pytest.mark.parametrize("line, parameters", [
        ("x' = -x^2e0", {}),            # an exponent in float notation
        ("x' = -x^1e308", {}),
        ("x' = -2^99999*x", {}),        # a number power that overflows
        ("x' = -k^99999*x", {"k": 2.0}),  # a parameter power that overflows
        ("x' = -1e400*x", {}),          # a literal that parses to inf
        ("x' = -1e200*1e200*x", {}),    # a product that overflows
    ])
    def test_hostile_numbers_name_the_line(self, line, parameters):
        with pytest.raises(ParseError, match=re.escape(repr(line))):
            parse_system(line, parameters=parameters)


class TestNumericEdgeCases:
    def test_zero_coefficient_terms_dropped(self):
        system = parse_system("x' = -x + 0*y\ny' = x")
        assert len(system.terms_of("x")) == 1

    def test_number_power(self):
        system = parse_system("x' = -2^3*x\ny' = 8*x")
        assert system.terms_of("x")[0].coefficient == -8.0

    def test_leading_plus(self):
        system = parse_system("x' = +x*y - x*y\ny' = 0*x")
        assert system.terms_of("x") == ()

    def test_parameter_powers(self):
        system = parse_system(
            "x' = -k^2*x\ny' = k^2*x", parameters={"k": 3.0}
        )
        assert system.terms_of("x")[0].coefficient == -9.0
