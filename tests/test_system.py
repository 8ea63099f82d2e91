"""Tests for equation systems (repro.odes.system)."""

import numpy as np
import pytest

from repro.odes import library
from repro.odes.system import EquationSystem, SystemError, build_system
from repro.odes.term import Term


class TestConstruction:
    def test_build_system(self, epidemic_system):
        assert epidemic_system.variables == ("x", "y")
        assert epidemic_system.dimension == 2

    def test_duplicate_variables_rejected(self):
        with pytest.raises(SystemError):
            EquationSystem(["x", "x"], {"x": []})

    def test_missing_equation_rejected(self):
        with pytest.raises(SystemError):
            EquationSystem(["x", "y"], {"x": []})

    def test_unknown_variable_in_term_rejected(self):
        with pytest.raises(SystemError):
            build_system("bad", ["x"], {"x": [(1.0, {"q": 1})]})

    def test_extra_equation_rejected(self):
        with pytest.raises(SystemError):
            EquationSystem(["x"], {"x": [], "y": []})


class TestQueries:
    def test_terms_of(self, endemic_system):
        terms = endemic_system.terms_of("y")
        assert len(terms) == 2

    def test_negative_positive_split(self, endemic_system):
        negatives = endemic_system.negative_terms_of("y")
        positives = endemic_system.positive_terms_of("y")
        assert len(negatives) == 1 and negatives[0].magnitude == 1.0
        assert len(positives) == 1 and positives[0].magnitude == 4.0

    def test_term_count(self, endemic_system):
        assert endemic_system.term_count() == 6

    def test_max_coefficient(self, endemic_system):
        assert endemic_system.max_coefficient() == 4.0

    def test_all_terms_order(self, epidemic_system):
        pairs = epidemic_system.all_terms()
        assert [var for var, _ in pairs] == ["x", "y"]


class TestNumerics:
    def test_rhs_epidemic(self, epidemic_system):
        rhs = epidemic_system.rhs([0.5, 0.5])
        assert rhs == pytest.approx([-0.25, 0.25])

    def test_rhs_wrong_length(self, epidemic_system):
        with pytest.raises(SystemError):
            epidemic_system.rhs([0.5])

    def test_state_roundtrip(self, endemic_system):
        values = {"x": 0.2, "y": 0.3, "z": 0.5}
        vector = endemic_system.state_vector(values)
        assert endemic_system.state_dict(vector) == pytest.approx(values)

    def test_jacobian_epidemic(self, epidemic_system):
        J = epidemic_system.jacobian([0.5, 0.25])
        # d(-xy)/dx = -y, d(-xy)/dy = -x; symmetric for y'.
        assert J == pytest.approx(np.array([[-0.25, -0.5], [0.25, 0.5]]))

    def test_jacobian_matches_finite_differences(self, endemic_system):
        point = np.array([0.3, 0.2, 0.5])
        J = endemic_system.jacobian(point)
        eps = 1e-7
        for j in range(3):
            bumped = point.copy()
            bumped[j] += eps
            numeric = (endemic_system.rhs(bumped) - endemic_system.rhs(point)) / eps
            assert J[:, j] == pytest.approx(numeric, abs=1e-5)

    def test_divergence_zero_for_complete(self, endemic_system):
        assert endemic_system.divergence_sum([0.3, 0.3, 0.4]) == pytest.approx(0.0)

    def test_divergence_nonzero_for_incomplete(self):
        raw = library.lv_raw()
        assert raw.divergence_sum([0.3, 0.1]) != pytest.approx(0.0)


class TestTransforms:
    def test_simplified_merges(self):
        system = build_system(
            "dup", ["x", "y"],
            {"x": [(1.0, {"y": 1}), (2.0, {"y": 1})],
             "y": [(-3.0, {"y": 1})]},
        )
        simplified = system.simplified()
        assert len(simplified.terms_of("x")) == 1
        assert simplified.terms_of("x")[0].coefficient == 3.0

    def test_scaled(self, epidemic_system):
        scaled = epidemic_system.scaled(0.5)
        assert scaled.rhs([0.5, 0.5]) == pytest.approx([-0.125, 0.125])

    def test_renamed(self, epidemic_system):
        renamed = epidemic_system.renamed({"x": "s", "y": "i"})
        assert renamed.variables == ("s", "i")
        assert renamed.rhs([0.5, 0.5]) == pytest.approx(
            epidemic_system.rhs([0.5, 0.5])
        )

    def test_renamed_collision_rejected(self, epidemic_system):
        with pytest.raises(SystemError):
            epidemic_system.renamed({"x": "y"})

    def test_with_name(self, epidemic_system):
        assert epidemic_system.with_name("foo").name == "foo"


class TestEquivalence:
    def test_equivalent_ignores_term_order(self):
        a = build_system(
            "a", ["x"], {"x": [(1.0, {"x": 1}), (-2.0, {"x": 2})]}
        )
        b = build_system(
            "b", ["x"], {"x": [(-2.0, {"x": 2}), (1.0, {"x": 1})]}
        )
        assert a.equivalent_to(b)

    def test_equivalent_detects_coefficient_change(self):
        a = build_system("a", ["x"], {"x": [(1.0, {"x": 1})]})
        b = build_system("b", ["x"], {"x": [(1.1, {"x": 1})]})
        assert not a.equivalent_to(b)

    def test_equivalent_detects_monomial_change(self):
        a = build_system("a", ["x"], {"x": [(1.0, {"x": 1})]})
        b = build_system("b", ["x"], {"x": [(1.0, {"x": 2})]})
        assert not a.equivalent_to(b)

    def test_lv_duplicated_terms_equivalent_to_merged(self, lv_system):
        merged = lv_system.simplified()
        assert lv_system.equivalent_to(merged)

    def test_render_roundtrip_through_parser(self, endemic_system):
        from repro.odes.parser import parse_system

        text = endemic_system.render()
        reparsed = parse_system(text, variables=endemic_system.variables)
        assert reparsed.equivalent_to(endemic_system)
