"""Tests for the Section 2 taxonomy (repro.odes.classify)."""

import pytest

from repro.odes import library
from repro.odes.classify import (
    classify,
    is_complete,
    is_completely_partitionable,
    is_polynomial,
    is_restricted_polynomial,
    violating_terms,
)
from repro.odes.rewrite import make_complete
from repro.odes.system import build_system


class TestCompleteness:
    def test_epidemic_complete(self, epidemic_system):
        assert is_complete(epidemic_system)

    def test_endemic_complete(self, endemic_system):
        assert is_complete(endemic_system)

    def test_lv_raw_incomplete(self):
        assert not is_complete(library.lv_raw())

    def test_lv_completed_complete(self):
        assert is_complete(make_complete(library.lv_raw()))

    def test_symbolic_check_not_fooled_by_point_cancellation(self):
        # x' = -x + y, y' = x - y sums to zero identically: complete.
        a = build_system(
            "a", ["x", "y"],
            {"x": [(-1.0, {"x": 1}), (1.0, {"y": 1})],
             "y": [(1.0, {"x": 1}), (-1.0, {"y": 1})]},
        )
        assert is_complete(a)
        # x' = -x, y' = x^2: sums to zero only where x = x^2.
        b = build_system(
            "b", ["x", "y"],
            {"x": [(-1.0, {"x": 1})], "y": [(1.0, {"x": 2})]},
        )
        assert not is_complete(b)

    def test_numeric_conservation_probe(self, endemic_system):
        # A complete system's derivatives sum to zero at every point,
        # including off the simplex corners and faces.
        for point in ([1, 0, 0], [0.2, 0.3, 0.5], [0.6, 0.1, 0.3], [3, 2, 1]):
            assert abs(endemic_system.divergence_sum(point)) < 1e-12


class TestRestrictedPolynomial:
    def test_epidemic_restricted(self, epidemic_system):
        assert is_restricted_polynomial(epidemic_system)

    def test_endemic_restricted(self, endemic_system):
        assert is_restricted_polynomial(endemic_system)

    def test_lv_restricted(self, lv_system):
        assert is_restricted_polynomial(lv_system)

    def test_higher_order_demo_not_restricted(self):
        demo = library.higher_order_demo()
        assert not is_restricted_polynomial(demo)
        bad = violating_terms(demo)
        assert len(bad) == 1
        var, term = bad[0]
        assert var == "z" and term.variables == ("x",)

    def test_polynomial_always_true_for_terms(self, lv_system):
        assert is_polynomial(lv_system)


class TestPartitionability:
    def test_epidemic_partitionable(self, epidemic_system):
        assert is_completely_partitionable(epidemic_system)

    def test_endemic_partitionable(self, endemic_system):
        assert is_completely_partitionable(endemic_system)

    def test_lv_partitionable_as_written(self, lv_system):
        # The duplicated +3xy terms in z' are what make this work.
        assert is_completely_partitionable(lv_system)

    def test_merged_lv_needs_splitting(self, lv_system):
        merged = lv_system.simplified()
        assert not is_completely_partitionable(merged)
        assert is_completely_partitionable(merged, allow_splitting=True)

    def test_incomplete_never_partitionable(self):
        assert not is_completely_partitionable(library.lv_raw())

    def test_complete_implies_partitionable_with_splitting(self):
        # Open question (5): under term splitting, completeness is
        # sufficient for polynomial systems.
        system = build_system(
            "q5", ["x", "y", "z"],
            {
                "x": [(-2.0, {"x": 1, "y": 1})],
                "y": [(1.0, {"x": 1, "y": 1})],
                "z": [(1.0, {"x": 1, "y": 1})],
            },
        )
        assert is_complete(system)
        assert not is_completely_partitionable(system)
        assert is_completely_partitionable(system, allow_splitting=True)


class TestReports:
    def test_epidemic_report(self, epidemic_system):
        report = classify(epidemic_system)
        assert report.mapping_technique == "flip+sample"
        assert report.mappable

    def test_tokenize_report(self):
        report = classify(library.higher_order_demo())
        assert report.mapping_technique == "flip+sample+tokenize"
        assert report.token_terms

    def test_rewrite_required_report(self):
        report = classify(library.lv_raw())
        assert report.mapping_technique == "rewrite-required"
        assert not report.mappable

    def test_splitting_reflected_in_technique(self, lv_system):
        report = classify(lv_system.simplified())
        assert "term splitting" in report.mapping_technique

    def test_render_mentions_key_fields(self, endemic_system):
        text = classify(endemic_system).render()
        assert "restricted polynomial" in text
        assert "flip+sample" in text

    def test_partition_attached_when_partitionable(self, endemic_system):
        report = classify(endemic_system)
        assert report.partition is not None
        assert len(report.partition.pairs) == 3
