"""Tests for equilibrium finding and classification (repro.odes.equilibria)."""

import numpy as np
import pytest

from repro.odes import library
from repro.odes.equilibria import (
    MAX_EQUILIBRIUM_VARIABLES,
    Equilibrium,
    classify_eigenvalues,
    classify_point,
    find_equilibria,
    reduced_operator,
    simplex_tangent_basis,
)


def stable_equilibria(system):
    return [e for e in find_equilibria(system) if e.stable]


class TestTangentBasis:
    def test_orthonormal(self):
        B = simplex_tangent_basis(4)
        assert B.shape == (4, 3)
        assert B.T @ B == pytest.approx(np.eye(3), abs=1e-12)

    def test_orthogonal_to_ones(self):
        B = simplex_tangent_basis(5)
        assert np.ones(5) @ B == pytest.approx(np.zeros(4), abs=1e-12)

    def test_helmert_columns_in_closed_form(self):
        B = simplex_tangent_basis(3)
        expected = np.array([
            [1 / np.sqrt(2), 1 / np.sqrt(6)],
            [-1 / np.sqrt(2), 1 / np.sqrt(6)],
            [0.0, -2 / np.sqrt(6)],
        ])
        assert B == pytest.approx(expected, abs=1e-15)


class TestClassifyEigenvalues:
    def test_stable_node(self):
        assert classify_eigenvalues(np.array([-1.0, -2.0])) == "stable node"

    def test_stable_spiral(self):
        eigs = np.array([-1.0 + 2.0j, -1.0 - 2.0j])
        assert classify_eigenvalues(eigs) == "stable spiral"

    def test_saddle(self):
        assert classify_eigenvalues(np.array([1.0, -1.0])) == "saddle point"

    def test_unstable_node(self):
        assert classify_eigenvalues(np.array([1.0, 2.0])) == "unstable node"

    def test_center(self):
        assert classify_eigenvalues(np.array([2.0j, -2.0j])) == "center"

    def test_non_hyperbolic(self):
        assert classify_eigenvalues(np.array([0.0, -1.0])) == "non-hyperbolic"

    def test_a_zero_beside_a_growing_direction_is_unstable(self):
        # Whatever the zero direction does, the positive one grows.
        eigs = np.array([0.0, 0.5, -1.0])
        assert classify_eigenvalues(eigs) == "unstable non-hyperbolic"
        point = Equilibrium(
            system=library.lv(), point={},
            operator=np.diag(eigs),
        )
        assert point.repelling and not point.stable and not point.saddle

    def test_spurious_imaginary_ignored(self):
        # Repeated real eigenvalues often come back as a tiny complex pair.
        eigs = np.array([-3.0 + 5e-8j, -3.0 - 5e-8j])
        assert classify_eigenvalues(eigs) == "stable node"


class TestEndemicEquilibria:
    def test_finds_both_equilibria(self, endemic_system):
        equilibria = find_equilibria(endemic_system)
        assert len(equilibria) == 2

    def test_nontrivial_matches_closed_form(self, endemic_system, fig2_params):
        equilibria = find_equilibria(endemic_system)
        stable = [e for e in equilibria if e.stable]
        assert len(stable) == 1
        expected = fig2_params.equilibrium()
        for state, value in expected.items():
            assert stable[0].point[state] == pytest.approx(value, rel=1e-6)

    def test_nontrivial_is_spiral_at_fig2_params(self, endemic_system):
        stable = stable_equilibria(endemic_system)
        assert stable[0].classification == "stable spiral"

    def test_trivial_is_saddle(self, endemic_system):
        equilibria = find_equilibria(endemic_system)
        trivial = [e for e in equilibria if e.point["x"] > 0.99]
        assert len(trivial) == 1
        assert trivial[0].saddle

    def test_scaled_counts(self, endemic_system):
        stable = stable_equilibria(endemic_system)[0]
        counts = stable.scaled(1000)
        assert counts["x"] == pytest.approx(250.0, rel=1e-6)


class TestLVEquilibria:
    def test_theorem4_classification(self, lv_system):
        equilibria = find_equilibria(lv_system)
        by_label = {}
        for e in equilibria:
            by_label.setdefault(e.classification, []).append(e.point)
        # (1,0,0) and (0,1,0) stable; (0,0,1) unstable; (1/3,1/3,1/3) saddle.
        assert len(by_label.get("stable node", [])) == 2
        assert len(by_label.get("unstable node", [])) == 1
        assert len(by_label.get("saddle point", [])) == 1

    def test_saddle_is_barycenter(self, lv_system):
        saddle = [e for e in find_equilibria(lv_system) if e.saddle][0]
        for value in saddle.point.values():
            assert value == pytest.approx(1 / 3, rel=1e-5)

    def test_stable_points_are_camps(self, lv_system):
        stable = stable_equilibria(lv_system)
        tips = sorted(
            tuple(round(v) for v in e.vector()) for e in stable
        )
        assert tips == [(0, 1, 0), (1, 0, 0)]


class TestReducedJacobian:
    def test_removes_conserved_direction(self, endemic_system):
        point = np.array([0.25, 0.00742574, 0.74257426])
        full_eigs = np.linalg.eigvals(endemic_system.jacobian(point))
        reduced_eigs = np.linalg.eigvals(reduced_operator(endemic_system, point))
        # Full spectrum has a ~0 eigenvalue along (1,1,1); reduced does not.
        assert min(abs(full_eigs)) < 1e-10
        assert min(abs(reduced_eigs)) > 1e-4

    def test_classify_point_record(self, endemic_system):
        record = classify_point(
            endemic_system, {"x": 1.0, "y": 0.0, "z": 0.0}
        )
        assert record.saddle
        assert "saddle" in record.render()


class TestRobustness:
    def test_epidemic_line_of_equilibria(self, epidemic_system):
        # Every (x, 0) and (0, y) is an equilibrium: solver should
        # return non-hyperbolic points without crashing.
        equilibria = find_equilibria(epidemic_system)
        assert len(equilibria) >= 1

    def test_deterministic(self, lv_system):
        a = find_equilibria(lv_system, seed=1)
        b = find_equilibria(lv_system, seed=1)
        assert [e.point for e in a] == [e.point for e in b]


def chain_equations(variables):
    """A ring of ``variables`` states, each flipping to the next."""
    names = [f"s{i}" for i in range(variables)]
    return "\n".join(
        f"{name}' = 0.5*{names[i - 1]} - 0.5*{name}"
        for i, name in enumerate(names)
    ) + "\n"


class TestVariableCap:
    """Every caller of the solver stops at the cap, and at once."""

    TEXT = chain_equations(MAX_EQUILIBRIUM_VARIABLES + 1)

    def test_the_solver_refuses_by_name(self):
        from repro.odes import parse_system

        system = parse_system(self.TEXT)
        with pytest.raises(ValueError, match="MAX_EQUILIBRIUM_VARIABLES"):
            find_equilibria(system)

    def test_the_cap_itself_still_solves(self):
        from repro.odes import parse_system

        system = parse_system(chain_equations(MAX_EQUILIBRIUM_VARIABLES))
        (point,) = find_equilibria(system, restarts=0)
        assert point.point["s0"] == pytest.approx(1 / 16)

    def test_a_protocol_has_no_equilibria(self):
        from repro.experiment import Protocol

        protocol = Protocol.from_equations(self.TEXT, check="off")
        assert protocol.equilibria() == []
        assert protocol.equilibrium() is None

    def test_analyze_exits_1_with_the_message(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "chain.txt"
        path.write_text(self.TEXT)
        assert main(["analyze", str(path)]) == 1
        assert "MAX_EQUILIBRIUM_VARIABLES" in capsys.readouterr().err
