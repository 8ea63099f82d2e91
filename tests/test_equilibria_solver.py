"""The equilibrium solver against the one it replaced.

``find_equilibria`` used to hand every start to
``scipy.optimize.root(method="hybr")``; it now advances all starts with
one stacked Newton iteration on the analytic Jacobian and imports no
scipy.  hybr lives on *here only*, as the oracle: same guess list, same
post-filters, on every registry protocol, every ``examples/*.txt``, the
paper systems of ``tests/test_equilibria.py``, the hypothesis-generated
systems of ``tests/test_check.py`` and a seeded batch of random complete
polynomial systems.

The claim is made for *regular* roots (the residual Jacobian's smallest
singular value above 1e-5 of its largest).  At an ill-conditioned root
hybr's own answer is only good to ``|f| / s_min`` -- it returns, for
instance, an ``a = 5e-6`` twin of an ``a = 0`` root with another label
-- and on a continuum of equilibria two solvers legitimately stop at
different points; there every root returned must still be a root.

The second half holds the cases hybr hid: a singular Jacobian at a
start, non-hyperbolic roots, no root at all, a rank-deficient problem,
dimensions 1 and 2, no random restarts, and determinism.
"""

import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_check import chain_specs

from repro.campaign.registry import available_protocols, resolve_protocol
from repro.experiment import Protocol
from repro.odes import build_system, find_equilibria, library, parse_system
from repro.odes.classify import is_complete
from repro.odes.equilibria import (
    _initial_guesses,
    _newton_roots,
    _root_problem,
    classify_point,
)
from repro.odes.system import CompiledSystem

REPO = Path(__file__).resolve().parents[1]


# ----------------------------------------------------------------------
# The oracle: find_equilibria as it was, hybr and all
# ----------------------------------------------------------------------
def hybr_equilibria(
    system, *, restarts=64, seed=0, tol=1e-10, merge_distance=1e-6,
    domain_tol=1e-7,
):
    optimize = pytest.importorskip("scipy.optimize")
    dimension = system.dimension
    complete = is_complete(system)

    def residual(x):
        fx = system.rhs(x)
        if complete:
            fx = fx.copy()
            fx[-1] = np.sum(x) - 1.0
        return fx

    found = []
    for guess in _initial_guesses(dimension, restarts, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # hybr's "not making progress"
            solution = optimize.root(residual, guess, method="hybr", tol=tol)
        if not solution.success:
            continue
        x = solution.x
        if np.any(x < -domain_tol):
            continue
        if np.max(np.abs(system.rhs(x))) > 1e-7:
            continue
        if complete and abs(np.sum(x) - 1.0) > 1e-6:
            continue
        x = np.clip(x, 0.0, None)
        if not any(np.linalg.norm(x - o) < merge_distance for o in found):
            found.append(x)
    return [classify_point(system, system.state_dict(x)) for x in found]


def residual_jacobian(system, x):
    J = system.jacobian(x).copy()
    if is_complete(system):
        J[-1, :] = 1.0
    return J


def is_regular(system, root):
    s = np.linalg.svd(residual_jacobian(system, root.vector()), compute_uv=False)
    return s[-1] > 1e-5 * s[0]


def assert_at_least_as_good(system, **options):
    """Every regular hybr root is found; everything found is a root.

    Returns how many regular oracle roots were matched.
    """
    mine = find_equilibria(system, **options)
    matched = 0
    for root in hybr_equilibria(system, **options):
        if not is_regular(system, root):
            continue
        assert mine, f"missed {root.render()}"
        nearest = min(
            mine, key=lambda e: np.linalg.norm(e.vector() - root.vector())
        )
        assert np.linalg.norm(nearest.vector() - root.vector()) <= 1e-7, (
            f"missed {root.render()}; nearest {nearest.render()}"
        )
        assert nearest.classification == root.classification
        matched += 1
    for root in mine:
        x = root.vector()
        assert np.max(np.abs(system.rhs(x))) <= 1e-7
        assert np.all(x >= 0.0)
        if is_complete(system):
            assert abs(np.sum(x) - 1.0) <= 1e-6
    return matched


def random_complete_system(rng):
    """Mass-conserving monomial flows between 2-5 variables, degree <= 3."""
    dimension = int(rng.integers(2, 6))
    names = list("abcde"[:dimension])
    terms = {name: [] for name in names}
    for _ in range(int(rng.integers(dimension, 3 * dimension))):
        loser, gainer = rng.choice(dimension, size=2, replace=False)
        exponents = {names[loser]: 1}
        for _ in range(int(rng.integers(0, 3))):
            name = names[int(rng.integers(dimension))]
            exponents[name] = exponents.get(name, 0) + 1
        rate = float(np.round(rng.uniform(0.05, 4.0), 3))
        terms[names[loser]].append((-rate, exponents))
        terms[names[gainer]].append((+rate, exponents))
    return build_system("random", names, terms)


# ----------------------------------------------------------------------
# Differential suite
# ----------------------------------------------------------------------
class TestAgainstHybr:
    @pytest.mark.parametrize("name", available_protocols())
    def test_registry_protocols(self, name):
        system = resolve_protocol(name).system(1000)
        assert assert_at_least_as_good(system) >= 1

    @pytest.mark.parametrize(
        "path", sorted((REPO / "examples").glob("*.txt")), ids=lambda p: p.name
    )
    def test_example_files(self, path):
        system = Protocol.from_equations(str(path)).system(1000)
        assert assert_at_least_as_good(system) >= 1

    @pytest.mark.parametrize(
        "system, regular_roots",
        [
            (library.endemic(alpha=0.01, gamma=1.0, beta=4.0), 2),
            (library.lv(), 4),
            (library.lv_raw(), 3),
            (library.epidemic(), 2),
            (library.push_epidemic(), 2),
            (library.sis(2.0, 0.5), 2),
            (library.sir(2.0, 0.5), 0),  # a line of equilibria
            (library.higher_order_demo(), None),
        ],
        ids=lambda value: getattr(value, "name", None),
    )
    def test_paper_systems(self, system, regular_roots):
        matched = assert_at_least_as_good(system)
        if regular_roots is not None:
            assert matched == regular_roots

    @settings(max_examples=15, deadline=None)
    @given(chain_specs())
    def test_generated_ring_protocols(self, spec):
        # Linear mean field: exactly one equilibrium, and it is regular.
        system = spec.mean_field_system(effective=False)
        assert assert_at_least_as_good(system) == 1

    @settings(max_examples=10, deadline=None)
    @given(st.floats(0.05, 0.45, allow_nan=False))
    def test_generated_nonconserving_sources(self, rate):
        # Not complete (no simplex row) and both axes are equilibria.
        system = parse_system(f"x' = -{rate}*x*y\ny' = {2 * rate}*x*y\n")
        assert_at_least_as_good(system)
        assert find_equilibria(system)

    def test_seeded_random_polynomial_systems(self):
        rng = np.random.default_rng(18)
        matched = sum(
            assert_at_least_as_good(random_complete_system(rng))
            for _ in range(24)
        )
        assert matched >= 12  # the rest sit on lines of equilibria


# ----------------------------------------------------------------------
# The compiled form is the loop form
# ----------------------------------------------------------------------
class TestCompiledSystem:
    @pytest.mark.parametrize(
        "system",
        [
            library.endemic(alpha=0.01, gamma=1.0, beta=4.0),
            library.lv(),
            library.higher_order_demo(),
            parse_system("x' = 0.25 - x*x\ny' = x*x - 0.25"),
            parse_system("x' = x - x"),
        ],
        ids=lambda system: system.name,
    )
    def test_block_values_match_the_one_point_reference(self, system):
        rng = np.random.default_rng(4)
        points = rng.uniform(-0.5, 1.5, size=(9, system.dimension))
        points[0] = 0.0  # 0 ** 0 is 1 in both forms
        compiled = CompiledSystem(system)
        values, matrices = compiled.rhs(points), compiled.jacobian(points)
        assert values.shape == (9, system.dimension)
        assert matrices.shape == (9, system.dimension, system.dimension)
        for g, point in enumerate(points):
            assert values[g] == pytest.approx(system.rhs(point), abs=1e-13)
            assert matrices[g] == pytest.approx(
                system.jacobian(point), abs=1e-13
            )


# ----------------------------------------------------------------------
# What hybr hid
# ----------------------------------------------------------------------
#: x + y = 1 makes g = x^2 + 2xy - 0.3 equal 0.7 - y^2: one root in the
#: domain, and d g/dx = d g/dy at (1, 0), so the corner start's residual
#: Jacobian [[-2, -2], [1, 1]] is exactly singular while F = (-0.7, 0).
SINGULAR_CORNER = parse_system(
    "x' = -x*x - 2*x*y + 0.3\ny' = x*x + 2*x*y - 0.3"
)

ROCK_PAPER_SCISSORS = parse_system(
    "x' = x*y - x*z\ny' = y*z - x*y\nz' = x*z - y*z"
)


@pytest.fixture
def strict_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


@pytest.mark.usefixtures("strict_warnings")
class TestHardCases:
    def test_singular_jacobian_at_a_corner_start(self):
        corner = np.array([[1.0, 0.0]])
        J = residual_jacobian(SINGULAR_CORNER, corner[0])
        assert np.linalg.matrix_rank(J) == 1
        residual, jacobian = _root_problem(SINGULAR_CORNER, True)

        # The least-squares step leaves the corner; where it lands is
        # a root of the residual (this one is outside the domain).
        points, converged = _newton_roots(residual, jacobian, corner, 1e-10)
        assert converged.all()
        assert np.abs(residual(points)).max() <= 1e-12
        # Corners, midpoint and barycentre alone still find the root.
        (root,) = find_equilibria(SINGULAR_CORNER, restarts=0)
        assert root.point == pytest.approx(
            {"x": 1.0 - np.sqrt(0.7), "y": np.sqrt(0.7)}, abs=1e-9
        )
        assert root.classification == "stable node"

    def test_centre(self):
        found = find_equilibria(ROCK_PAPER_SCISSORS)
        assert [e.classification for e in found] == [
            "center", "saddle point", "saddle point", "saddle point",
        ]
        assert found[0].vector() == pytest.approx([1 / 3] * 3, abs=1e-9)

    def test_double_root_converges_linearly_and_is_found(self):
        # SIS at beta = gamma: the endemic root has merged into (1, 0),
        # where the residual Jacobian is singular.
        (root,) = find_equilibria(library.sis(0.5, 0.5))
        assert root.vector() == pytest.approx([1.0, 0.0], abs=1e-7)
        assert root.classification == "non-hyperbolic"

    def test_no_equilibrium_on_the_simplex(self):
        assert find_equilibria(parse_system("x' = -0.5\ny' = 0.5")) == []

    def test_rank_deficient_everywhere(self):
        # A complete system without the simplex row: every level set
        # of the total mass carries its own equilibria.
        system = library.endemic(alpha=0.01, gamma=1.0, beta=4.0)
        residual, jacobian = _root_problem(system, False)
        starts = np.array(_initial_guesses(system.dimension, 64, 0))
        points, converged = _newton_roots(residual, jacobian, starts, 1e-10)
        assert converged.any()
        for x in points[converged]:
            assert np.abs(system.rhs(x)).max() <= 1e-7

    def test_dimension_one(self):
        (root,) = find_equilibria(parse_system("x' = x - x"))
        assert root.point == {"x": 1.0}

    def test_dimension_two(self):
        found = find_equilibria(library.sis(2.0, 0.5))
        assert [e.classification for e in found] == [
            "stable node", "unstable node",
        ]
        assert found[0].vector() == pytest.approx([0.25, 0.75], abs=1e-9)

    def test_no_random_restarts(self):
        found = find_equilibria(library.lv(), restarts=0)
        assert len(found) == 4
        assert sum(e.stable for e in found) == 2


class TestDeterminism:
    @staticmethod
    def bits(equilibria):
        return [
            (e.vector().tobytes(), e.eigenvalues.tobytes(), e.classification)
            for e in equilibria
        ]

    def test_two_calls_are_bit_equal(self):
        system = library.lv()
        assert self.bits(find_equilibria(system, seed=1)) == self.bits(
            find_equilibria(system, seed=1)
        )

    def test_result_does_not_depend_on_scipy(self, monkeypatch):
        system = library.endemic(alpha=0.01, gamma=1.0, beta=4.0)
        with_scipy = self.bits(find_equilibria(system))
        for name in [m for m in sys.modules if m.split(".")[0] == "scipy"]:
            monkeypatch.delitem(sys.modules, name)
        monkeypatch.setitem(sys.modules, "scipy", None)
        with pytest.raises(ImportError):
            import scipy.optimize  # noqa: F401
        assert self.bits(find_equilibria(system)) == with_scipy
