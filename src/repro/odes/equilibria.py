"""Equilibrium finding and stability classification.

The protocols inherit the stochastic behaviour of the source equations;
in particular, stable equilibria of the ODEs become self-stabilizing
operating points of the protocol (paper Section 4).  This module finds
equilibria numerically (multi-start root solving on the unit simplex)
and classifies their stability from the Jacobian.

For *complete* systems the Jacobian always has a zero eigenvalue along
the conserved direction ``(1, 1, ..., 1)`` (total mass).  Stability on
the physically meaningful set -- the simplex -- is therefore judged from
the Jacobian projected onto the simplex tangent space, which is exactly
the reduction the paper performs by hand when it eliminates ``z`` and
analyzes the 2x2 matrix ``A`` of equation (4).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .system import EquationSystem


@dataclass
class Equilibrium:
    """An equilibrium point with its local linearization.

    Attributes
    ----------
    point:
        Coordinates as ``{variable: value}``.
    eigenvalues:
        Eigenvalues of the Jacobian projected on the simplex tangent
        space (for complete systems) or of the full Jacobian otherwise.
    classification:
        Strogatz-style label: ``stable spiral``, ``stable node``,
        ``saddle point``, ``unstable node``, ``unstable spiral``,
        ``center``, ``degenerate`` or ``non-hyperbolic``.
    """

    system: EquationSystem
    point: Dict[str, float]
    eigenvalues: np.ndarray
    classification: str

    @property
    def is_stable(self) -> bool:
        return self.classification.startswith("stable")

    @property
    def is_saddle(self) -> bool:
        return self.classification == "saddle point"

    def vector(self) -> np.ndarray:
        return self.system.state_vector(self.point)

    def scaled(self, total: float) -> Dict[str, float]:
        """Equilibrium in process counts for a group of size ``total``."""
        return {k: v * total for k, v in self.point.items()}

    def render(self) -> str:
        coords = ", ".join(f"{k}={v:.6g}" for k, v in self.point.items())
        eigs = ", ".join(f"{e:.4g}" for e in self.eigenvalues)
        return f"({coords}) [{self.classification}; eig: {eigs}]"


def simplex_tangent_basis(dimension: int) -> np.ndarray:
    """Orthonormal basis of the hyperplane ``sum(x) = const``.

    Returns a ``dimension x (dimension-1)`` matrix whose columns span
    the tangent space of the simplex.
    """
    ones = np.ones((dimension, 1)) / np.sqrt(dimension)
    # Complete `ones` to an orthonormal basis via QR; drop the first column.
    random_state = np.random.RandomState(0)
    candidate = np.hstack([ones, random_state.randn(dimension, dimension - 1)])
    q, _ = np.linalg.qr(candidate)
    return q[:, 1:]


def reduced_jacobian(system: EquationSystem, point: Sequence[float]) -> np.ndarray:
    """Jacobian projected onto the simplex tangent space."""
    J = system.jacobian(point)
    B = simplex_tangent_basis(system.dimension)
    return B.T @ J @ B


def classify_eigenvalues(eigenvalues: np.ndarray, tol: float = 1e-9) -> str:
    """Map a spectrum to a Strogatz-style stability label.

    For two-dimensional spectra this matches the trace-determinant
    classification used in the paper's Theorem 3 proof.  Imaginary
    parts are judged relative to the real parts: repeated real
    eigenvalues routinely come back from the numeric eigensolver with
    O(1e-8) spurious imaginary components, which must not be read as
    oscillation.
    """
    real = np.real(eigenvalues)
    imag = np.imag(eigenvalues)
    imag_tol = np.maximum(tol, 1e-6 * (1.0 + np.abs(real)))
    if np.any(np.abs(real) <= tol):
        if np.all(np.abs(real) <= tol) and np.any(np.abs(imag) > imag_tol):
            return "center"
        return "non-hyperbolic"
    has_positive = np.any(real > tol)
    has_negative = np.any(real < -tol)
    oscillatory = bool(np.any(np.abs(imag) > imag_tol))
    if has_positive and has_negative:
        return "saddle point"
    if has_positive:
        return "unstable spiral" if oscillatory else "unstable node"
    return "stable spiral" if oscillatory else "stable node"


def classify_point(
    system: EquationSystem,
    point: Dict[str, float],
    *,
    on_simplex: bool = True,
) -> Equilibrium:
    """Build an :class:`Equilibrium` record for a known fixed point."""
    vector = system.state_vector(point)
    if on_simplex:
        eigenvalues = np.linalg.eigvals(reduced_jacobian(system, vector))
    else:
        eigenvalues = np.linalg.eigvals(system.jacobian(vector))
    return Equilibrium(
        system=system,
        point={k: float(v) for k, v in point.items()},
        eigenvalues=eigenvalues,
        classification=classify_eigenvalues(eigenvalues),
    )


def _initial_guesses(dimension: int, extra: int, seed: int) -> List[np.ndarray]:
    guesses: List[np.ndarray] = []
    # Simplex corners and their midpoints: equilibria of population
    # systems habitually sit on the boundary (e.g. LV's (1,0) / (0,1)).
    for i in range(dimension):
        corner = np.zeros(dimension)
        corner[i] = 1.0
        guesses.append(corner)
    for i, j in itertools.combinations(range(dimension), 2):
        midpoint = np.zeros(dimension)
        midpoint[i] = midpoint[j] = 0.5
        guesses.append(midpoint)
    guesses.append(np.full(dimension, 1.0 / dimension))
    rng = np.random.default_rng(seed)
    for _ in range(extra):
        guesses.append(rng.dirichlet(np.ones(dimension)))
    return guesses


def find_equilibria(
    system: EquationSystem,
    *,
    restarts: int = 64,
    seed: int = 0,
    tol: float = 1e-10,
    merge_distance: float = 1e-6,
    domain_tol: float = 1e-7,
    on_simplex: bool = True,
) -> List[Equilibrium]:
    """Locate equilibria on the unit simplex by multi-start root solving.

    For complete systems one equation is redundant (the rows of ``f``
    sum to zero), so the last component of the residual is replaced by
    the simplex constraint ``sum(x) - 1``; this makes the root problem
    square and well-posed.

    Returns equilibria sorted by distance from the simplex barycenter,
    deduplicated within ``merge_distance``.  Points with any coordinate
    below ``-domain_tol`` (outside the physical domain) are dropped.
    """
    from scipy import optimize  # on first use: docs/architecture.md

    from .classify import is_complete  # local import avoids a cycle

    dimension = system.dimension
    complete = is_complete(system)

    def residual(x: np.ndarray) -> np.ndarray:
        fx = system.rhs(x)
        if complete and on_simplex:
            fx = fx.copy()
            fx[-1] = np.sum(x) - 1.0
        return fx

    found: List[np.ndarray] = []
    for guess in _initial_guesses(dimension, restarts, seed):
        solution = optimize.root(residual, guess, method="hybr", tol=tol)
        if not solution.success:
            continue
        x = solution.x
        if np.any(x < -domain_tol):
            continue
        if np.max(np.abs(system.rhs(x))) > 1e-7:
            continue
        if complete and on_simplex and abs(np.sum(x) - 1.0) > 1e-6:
            continue
        x = np.clip(x, 0.0, None)
        if not any(np.linalg.norm(x - other) < merge_distance for other in found):
            found.append(x)

    equilibria = [
        classify_point(system, system.state_dict(x), on_simplex=complete and on_simplex)
        for x in found
    ]
    barycenter = np.full(dimension, 1.0 / dimension)
    equilibria.sort(key=lambda e: float(np.linalg.norm(e.vector() - barycenter)))
    return equilibria


def stable_equilibria(system: EquationSystem, **kwargs) -> List[Equilibrium]:
    """Only the stable equilibria of :func:`find_equilibria`."""
    return [e for e in find_equilibria(system, **kwargs) if e.is_stable]
