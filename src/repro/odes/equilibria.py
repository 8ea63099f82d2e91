"""Equilibrium finding and the one stability classifier.

The protocols inherit the stochastic behaviour of the source equations;
in particular, stable equilibria of the ODEs become self-stabilizing
operating points of the protocol (paper Section 4).  This module finds
equilibria numerically (multi-start root solving on the unit simplex)
and labels every one of them from the spectrum of one operator.

The solve is numpy only: the system is compiled into arrays once
(:class:`~repro.odes.system.CompiledSystem`) and every start advances
together in one damped Newton iteration on the stacked analytic
Jacobians, so finding the operating point of a run costs a few
milliseconds and imports nothing (docs/architecture.md, "Equilibria").

For *complete* systems the Jacobian always has a zero eigenvalue along
the conserved direction ``(1, 1, ..., 1)`` (total mass).  Stability on
the physically meaningful set -- the simplex -- is therefore judged from
the Jacobian projected onto the simplex tangent space, which is exactly
the reduction the paper performs by hand when it eliminates ``z`` and
analyzes the 2x2 matrix ``A`` of equation (4).  In two dimensions the
spectral labels are the trace-determinant chart of the Theorem 3 proof;
above two they are what the chart cannot say (a stable 3x3 operator has
a negative determinant).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from .classify import is_complete
from .system import CompiledSystem, EquationSystem


@dataclass
class Equilibrium:
    """A fixed point, its reduced operator and the operator's verdict.

    Attributes
    ----------
    point:
        Coordinates as ``{variable: value}``.
    operator:
        The linearization stability is read from
        (:func:`reduced_operator`): the Jacobian on the simplex tangent
        space for complete systems, the full Jacobian otherwise.  For the
        endemic system it is similar to the paper's matrix ``A``.
    eigenvalues:
        Spectrum of ``operator``.
    classification:
        :func:`classify_eigenvalues`' label: ``stable spiral``,
        ``stable node``, ``saddle point``, ``unstable node``,
        ``unstable spiral``, ``center``, ``unstable non-hyperbolic``
        (a zero real part beside a positive one) or ``non-hyperbolic``.
    """

    system: EquationSystem
    point: Dict[str, float]
    operator: np.ndarray
    eigenvalues: np.ndarray = field(init=False)
    classification: str = field(init=False)

    def __post_init__(self) -> None:
        self.eigenvalues = np.linalg.eigvals(self.operator)
        self.classification = classify_eigenvalues(
            self.eigenvalues / (self.system.max_coefficient() or 1.0)
        )

    @property
    def stable(self) -> bool:
        return self.classification.startswith("stable")

    @property
    def saddle(self) -> bool:
        return self.classification == "saddle point"

    @property
    def repelling(self) -> bool:
        """Some direction grows: a saddle, or any ``unstable`` label."""
        return self.saddle or self.classification.startswith("unstable")

    @property
    def abscissa(self) -> float:
        """Spectral abscissa ``max Re(lambda)``; negative = attracting.

        Its negation is the slowest decay rate of a small perturbation,
        the rate Theorem 3's analysis bounds.
        """
        return float(np.max(np.real(self.eigenvalues), initial=-np.inf))

    @property
    def trace(self) -> float:
        """Trace of the operator (the paper's tau)."""
        return float(np.trace(self.operator))

    @property
    def determinant(self) -> float:
        """Determinant of the operator (the paper's Delta)."""
        return float(np.linalg.det(self.operator))

    def vector(self) -> np.ndarray:
        return self.system.state_vector(self.point)

    def scaled(self, total: float) -> Dict[str, float]:
        """Equilibrium in process counts for a group of size ``total``."""
        return {k: v * total for k, v in self.point.items()}

    def coordinates(self) -> str:
        return "(" + ", ".join(f"{k}={v:.6g}" for k, v in self.point.items()) + ")"

    def render(self) -> str:
        eigs = ", ".join(f"{e:.4g}" for e in self.eigenvalues)
        text = (f"{self.coordinates()} [{self.classification}; eig: {eigs}; "
                f"abscissa {self.abscissa:.4g}")
        if self.operator.shape == (2, 2):
            text += f"; tau={self.trace:.6g}, Delta={self.determinant:.6g}"
        return text + "]"


def simplex_tangent_basis(dimension: int) -> np.ndarray:
    """Orthonormal basis of the hyperplane ``sum(x) = const``.

    The Helmert columns, a ``dimension x (dimension-1)`` matrix in
    closed form: column ``k`` (1-based) is ``(1, ..., 1, -k, 0, ..., 0)``
    with ``k`` leading ones, over ``sqrt(k (k + 1))``.
    """
    k = np.arange(1, dimension)
    rows = np.arange(dimension)[:, None]
    basis = (rows < k).astype(float) - k * (rows == k)
    return basis / np.sqrt(k * (k + 1.0))


def reduced_operator(system: EquationSystem, point: Sequence[float]) -> np.ndarray:
    """The one linearization every stability verdict reads.

    The Jacobian projected onto the simplex tangent space for a complete
    system (whose conserved direction would otherwise contribute a zero
    eigenvalue), the full Jacobian for any other.
    """
    J = system.jacobian(point)
    if not is_complete(system):
        return J
    B = simplex_tangent_basis(system.dimension)
    return B.T @ J @ B


def classify_eigenvalues(eigenvalues: np.ndarray, tol: float = 1e-9) -> str:
    """Map a spectrum to a Strogatz-style stability label.

    For two-dimensional spectra this is the trace-determinant chart used
    in the paper's Theorem 3 proof (a repeated root is a node, a zero
    determinant is non-hyperbolic).  A zero real part leaves stability
    to higher order, unless another one is positive: that direction
    grows whatever the zero one does ("unstable non-hyperbolic").
    Imaginary parts are judged relative
    to the real parts: repeated real eigenvalues routinely come back
    from the numeric eigensolver with O(1e-8) spurious imaginary
    components, which must not be read as oscillation.
    """
    real = np.real(eigenvalues)
    imag = np.imag(eigenvalues)
    imag_tol = np.maximum(tol, 1e-6 * (1.0 + np.abs(real)))
    if np.any(np.abs(real) <= tol):
        if np.all(np.abs(real) <= tol) and np.any(np.abs(imag) > imag_tol):
            return "center"
        if np.any(real > tol):
            return "unstable non-hyperbolic"
        return "non-hyperbolic"
    has_positive = np.any(real > tol)
    has_negative = np.any(real < -tol)
    oscillatory = bool(np.any(np.abs(imag) > imag_tol))
    if has_positive and has_negative:
        return "saddle point"
    if has_positive:
        return "unstable spiral" if oscillatory else "unstable node"
    return "stable spiral" if oscillatory else "stable node"


def classify_point(system: EquationSystem, point: Dict[str, float]) -> Equilibrium:
    """Build an :class:`Equilibrium` record for a known fixed point."""
    return Equilibrium(
        system=system,
        point={k: float(v) for k, v in point.items()},
        operator=reduced_operator(system, system.state_vector(point)),
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


#: Largest system :func:`find_equilibria` solves: the multi-start Newton
#: holds ~d^2/2 starts' ``(d, terms, d)`` Jacobian factors at once, about
#: 13 MB at 16 variables and growing as d^5.
MAX_EQUILIBRIUM_VARIABLES = 16

#: Newton iterations after which a start that is still moving is dropped
#: (a double root converges linearly, halving its error: ~35 to 1e-10).
_MAX_ITERATIONS = 100

#: Halvings of a step that does not reduce ``|F|`` before the start stalls.
_MAX_HALVINGS = 40


def _newton_roots(residual, jacobian, starts: np.ndarray, tol: float):
    """Damped Newton from every row of ``starts`` at once.

    ``residual`` and ``jacobian`` map a ``(G, d)`` block to ``(G, d)``
    and ``(G, d, d)``.  The step is ``-pinv(J) F``: the Newton step
    where ``J`` is regular and the minimum-norm least-squares step
    where it is singular (the simplex corners the guess list starts
    from), halved until ``|F|`` decreases.  A start has converged when
    its full step is within ``tol`` of its own size; it drops out then,
    or when no halving reduces ``|F|``, so late iterations work on the
    few starts still moving.  Returns the points and the converged mask.
    """
    points = np.array(starts, dtype=float)
    converged = np.zeros(len(points), dtype=bool)
    active = np.arange(len(points))
    value = residual(points)
    norm = np.linalg.norm(value, axis=1)
    for _ in range(_MAX_ITERATIONS):
        if active.size == 0:
            break
        x = points[active]
        step = -(np.linalg.pinv(jacobian(x)) @ value[active, :, None])[:, :, 0]
        small = np.max(np.abs(step), axis=1) <= tol * np.maximum(
            1.0, np.max(np.abs(x), axis=1)
        )
        points[active[small]] += step[small]
        converged[active[small]] = True
        active, x, step = active[~small], x[~small], step[~small]
        # Backtrack per start: `pending` indexes the starts of `active`
        # whose current damping has not yet reduced |F|.
        damping = np.ones(active.size)
        pending = np.arange(active.size)
        for _ in range(_MAX_HALVINGS):
            if pending.size == 0:
                break
            trial = x[pending] + damping[pending, None] * step[pending]
            trial_value = residual(trial)
            trial_norm = np.linalg.norm(trial_value, axis=1)
            # Armijo: a fraction of the decrease the step predicts.
            accepted = trial_norm <= (
                (1.0 - 1e-4 * damping[pending]) * norm[active[pending]]
            )
            moved = active[pending[accepted]]
            points[moved] = trial[accepted]
            value[moved] = trial_value[accepted]
            norm[moved] = trial_norm[accepted]
            pending = pending[~accepted]
            damping[pending] *= 0.5
        active = np.delete(active, pending)
    return points, converged


def _root_problem(system: EquationSystem, simplex_row: bool):
    """``F`` and its Jacobian on ``(G, d)`` blocks of points.

    With ``simplex_row`` the last equation (redundant in a complete
    system) is replaced by ``sum(x) - 1``, whose Jacobian row is ones.
    """
    compiled = CompiledSystem(system)

    def residual(points: np.ndarray) -> np.ndarray:
        values = compiled.rhs(points)
        if simplex_row:
            values[:, -1] = np.sum(points, axis=1) - 1.0
        return values

    def jacobian(points: np.ndarray) -> np.ndarray:
        matrices = compiled.jacobian(points)
        if simplex_row:
            matrices[:, -1, :] = 1.0
        return matrices

    return residual, jacobian


def find_equilibria(
    system: EquationSystem,
    *,
    restarts: int = 64,
    seed: int = 0,
    tol: float = 1e-10,
    merge_distance: float = 1e-6,
    domain_tol: float = 1e-7,
) -> List[Equilibrium]:
    """Locate equilibria on the unit simplex by multi-start root solving.

    For complete systems one equation is redundant (the rows of ``f``
    sum to zero), so the last component of the residual is replaced by
    the simplex constraint ``sum(x) - 1``; this makes the root problem
    square and well-posed.  ``tol`` bounds the last Newton step of a
    root relative to the root's size (its estimated distance from the
    exact root).

    Returns equilibria sorted by distance from the simplex barycenter,
    deduplicated within ``merge_distance``, each labelled by
    :func:`classify_point`.  Points with any coordinate below
    ``-domain_tol`` (outside the physical domain) are dropped.  A system
    of more than :data:`MAX_EQUILIBRIUM_VARIABLES` variables is refused
    with a ``ValueError`` before anything is allocated.
    """
    dimension = system.dimension
    if dimension > MAX_EQUILIBRIUM_VARIABLES:
        raise ValueError(
            f"not solved: {dimension} variables exceed "
            f"MAX_EQUILIBRIUM_VARIABLES = {MAX_EQUILIBRIUM_VARIABLES}"
        )
    complete = is_complete(system)
    residual, jacobian = _root_problem(system, complete)
    starts = np.array(_initial_guesses(dimension, restarts, seed))
    points, converged = _newton_roots(residual, jacobian, starts, tol)

    found: List[np.ndarray] = []
    residual_tol = 1e-7 * (system.max_coefficient() or 1.0)
    for x in points[converged]:
        if np.any(x < -domain_tol):
            continue
        if np.max(np.abs(system.rhs(x))) > residual_tol:
            continue
        if complete and abs(np.sum(x) - 1.0) > 1e-6:
            continue
        x = np.clip(x, 0.0, None)
        if not any(np.linalg.norm(x - other) < merge_distance for other in found):
            found.append(x)

    equilibria = [classify_point(system, system.state_dict(x)) for x in found]
    barycenter = np.full(dimension, 1.0 / dimension)
    equilibria.sort(key=lambda e: float(np.linalg.norm(e.vector() - barycenter)))
    return equilibria

