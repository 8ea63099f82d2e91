"""Equation systems ``dX/dt = f(X)`` with polynomial right-hand sides.

An :class:`EquationSystem` is the central value type of the ODE layer:
an ordered set of variables and, per variable, the list of
:class:`~repro.odes.term.Term` objects whose sum is that variable's
derivative.  Systems are immutable; all rewrites return new systems.

The paper's framework (Section 2) restricts itself to first-order,
degree-one systems in exactly this shape, so this type can represent
every equation system the paper manipulates: the epidemic equations (0),
the endemic equations (1), and both forms of the Lotka-Volterra
competition system (6)/(7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from .term import COEFF_RTOL, Term, combine_like_terms


class SystemError(ValueError):
    """Raised for malformed equation systems."""


@dataclass(frozen=True)
class EquationSystem:
    """An autonomous system of first-order polynomial ODEs.

    Parameters
    ----------
    variables:
        Ordered tuple of variable names.  Order matters: it fixes the
        layout of state vectors handed to numeric code.
    equations:
        Mapping from each variable name to the tuple of terms forming
        its right-hand side.
    name:
        Optional human-readable label (used in reports and rendering).
    """

    variables: Tuple[str, ...]
    equations: Dict[str, Tuple[Term, ...]]
    name: str = "system"

    def __init__(
        self,
        variables: Sequence[str],
        equations: Mapping[str, Iterable[Term]],
        name: str = "system",
    ):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise SystemError(f"duplicate variables in {variables!r}")
        if set(equations) != set(variables):
            missing = set(variables) - set(equations)
            extra = set(equations) - set(variables)
            raise SystemError(
                f"equations/variables mismatch (missing={sorted(missing)}, extra={sorted(extra)})"
            )
        cleaned: Dict[str, Tuple[Term, ...]] = {}
        for var in variables:
            terms = tuple(equations[var])
            for term in terms:
                unknown = set(term.variables) - set(variables)
                if unknown:
                    raise SystemError(
                        f"equation for {var!r} uses unknown variables {sorted(unknown)}"
                    )
            cleaned[var] = terms
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "equations", cleaned)
        object.__setattr__(self, "name", name)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def dimension(self) -> int:
        """Number of variables (states in the synthesized protocol)."""
        return len(self.variables)

    def terms_of(self, variable: str) -> Tuple[Term, ...]:
        """Right-hand-side terms of ``d(variable)/dt``."""
        return self.equations[variable]

    def all_terms(self) -> List[Tuple[str, Term]]:
        """All ``(variable, term)`` pairs in declaration order."""
        return [(var, term) for var in self.variables for term in self.equations[var]]

    def negative_terms_of(self, variable: str) -> Tuple[Term, ...]:
        """Negative (outflow) terms of a variable's equation."""
        return tuple(t for t in self.equations[variable] if t.sign < 0)

    def positive_terms_of(self, variable: str) -> Tuple[Term, ...]:
        """Positive (inflow) terms of a variable's equation."""
        return tuple(t for t in self.equations[variable] if t.sign > 0)

    def term_count(self) -> int:
        """Total number of terms across all equations."""
        return sum(len(ts) for ts in self.equations.values())

    def max_coefficient(self) -> float:
        """Largest term magnitude, used to pick the normalizer ``p``."""
        magnitudes = [t.magnitude for _, t in self.all_terms()]
        return max(magnitudes) if magnitudes else 0.0

    # ------------------------------------------------------------------
    # Numeric evaluation
    # ------------------------------------------------------------------
    def index_of(self, variable: str) -> int:
        """Position of a variable in the state-vector layout."""
        return self.variables.index(variable)

    def state_dict(self, state: Sequence[float]) -> Dict[str, float]:
        """Convert a state vector into a ``{name: value}`` mapping."""
        if len(state) != self.dimension:
            raise SystemError(
                f"state vector has length {len(state)}, expected {self.dimension}"
            )
        return dict(zip(self.variables, state))

    def state_vector(self, values: Mapping[str, float]) -> np.ndarray:
        """Convert a ``{name: value}`` mapping into an ordered vector."""
        return np.array([float(values[v]) for v in self.variables])

    def rhs(self, state: Sequence[float]) -> np.ndarray:
        """Evaluate ``f(X)`` at a state vector, returning ``dX/dt``."""
        values = self.state_dict(state)
        return np.array(
            [sum(t.evaluate(values) for t in self.equations[v]) for v in self.variables]
        )

    def jacobian(self, state: Sequence[float]) -> np.ndarray:
        """Analytic Jacobian matrix ``J[i][j] = d f_i / d x_j``.

        Computed exactly from the polynomial structure (no finite
        differences), which keeps the downstream stability
        classification (Section 4.1.3) robust near equilibria.
        """
        values = self.state_dict(state)
        J = np.zeros((self.dimension, self.dimension))
        for i, vi in enumerate(self.variables):
            for term in self.equations[vi]:
                for j, vj in enumerate(self.variables):
                    power = term.exponent_of(vj)
                    if power == 0:
                        continue
                    partial = term.coefficient * power
                    for name, exp in term.exponents:
                        e = exp - 1 if name == vj else exp
                        if e:
                            partial *= values[name] ** e
                    J[i, j] += partial
        return J

    def divergence_sum(self, state: Sequence[float]) -> float:
        """``sum_x f_x(X)`` at a point (zero everywhere iff complete)."""
        return float(np.sum(self.rhs(state)))

    # ------------------------------------------------------------------
    # Structural transforms (shared by the rewrite module)
    # ------------------------------------------------------------------
    def simplified(self) -> "EquationSystem":
        """Combine like terms and drop cancelled ones, per equation."""
        return EquationSystem(
            self.variables,
            {v: combine_like_terms(self.equations[v]) for v in self.variables},
            name=self.name,
        )

    def scaled(self, factor: float) -> "EquationSystem":
        """Scale every right-hand side by a constant (time rescaling)."""
        return EquationSystem(
            self.variables,
            {v: tuple(t.scaled(factor) for t in self.equations[v]) for v in self.variables},
            name=self.name,
        )

    def renamed(self, mapping: Mapping[str, str]) -> "EquationSystem":
        """Rename variables according to ``mapping`` (missing = keep)."""
        new_names = tuple(mapping.get(v, v) for v in self.variables)
        if len(set(new_names)) != len(new_names):
            raise SystemError(f"renaming {mapping!r} collapses variables")
        new_equations = {}
        for var in self.variables:
            new_terms = []
            for term in self.equations[var]:
                exps = {mapping.get(n, n): p for n, p in term.exponents}
                new_terms.append(Term(term.coefficient, exps))
            new_equations[mapping.get(var, var)] = tuple(new_terms)
        return EquationSystem(new_names, new_equations, name=self.name)

    def with_name(self, name: str) -> "EquationSystem":
        """Return the same system with a different label."""
        return EquationSystem(self.variables, self.equations, name=name)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render(self) -> str:
        """Multi-line textual form, e.g. ``x' = - x*y + 0.01*z``."""
        lines = []
        for var in self.variables:
            terms = self.equations[var]
            if not terms:
                lines.append(f"{var}' = 0")
                continue
            parts = [terms[0].render(leading=True)]
            parts.extend(t.render() for t in terms[1:])
            lines.append(f"{var}' = " + " ".join(parts))
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.name}:\n{self.render()}"

    # ------------------------------------------------------------------
    # Polynomial verdicts (one residual, :func:`combine_like_terms`)
    # ------------------------------------------------------------------
    def divergence(self) -> Tuple[Term, ...]:
        """``sum_x f_x`` as net terms: empty iff the system is complete.

        The completeness test, the completion rewrite's slack equation
        and the spec checker's conservation rule all read this.
        """
        return combine_like_terms(term for _, term in self.all_terms())

    def difference(
        self, other: "EquationSystem", rtol: float = COEFF_RTOL
    ) -> Dict[str, Tuple[Term, ...]]:
        """Per variable, the net terms of ``f - g`` that do not cancel.

        A variable only one side has counts as a zero right-hand side
        on the other; variables whose residual is empty are left out.
        """
        out: Dict[str, Tuple[Term, ...]] = {}
        for var in self.variables + tuple(
            v for v in other.variables if v not in self.equations
        ):
            net = combine_like_terms(
                (
                    *self.equations.get(var, ()),
                    *(t.negated() for t in other.equations.get(var, ())),
                ),
                rtol,
            )
            if net:
                out[var] = net
        return out

    def equivalent_to(self, other: "EquationSystem", rtol: float = COEFF_RTOL) -> bool:
        """True when both systems have the same variables and right-hand
        sides (term order ignored, coefficients to relative ``rtol``)."""
        same_variables = set(self.variables) == set(other.variables)
        return same_variables and not self.difference(other, rtol)


class CompiledSystem:
    """A system's right-hand sides as arrays, evaluated on blocks of points.

    The right-hand sides are sums of monomials, so the whole system is
    three arrays over its ``K`` terms in declaration order -- the signed
    coefficient, the ``(K, d)`` exponent row and the equation that owns
    the term -- and ``f`` and its exact Jacobian at ``G`` points at once
    are a handful of numpy calls.  :meth:`EquationSystem.rhs` and
    :meth:`EquationSystem.jacobian` stay the one-point reference the
    tests compare against.
    """

    def __init__(self, system: EquationSystem):
        pairs = system.all_terms()
        dimension = system.dimension
        column = {name: j for j, name in enumerate(system.variables)}
        self.coefficients = np.array([term.coefficient for _, term in pairs])
        self.exponents = np.zeros((len(pairs), dimension), dtype=np.int64)
        self.owner = np.array([column[var] for var, _ in pairs], dtype=np.intp)
        for k, (_, term) in enumerate(pairs):
            for name, power in term.exponents:
                self.exponents[k, column[name]] = power
        # (K, d): term k adds its coefficient to its owner's equation.
        self._scatter = np.zeros((len(pairs), dimension))
        self._scatter[np.arange(len(pairs)), self.owner] = self.coefficients
        # (d, K, d): the exponent rows after d/dx_j; the factor
        # exponents[k, j] zeroes every term x_j does not appear in.
        self._lowered = np.maximum(
            self.exponents[None, :, :]
            - np.eye(dimension, dtype=np.int64)[:, None, :],
            0,
        )
        self._factors = self.exponents.T.astype(float)

    def rhs(self, points: np.ndarray) -> np.ndarray:
        """``f`` at a ``(G, d)`` block of points, as ``(G, d)``."""
        monomials = np.prod(points[:, None, :] ** self.exponents, axis=2)
        return monomials @ self._scatter

    def jacobian(self, points: np.ndarray) -> np.ndarray:
        """``J[g, i, j] = d f_i / d x_j`` at a ``(G, d)`` block of points."""
        partials = self._factors * np.prod(
            points[:, None, None, :] ** self._lowered, axis=3
        )
        return (partials @ self._scatter).transpose(0, 2, 1)


def build_system(
    name: str,
    variables: Sequence[str],
    term_lists: Mapping[str, Sequence[Tuple[float, Mapping[str, int]]]],
) -> EquationSystem:
    """Convenience constructor from ``(coefficient, exponents)`` tuples.

    Example
    -------
    >>> build_system("epidemic", ["x", "y"], {
    ...     "x": [(-1.0, {"x": 1, "y": 1})],
    ...     "y": [(+1.0, {"x": 1, "y": 1})],
    ... }).dimension
    2
    """
    equations = {
        var: tuple(Term(c, dict(e)) for c, e in term_lists.get(var, ()))
        for var in variables
    }
    return EquationSystem(variables, equations, name=name)
