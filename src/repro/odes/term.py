"""Polynomial terms of differential equations.

The paper (Section 2) restricts attention to equation systems whose
right-hand sides are sums of *polynomial terms*.  Each term has the form

    ``+/- c * prod(y ** i_y for y in variables)``

with a positive constant ``c`` and non-negative integer exponents.  This
module provides the :class:`Term` value type used throughout the ODE
layer: it carries a signed coefficient and a monomial (a mapping from
variable name to exponent), and supports the small amount of algebra the
framework needs (evaluation, negation, scaling, splitting, degree
queries, canonical keys for pairing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Tuple

#: Relative tolerance used when comparing floating-point coefficients.
COEFF_RTOL = 1e-9

#: Absolute tolerance used when deciding whether a coefficient is zero.
COEFF_ATOL = 1e-12


def _clean_exponents(exponents: Mapping[str, int]) -> Tuple[Tuple[str, int], ...]:
    """Return a canonical, sorted exponent tuple with zero entries removed."""
    items = []
    for name, power in exponents.items():
        if not isinstance(power, int):
            if isinstance(power, float) and power.is_integer():
                power = int(power)
            else:
                raise ValueError(f"exponent for {name!r} must be an integer, got {power!r}")
        if power < 0:
            raise ValueError(f"exponent for {name!r} must be non-negative, got {power}")
        if power > 0:
            items.append((name, power))
    return tuple(sorted(items))


@dataclass(frozen=True)
class Term:
    """A signed polynomial term ``coefficient * monomial``.

    Parameters
    ----------
    coefficient:
        The signed constant in front of the monomial.  The paper writes
        terms as ``+/- c`` with ``c > 0``; here the sign is folded into
        the coefficient.
    exponents:
        Mapping from variable name to its (positive integer) exponent.
        Variables with exponent zero are dropped; a term with an empty
        exponent map is a constant.
    """

    coefficient: float
    exponents: Tuple[Tuple[str, int], ...] = field(default=())

    def __init__(self, coefficient: float, exponents: Mapping[str, int] | None = None):
        object.__setattr__(self, "coefficient", float(coefficient))
        object.__setattr__(self, "exponents", _clean_exponents(exponents or {}))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def monomial(self) -> Tuple[Tuple[str, int], ...]:
        """Canonical key identifying the monomial (sorted name/exponent pairs)."""
        return self.exponents

    @property
    def magnitude(self) -> float:
        """The positive constant ``c`` of the paper's ``+/- c`` notation."""
        return abs(self.coefficient)

    @property
    def sign(self) -> int:
        """+1 for positive terms, -1 for negative ones, 0 for a zero term."""
        if self.is_zero():
            return 0
        return 1 if self.coefficient > 0 else -1

    @property
    def variables(self) -> Tuple[str, ...]:
        """Names of the variables appearing with non-zero exponent."""
        return tuple(name for name, _ in self.exponents)

    @property
    def degree(self) -> int:
        """Total degree of the monomial (sum of exponents)."""
        return sum(power for _, power in self.exponents)

    @property
    def occurrences(self) -> int:
        """Total number of variable occurrences ``|T|`` (Section 3).

        This is the quantity the paper uses for message complexity and
        for the failure-compensation factor ``(1/(1-f))^(|T|-1)``: the
        monomial ``x^2 y`` has three occurrences.
        """
        return self.degree

    def exponent_of(self, name: str) -> int:
        """Exponent of variable ``name`` in this term (0 if absent)."""
        for var, power in self.exponents:
            if var == name:
                return power
        return 0

    def is_constant(self) -> bool:
        """True when the term has no variables (a bare ``+/- c``)."""
        return not self.exponents

    def is_zero(self) -> bool:
        """True when the coefficient is (numerically) zero."""
        return abs(self.coefficient) <= COEFF_ATOL

    def is_linear_in(self, name: str) -> bool:
        """True when the term is exactly ``c * name`` (a flipping term)."""
        return self.exponents == ((name, 1),)

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def evaluate(self, values: Mapping[str, float]) -> float:
        """Evaluate the term at a point given as ``{variable: value}``."""
        result = self.coefficient
        for name, power in self.exponents:
            result *= values[name] ** power
        return result

    def negated(self) -> "Term":
        """Return ``-self``."""
        return Term(-self.coefficient, dict(self.exponents))

    def scaled(self, factor: float) -> "Term":
        """Return ``factor * self``."""
        return Term(self.coefficient * factor, dict(self.exponents))

    def with_coefficient(self, coefficient: float) -> "Term":
        """Return a term with the same monomial and a new coefficient."""
        return Term(coefficient, dict(self.exponents))

    def times_variable(self, name: str, power: int = 1) -> "Term":
        """Return ``self * name**power`` (used by constant expansion)."""
        exps = dict(self.exponents)
        exps[name] = exps.get(name, 0) + power
        return Term(self.coefficient, exps)

    def split(self, pieces: int) -> Tuple["Term", ...]:
        """Split the term into ``pieces`` equal-coefficient copies.

        Splitting is the rewrite behind the discussion of the paper's
        open question (5): ``-2xy`` may be rewritten as two ``-xy``
        terms, each of which can then be paired independently.
        """
        if pieces < 1:
            raise ValueError("pieces must be >= 1")
        return tuple(self.scaled(1.0 / pieces) for _ in range(pieces))

    def same_monomial(self, other: "Term") -> bool:
        """True when both terms share the same monomial."""
        return self.exponents == other.exponents

    def cancels(self, other: "Term") -> bool:
        """True when ``self + other == 0`` (the paper's pairing criterion)."""
        return self.same_monomial(other) and math.isclose(
            self.coefficient, -other.coefficient, rel_tol=COEFF_RTOL, abs_tol=COEFF_ATOL
        )

    def expanded_variables(self) -> Tuple[str, ...]:
        """The monomial written out with multiplicity, lexicographically.

        One-Time-Sampling (Section 3.1) orders the variables of
        ``prod(y ** i_y)`` lexicographically and requires the j-th
        sampled process to be in the state of the j-th variable of this
        expansion.  ``x^2 z`` expands to ``('x', 'x', 'z')``.
        """
        out = []
        for name, power in self.exponents:  # already sorted by name
            out.extend([name] * power)
        return tuple(out)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render(self, *, leading: bool = False) -> str:
        """Human-readable form, e.g. ``- 3*x*y^2`` or ``+ 0.5``."""
        sign = "-" if self.coefficient < 0 else ("" if leading else "+")
        mag = self.magnitude
        parts = []
        if not self.exponents or not math.isclose(mag, 1.0, rel_tol=COEFF_RTOL):
            parts.append(f"{mag:g}")
        for name, power in self.exponents:
            parts.append(name if power == 1 else f"{name}^{power}")
        body = "*".join(parts) if parts else "0"
        if leading and not sign:
            return body
        return f"{sign} {body}".strip() if leading else f"{sign} {body}"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.render(leading=True)


def combine_like_terms(
    terms: Iterable[Term], rtol: float = COEFF_RTOL
) -> Tuple[Term, ...]:
    """Net coefficient per monomial, with the monomials that cancel dropped.

    This is the one residual behind every polynomial verdict: a system
    is complete when its right-hand sides' terms leave nothing
    (:meth:`EquationSystem.divergence`), and two systems agree when
    ``self - other`` leaves nothing (:meth:`EquationSystem.difference`).
    One rule decides what cancels: a monomial's net is zero when
    ``|net| <= rtol *`` the largest ``|coefficient|`` that summed into
    it, so no verdict changes when every rate is rescaled.

    The result preserves first-appearance order of monomials, which
    keeps rendered equations readable and protocol synthesis stable.
    """
    sums: Dict[Tuple[Tuple[str, int], ...], float] = {}
    scales: Dict[Tuple[Tuple[str, int], ...], float] = {}
    for term in terms:
        key = term.monomial
        sums[key] = sums.get(key, 0.0) + term.coefficient
        scales[key] = max(scales.get(key, 0.0), abs(term.coefficient))
    return tuple(
        Term(total, dict(key))
        for key, total in sums.items()
        if abs(total) > rtol * scales[key]
    )
