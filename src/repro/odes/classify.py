"""Taxonomy of differential equation systems (paper Section 2).

The paper defines four structural properties that decide which mapping
technique applies:

* **complete** -- the right-hand sides sum to zero, so the total mass
  ``sum(x)`` is conserved (we normalize it to 1: fractions of
  processes).
* **completely partitionable** -- complete, *and* the multiset of terms
  can be grouped into ``(+T, -T)`` pairs, each summing to zero.
* **polynomial** -- every right-hand side is a sum of polynomial terms
  (this is guaranteed by construction of :class:`Term`, but constants
  and zero-degree monomials still matter for mapping).
* **restricted polynomial** -- polynomial, and every negative term in
  ``f_x`` contains at least one factor of ``x`` itself.

The classification decides which actions suffice (Theorems 1 and 5):

========================================  =====================================
system class                              mapping technique
========================================  =====================================
restricted polynomial + partitionable     Flipping + One-Time-Sampling
polynomial + partitionable                ... + Tokenizing (errata to Thm 5)
otherwise                                 rewrite first (Section 7)
========================================  =====================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from .partition import PartitionResult, partition_terms
from .system import EquationSystem
from .term import Term

def is_polynomial(system: EquationSystem) -> bool:
    """True for every representable system (terms are polynomial by type).

    The function exists so that callers mirror the paper's taxonomy
    explicitly; it also re-validates exponent integrality.
    """
    for _, term in system.all_terms():
        for _, power in term.exponents:
            if power < 0 or int(power) != power:
                return False
    return True


def is_complete(system: EquationSystem) -> bool:
    """True when ``sum_x f_x`` is identically zero.

    Checked symbolically: each monomial's coefficients, summed across
    equations, must cancel (:meth:`EquationSystem.divergence`).  This
    is exact up to float tolerance, unlike sampling the divergence at a
    few points.
    """
    return not system.divergence()


def is_restricted_polynomial(system: EquationSystem) -> bool:
    """True when every negative term of ``f_x`` has ``i_x >= 1``.

    This is the condition that lets a negative term be realized as an
    action taken *by the processes currently in state x* (they leave the
    state themselves) -- no tokens required.
    """
    for var in system.variables:
        for term in system.negative_terms_of(var):
            if term.exponent_of(var) < 1:
                return False
    return True


def is_completely_partitionable(system: EquationSystem, allow_splitting: bool = False) -> bool:
    """True when all terms pair off into ``(+T, -T)`` couples.

    The check follows the paper's definition and pairs the terms *as
    written* (no like-term merging): equation (7)'s ``z'`` deliberately
    carries ``+3xy`` twice so each copy pairs with one of the two
    ``-3xy`` outflows.

    With ``allow_splitting=True`` the check uses the term-splitting
    rewrite (see :mod:`repro.odes.rewrite`), under which completeness
    alone implies partitionability for polynomial systems.
    """
    if not is_complete(system):
        return False
    result = partition_terms(
        system, allow_splitting=allow_splitting, presimplify=False
    )
    return result.is_partitionable


def violating_terms(system: EquationSystem) -> List[Tuple[str, Term]]:
    """Negative terms violating the *restricted* condition (need tokens)."""
    out = []
    for var in system.variables:
        for term in system.negative_terms_of(var):
            if term.exponent_of(var) < 1:
                out.append((var, term))
    return out


@dataclass
class TaxonomyReport:
    """Full classification of an equation system, with the evidence.

    Attributes mirror Section 2 of the paper; ``mapping_technique``
    summarizes which theorem applies:

    * ``"flip+sample"`` -- Theorem 1 (restricted polynomial, completely
      partitionable).
    * ``"flip+sample+tokenize"`` -- Theorem 5 per errata (polynomial,
      completely partitionable).
    * ``"rewrite-required"`` -- neither; Section 7 rewrites needed.
    """

    system_name: str
    polynomial: bool
    complete: bool
    restricted_polynomial: bool
    completely_partitionable: bool
    partitionable_with_splitting: bool
    mass: float
    token_terms: List[Tuple[str, Term]] = field(default_factory=list)
    partition: PartitionResult | None = None

    @property
    def mapping_technique(self) -> str:
        pairable = self.completely_partitionable or self.partitionable_with_splitting
        if not (self.complete and self.polynomial and pairable):
            return "rewrite-required"
        technique = (
            "flip+sample" if self.restricted_polynomial else "flip+sample+tokenize"
        )
        if not self.completely_partitionable:
            technique += " (term splitting)"
        return technique

    @property
    def mappable(self) -> bool:
        """Whether the synthesizer can handle the system as-is."""
        return self.mapping_technique != "rewrite-required"

    def render(self) -> str:
        """Human-readable classification summary."""
        lines = [
            f"taxonomy of {self.system_name!r}:",
            f"  polynomial:                {self.polynomial}",
            f"  complete:                  {self.complete}",
            f"  restricted polynomial:     {self.restricted_polynomial}",
            f"  completely partitionable:  {self.completely_partitionable}",
            f"  partitionable w/ splitting:{self.partitionable_with_splitting}",
            f"  mapping technique:         {self.mapping_technique}",
        ]
        if self.token_terms:
            rendered = ", ".join(f"{t.render()} in {v}'" for v, t in self.token_terms)
            lines.append(f"  tokenized terms:           {rendered}")
        return "\n".join(lines)


def classify(system: EquationSystem) -> TaxonomyReport:
    """Classify a system against the paper's full taxonomy.

    Classification follows the paper: terms are examined *as written*
    (no like-term merging), so systems such as equation (7) with its
    intentionally duplicated ``+3xy`` terms classify as completely
    partitionable.
    """
    complete = is_complete(system)
    partition = (
        partition_terms(system, allow_splitting=False, presimplify=False)
        if complete
        else None
    )
    partitionable = bool(partition and partition.is_partitionable)
    splitting = (
        is_completely_partitionable(system, allow_splitting=True) if complete else False
    )
    # Mass: value of sum(x) implied by usage; report 1.0 as convention.
    mass = 1.0
    return TaxonomyReport(
        system_name=system.name,
        polynomial=is_polynomial(system),
        complete=complete,
        restricted_polynomial=is_restricted_polynomial(system),
        completely_partitionable=partitionable,
        partitionable_with_splitting=splitting,
        mass=mass,
        token_terms=violating_terms(system),
        partition=partition if partitionable else None,
    )

