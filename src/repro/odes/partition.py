"""Pairing of terms for *completely partitionable* systems.

A complete system is completely partitionable when every term can be
grouped into a pair ``(+T, -T)`` summing to zero (paper Section 2).
Each such pair is exactly one protocol transition: the ``-T`` term in
``f_source`` is the outflow of processes leaving ``state source``, and
the matching ``+T`` in ``f_target`` is the corresponding inflow into
``state target``.  This module computes that pairing.

Two modes are offered:

* **strict** (the paper's definition): terms pair only when their
  monomials and magnitudes match exactly.
* **splitting**: terms may first be split into equal-monomial pieces
  (e.g. ``-2xy`` into two ``-xy`` halves).  Under splitting, *every*
  complete polynomial system is partitionable, because completeness
  forces the signed coefficients of each monomial to cancel across
  equations -- our answer to the paper's open question (5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .system import EquationSystem
from .term import COEFF_RTOL, Term

import math


@dataclass(frozen=True)
class TermPair:
    """One matched ``(-T, +T)`` couple: a protocol transition.

    Attributes
    ----------
    source:
        Variable whose equation contains the negative term; processes in
        this state execute the action.
    target:
        Variable whose equation contains the positive twin; the action's
        transition destination.
    term:
        The negative term (coefficient < 0) with its (possibly split)
        actual coefficient.
    """

    source: str
    target: str
    term: Term

    @property
    def magnitude(self) -> float:
        """The positive rate constant ``c`` of the pair."""
        return self.term.magnitude

    @property
    def monomial(self) -> Tuple[Tuple[str, int], ...]:
        return self.term.monomial

    def render(self) -> str:
        return f"{self.source} --[{self.term.render()}]--> {self.target}"


@dataclass
class PartitionResult:
    """Outcome of the pairing attempt."""

    pairs: List[TermPair] = field(default_factory=list)
    unmatched: List[Tuple[str, Term]] = field(default_factory=list)
    used_splitting: bool = False

    @property
    def is_partitionable(self) -> bool:
        return not self.unmatched

    def pairs_from(self, source: str) -> List[TermPair]:
        """All transitions out of a given state."""
        return [p for p in self.pairs if p.source == source]

    def render(self) -> str:
        lines = [p.render() for p in self.pairs]
        for var, term in self.unmatched:
            lines.append(f"UNMATCHED in {var}': {term.render()}")
        return "\n".join(lines)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=COEFF_RTOL)


def partition_terms(
    system: EquationSystem,
    allow_splitting: bool = False,
    presimplify: bool = True,
) -> PartitionResult:
    """Pair every ``-T`` with a ``+T`` of identical monomial.

    Parameters
    ----------
    allow_splitting:
        When True, terms of the same monomial with unequal magnitudes
        may be split so the masses match piecewise (see module docs).
    presimplify:
        When True (default), like terms are combined first.  The
        paper's definition operates on the terms *as written* -- the two
        separate ``+3xy`` terms in equation (7)'s ``z'`` each pair with
        one of the ``-3xy`` outflows -- so the taxonomy classifier passes
        ``presimplify=False``.  The synthesizer keeps the default and
        relies on splitting, which yields the same actions.
    """
    if presimplify:
        system = system.simplified()

    by_monomial: Dict[Tuple[Tuple[str, int], ...], Dict[str, List[Tuple[str, float]]]] = {}
    for var in system.variables:
        for term in system.equations[var]:
            bucket = by_monomial.setdefault(term.monomial, {"pos": [], "neg": []})
            side = "pos" if term.sign > 0 else "neg"
            bucket[side].append((var, term.magnitude))

    result = PartitionResult()
    for monomial, bucket in by_monomial.items():
        positives = sorted(bucket["pos"], key=lambda item: (-item[1], item[0]))
        negatives = sorted(bucket["neg"], key=lambda item: (-item[1], item[0]))
        if allow_splitting:
            _match_with_splitting(monomial, positives, negatives, result)
        else:
            _match_strict(monomial, positives, negatives, result)
    # Deterministic order: by source then target then descending rate.
    result.pairs.sort(key=lambda p: (p.source, p.target, -p.magnitude))
    result.unmatched.sort(key=lambda item: item[0])
    return result


def _match_strict(
    monomial: Tuple[Tuple[str, int], ...],
    positives: List[Tuple[str, float]],
    negatives: List[Tuple[str, float]],
    result: PartitionResult,
) -> None:
    remaining = list(positives)
    for neg_var, magnitude in negatives:
        match_index = None
        for i, (_, pos_mag) in enumerate(remaining):
            if _close(pos_mag, magnitude):
                match_index = i
                break
        if match_index is None:
            result.unmatched.append((neg_var, Term(-magnitude, dict(monomial))))
            continue
        pos_var, _ = remaining.pop(match_index)
        result.pairs.append(
            TermPair(neg_var, pos_var, Term(-magnitude, dict(monomial)))
        )
    for pos_var, magnitude in remaining:
        result.unmatched.append((pos_var, Term(magnitude, dict(monomial))))


def _match_with_splitting(
    monomial: Tuple[Tuple[str, int], ...],
    positives: List[Tuple[str, float]],
    negatives: List[Tuple[str, float]],
    result: PartitionResult,
) -> None:
    """Greedy fractional matching (two-pointer over sorted mass lists).

    A leftover mass is zero when it is within ``COEFF_RTOL`` of the
    largest magnitude of the monomial, so the pairs do not change when
    every rate is rescaled.
    """
    pos = [(var, mag) for var, mag in positives]
    neg = [(var, mag) for var, mag in negatives]
    tol = COEFF_RTOL * max(mag for _, mag in positives + negatives)
    i = j = 0
    while i < len(neg) and j < len(pos):
        neg_var, neg_mag = neg[i]
        pos_var, pos_mag = pos[j]
        piece = min(neg_mag, pos_mag)
        if piece > tol:
            result.pairs.append(
                TermPair(neg_var, pos_var, Term(-piece, dict(monomial)))
            )
            if not _close(piece, neg_mag) or not _close(piece, pos_mag):
                result.used_splitting = True
        neg_mag -= piece
        pos_mag -= piece
        if neg_mag <= tol:
            i += 1
        else:
            neg[i] = (neg_var, neg_mag)
        if pos_mag <= tol:
            j += 1
        else:
            pos[j] = (pos_var, pos_mag)
    for k in range(i, len(neg)):
        var, mag = neg[k]
        if mag > tol:
            result.unmatched.append((var, Term(-mag, dict(monomial))))
    for k in range(j, len(pos)):
        var, mag = pos[k]
        if mag > tol:
            result.unmatched.append((var, Term(mag, dict(monomial))))


def reconstruct_system(
    variables: List[str], pairs: List[TermPair], name: str = "reconstructed"
) -> EquationSystem:
    """Rebuild the equation system implied by a set of term pairs.

    Used to verify (in tests and in the synthesizer's self-check) that a
    partition is faithful: reconstructing from the pairs must yield a
    system equivalent to the simplified original.
    """
    equations: Dict[str, List[Term]] = {v: [] for v in variables}
    for pair in pairs:
        equations[pair.source].append(pair.term)
        equations[pair.target].append(pair.term.negated())
    return EquationSystem(variables, equations, name=name).simplified()
