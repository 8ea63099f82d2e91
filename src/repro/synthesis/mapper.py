"""The equation-to-protocol mapper (paper Sections 3 and 6).

:func:`synthesize` is the framework's entry point: given a complete,
completely partitionable polynomial equation system, it emits a
:class:`~repro.synthesis.protocol.ProtocolSpec` whose mean-field
behaviour equals the source equations (Theorem 1; Theorem 5 with
Tokenizing, per the errata).  The mapping is term-by-term:

* ``-c * x``            in ``f_x``  ->  Flipping.
* ``-c * x^i * ...``    in ``f_x`` (``i >= 1``)  ->  One-Time-Sampling.
* ``-c * T`` with no factor of ``x``  ->  Tokenizing hosted on some
  variable ``w`` with ``i_w >= 1`` (bare constants must have been
  expanded away first -- see
  :func:`repro.odes.rewrite.expand_constants`).

The *normalizing constant* ``p`` scales all coin biases so that
``p * c <= 1`` for every term; one protocol period then corresponds to
``p`` time units of the source equations.  Failure compensation
(Section 3, "The Effect of Failures") multiplies each sampling term's
coin bias by ``(1/(1-f))^(|T|-1)`` so the protocol models the original
equations despite a per-connection failure rate ``f``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..odes.classify import classify
from ..odes.partition import TermPair, partition_terms
from ..odes.system import EquationSystem
from ..odes.term import Term
from .actions import Action, FlipAction, SampleAction, TokenizeAction
from .errors import (
    ConstantTermError,
    NormalizationError,
    NotCompleteError,
    NotPartitionableError,
    NotRestrictedError,
    SynthesisError,
)
from .protocol import ProtocolSpec

#: Default safety headroom: the largest coin bias is at most this value,
#: keeping same-period action conflicts (an O((pc)^2) effect) small.
DEFAULT_MAX_BIAS = 1.0


def failure_compensation(term: Term, failure_rate: float) -> float:
    """The multiplicative bias factor ``(1/(1-f))^(|T|-1)``.

    ``|T|`` is the total number of variable occurrences in the term; a
    flipping term (``|T| = 1``) involves no connections and needs no
    compensation.
    """
    if not 0.0 <= failure_rate < 1.0:
        raise SynthesisError(f"failure rate must lie in [0, 1), got {failure_rate}")
    exponent = max(0, term.occurrences - 1)
    return (1.0 / (1.0 - failure_rate)) ** exponent


def _required_pattern(term: Term, source: str) -> Tuple[str, ...]:
    """Sample pattern for One-Time-Sampling of ``-T`` in ``f_source``.

    First ``i_source - 1`` entries are ``source`` itself; the rest are
    the lexicographic expansion of the remaining variables (the paper's
    condition (b): the j-th sampled process must be in the state of the
    j-th variable of ``prod(y^{i_y})`` ordered lexicographically).
    """
    own = term.exponent_of(source)
    pattern: List[str] = [source] * (own - 1)
    for name, power in term.exponents:  # exponents are pre-sorted by name
        if name != source:
            pattern.extend([name] * power)
    return tuple(pattern)


def _token_host(term: Term) -> str:
    """The host variable ``w`` for a tokenized term (first with i_w >= 1)."""
    if term.is_constant():
        raise ConstantTermError(
            f"term {term.render()} is a bare constant; apply expand_constants first"
        )
    return term.exponents[0][0]


def choose_normalizer(
    adjusted_magnitudes: List[float], max_bias: float = DEFAULT_MAX_BIAS
) -> float:
    """Largest ``p <= 1`` such that ``p * c <= max_bias`` for all terms."""
    if not 0 < max_bias <= 1.0:
        raise NormalizationError(f"max_bias must lie in (0, 1], got {max_bias}")
    largest = max(adjusted_magnitudes, default=0.0)
    if largest <= 0:
        return 1.0
    return min(1.0, max_bias / largest)


def synthesize(
    system: EquationSystem,
    *,
    p: Optional[float] = None,
    failure_rate: float = 0.0,
    tokenize: bool = True,
    token_ttl: Optional[int] = None,
    allow_splitting: bool = True,
    max_bias: float = DEFAULT_MAX_BIAS,
    name: Optional[str] = None,
) -> ProtocolSpec:
    """Translate an equation system into a distributed protocol.

    Parameters
    ----------
    system:
        A complete, completely partitionable polynomial system (apply
        the :mod:`repro.odes.rewrite` pipeline first if needed).
    p:
        Normalizing constant override; by default the largest value
        keeping every (compensated) coin bias at most ``max_bias``.
    failure_rate:
        Group-wide per-connection failure probability ``f``; sampling
        biases are scaled by ``(1/(1-f))^(|T|-1)`` so the protocol still
        models the source equations (Section 3).
    tokenize:
        Allow Tokenizing for non-restricted terms.  With ``False``, a
        non-restricted system raises :class:`NotRestrictedError`.
    token_ttl:
        TTL for random-walk token routing (None = membership oracle).
    allow_splitting:
        Permit the term-splitting rewrite during pairing.

    Raises
    ------
    NotCompleteError, NotPartitionableError, NotRestrictedError,
    ConstantTermError, NormalizationError
    """
    system = system.simplified()
    report = classify(system)
    if not report.complete:
        raise NotCompleteError(
            f"{system.name!r} is not complete; apply make_complete first "
            f"(sum of right-hand sides is not identically zero)"
        )
    partition = partition_terms(system, allow_splitting=False)
    if not partition.is_partitionable:
        if not allow_splitting:
            raise NotPartitionableError(
                f"{system.name!r} is not completely partitionable:\n"
                + partition.render()
            )
        partition = partition_terms(system, allow_splitting=True)
        if not partition.is_partitionable:
            raise NotPartitionableError(
                f"{system.name!r} cannot be partitioned even with term "
                f"splitting:\n" + partition.render()
            )

    # Pass 1: compensated magnitudes decide the normalizer p.
    compensated: List[Tuple[TermPair, float]] = []
    for pair in partition.pairs:
        factor = failure_compensation(pair.term, failure_rate)
        compensated.append((pair, pair.magnitude * factor))
    if p is None:
        p = choose_normalizer([mag for _, mag in compensated], max_bias=max_bias)
    else:
        if not 0 < p <= 1:
            raise NormalizationError(f"p must lie in (0, 1], got {p}")
        too_big = [mag for _, mag in compensated if p * mag > 1.0 + 1e-12]
        if too_big:
            raise NormalizationError(
                f"p={p} makes coin biases exceed 1 for magnitudes {too_big}"
            )

    # Pass 2: emit one action per pair.
    actions: List[Action] = []
    for pair, magnitude in compensated:
        bias = min(1.0, p * magnitude)
        term, source, target = pair.term, pair.source, pair.target
        own_power = term.exponent_of(source)
        if own_power >= 1:
            if term.is_linear_in(source):
                actions.append(
                    FlipAction(
                        actor_state=source,
                        probability=bias,
                        target_state=target,
                        source_term=term,
                    )
                )
            else:
                actions.append(
                    SampleAction(
                        actor_state=source,
                        probability=bias,
                        target_state=target,
                        source_term=term,
                        required_states=_required_pattern(term, source),
                    )
                )
        else:
            if not tokenize:
                raise NotRestrictedError(
                    f"term {term.render()} in {source}' has no factor of "
                    f"{source}; enable tokenize=True or rewrite with "
                    f"to_restricted"
                )
            host = _token_host(term)
            actions.append(
                TokenizeAction(
                    actor_state=host,
                    probability=bias,
                    target_state=target,
                    source_term=term,
                    required_states=_required_pattern(term, host),
                    token_state=source,
                    ttl=token_ttl,
                )
            )

    spec = ProtocolSpec(
        name=name or f"{system.name}-protocol",
        states=tuple(system.variables),
        actions=tuple(actions),
        normalizer=p,
        source=system,
        exact_mean_field=token_ttl is None,
        failure_rate=failure_rate,
    )
    # Constructive self-check of Theorem 1/5: the reconstructed mean
    # field must equal p * (source).  Oracle tokens are exact; TTL
    # routing intentionally deviates (Section 6 "Limitations").
    if spec.exact_mean_field and not spec.verify_equivalence():
        raise SynthesisError(
            f"internal error: mean-field reconstruction mismatch for "
            f"{system.name!r}"
        )
    return spec

