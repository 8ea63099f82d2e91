"""The census's count laws: one object per law, in the table :data:`LAWS`.

One period of a batch trial (:meth:`ActionPlanner.census
<repro.runtime.planner.ActionPlanner.census>`) is a product of these
laws, drawn in declaration order; docs/architecture.md says when each
draws.  Each object holds:

* ``name`` -- what ``ActionPlanner.describe()`` prints;
* ``draw`` -- the call the census makes, never through a wrapper.  A
  law numpy's generator draws is ``draw(rng)(...)``: ``draw`` is an
  ``attrgetter`` that fetches the generator's own method, because
  ``Generator``'s unbound methods do not check their ``self`` and a
  generator-like object must serve.  The push and overlap laws draw by
  :mod:`~repro.runtime.sampling`'s functions, ``draw(rng, ...)``, and
  the token cap is ``np.minimum``;
* ``pmf(*params)`` and ``mean(*params)`` -- the exact law at finite
  ``N`` of one element of the draw (``pmf`` over the outcomes ``0, 1,
  ...``), the reference the tests hold draws to;
* ``limit(*params)`` -- the ``N -> infinity`` mean, the counts scaled
  by ``N`` (:meth:`ActionPlanner.limit
  <repro.runtime.planner.ActionPlanner.limit>` composes them into the
  round map).  Every law's mean is homogeneous of degree 1 in its
  counts, so its limit is its ``mean``, except the push's.
"""

from __future__ import annotations

import itertools
import math
from operator import attrgetter

import numpy as np

from .sampling import already_taken, distinct_throws

__all__ = [
    "BINOMIAL_SPLIT", "LAWS", "Law", "MULTINOMIAL_SPLIT", "OVERLAP",
    "PUSH", "RIDING_PUSH", "THINNING", "TOKEN_CAP", "TTL_BINOMIAL",
    "ttl_reach",
]


class Law:
    """One count law of the period program (see the module docstring);
    ``contacts(rng)`` draws a push's hits, and is None elsewhere."""

    __slots__ = ("name", "draw", "pmf", "mean", "limit", "contacts")

    def __init__(self, name, draw, pmf, mean, contacts=None, limit=None):
        self.name, self.draw, self.contacts = name, draw, contacts
        self.pmf, self.mean, self.limit = pmf, mean, limit or mean


def _binomial_pmf(n: int, p: float) -> np.ndarray:
    """``Binomial(n, p)``: heads of ``n`` independent ``p``-coins."""
    return np.array([
        math.comb(n, k) * p ** k * (1.0 - p) ** (n - k)
        for k in range(n + 1)
    ])


def _binomial_mean(n: int, p: float) -> float:
    return n * p


def _multinomial_pmf(n: int, pvals) -> np.ndarray:
    """``n`` multi-way coins whose last side is the no-op: the heads of
    every other side, ``pmf[k_1, ..., k_{K-1}]`` (0 where they sum
    above ``n``)."""
    *sides, rest = (float(p) for p in pvals)
    out = np.zeros((n + 1,) * len(sides))
    for heads in itertools.product(range(n + 1), repeat=len(sides)):
        left = n - sum(heads)
        if left < 0:
            continue
        ways = math.factorial(n) // math.factorial(left)
        chance = rest ** left
        for k, p in zip(heads, sides):
            ways //= math.factorial(k)
            chance *= p ** k
        out[heads] = ways * chance
    return out


def _multinomial_mean(n: int, pvals) -> np.ndarray:
    return n * np.asarray(pvals, dtype=float)[:-1]


def _push_pmf(bins: int, contacts: int, q: float) -> np.ndarray:
    """A push's movers: ``K ~ Binomial(contacts, q)`` hits, each a
    uniform throw at ``bins`` members, and the distinct bins among them
    -- the occupancy law, ``P(D = d | K = k) = C(bins, d) d! S(k, d) /
    bins^k`` with ``S`` the Stirling numbers of the second kind."""
    if not bins:  # an empty match state: nothing is thrown
        return np.ones(1)
    out = np.zeros(min(bins, contacts) + 1)
    stirling = [1]  # S(k, d) for d = 0..k, row k = 0 first
    for k, chance in enumerate(_binomial_pmf(contacts, q)):
        for d in range(min(len(stirling), bins + 1)):
            out[d] += chance * (
                math.comb(bins, d) * math.factorial(d) * stirling[d]
                / bins ** k
            )
        stirling = [0] + [
            d * stirling[d] + stirling[d - 1]
            for d in range(1, len(stirling))
        ] + [1]
    return out


def _push_mean(bins: int, contacts: int, q: float) -> float:
    return bins * (1.0 - (1.0 - q / bins) ** contacts) if bins else 0.0


def _push_limit(bins: float, contacts: float, q: float) -> float:
    """``bins`` and ``contacts`` grow with ``N``: a bin's hits are
    Poisson with mean ``hits / bins``, ``hits = contacts * q``."""
    return bins * (1.0 - math.exp(-contacts * q / bins)) if bins else 0.0


def ttl_reach(fraction, ttl: int):
    """The ttl binomial's ``p``, ``1 - (1 - fraction) ** ttl``: a token
    walks up to ``ttl`` uniform hops and is delivered at the first that
    lands on a host it may move, ``fraction`` of the alive ones."""
    return 1.0 - (1.0 - fraction) ** ttl


def _cap_pmf(tokens: int, unmoved: int) -> np.ndarray:
    """``min(tokens, unmoved)``: tokens route to unmoved members only,
    and the excess drops.  No bits are drawn."""
    out = np.zeros(min(tokens, unmoved) + 1)
    out[-1] = 1.0
    return out


def _cap_mean(tokens: int, unmoved: int) -> float:
    return float(min(tokens, unmoved))


def _overlap_pmf(taken: int, rest: int, take: int) -> np.ndarray:
    """``Hypergeometric(taken, rest, take)``: of a uniform
    ``take``-subset of ``taken + rest`` hosts, those among the
    ``taken``.  Its ``draw`` returns None for all-zero (it drew
    nothing)."""
    ways = math.comb(taken + rest, take)
    return np.array([
        math.comb(taken, k) * math.comb(rest, take - k) / ways
        for k in range(min(taken, take) + 1)
    ])


def _overlap_mean(taken: int, rest: int, take: int) -> float:
    return take * taken / (taken + rest) if taken + rest else 0.0


_binomial = attrgetter("binomial")
_BINOMIAL = (_binomial, _binomial_pmf, _binomial_mean)
_PUSH = (distinct_throws, _push_pmf, _push_mean, _binomial, _push_limit)

BINOMIAL_SPLIT = Law("binomial split", *_BINOMIAL)
MULTINOMIAL_SPLIT = Law(
    "multinomial split", attrgetter("multinomial"), _multinomial_pmf,
    _multinomial_mean,
)
THINNING = Law("binomial thinning", *_BINOMIAL)
PUSH = Law("distinct-bin push", *_PUSH)
RIDING_PUSH = Law("distinct-bin push (contacts in the thinning call)", *_PUSH)
TTL_BINOMIAL = Law("ttl binomial", *_BINOMIAL)
TOKEN_CAP = Law("token cap", np.minimum, _cap_pmf, _cap_mean)
OVERLAP = Law(
    "hypergeometric overlap", already_taken, _overlap_pmf, _overlap_mean
)

#: Every law the census draws, in the order a period can draw them.
LAWS = (
    BINOMIAL_SPLIT, MULTINOMIAL_SPLIT, THINNING, PUSH, RIDING_PUSH,
    TTL_BINOMIAL, TOKEN_CAP, OVERLAP,
)
