"""Convergence complexity (paper Sections 4.1.3 and 4.2.2).

The paper defines the *convergence complexity* of an equilibrium as the
vector of closed-form functions describing how the state fractions
approach it from a nearby start.  Implemented here:

* the endemic displacement ``u(t)`` in all three discriminant cases
  (complex, real-distinct and repeated eigenvalues);
* the LV convergence complexity near the stable point (0, 1):
  ``(x, y)(t) = (u0 e^{-3t}, 1 - (6 u0 t + v0) e^{-3t})``, from which
  the paper concludes O(log N) protocol periods to an O(1) minority;
* empirical convergence-time measurement on simulated series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..protocols.endemic import EndemicParams


# ----------------------------------------------------------------------
# Endemic: u(t), the relative displacement of the susceptible count
# ----------------------------------------------------------------------
def endemic_case(params: EndemicParams) -> str:
    """Which of the three Section 4.1.3 cases applies.

    ``"spiral"`` (complex eigenvalues), ``"node"`` (real distinct) or
    ``"degenerate"`` (repeated).
    """
    disc = params.discriminant()
    if disc < 0:
        return "spiral"
    if disc > 0:
        return "node"
    return "degenerate"


def endemic_displacement(
    params: EndemicParams,
    t: np.ndarray,
    u0: float,
    udot0: float = 0.0,
) -> np.ndarray:
    """The paper's ``u(t)`` closed forms, all three cases.

    Case 1 (complex eigenvalues)::

        u = u0 * exp(-t (sigma+alpha)/2) * cos(t sqrt(sigma gamma - (sigma-alpha)^2/4))

    Case 2 (real distinct eigenvalues lambda1, lambda2)::

        u = (udot0 - lambda2 u0)/(lambda1-lambda2) e^{lambda1 t}
          + (udot0 - lambda1 u0)/(lambda2-lambda1) e^{lambda2 t}

    Case 3 (repeated)::

        u = u0 * exp(-t (sigma+alpha)/2)

    (The paper's case-1 expression sets the phase so ``u(0) = u0``; for
    non-zero ``udot0`` the general solution adds a sine term, which we
    include for exactness when ``udot0 != 0``.)
    """
    t = np.asarray(t, dtype=float)
    sigma, alpha, gamma = params.sigma(), params.alpha, params.gamma
    case = endemic_case(params)
    decay = np.exp(-t * (sigma + alpha) / 2.0)
    if case == "spiral":
        omega = math.sqrt(sigma * gamma - (sigma - alpha) ** 2 / 4.0)
        out = u0 * decay * np.cos(omega * t)
        if udot0:
            # General solution: the sine coefficient matches u'(0).
            coefficient = (udot0 + u0 * (sigma + alpha) / 2.0) / omega
            out = decay * (u0 * np.cos(omega * t) + coefficient * np.sin(omega * t))
        return out
    eig1, eig2 = params.eigenvalues()
    lam1, lam2 = eig1.real, eig2.real
    if case == "node":
        c1 = (udot0 - lam2 * u0) / (lam1 - lam2)
        c2 = (udot0 - lam1 * u0) / (lam2 - lam1)
        return c1 * np.exp(lam1 * t) + c2 * np.exp(lam2 * t)
    return u0 * decay  # degenerate


def endemic_settling_time(params: EndemicParams, ratio: float = 100.0) -> float:
    """Periods until the displacement envelope shrinks by ``ratio``.

    The envelope decays as ``exp(-t (sigma+alpha)/2)`` (spiral case) or
    with the slowest eigenvalue (node case), so settling is
    logarithmic in the required accuracy -- "the system converges
    exponentially quickly".
    """
    eig1, eig2 = params.eigenvalues()
    slowest = max(eig1.real, eig2.real)
    if slowest >= 0:
        return math.inf
    return math.log(ratio) / (-slowest)


# ----------------------------------------------------------------------
# LV: convergence complexity near (0, 1) / (1, 0)
# ----------------------------------------------------------------------
def lv_minority_fraction(
    t: np.ndarray, u0: float, rate: float = 3.0
) -> np.ndarray:
    """Minority-camp fraction near the stable point: ``u0 e^{-rate t}``."""
    return u0 * np.exp(-rate * np.asarray(t, dtype=float))


def lv_majority_fraction(
    t: np.ndarray, u0: float, v0: float, rate: float = 3.0
) -> np.ndarray:
    """Majority-camp fraction: ``1 - (2 rate u0 t + v0) e^{-rate t}``.

    The paper states this for ``rate = 3`` as
    ``y(t) = 1 - (6 u0 t + v0) e^{-3t}`` where ``v0`` is the initial
    majority deficit (``y(0) = 1 - v0``) and ``u0`` the minority
    fraction.  Derivation: linearizing ``y' = 3y(1-y-2x)`` at (0, 1)
    gives ``v' = -2 rate u - rate v`` with ``u = u0 e^{-rate t}``.
    """
    t = np.asarray(t, dtype=float)
    return 1.0 - (2.0 * rate * u0 * t + v0) * np.exp(-rate * t)


def lv_periods_to_minority(
    n: int, u0: float = 0.4, minority: float = 1.0, p: float = 0.01, rate: float = 3.0
) -> float:
    """Protocol periods until the minority camp reaches ``minority`` hosts.

    ``u0 e^{-rate t} n = minority`` gives ``t = ln(u0 n / minority)/rate``
    time units = that over ``p`` periods: O(log N) periods.
    """
    if u0 * n <= minority:
        return 0.0
    return math.log(u0 * n / minority) / (rate * p)


# ----------------------------------------------------------------------
# Empirical measurement
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ConvergenceMeasurement:
    """Result of an empirical convergence-time measurement."""

    period: Optional[int]
    value_at_convergence: Optional[float]

    @property
    def converged(self) -> bool:
        return self.period is not None


def first_period_below(
    times: np.ndarray, series: np.ndarray, threshold: float
) -> ConvergenceMeasurement:
    """First recorded period where a count series drops to ``threshold``.

    ``times`` are the recorded periods and ``series`` one trial's counts
    at them, e.g. ``recorder.times`` and ``recorder.counts(state)[m]``.
    """
    series = np.asarray(series)
    below = np.nonzero(series <= threshold)[0]
    if len(below) == 0:
        return ConvergenceMeasurement(period=None, value_at_convergence=None)
    index = int(below[0])
    return ConvergenceMeasurement(
        period=int(times[index]), value_at_convergence=float(series[index])
    )


def decay_rate_estimate(
    times: Sequence[float], values: Sequence[float]
) -> float:
    """Least-squares exponential decay rate of a positive series.

    Fits ``log(values) ~ a - rate * t`` and returns ``rate``; used to
    check simulated minority decay against the theoretical ``3p`` per
    period.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    mask = v > 0
    if mask.sum() < 2:
        raise ValueError("need at least two positive samples")
    slope, _ = np.polyfit(t[mask], np.log(v[mask]), 1)
    return float(-slope)
