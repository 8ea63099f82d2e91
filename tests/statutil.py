"""Statistical assertion helpers for stochastic simulation tests.

Tolerance policy
----------------
Tests that assert on raw stochastic counts must not use hand-tuned
absolute or relative windows: a window tight enough to catch bugs is
also tight enough to false-fail on an unlucky seed, and a window loose
enough to never false-fail catches nothing.  Instead, model the count
under the null hypothesis "the simulator is correct" and assert a
z-score bound:

* For a count that is Binomial(n, p) under the null, assert
  ``|observed - n*p| <= z * sqrt(n*p*(1-p))``.
* For an ensemble mean of M iid trial measurements, assert
  ``|mean - expected| <= z * sample_std / sqrt(M)``.
* The default bound ``z`` is chosen so a single assertion false-fails
  with probability ``FAMILY_ALPHA`` (two-sided normal tail); when one
  test makes ``comparisons`` such assertions, the bound is widened by a
  Bonferroni correction so the *family-wise* false-failure rate stays
  at ``FAMILY_ALPHA``.

With ``FAMILY_ALPHA = 1e-6`` the bound is about 4.9 sigma per
assertion: any real rate bug of a few percent at the sample sizes used
in this suite sits tens of sigmas out and still fails instantly, while
seed churn (the suite runs on fixed seeds, but they change whenever
draw order changes) essentially never does.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

#: Target two-sided false-failure probability per assertion family.
FAMILY_ALPHA = 1e-6


def z_bound(comparisons: int = 1, alpha: float = FAMILY_ALPHA) -> float:
    """The |z| bound for a family of ``comparisons`` two-sided tests."""
    if comparisons < 1:
        raise ValueError(f"comparisons must be >= 1, got {comparisons}")
    # Inverse of the two-sided normal tail via erfc: P(|Z| > z) = erfc(z/sqrt(2)).
    from scipy.special import erfcinv

    return float(math.sqrt(2.0) * erfcinv(alpha / comparisons))


def binomial_z(observed: float, n: int, p: float) -> float:
    """z-score of an observed count under a Binomial(n, p) null."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    sigma = math.sqrt(n * p * (1.0 - p))
    if sigma == 0.0:
        return 0.0 if observed == n * p else math.inf
    return (observed - n * p) / sigma


def assert_binomial_count(
    observed: float,
    n: int,
    p: float,
    comparisons: int = 1,
    context: str = "",
) -> None:
    """Assert an observed count is consistent with Binomial(n, p)."""
    z = binomial_z(observed, n, p)
    bound = z_bound(comparisons)
    assert abs(z) <= bound, (
        f"{context or 'count'}: observed {observed} vs Binomial({n}, {p}) "
        f"mean {n * p:.1f}: z = {z:.2f} exceeds +/-{bound:.2f} "
        f"(Bonferroni over {comparisons} comparisons)"
    )


def assert_binomial_cells(
    observed: Sequence[float],
    n: int,
    p: Sequence[float],
    context: str = "",
) -> None:
    """Assert each of several counts is Binomial(n, p_i), jointly.

    One Bonferroni family: the bound widens with the number of cells so
    the whole vector false-fails with probability ``FAMILY_ALPHA``.
    """
    observed = np.asarray(observed, dtype=float)
    p = np.asarray(p, dtype=float)
    if observed.shape != p.shape:
        raise ValueError(f"shape mismatch: {observed.shape} vs {p.shape}")
    for i, (obs, prob) in enumerate(zip(observed, p)):
        assert_binomial_count(
            obs, n, float(prob), comparisons=observed.size,
            context=f"{context or 'cells'}[{i}]",
        )


def assert_mean_close(
    samples: Sequence[float],
    expected: float,
    comparisons: int = 1,
    context: str = "",
) -> None:
    """Assert an ensemble mean of iid trials matches an expected value.

    Uses the sample standard deviation (the trials estimate their own
    noise), so this is a plain z-test on the standard error; with small
    M the bound is slightly anti-conservative, so keep M >= ~8.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size < 2:
        raise ValueError("need at least two samples for a mean test")
    mean = float(samples.mean())
    stderr = float(samples.std(ddof=1)) / math.sqrt(samples.size)
    bound = z_bound(comparisons)
    if stderr == 0.0:
        assert mean == expected, (
            f"{context or 'mean'}: degenerate samples all {mean}, "
            f"expected {expected}"
        )
        return
    z = (mean - expected) / stderr
    assert abs(z) <= bound, (
        f"{context or 'mean'}: ensemble mean {mean:.3f} of {samples.size} "
        f"trials vs expected {expected:.3f}: z = {z:.2f} exceeds "
        f"+/-{bound:.2f}"
    )


def assert_binomial_law(
    observed: Sequence[float],
    n: Sequence[int],
    p: Sequence[float],
    context: str = "",
) -> None:
    """Assert independent counts follow ``Binomial(n_i, p_i)``: mean and variance.

    Two z-tests, one Bonferroni family.  The pooled sum is tested
    against the summed means with the summed variances (the cells need
    not share ``n`` or ``p``), and the dispersion ``sum(z_i^2)`` against
    its null mean ``K`` with the exact binomial fourth moment, so a
    sampler with the right mean but the wrong spread (a deterministic
    rounding, a doubled draw) fails too.  Cells whose law is a point
    mass (``p`` of 0 or 1, ``n`` of 0) must hit it exactly.  Keep K in
    the hundreds: both statistics are treated as normal.
    """
    observed = np.asarray(observed, dtype=float).ravel()
    n = np.broadcast_to(np.asarray(n, dtype=float), observed.shape).ravel()
    p = np.broadcast_to(np.asarray(p, dtype=float), observed.shape).ravel()
    variance = n * p * (1.0 - p)
    certain = variance <= 0.0
    assert np.array_equal(observed[certain], (n * p)[certain]), (
        f"{context or 'counts'}: a cell whose law is a point mass missed it"
    )
    observed, n, p, variance = (
        a[~certain] for a in (observed, n, p, variance)
    )
    if observed.size == 0:
        raise ValueError("no cell has a non-degenerate binomial law")
    bound = z_bound(2)
    z_mean = float((observed - n * p).sum() / math.sqrt(variance.sum()))
    assert abs(z_mean) <= bound, (
        f"{context or 'counts'}: pooled sum {observed.sum():.0f} vs "
        f"expected {(n * p).sum():.1f}: z = {z_mean:.2f} exceeds "
        f"+/-{bound:.2f}"
    )
    squares = (observed - n * p) ** 2 / variance
    # Var(z^2) = kurtosis - 1, with the binomial's exact kurtosis.
    spread = 2.0 + (1.0 - 6.0 * p * (1.0 - p)) / variance
    z_var = float((squares.sum() - squares.size) / math.sqrt(spread.sum()))
    assert abs(z_var) <= bound, (
        f"{context or 'counts'}: dispersion {squares.mean():.3f} x the "
        f"binomial variance over {squares.size} cells: z = {z_var:.2f} "
        f"exceeds +/-{bound:.2f}"
    )


def assert_means_agree(
    first: Sequence[float],
    second: Sequence[float],
    comparisons: int = 1,
    context: str = "",
) -> None:
    """Assert two independent ensembles share a mean (Welch z-test)."""
    first = np.asarray(first, dtype=float)
    second = np.asarray(second, dtype=float)
    if first.size < 2 or second.size < 2:
        raise ValueError("need at least two samples per ensemble")
    difference = float(first.mean() - second.mean())
    stderr = math.sqrt(
        first.var(ddof=1) / first.size + second.var(ddof=1) / second.size
    )
    bound = z_bound(comparisons)
    if stderr == 0.0:
        assert difference == 0.0, (
            f"{context or 'means'}: degenerate ensembles differ by "
            f"{difference}"
        )
        return
    z = difference / stderr
    assert abs(z) <= bound, (
        f"{context or 'means'}: ensemble means {first.mean():.3f} vs "
        f"{second.mean():.3f}: z = {z:.2f} exceeds +/-{bound:.2f}"
    )
