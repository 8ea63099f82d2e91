"""FIG7: accuracy of the continuous-time analysis at finite N.

Paper: Figure 7 -- b = 2, gamma = 0.1, alpha = 0.001; group sizes
12,500 / 25,000 / 50,000 / 100,000.  For each size, the median (and
min/max) of the receptive and stasher counts over a 2000-period window
is compared against the closed-form equilibrium (2): the two "tally
very closely".

Each size is one M-trial :class:`~repro.experiment.Experiment` on the
batch engine, started at the closed-form equilibrium and graded by
:meth:`~repro.experiment.ExperimentResult.equilibrium_check` over the
last window of recorded periods: the window statistics pool all
trials' observation windows, so the medians carry M times the paper's
sample count at a fraction of the serial wall clock.
"""

import pytest

from bench_util import format_table, report, scaled

from repro.experiment import Experiment, Protocol
from repro.protocols.endemic import EndemicParams, figure1_protocol

SIZES = (12_500, 25_000, 50_000, 100_000)
PARAMS = EndemicParams(alpha=0.001, gamma=0.1, b=2)
#: Ensemble width per size.  16 batched trials stabilize the pooled
#: median (the serial bench's single 2000-period window put ~0.5% of
#: luck on every cell) and still run far faster than the old serial
#: per-size loop.
TRIALS = 16

#: Below this analytic equilibrium count the 10%-median-error check is
#: noise, not signal: the count process's relative fluctuation scales
#: like 1/sqrt(count), so tiny sub-scale groups (REPRO_BENCH_SCALE <
#: ~0.1 puts the stasher population under a few dozen) cannot resolve
#: the paper's "tally very closely" claim either way.
MIN_ANALYTIC_COUNT = 50.0


def run_cells():
    spec = figure1_protocol(PARAMS)
    warmup = scaled(1_500, minimum=300)
    window = scaled(2_000, minimum=400)
    measurements = {}
    for size in SIZES:
        n = scaled(size, minimum=1_000)
        counts = PARAMS.equilibrium_counts(n)
        result = Experiment(
            Protocol.from_spec(spec, counts), n, trials=TRIALS,
            periods=warmup + window, seed=70 + size % 97, engine="batch",
            record_transitions=False,
        ).run()
        check = result.equilibrium_check(counts, window_periods=window)
        measurements[size] = (n, {row.state: row for row in check.rows})
    return measurements


def test_fig7_analysis_accuracy(run_once):
    measurements = run_once(run_cells)

    # Evaluate the paper-shape checks *before* writing the artifact so a
    # failing run is recorded as FAIL instead of masquerading as a
    # reproduction.  Shape: every cell's median within 10% of the
    # analysis, the analytic value inside the observed [min, max] band,
    # and accuracy not degrading with N (mean-field gets better).
    failures = []
    fragile = []
    for size, (_, cells) in measurements.items():
        for state in ("x", "y"):
            cell = cells[state]
            if cell.analytic < MIN_ANALYTIC_COUNT:
                fragile.append(
                    f"N={size} {state}: analytic count {cell.analytic:.1f} "
                    f"< {MIN_ANALYTIC_COUNT:g}"
                )
                continue
            if cell.relative_error >= 0.10:
                failures.append(
                    f"N={size} {state}: median error "
                    f"{100 * cell.relative_error:.1f}% >= 10%"
                )
            if not cell.stats.minimum <= cell.analytic <= cell.stats.maximum:
                failures.append(
                    f"N={size} {state}: analysis {cell.analytic:.1f} outside "
                    f"[{cell.stats.minimum:.0f}, {cell.stats.maximum:.0f}]"
                )
    if not fragile:
        errors = [
            (cells["y"].relative_error + cells["x"].relative_error) / 2
            for _, cells in measurements.values()
        ]
        if errors[-1] > errors[0] + 0.05:
            failures.append(
                f"accuracy degrades with N: {errors[0]:.3f} -> {errors[-1]:.3f}"
            )

    rows = []
    for size, (n_actual, cells) in measurements.items():
        for state, label in (("x", "#Rcptvs"), ("y", "#Stshrs")):
            cell = cells[state]
            rows.append((
                size, n_actual, label, f"{cell.analytic:.1f}",
                f"{cell.stats.median:.0f}",
                f"{cell.stats.minimum:.0f}", f"{cell.stats.maximum:.0f}",
                f"{100 * cell.relative_error:.2f}%",
            ))
    table = format_table(
        ["N (paper)", "n (run)", "series", "analysis", "measured median",
         "min", "max", "median error"],
        rows,
    )
    if failures:
        status = "FAIL: " + "; ".join(failures)
    elif fragile:
        status = "SKIPPED (sub-scale, counts too small): " + "; ".join(fragile)
    else:
        status = "PASS"
    report("fig7_analysis_accuracy", "\n".join([
        "parameters: b=2, gamma=0.1, alpha=0.001 "
        f"(2000-period observation window, M={TRIALS}-trial batched "
        "ensemble per size, pooled window stats)",
        "paper shape: measured medians tally closely with the analysis "
        "at every N",
        "analysis column uses the actual group size n of this run",
        "note: the receptive count's stationary median sits ~2% above "
        "the closed form at these sizes: the synchronous round's "
        "collision term (a receptive host is infected with probability "
        "1 - (1-y)^2 e^-2y, not 4y) moves the receptive fixed point up "
        "by 1.70% at every N, and the excess over that falls like 1/N "
        "(single-window runs scatter ~1.4-2.1% around it); the stasher "
        "cells agree to <1%",
        f"status: {status}",
        "",
        table,
    ]))

    assert not failures, failures
    if fragile:
        pytest.skip(
            "fig7 shape assertions need analytic counts >= "
            f"{MIN_ANALYTIC_COUNT:g}; raise REPRO_BENCH_SCALE"
        )
