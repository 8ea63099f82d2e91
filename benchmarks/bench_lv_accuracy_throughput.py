"""PERF: batched LV majority accuracy vs the serial trial loop.

Not a paper figure -- this is the acceptance benchmark for porting the
LV accuracy family (the fig7/fig8-style ensemble measurements) onto
the batch engine.  The LV regime is the batch engine's historical
worst case: every action is a sub-1.0-probability coin on a *dense*
state (each camp holds a constant fraction of N), which used to drop
the engine to per-trial draws.  The segmented without-replacement
sampler removes that fallback; this bench holds the receipt.

Measured task: ``majority_accuracy`` -- M independent majority
selections at a 60/40 split, run to convergence, accuracy over decided
trials -- two ways:

* **serial** -- ``majority_accuracy_serial``: the pre-batch-engine
  idiom, a Python loop over M seeded ``LVMajority`` instances;
* **batch** -- ``LVEnsemble``: the vectorized path.

The acceptance bar (ISSUE 4, raised from ISSUE 2's 3x): batch >= 8x
over the serial loop at paper scale, with both paths agreeing on the
accuracy estimate.
"""

import time

import numpy as np
import pytest

from bench_util import acceptance_speedup, format_table, report, scaled

from repro.protocols.lv import (
    LVEnsemble,
    expected_convergence_periods,
    majority_accuracy_serial,
)

TRIALS = 64
SPLIT = 0.6


def run_comparison():
    n = scaled(10_000, minimum=1_000)
    zeros = int(SPLIT * n)
    # Horizon: comfortably past the mean-field convergence estimate so
    # every trial decides (accuracy denominators match across engines).
    max_periods = 4 * int(expected_convergence_periods(n))
    seed = 500

    timings = {}
    accuracies = {}
    started = time.perf_counter()
    accuracies["serial"] = majority_accuracy_serial(
        n, zeros, TRIALS, max_periods=max_periods, seed=seed
    )
    timings["serial"] = time.perf_counter() - started
    started = time.perf_counter()
    outcome = LVEnsemble(
        n, zeros, n - zeros, trials=TRIALS, seed=seed
    ).run(max_periods)
    timings["batch"] = time.perf_counter() - started
    accuracies["batch"] = outcome.accuracy()
    return n, max_periods, timings, accuracies


def test_lv_accuracy_throughput(run_once):
    n, max_periods, timings, accuracies = run_once(run_comparison)
    speedup = {
        mode: timings["serial"] / timings[mode]
        for mode in ("serial", "batch")
    }
    rows = [
        (mode, f"{timings[mode]:.3f}", f"{accuracies[mode]:.3f}",
         f"{speedup[mode]:.2f}x")
        for mode in ("serial", "batch")
    ]
    report("lv_accuracy_throughput", "\n".join([
        f"M={TRIALS} majority selections, N={n}, {int(SPLIT * 100)}/"
        f"{int(100 - SPLIT * 100)} split, horizon {max_periods} periods, "
        "run to convergence",
        "",
        format_table(
            ["engine", "wall clock (s)", "accuracy", "speedup vs serial"],
            rows,
        ),
        "",
        "batch is distributionally equivalent to the serial loop "
        "(tests/test_lv.py::TestEnsemble).",
    ]))

    # Correctness alongside the timing: at a 60/40 split every decided
    # trial picks the majority, in every engine.
    assert accuracies["serial"] == 1.0
    assert accuracies["batch"] == 1.0
    # The acceptance bar (ISSUE 4): the batched accuracy ensemble is
    # at least 8x faster than the serial LV accuracy loop at paper
    # scale (the multinomial planner's fused selection + analytic
    # condition thinning); reduced-scale smoke runs only require batch
    # to beat serial.
    assert speedup["batch"] >= acceptance_speedup(8.0), speedup
