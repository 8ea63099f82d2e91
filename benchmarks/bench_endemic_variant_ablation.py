"""ABLATE-4: the Figure 1 endemic variant vs the pure Section 3 mapping.

The errata notes the Figure 1 protocol is "a variant of that obtained
through the methodology": instead of pure One-Time-Sampling with a
normalizing constant, receptives pull from b targets (any stasher
infects) and stashers push to b targets (action (iv)), with b = beta/2.
Both model the same equations.  This ablation measures what the
variant buys:

* **speed** -- the pure mapping must scale all coins by p = 1/beta,
  slowing every flow by 1/p in protocol periods; during the exponential
  ramp-up from a single stasher the measured gap is the ratio of the
  growth-rate logarithms (here ~2x), and the slow alpha/gamma recovery
  flows are a full 1/p = 4x slower;
* **robustness of the operating point** -- both settle at the same
  equilibrium (the variant's mean field matches to first order);
* **traffic profile** -- the variant spends messages on push+pull
  fan-out; the pure mapping samples once per receptive per period.
"""

import numpy as np
import pytest

from bench_util import format_table, report, scaled

from repro.protocols.endemic import (
    RECEPTIVE,
    STASH,
    EndemicParams,
    figure1_protocol,
    pure_protocol,
)
from repro.runtime import BatchMetricsRecorder, RoundEngine

PARAMS = EndemicParams(alpha=0.01, gamma=0.1, b=2)


def run_comparison():
    n = scaled(4_000, minimum=1_000)
    expected = PARAMS.equilibrium_counts(n)
    out = {}
    for label, spec in (
        ("figure-1 variant", figure1_protocol(PARAMS)),
        ("pure S3 mapping", pure_protocol(PARAMS)),
    ):
        # Convergence: single seed stasher to half the equilibrium stash.
        engine = RoundEngine(
            spec, n=n,
            initial={RECEPTIVE: n - 1, STASH: 1, "z": 0}, seed=250,
        )
        recorder = BatchMetricsRecorder(spec.states, 1)
        horizon = scaled(20_000 if "pure" in label else 2_000, minimum=800)
        engine.run(horizon, recorder=recorder)
        series = recorder.counts(STASH)[0]
        target = expected[STASH] / 2
        reached = np.nonzero(series >= target)[0]
        rampup = int(recorder.times[reached[0]]) if len(reached) else None

        # Operating point over the tail.
        tail = BatchMetricsRecorder(spec.states, 1)
        engine.run(scaled(1_000, minimum=400), recorder=tail,
                   record_initial=False)
        stash_mean = float(np.mean(tail.counts(STASH)[0]))

        # Messages per period at equilibrium.
        sent_before = engine.total_messages
        engine.run(100)
        msgs_per_period = (engine.total_messages - sent_before) / 100.0

        out[label] = {
            "rampup": rampup,
            "stash_mean": stash_mean,
            "msgs": msgs_per_period,
            "time_scale": spec.time_scale,
        }
    return n, expected, out


def test_endemic_variant_ablation(run_once):
    n, expected, out = run_once(run_comparison)

    rows = [
        (label,
         f"{data['time_scale']:g}",
         data["rampup"],
         f"{data['stash_mean']:.1f}",
         f"{data['msgs']:.0f}")
        for label, data in out.items()
    ]
    report("endemic_variant_ablation", "\n".join([
        f"N={n}, alpha={PARAMS.alpha}, gamma={PARAMS.gamma}, b={PARAMS.b} "
        f"(beta={PARAMS.beta}); analytic stash equilibrium "
        f"{expected[STASH]:.1f}",
        "",
        format_table(
            ["protocol", "p (time units/period)",
             "periods to half-equilibrium stash", "stash mean",
             "group msgs/period"],
            rows,
        ),
        "",
        "shape: same operating point; the Figure 1 variant ramps up "
        "faster in protocol periods because the pure mapping scales "
        "every coin by p = 1/beta",
    ]))

    variant = out["figure-1 variant"]
    pure = out["pure S3 mapping"]
    # Same operating point (first-order mean-field agreement).
    assert variant["stash_mean"] == pytest.approx(expected[STASH], rel=0.25)
    assert pure["stash_mean"] == pytest.approx(expected[STASH], rel=0.25)
    # The variant ramps up faster in protocol periods.
    assert variant["rampup"] is not None and pure["rampup"] is not None
    assert variant["rampup"] < pure["rampup"]
    # The pure mapping's period is p = 1/beta time units.
    assert pure["time_scale"] == pytest.approx(1.0 / PARAMS.beta)