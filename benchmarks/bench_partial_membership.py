"""ABLATE-1: partial membership views (the paper's footnote 1).

The system model gives each process the full membership, with a
footnote that "well-known results can be used to reduce this size to
logarithmic in group size".  This ablation runs the same protocols
with O(log N) random-regular overlay views instead of full membership
(using the asynchronous agent engine, which supports pluggable
membership) and shows the dynamics are essentially unchanged --
epidemic spread time and the endemic operating point both survive the
restriction.
"""

import numpy as np
import pytest

from bench_util import format_table, report, scaled

from repro.odes import library
from repro.protocols.endemic import EndemicParams, figure1_protocol
from repro.runtime import AgentSimulation, PartialMembership
from repro.runtime.overlay import log_degree, overlay_stats, random_regular_overlay
from repro.runtime.rng import make_generator
from repro.synthesis import synthesize


def run_ablation():
    n = scaled(600, minimum=200)
    spread = {}
    for label, membership in (
        ("full", None),
        ("log-degree overlay", PartialMembership(
            random_regular_overlay(n, seed=210), make_generator(211))),
    ):
        sim = AgentSimulation(
            synthesize(library.epidemic()), n=n,
            initial={"x": n - 1, "y": 1}, seed=212, membership=membership,
        )
        recorder = sim.run(scaled(60, minimum=40))
        series = recorder.counts("x")[0]
        below = np.nonzero(series <= 1)[0]
        spread[label] = (
            int(recorder.times[below[0]]) if len(below) else None
        )

    params = EndemicParams(alpha=0.05, gamma=0.2, b=2)
    stash = {}
    for label, membership in (
        ("full", None),
        ("log-degree overlay", PartialMembership(
            random_regular_overlay(n, seed=213), make_generator(214))),
    ):
        sim = AgentSimulation(
            figure1_protocol(params), n=n,
            initial=params.equilibrium_counts(n), seed=215,
            membership=membership,
        )
        recorder = sim.run(scaled(150, minimum=80))
        stash[label] = float(recorder.window("y", start_period=50).mean)

    stats = overlay_stats(random_regular_overlay(n, seed=210))
    return n, spread, stash, stats, params


def test_partial_membership(run_once):
    n, spread, stash, stats, params = run_once(run_ablation)

    expected_stash = params.equilibrium_counts(n)["y"]
    report("partial_membership", "\n".join([
        f"N={n}; overlay: random-regular, degree {stats['mean_degree']:.0f} "
        f"(= ~2 log2 N), connected={stats['connected']}",
        "",
        format_table(
            ["experiment", "full membership", "log-degree overlay"],
            [
                ("epidemic rounds to <=1 susceptible",
                 spread["full"], spread["log-degree overlay"]),
                ("endemic stash mean (analytic "
                 f"{expected_stash:.0f})",
                 f"{stash['full']:.1f}",
                 f"{stash['log-degree overlay']:.1f}"),
            ],
        ),
        "",
        "footnote 1: logarithmic views preserve the protocol dynamics",
    ]))

    assert spread["full"] is not None
    assert spread["log-degree overlay"] is not None
    # Spread time within a ~2x band of the full-membership run.
    assert spread["log-degree overlay"] <= 2 * spread["full"] + 5
    # Endemic operating point unchanged within noise.
    assert stash["log-degree overlay"] == pytest.approx(
        stash["full"], rel=0.30
    )