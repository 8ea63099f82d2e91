"""FIG2: phase portrait of the endemic protocol (stable spiral).

Paper: Figure 2 -- N=1000, alpha=0.01, beta=4 (b=2), gamma=1.0, seven
initial points; all trajectories spiral into the non-trivial
equilibrium (X, Y) ~= (250, 7.4), classified as a stable spiral.

Reproduced here twice: the mean-field ODE portrait (the paper's
analysis object) and a simulated 1000-process overlay (endpoints only),
plus the trace/determinant classification of Theorem 3.
"""

import numpy as np
import pytest

from bench_util import format_table, report, scaled

from repro.analysis.stability import endemic_stability
from repro.odes.phase import FIGURE2_STARTS, phase_portrait
from repro.protocols.endemic import EndemicParams, figure1_protocol
from repro.runtime import RoundEngine
from repro.viz.ascii_plot import render

N = 1000
PARAMS = EndemicParams(alpha=0.01, gamma=1.0, b=2)


def run_portrait():
    system = PARAMS.system()
    portrait = phase_portrait(
        system, FIGURE2_STARTS, t_end=400.0, scale=N, normalize_counts=True,
    )
    # Simulated overlay.  Note the finite-N caveat: with gamma = 1.0
    # the equilibrium stash population is only ~7.4 processes and every
    # period is a full stash generation, so the per-period extinction
    # chance is ~(1/2)^7.4 and a 1000-process run eventually absorbs at
    # the trivial (all-receptive) equilibrium.  Short horizons show the
    # spiral; we report both the 60-period transient and the endpoint.
    simulated_ends = []
    transient_errors = []
    spec = figure1_protocol(PARAMS)
    horizon = scaled(400, minimum=100)
    for index, start in enumerate(FIGURE2_STARTS):
        engine = RoundEngine(spec, n=N, initial=dict(start), seed=20 + index)
        trajectory = portrait.trajectories[index]
        errors = []
        for period in range(scaled(60, minimum=20)):
            engine.step()
            if period < trajectory.times[-1]:
                ode = trajectory.at(float(period + 1))
                errors.append(abs(engine.counts()["x"] - ode["x"] * N))
        transient_errors.append(float(np.mean(errors)))
        engine.run(horizon)
        simulated_ends.append(engine.counts())
    return portrait, simulated_ends, transient_errors


def test_fig2_endemic_phase_portrait(run_once):
    portrait, simulated_ends, transient_errors = run_once(run_portrait)

    verdict = endemic_stability(PARAMS.alpha, PARAMS.gamma, PARAMS.beta)
    equilibrium = PARAMS.equilibrium_counts(N)

    rows = []
    for start, end, sim, err in zip(
        portrait.start_points(), portrait.endpoints(), simulated_ends,
        transient_errors,
    ):
        rows.append((
            f"({start['x']:.0f},{start['y']:.0f},{start['z']:.0f})",
            f"({end['x']:.1f},{end['y']:.1f},{end['z']:.1f})",
            f"({sim['x']},{sim['y']},{sim['z']})",
            f"{err:.1f}",
        ))
    table = format_table(
        ["start (X,Y,Z)", "ODE endpoint", "simulated endpoint",
         "sim-vs-ODE |dX| (60 periods)"],
        rows,
    )

    curves = {
        f"start{i}": (xs, ys)
        for i, (xs, ys) in enumerate(portrait.projected("x", "y"))
    }
    plot = render(
        curves, width=70, height=22,
        title="Figure 2: endemic phase portrait (Num. X vs Num. Y)",
        x_range=(0, 1000), y_range=(0, 1000),
    )

    text = "\n".join([
        f"parameters: N={N}, alpha={PARAMS.alpha}, beta={PARAMS.beta}, "
        f"gamma={PARAMS.gamma}",
        f"classification (paper: stable spiral): {verdict.classification}",
        f"equilibrium (paper: x=250): "
        f"x={equilibrium['x']:.1f}, y={equilibrium['y']:.2f}, "
        f"z={equilibrium['z']:.1f}",
        "",
        table,
        "",
        plot,
    ])
    report("fig2_endemic_phase_portrait", text)

    # Shape assertions: a stable spiral, reached from every start.
    assert verdict.classification == "stable spiral"
    for end in portrait.endpoints():
        assert end["x"] == pytest.approx(equilibrium["x"], rel=0.02)
        assert end["y"] == pytest.approx(equilibrium["y"], rel=0.05, abs=0.5)
    # The simulated transient follows the ODE spiral (mean |dX| within
    # ~3x the finite-N noise scale sqrt(N)).
    assert float(np.median(transient_errors)) < 3.5 * np.sqrt(N)
    # Endpoints: either still orbiting the non-trivial equilibrium or
    # absorbed at the trivial one (y_inf ~ 7.4 with gamma = 1 makes
    # finite-N extinction likely -- see the report header).
    for sim in simulated_ends:
        extinct = sim["y"] == 0  # absorbed; x drains toward N at rate alpha
        near_equilibrium = (
            sim["x"] == pytest.approx(equilibrium["x"], rel=0.5)
            and sim["y"] <= 60
        )
        assert extinct or near_equilibrium
