"""CONV: convergence complexity closed forms (Sections 4.1.3, 4.2.2).

Two claims are regenerated:

* LV: near the stable point (0, 1) the fractions follow
  ``(x, y)(t) = (u0 e^{-3t}, 1 - (6 u0 t + v0) e^{-3t})``, giving
  O(log N) protocol periods to an O(1) minority.  Checked against the
  integrated nonlinear flow and against a finite-N simulation's decay
  rate.
* Endemic: the displacement u(t) decays exponentially with the
  Section 4.1.3 case-1 (damped oscillation) closed form.  Checked
  against the nonlinear flow near the Figure 2 equilibrium.
"""

import numpy as np
import pytest

from bench_util import format_table, report, scaled

from repro.analysis.convergence import (
    decay_rate_estimate,
    endemic_displacement,
    lv_majority_fraction,
    lv_minority_fraction,
    lv_periods_to_minority,
)
from repro.odes import integrate, library
from repro.protocols.endemic import EndemicParams
from repro.protocols.lv import LVMajority


def run_experiments():
    # LV closed form vs nonlinear ODE.
    lv = library.lv()
    u0, v0 = 0.02, 0.05
    trajectory = integrate(
        lv, {"x": u0, "y": 1 - v0, "z": v0 - u0}, t_end=3.0, samples=120
    )
    x_err = float(np.max(np.abs(
        trajectory.series("x") - lv_minority_fraction(trajectory.times, u0)
    )))
    y_err = float(np.max(np.abs(
        trajectory.series("y") - lv_majority_fraction(trajectory.times, u0, v0)
    )))

    # Simulated decay rate in the linear regime.
    n = scaled(30_000, minimum=4_000)
    outcome = LVMajority(
        n, zeros=int(0.65 * n), ones=n - int(0.65 * n), p=0.01, seed=170
    ).run(scaled(1_200, minimum=600), stop_on_convergence=False)
    minority = outcome.recorder.counts("y")[0].astype(float)
    times = outcome.recorder.times.astype(float)
    mask = (minority < 0.10 * n) & (minority > max(20.0, 1e-4 * n))
    sim_rate = decay_rate_estimate(times[mask], minority[mask])

    # Endemic case-1 closed form vs nonlinear flow.
    params = EndemicParams(alpha=0.01, gamma=1.0, b=2)
    system = params.system()
    eq = params.equilibrium()
    pert = 0.01
    start = {"x": eq["x"] * (1 + pert), "y": eq["y"], "z": eq["z"] - eq["x"] * pert}
    endemic_traj = integrate(system, start, t_end=80.0, samples=200)
    sim_u = endemic_traj.series("x") / eq["x"] - 1.0
    du0 = float(np.gradient(sim_u, endemic_traj.times)[0])
    theory_u = endemic_displacement(params, endemic_traj.times, u0=pert, udot0=du0)
    endemic_err = float(np.max(np.abs(theory_u - sim_u))) / pert

    return {
        "x_err": x_err, "y_err": y_err,
        "n": n, "sim_rate": sim_rate,
        "endemic_err": endemic_err,
    }


def test_convergence_complexity(run_once):
    results = run_once(run_experiments)

    scaling_rows = [
        (n, f"{lv_periods_to_minority(n, u0=0.35):.0f}")
        for n in (10**3, 10**4, 10**5, 10**6)
    ]
    report("convergence_complexity", "\n".join([
        "LV closed form vs nonlinear ODE (u0=0.02, v0=0.05, t<=3):",
        format_table(
            ["series", "max abs deviation"],
            [("x(t) = u0 e^-3t", f"{results['x_err']:.4f}"),
             ("y(t) = 1-(6 u0 t+v0) e^-3t", f"{results['y_err']:.4f}")],
        ),
        "",
        f"simulated minority decay rate (N={results['n']}, linear regime): "
        f"{results['sim_rate']:.4f} per period  (theory 3p = 0.0300)",
        "",
        "O(log N) periods to O(1) minority (theory):",
        format_table(["N", "periods"], scaling_rows),
        "",
        "endemic case-1 damped oscillation vs nonlinear flow: "
        f"max deviation {100 * results['endemic_err']:.1f}% of u0",
    ]))

    assert results["x_err"] < 0.01
    assert results["y_err"] < 0.01
    assert results["sim_rate"] == pytest.approx(0.03, rel=0.35)
    assert results["endemic_err"] < 0.25
    # O(log N): constant additive cost per decade.
    periods = [lv_periods_to_minority(10**k, u0=0.35) for k in (3, 4, 5, 6)]
    gaps = np.diff(periods)
    assert np.allclose(gaps, gaps[0], rtol=1e-6)