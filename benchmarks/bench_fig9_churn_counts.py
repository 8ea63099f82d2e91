"""FIG9: endemic replication under host churn (state counts, batched).

Paper: Figure 9 -- N = 2000, b = 32, gamma = 0.1, alpha = 0.005,
6-minute periods, availability traces injected hourly (Overnet-style;
hourly churn 10-25% of the system).  The stasher, averse and receptive
counts remain stable, and the stasher count stays low.

Our traces are synthetic but calibrated to the statistics the paper
cites (see repro.runtime.churn).  The experiment runs as a 6-trial
batched ensemble with an independent trace per trial: plots show the
ensemble means, and the paper's *stability* claims are asserted per
trial (stability of the mean would be a weaker statement).
"""

import numpy as np
import pytest

from bench_util import format_table, report
from endemic_runs import churn_run

from repro.viz.ascii_plot import render_series


def test_fig9_churn_counts(run_once):
    data = run_once(churn_run)
    recorder, traces, params, n = (
        data["recorder"], data["traces"], data["params"], data["n"],
    )
    hours, trials = data["hours"], data["trials"]

    times = recorder.times / 10.0  # periods -> hours
    mean_series = {
        "Stash:Alive": recorder.mean_counts("y"),
        "Rcptv:Alive": recorder.mean_counts("x"),
        "Avers:Alive": recorder.mean_counts("z"),
    }
    # Observation window: the last ~20 hours (paper plots 150-170h).
    window = times >= (hours - 20)

    churn_rates = np.concatenate([t.hourly_churn_rates() for t in traces])
    stash_trials = recorder.counts("y")[:, window]  # (M, window periods)
    # Per-trial stability: coefficient of variation of each trial's
    # stasher series over the window.
    stash_cvs = stash_trials.std(axis=1) / stash_trials.mean(axis=1)

    rows = [
        (name, f"{np.mean(values[window]):.1f}",
         f"{np.min(values[window]):.0f}", f"{np.max(values[window]):.0f}")
        for name, values in mean_series.items()
    ]
    plot = render_series(
        times[window],
        {k: v[window] for k, v in mean_series.items()},
        width=70, height=18,
        title="Figure 9: endemic under churn (ensemble-mean counts vs hours)",
    )
    alive_mean = float(np.mean(recorder.mean_alive()[window]))
    rejoins = float(np.mean([t.rejoins_per_day() for t in traces]))
    availability = float(np.mean([t.mean_availability() for t in traces]))
    report("fig9_churn_counts", "\n".join([
        f"N={n}, trials={trials}, b=32, gamma=0.1, alpha=0.005, "
        f"6-minute periods",
        f"traces: hourly churn mean {np.mean(churn_rates):.1%} "
        f"(paper band 10-25%), rejoins/day {rejoins:.1f} "
        f"(Overnet: 6.4), availability {availability:.1%}",
        f"alive mean over window: {alive_mean:.0f}",
        f"per-trial stasher coefficient of variation over window: "
        f"{np.array2string(stash_cvs, precision=2)}",
        "note: under churn the stash level sits above the closed-system "
        f"equilibrium ({params.equilibrium_counts(n)['y']:.0f}) because "
        "every rejoining host is receptive and b=32 converts receptives "
        "within ~1 period; the paper's claims are about *stability*.",
        "note: the batch tier replays each trace by counts (its sessions "
        "are exponential, so the hosts that leave are a uniform subset of "
        "those up); these numbers moved, in law only, from the host-level "
        "replay that placed hosts first.",
        "",
        format_table(["series (ensemble mean)", "window mean", "min", "max"],
                     rows),
        "",
        plot,
    ]))

    # Trace statistics in the paper's band.
    assert 0.08 <= float(np.mean(churn_rates)) <= 0.27
    # Stability, per trial: stashers never die out and fluctuate
    # moderately in every ensemble member.
    assert np.min(stash_trials) > 0
    assert np.all(stash_cvs < 0.35)
    # "The number of stashers stays low": well under half of the alive
    # population (most hosts are averse or offline at any moment).
    assert np.mean(stash_trials) < 0.5 * alive_mean