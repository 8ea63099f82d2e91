"""FIG8: replica untraceability and load balancing.

Paper: Figure 8 -- N = 1000, b = 2, gamma = 0.1; scatter of stasher
host ids at the end of every period over [1000, 1200].  Claims: no
significant horizontal lines (load balancing), no correlation with
time or host id (untraceability), stable stasher count 88.63, one new
stasher every 40.6 seconds.

Parameter note: the figure caption prints alpha=0.001,
but the stated 88.63 stashers and 40.6-second birth interval are
consistent only with alpha=0.01, which we therefore use.

Runs on the serial tier: a member log asks *which* hosts hold a
replica, and only ``RoundEngine`` trials have hosts (the batch tier
keeps counts).  The paper shows one representative run, but every
claim here is statistical, so M seeded trials each log their stashers
and the assertions hold ensemble means (stasher count, attacker decay)
and per-trial bounds (stint lengths, uniformity) instead of a single
run's luck.
"""

import numpy as np
import pytest

from bench_util import format_table, report, scaled

from repro.analysis.fairness import analyze_member_log, attack_window_decay
from repro.protocols.endemic import STASH, EndemicParams, figure1_protocol, stasher_birth_rate
from repro.runtime import BatchMetricsRecorder, RoundEngine, spawn_seeds
from repro.viz.ascii_plot import render_scatter

N = 1000
TRIALS = 8
PARAMS = EndemicParams(alpha=0.01, gamma=0.1, b=2)
LAGS = (1, 5, 10, 20, 50)


def run_experiment():
    spec = figure1_protocol(PARAMS)
    warmup = scaled(1000, minimum=200)
    window = scaled(200, minimum=100)
    recorders = []
    for seed in spawn_seeds(80, TRIALS):
        engine = RoundEngine(
            spec, n=N, initial=PARAMS.equilibrium_counts(N), seed=seed
        )
        engine.run(warmup)
        recorder = BatchMetricsRecorder(spec.states, 1, member_log_state=STASH)
        engine.run(window, recorder=recorder, record_initial=False)
        recorders.append(recorder)
    return BatchMetricsRecorder.merge(recorders)


def test_fig8_untraceability(run_once):
    recorder = run_once(run_experiment)

    fairness = [
        analyze_member_log(
            recorder.trial_member_log(m), N, gamma=PARAMS.gamma
        )
        for m in range(TRIALS)
    ]
    decay = [
        attack_window_decay(recorder.trial_member_log(m), lags=LAGS)
        for m in range(TRIALS)
    ]
    mean_decay = {
        lag: float(np.mean([d[lag] for d in decay if lag in d]))
        for lag in LAGS
    }
    stash_mean = float(recorder.counts(STASH).mean())
    births = stasher_birth_rate(PARAMS, N)
    correlations = np.array([f.host_time_correlation for f in fairness])
    pvalues = np.array([f.host_id_uniformity_pvalue for f in fairness])

    xs, ys = [], []
    for period, members in recorder.trial_member_log(0):
        xs.extend([period] * len(members))
        ys.extend(members.tolist())
    plot = render_scatter(
        xs, ys, name="stashers", width=70, height=24,
        title="Figure 8: hosts holding a replica, per period (trial 0)",
        y_range=(0, N),
    )
    trial_rows = [
        (m, f.hosts_ever_responsible, f"{f.jain_index:.3f}",
         f"{f.max_run_length}/{f.expected_max_run_length:.0f}",
         f"{f.host_id_uniformity_pvalue:.3f}",
         f"{f.host_time_correlation:+.4f}")
        for m, f in enumerate(fairness)
    ]
    decay_rows = [
        (lag, f"{mean_decay[lag]:.3f}", f"{(1 - PARAMS.gamma) ** lag:.3f}")
        for lag in LAGS
    ]
    report("fig8_untraceability", "\n".join([
        f"parameters: N={N}, b=2, gamma=0.1, alpha=0.01 (see note), "
        f"M={TRIALS} seeded serial trials",
        f"stable stasher count: paper 88.63, analytic "
        f"{PARAMS.equilibrium_counts(N)[STASH]:.2f}, ensemble mean "
        f"{stash_mean:.2f}",
        f"stasher birth interval: paper 40.6 s, analytic "
        f"{360.0 / births:.1f} s",
        "",
        format_table(
            ["trial", "hosts ever resp.", "Jain",
             "max stint / expected", "uniformity p", "host-time corr"],
            trial_rows,
        ),
        "",
        format_table(
            ["lag (periods)", "snapshot overlap (mean)", "(1-gamma)^lag"],
            decay_rows,
        ),
        "",
        plot,
    ]))

    # Stable stasher count near the paper's 88.63 (ensemble mean).
    assert stash_mean == pytest.approx(88.63, rel=0.2)
    # Birth interval 40.6 s.
    assert 360.0 / births == pytest.approx(40.6, abs=0.1)
    # Untraceability: no host-id/time correlation (tight on the
    # ensemble mean, loose per trial), uniform host usage everywhere.
    assert abs(float(correlations.mean())) < 0.05
    assert np.all(np.abs(correlations) < 0.15)
    assert float(np.median(pvalues)) > 0.05
    assert np.all(pvalues > 0.001)
    # Load balancing: no host stashes for dramatically longer than the
    # geometric expectation ("no significant horizontal lines").
    for f in fairness:
        assert f.max_run_length < 3 * f.expected_max_run_length
    # The attacker's snapshot decays roughly like (1-gamma)^lag.
    assert mean_decay[10] == pytest.approx(0.9**10, abs=0.12)
    assert mean_decay[50] < mean_decay[5] < mean_decay[1]
