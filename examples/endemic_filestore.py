#!/usr/bin/env python3
"""A persistent file store with migratory (endemic) replica location.

Case Study I of the paper as an application: every file runs its own
endemic protocol instance; its replicas live on the current *stash*
processes and constantly migrate.  The demo exercises the properties
the paper claims:

* probabilistic safety -- the file survives a 50% massive failure;
* liveness + fairness -- replicas rotate across the whole population;
* untraceability -- a snapshot of replica locations goes stale fast;
* constant overhead -- per-host bandwidth is tiny.

Run:  python examples/endemic_filestore.py
"""

import numpy as np

from repro.analysis.fairness import analyze_member_log, attack_window_decay
from repro.analysis.safety import RealityCheck
from repro.protocols.endemic import STASH, EndemicParams, figure1_protocol
from repro.runtime import BatchMetricsRecorder, RoundEngine
from repro.store import MigratoryFileStore
from repro.viz import render_series

N = 2_000
PARAMS = EndemicParams(alpha=0.01, gamma=0.1, b=2)


def main() -> None:
    store = MigratoryFileStore(n=N, params=PARAMS, seed=7)

    print(f"hosts: {N}, parameters: alpha={PARAMS.alpha}, "
          f"gamma={PARAMS.gamma}, b={PARAMS.b} (beta={PARAMS.beta})")
    print(f"analytic equilibrium: "
          f"{ {k: round(v, 1) for k, v in PARAMS.equilibrium_counts(N).items()} }")
    print()

    # Insert two files; a single seed replica suffices (the trivial
    # equilibrium is a saddle -- one stasher escapes it).
    store.insert("thesis.pdf", size_bytes=2.4e6, initial_replicas=1)
    store.insert("archive.tar", size_bytes=88.2e3, initial_replicas=1)
    store.tick(600)

    for name in ("thesis.pdf", "archive.tar"):
        replicas = store.replica_count(name)
        fetch = store.fetch(name)
        print(f"{name}: {replicas} replicas; fetch found a copy on host "
              f"{fetch.replica_host} after {fetch.probes} probe(s)")
    print()

    # Massive failure: half the hosts crash with their replicas.
    victims = store.crash_random_fraction(0.5)
    print(f"MASSIVE FAILURE: crashed {len(victims)} hosts")
    store.tick(600)
    for name in ("thesis.pdf", "archive.tar"):
        print(f"{name}: {store.replica_count(name)} replicas after failure "
              f"(lost: {name in store.lost_files()})")
    print()

    # Bandwidth accounting (the Section 5.1 reality check).
    check = RealityCheck.of(PARAMS, N)
    measured = store.bandwidth_bps_per_host("archive.tar", window_periods=300)
    print(f"bandwidth per host for archive.tar: measured {measured:.3g} bps, "
          f"closed form {check.bandwidth_bps_per_host:.3g} bps")
    print()

    # Untraceability / fairness measurement on a dedicated run.
    spec = figure1_protocol(PARAMS)
    engine = RoundEngine(spec, n=N, initial=PARAMS.equilibrium_counts(N), seed=8)
    engine.run(400)
    recorder = BatchMetricsRecorder(spec.states, 1, member_log_state=STASH)
    engine.run(300, recorder=recorder, record_initial=False)
    member_log = recorder.trial_member_log(0)
    fairness = analyze_member_log(member_log, N, gamma=PARAMS.gamma)
    print("fairness / untraceability over 300 observed periods:")
    print(fairness.render())
    decay = attack_window_decay(member_log, lags=(1, 10, 30))
    print("attacker snapshot overlap by lag:",
          {lag: round(v, 3) for lag, v in decay.items()})
    print()

    print(render_series(
        recorder.times,
        {"stashers": recorder.counts(STASH)[0]},
        width=70, height=10,
        title="replica population over time (stable, low)",
    ))


if __name__ == "__main__":
    main()
