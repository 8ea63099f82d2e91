#!/usr/bin/env python3
"""Probabilistic majority selection with the LV protocol.

Case Study II of the paper as an application: a LOCKSS-style digital
library holds two divergent versions of a document and must repair to
the majority version.  Exact majority selection is impossible in an
asynchronous system (it would solve consensus); the LV protocol solves
the *probabilistic* variant -- all processes eventually agree, and
w.h.p. on the initial majority.

The demo runs three polls with increasing corruption, a near-tie to
show where the w.h.p. guarantee frays, a poll through a massive
failure (Figure 12's scenario), and a batched accuracy ensemble
(LVEnsemble: M trials in one vectorized engine) measuring how the
w.h.p. guarantee depends on the split.

Run:  python examples/lv_majority.py
"""

import numpy as np

from repro.protocols.lv import (
    LVEnsemble,
    LVMajority,
    expected_convergence_periods,
)
from repro.runtime import MassiveFailure
from repro.store import MajorityService
from repro.viz import render_series

N = 20_000


def main() -> None:
    print(f"{N} processes; LV protocol with p=0.01 (coin bias 3p=0.03)")
    print(f"theory: convergence in ~{expected_convergence_periods(N):.0f} "
          f"periods (O(log N))")
    print()

    # A repeated-polling service: corrupt, poll, repair, repeat.
    service = MajorityService(N, np.zeros(N, dtype=int), seed=3)
    for round_number, corruption in enumerate((0.2, 0.35, 0.45), start=1):
        service.corrupt(corruption, to_version=1)
        zeros, ones = service.split()
        record = service.poll(max_periods=5000)
        print(f"poll {round_number}: split {zeros}/{ones} -> winner "
              f"version {0 if record.winner == 'x' else 1}, "
              f"converged in {record.convergence_periods} periods, "
              f"matched majority: {record.matched_majority}")
    print("service summary:", service.summary())
    print()

    # Near-tie: the saddle at x = y makes close votes slow and risky.
    close = LVMajority(N, zeros=N // 2 + 200, ones=N // 2 - 200, seed=4)
    outcome = close.run(8000, stop_on_convergence=False)
    print(f"near-tie 50.5/49.5: winner {outcome.winner} "
          f"(correct: {outcome.correct}) after "
          f"{outcome.convergence_period} periods "
          f"-- close votes take far longer than clear ones")
    print()

    # Massive failure mid-vote (Figure 12).
    instance = LVMajority(N, zeros=int(0.6 * N), ones=N - int(0.6 * N), seed=5)
    failure = MassiveFailure(at_period=100, fraction=0.5)
    outcome = instance.run(4000, hooks=(failure,), stop_on_convergence=False)
    recorder = outcome.recorder
    print(f"with 50% of processes crashing at t=100: winner "
          f"{outcome.winner}, full agreement at "
          f"{outcome.convergence_period} periods")
    horizon = recorder.times <= (outcome.convergence_period or recorder.times[-1])
    print(render_series(
        recorder.times[horizon],
        {
            "state x (0)": recorder.counts("x")[0, horizon],
            "state y (1)": recorder.counts("y")[0, horizon],
            "undecided": recorder.counts("z")[0, horizon],
        },
        width=70, height=14,
        title="LV majority selection through a massive failure",
    ))
    print()

    # Accuracy as a function of the split: M trials per split in one
    # batched (M, N) engine -- the fig7/fig8-family measurement.
    n, trials = 2_000, 16
    print(f"accuracy vs split ({trials} batched trials at N={n}):")
    for share in (0.60, 0.55, 0.52):
        zeros = int(share * n)
        outcome = LVEnsemble(
            n, zeros, n - zeros, trials=trials, seed=6
        ).run(6000)
        decided = int(outcome.decided.sum())
        print(f"  {100 * share:.0f}/{100 * (1 - share):.0f}: "
              f"accuracy {outcome.accuracy():.2f} "
              f"({decided}/{trials} decided, median convergence "
              f"{int(np.median(outcome.convergence_periods[outcome.converged]))}"
              f" periods)")


if __name__ == "__main__":
    main()
