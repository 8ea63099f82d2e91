"""Fairness, load balancing and replica untraceability (Figure 8).

Figure 8 plots which hosts are stashers at the end of each period and
argues three properties from its visual appearance:

* **load balancing** -- "the absence of significant horizontal lines":
  no host stores a replica for very long;
* **fairness** -- over long runs every host bears responsibility for an
  equal fraction of time (the protocol is symmetric);
* **untraceability** -- no correlation in time or host id, so an
  attacker cannot predict replica locations.

This module turns those visual arguments into statistics computed from
one trial's per-period member log, the ``[(period, member ids), ...]``
list :meth:`~repro.runtime.metrics.BatchMetricsRecorder.trial_member_log`
returns for a recorder built with ``member_log_state``:
Jain's fairness index over per-host responsibility time, maximum
stretch of consecutive stashing (against its geometric expectation),
a chi-square uniformity test over host ids, and the attacker's decay
window (how quickly a snapshot of stasher locations goes stale).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: One trial's member log: ``(period, member ids)`` per recorded period.
MemberLog = Sequence[Tuple[int, np.ndarray]]


def _nonempty(member_log: MemberLog) -> MemberLog:
    if not member_log:
        raise ValueError(
            "empty member log (set member_log_state on the recorder)"
        )
    return member_log


@dataclass(frozen=True)
class FairnessReport:
    """Summary statistics of a member (stasher) log."""

    n_hosts: int
    periods_observed: int
    hosts_ever_responsible: int
    jain_index: float
    max_run_length: int
    expected_max_run_length: float
    host_id_uniformity_pvalue: float
    host_time_correlation: float

    def render(self) -> str:
        return "\n".join(
            [
                f"hosts ever responsible:   {self.hosts_ever_responsible}/{self.n_hosts}",
                f"Jain fairness index:      {self.jain_index:.4f}",
                f"max consecutive stint:    {self.max_run_length} periods "
                f"(expected max ~{self.expected_max_run_length:.1f})",
                f"host-id uniformity p:     {self.host_id_uniformity_pvalue:.3f}",
                f"host-time correlation:    {self.host_time_correlation:+.4f}",
            ]
        )


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index: 1 = perfectly equal shares."""
    array = np.asarray(values, dtype=float)
    if len(array) == 0:
        raise ValueError("empty values")
    total = array.sum()
    if total == 0:
        return 1.0
    return float(total**2 / (len(array) * (array**2).sum()))


def _runs_per_host(member_log: MemberLog) -> Dict[int, List[int]]:
    """Consecutive-stint lengths per host from a member log."""
    runs: Dict[int, List[int]] = {}
    current: Dict[int, int] = {}
    previous_period: Optional[int] = None
    stride = None
    for period, members in member_log:
        if previous_period is not None:
            stride = period - previous_period
        previous_period = period
        member_set = set(members.tolist())
        for host in list(current):
            if host not in member_set:
                runs.setdefault(host, []).append(current.pop(host))
        for host in member_set:
            current[host] = current.get(host, 0) + 1
    for host, length in current.items():
        runs.setdefault(host, []).append(length)
    return runs


def analyze_member_log(
    member_log: MemberLog,
    n_hosts: int,
    gamma: Optional[float] = None,
) -> FairnessReport:
    """Compute the Figure 8 statistics from one trial's member log.

    ``member_log`` is a ``[(period, member ids), ...]`` list, e.g.
    ``recorder.trial_member_log(m)``.  ``gamma`` (the per-period
    stash-to-averse rate) gives the geometric dwell distribution used
    for the expected maximum stint length: with ``k`` observed stints
    the expected maximum is roughly ``ln(k) / gamma``.
    """
    log = _nonempty(member_log)
    periods = len(log)
    occupancy = np.zeros(n_hosts, dtype=np.int64)
    host_times: List[Tuple[int, int]] = []
    for period, members in log:
        occupancy[members] += 1
        host_times.extend((int(h), period) for h in members.tolist())

    runs = _runs_per_host(log)
    all_runs = [r for host_runs in runs.values() for r in host_runs]
    max_run = max(all_runs) if all_runs else 0
    if gamma and all_runs:
        expected_max = math.log(max(2, len(all_runs))) / gamma
    else:
        expected_max = float("nan")

    # Host-id uniformity, tested over *stints* rather than per-period
    # occupancy: consecutive periods of one stint are fully dependent
    # (expected dwell is 1/gamma periods), so a chi-square over raw
    # occupancy would wildly overstate the sample size and reject
    # uniformity even for a perfectly fair protocol.  Stint starts are
    # (nearly) independent uniform draws over hosts.
    stints_per_host = np.zeros(n_hosts, dtype=np.int64)
    for host, host_runs in runs.items():
        stints_per_host[host] += len(host_runs)
    total_stints = int(stints_per_host.sum())
    buckets = max(4, min(32, total_stints // 16))
    bucket_counts = np.array(
        [
            stints_per_host[
                (n_hosts * b) // buckets: (n_hosts * (b + 1)) // buckets
            ].sum()
            for b in range(buckets)
        ],
        dtype=float,
    )
    if total_stints > 0:
        from scipy import stats  # on first use: docs/architecture.md

        _, pvalue = stats.chisquare(bucket_counts)
    else:
        pvalue = float("nan")

    # Host-id/time correlation over individual (host, period) points.
    if len(host_times) >= 3:
        hosts_arr = np.array([h for h, _ in host_times], dtype=float)
        times_arr = np.array([t for _, t in host_times], dtype=float)
        correlation = float(np.corrcoef(hosts_arr, times_arr)[0, 1])
    else:
        correlation = float("nan")

    shares = occupancy / max(1, periods)
    return FairnessReport(
        n_hosts=n_hosts,
        periods_observed=periods,
        hosts_ever_responsible=int(np.count_nonzero(occupancy)),
        jain_index=jain_index(shares) if occupancy.sum() else 1.0,
        max_run_length=int(max_run),
        expected_max_run_length=expected_max,
        host_id_uniformity_pvalue=float(pvalue),
        host_time_correlation=correlation,
    )


def attack_window_decay(
    member_log: MemberLog, lags: Sequence[int] = (1, 5, 10, 20, 50)
) -> Dict[int, float]:
    """How stale a snapshot of responsible hosts becomes with lag.

    Returns, per lag (in recorded samples), the mean fraction of a
    snapshot's hosts still responsible ``lag`` samples later.  Mean-
    field prediction: ``(1 - gamma)^lag`` -- the attacker's usable
    window shrinks geometrically, which is the untraceability argument
    in quantitative form.
    """
    log = _nonempty(member_log)
    out: Dict[int, float] = {}
    for lag in lags:
        overlaps = []
        for i in range(len(log) - lag):
            _, now = log[i]
            _, later = log[i + lag]
            if len(now) == 0:
                continue
            later_set = set(later.tolist())
            still = sum(1 for h in now.tolist() if h in later_set)
            overlaps.append(still / len(now))
        if overlaps:
            out[lag] = float(np.mean(overlaps))
    return out


def fairness_over_time(
    member_log: MemberLog, n_hosts: int, checkpoints: int = 5
) -> List[Tuple[int, float]]:
    """Jain index measured over growing prefixes of the member log.

    Fairness is an asymptotic property ("over a long time of running");
    this shows the index rising toward 1 as the window grows.
    """
    log = _nonempty(member_log)
    out = []
    for checkpoint in range(1, checkpoints + 1):
        upto = max(1, (len(log) * checkpoint) // checkpoints)
        occupancy = np.zeros(n_hosts, dtype=np.int64)
        for _, members in log[:upto]:
            occupancy[members] += 1
        out.append((upto, jain_index(occupancy)))
    return out
