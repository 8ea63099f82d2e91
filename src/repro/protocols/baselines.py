"""Baseline replica-placement strategies the paper argues against.

Section 4.1 motivates migratory replication by the drawbacks of the
alternatives; both are implemented here so the BASE bench can measure
the comparison instead of asserting it:

* :class:`StaticReplication` -- the static/reactive strategy of
  [20, 21]: replicas sit on a fixed host subset and are re-placed only
  when a holder is detected crashed.  Drawback (2): an attacker can
  snapshot the (stable) replica locations and destroy every copy; the
  strategy also satisfies neither liveness nor fairness.
* :class:`SimpleHandoff` -- the strawman of Section 4.1.1: a holder
  hands the object to another process "after a while" and immediately
  deletes it.  A crash-stop failure of the holder before the transfer
  destroys a replica, so without a refresh mechanism the replica count
  drifts to zero.

Both expose the same duck-typed surface as
:class:`~repro.runtime.round_engine.RoundEngine` (``period``, ``alive``,
``states``, ``crash``, ``members_in``, ``state_id``), so the failure
hooks in :mod:`repro.runtime.failures` -- in particular
:class:`~repro.runtime.failures.DirectedAttack` -- apply unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..runtime.metrics import BatchMetricsRecorder, trial_rows
from ..runtime.rng import make_generator
from ..runtime.round_engine import HostFaults

#: State names shared by both baselines.
OTHER, REPLICA = "other", "replica"
_STATE_NAMES = (OTHER, REPLICA)


class _PlacementSim(HostFaults):
    """Shared machinery: alive tracking, states array, hook protocol."""

    def __init__(self, n: int, seed: Optional[int]):
        if n < 2:
            raise ValueError(f"need at least 2 hosts, got {n}")
        self.n = n
        self.state_names = _STATE_NAMES
        self.states = np.zeros(n, dtype=np.int8)
        self.alive = np.ones(n, dtype=bool)
        self.period = 0
        self._rng = make_generator(seed)
        self.last_transitions: Dict[Tuple[str, str], int] = {}

    # Duck-typed interface shared with RoundEngine ----------------------
    def state_id(self, name: str) -> int:
        return _STATE_NAMES.index(name)

    def members_in(self, state: str) -> np.ndarray:
        sid = self.state_id(state)
        return np.nonzero((self.states == sid) & self.alive)[0]

    def counts(self) -> Dict[str, int]:
        raw = np.bincount(self.states[self.alive], minlength=2)
        return {s: int(raw[i]) for i, s in enumerate(_STATE_NAMES)}

    def alive_count(self) -> int:
        return int(self.alive.sum())

    def crash(self, hosts) -> None:
        self.alive[np.asarray(hosts, dtype=np.int64)] = False

    def crash_fraction(self, fraction: float) -> np.ndarray:
        return self.crash_uniform(
            self._rng, int(round(fraction * self.alive_count()))
        )

    def recover(self, hosts, state: Optional[str] = None) -> None:
        hosts = np.asarray(hosts, dtype=np.int64)
        self.alive[hosts] = True
        self.states[hosts] = 0  # recovered hosts hold no replicas

    def replica_count(self) -> int:
        return int(np.count_nonzero(self.states[self.alive] == 1))

    def object_lost(self) -> bool:
        return self.replica_count() == 0

    def step(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def run(
        self,
        periods: int,
        hooks: Iterable = (),
        recorder: Optional[BatchMetricsRecorder] = None,
        stop_when_lost: bool = True,
    ) -> "PlacementResult":
        """Advance the baseline, applying hooks before each period.

        Each period is one ``(1, S)`` row, recorded at the baseline's
        own period count.
        """
        if recorder is None:
            recorder = BatchMetricsRecorder(_STATE_NAMES, 1)
        hooks_list = list(hooks)
        lost_at = None
        for _ in range(periods):
            for hook in hooks_list:
                hook(self)
            self.step()
            self.period += 1
            recorder.record(self.period, *trial_rows(
                _STATE_NAMES, self.counts(), self.alive_count(),
                self.last_transitions,
            ))
            if lost_at is None and self.object_lost():
                lost_at = self.period
                if stop_when_lost:
                    break
        return PlacementResult(sim=self, recorder=recorder, lost_at_period=lost_at)


@dataclass
class PlacementResult:
    """Outcome of a baseline run."""

    sim: _PlacementSim
    recorder: BatchMetricsRecorder
    lost_at_period: Optional[int]

    @property
    def survived(self) -> bool:
        return self.lost_at_period is None


class StaticReplication(_PlacementSim):
    """Static placement with reactive repair.

    ``k`` replicas are placed on random hosts at start.  Each period,
    crashed holders are *detected* and, after ``repair_delay`` periods,
    replaced by copying from any surviving replica onto a random alive
    non-holder.  If no replica survives, repair is impossible: the
    object is lost -- static placement provides no safety against an
    attacker (or correlated failure) that takes out all holders inside
    the repair window.
    """

    def __init__(
        self,
        n: int,
        k: int,
        repair_delay: int = 5,
        seed: Optional[int] = None,
    ):
        super().__init__(n, seed)
        if not 1 <= k <= n:
            raise ValueError(f"k must lie in [1, {n}], got {k}")
        self.k = k
        self.repair_delay = repair_delay
        self._pending_repairs: List[int] = []  # due periods
        initial = self._rng.choice(n, size=k, replace=False)
        self.states[initial] = 1
        self.repairs_done = 0

    def step(self) -> None:
        self.last_transitions = {}
        # Detect newly dead holders: their replicas are gone; queue repairs.
        dead_holders = np.nonzero((self.states == 1) & ~self.alive)[0]
        for _ in range(len(dead_holders)):
            self._pending_repairs.append(self.period + self.repair_delay)
        self.states[dead_holders] = 0
        # Execute due repairs, if a source replica still exists.
        due = [t for t in self._pending_repairs if t <= self.period]
        self._pending_repairs = [t for t in self._pending_repairs if t > self.period]
        for _ in due:
            if self.replica_count() == 0:
                break  # no source copy: object is lost, repair impossible
            candidates = np.nonzero(self.alive & (self.states == 0))[0]
            if len(candidates) == 0:
                break
            chosen = int(self._rng.choice(candidates))
            self.states[chosen] = 1
            self.repairs_done += 1
            self.last_transitions[(OTHER, REPLICA)] = (
                self.last_transitions.get((OTHER, REPLICA), 0) + 1
            )


class SimpleHandoff(_PlacementSim):
    """The Section 4.1.1 strawman: hand off, then delete immediately.

    Every ``handoff_interval`` periods each holder transfers the object
    to a uniformly random host and deletes its own copy.  If the chosen
    target is crashed (or the transfer connection fails, probability
    ``transfer_failure_rate``), that replica is destroyed -- the exact
    failure mode the paper describes.  With any background crash noise
    the replica population decays to zero absent a periodic refresh.
    """

    def __init__(
        self,
        n: int,
        k: int,
        handoff_interval: int = 1,
        transfer_failure_rate: float = 0.0,
        seed: Optional[int] = None,
    ):
        super().__init__(n, seed)
        if not 1 <= k <= n:
            raise ValueError(f"k must lie in [1, {n}], got {k}")
        if not 0.0 <= transfer_failure_rate < 1.0:
            raise ValueError("transfer failure rate must lie in [0, 1)")
        if handoff_interval < 1:
            raise ValueError("handoff interval must be >= 1")
        self.handoff_interval = handoff_interval
        self.transfer_failure_rate = transfer_failure_rate
        initial = self._rng.choice(n, size=k, replace=False)
        self.states[initial] = 1
        self.transfers = 0
        self.losses = 0

    def step(self) -> None:
        self.last_transitions = {}
        # Replicas on crashed hosts die silently (crash before handoff).
        dead_holders = np.nonzero((self.states == 1) & ~self.alive)[0]
        if len(dead_holders):
            self.losses += len(dead_holders)
            self.states[dead_holders] = 0
        if (self.period + 1) % self.handoff_interval != 0:
            return
        holders = self.members_in(REPLICA)
        moved = 0
        for holder in holders:
            self.states[holder] = 0  # delete immediately (the flaw)
            # Hand off to a host not already holding a copy (a transfer
            # to an existing holder would silently merge two replicas,
            # which is a storage-dedup artifact, not the hand-off race
            # the strawman is about).
            target = holder
            for _ in range(64):
                candidate = int(self._rng.integers(0, self.n - 1))
                candidate += candidate >= holder
                if self.states[candidate] == 0:
                    target = candidate
                    break
            failed = (
                target == holder
                or not self.alive[target]
                or self._rng.random() < self.transfer_failure_rate
            )
            if failed:
                self.losses += 1
                continue
            self.states[target] = 1
            self.transfers += 1
            moved += 1
        if moved:
            self.last_transitions[(REPLICA, REPLICA)] = moved
