"""Failure injection for round-engine simulations.

The paper evaluates the protocols under three stress models, all of
which are provided here as :class:`~repro.runtime.round_engine.RoundEngine`
hooks:

* **massive failures** -- a random fraction of hosts crash at one
  instant (Figures 5, 6, 12);
* **crash-recovery background noise** -- per-period independent crash
  and recovery probabilities (the crash-stop / crash-recovery process
  model of Section 1);
* **directed attack** -- an adversary periodically snapshots the
  members of a state (e.g. current stashers) and crashes them, the
  threat scenario motivating migratory replication (Section 4.1,
  drawback (2) of static placement).

Massive failures, crash-recovery noise and :class:`ScheduledRecovery`
act by counts only (:class:`~repro.runtime.round_engine.HostFaults`),
so they run on every tier, the batch tier's census included.  A hook
that asks *which* hosts -- :class:`DirectedAttack`,
:class:`OpenGroupJoins` -- says so with ``asks_hosts = True``: the
batch tier refuses it by name, and ``Experiment(engine="auto")`` runs
it on the serial tier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .rng import make_generator
from .round_engine import RoundEngine


@dataclass
class MassiveFailure:
    """Crash a random fraction of alive hosts at one period.

    Figure 5: ``MassiveFailure(at_period=5000, fraction=0.5)``.
    """

    at_period: int
    fraction: float
    fired: bool = False
    victims: Optional[np.ndarray] = None

    def __call__(self, engine: RoundEngine) -> None:
        if not self.fired and engine.period >= self.at_period:
            self.victims = engine.crash_fraction(self.fraction)
            self.fired = True


@dataclass
class CrashRecoveryNoise:
    """Independent per-period crash and recovery probabilities.

    Each period, every alive host crashes with probability
    ``crash_rate`` and every crashed host recovers with probability
    ``recovery_rate`` (rejoining in the engine's recovery state with
    all volatile state lost -- for the endemic protocol that means
    replicas are gone).
    """

    crash_rate: float
    recovery_rate: float
    seed: Optional[int] = None
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        if not 0.0 <= self.crash_rate < 1.0:
            raise ValueError(f"crash rate must lie in [0, 1), got {self.crash_rate}")
        if not 0.0 <= self.recovery_rate <= 1.0:
            raise ValueError(
                f"recovery rate must lie in [0, 1], got {self.recovery_rate}"
            )
        self._rng = make_generator(self.seed)

    def __call__(self, engine: RoundEngine) -> None:
        if self.crash_rate > 0.0:
            heads = self._rng.binomial(engine.alive_count(), self.crash_rate)
            if heads:
                engine.crash_uniform(self._rng, heads)
        if self.recovery_rate > 0.0:
            heads = self._rng.binomial(
                engine.n - engine.alive_count(), self.recovery_rate
            )
            if heads:
                engine.recover_uniform(self._rng, heads)


@dataclass
class DirectedAttack:
    """An adversary that tracks and kills the members of one state.

    Every ``snapshot_interval`` periods the attacker records the hosts
    currently in ``target_state`` (e.g. the stashers of a file); after
    ``strike_delay`` further periods it crashes every host in that
    snapshot that is still alive.  ``strike_delay`` models the time
    needed to mount the attack -- the window during which migratory
    replication rotates responsibility away.

    ``max_strikes`` bounds the attacker's capacity (None = unbounded);
    ``kills`` accumulates the number of crashed hosts;
    ``replica_hits`` counts how many victims still held responsibility
    (were still in ``target_state``) when struck.
    """

    asks_hosts = True

    target_state: str
    snapshot_interval: int = 50
    strike_delay: int = 10
    max_strikes: Optional[int] = None
    kills: int = 0
    replica_hits: int = 0
    strikes: int = 0
    _pending: List = field(default_factory=list, repr=False)

    def __call__(self, engine: RoundEngine) -> None:
        due = [p for p in self._pending if p[0] <= engine.period]
        self._pending = [p for p in self._pending if p[0] > engine.period]
        for _, snapshot in due:
            self.strikes += 1
            still_alive = snapshot[engine.alive[snapshot]]
            if len(still_alive) == 0:
                continue
            state_id = engine.state_id(self.target_state)
            self.replica_hits += int(
                np.count_nonzero(engine.states[still_alive] == state_id)
            )
            engine.crash(still_alive)
            self.kills += len(still_alive)
        exhausted = (
            self.max_strikes is not None
            and self.strikes + len(self._pending) >= self.max_strikes
        )
        if not exhausted and engine.period % self.snapshot_interval == 0:
            members = engine.members_in(self.target_state)
            if len(members):
                self._pending.append(
                    (engine.period + self.strike_delay, members.copy())
                )


@dataclass
class OpenGroupJoins:
    """Continuous joins: the open-group setting of Section 5.2.

    The paper's system model assumes a closed group but notes that
    "simulations show that our protocols work in open groups".  This
    hook models an open group within the maximal-membership framework:
    the engine is created with a reserve of pre-crashed host ids (the
    not-yet-joined processes), and each period ``join_rate`` fraction of
    the remaining reserve joins, entering the engine's recovery state
    (receptive / undecided) with no prior protocol state.

    Combine with :class:`CrashRecoveryNoise` (recovery_rate=0) for
    simultaneous departures, giving full join/leave dynamics.
    """

    asks_hosts = True

    reserve: np.ndarray
    join_rate: float
    state: Optional[str] = None
    seed: Optional[int] = None
    joined: int = 0
    _cursor: int = field(default=0, repr=False)
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        if not 0.0 < self.join_rate <= 1.0:
            raise ValueError(f"join rate must lie in (0, 1], got {self.join_rate}")
        self.reserve = np.asarray(self.reserve, dtype=np.int64)
        self._rng = make_generator(self.seed)

    def __call__(self, engine: RoundEngine) -> None:
        remaining = len(self.reserve) - self._cursor
        if remaining <= 0:
            return
        count = self._rng.binomial(remaining, self.join_rate)
        if count == 0:
            return
        joiners = self.reserve[self._cursor: self._cursor + count]
        self._cursor += count
        self.joined += count
        engine.recover(joiners, state=self.state)

    @property
    def exhausted(self) -> bool:
        return self._cursor >= len(self.reserve)


@dataclass
class ScheduledRecovery:
    """Recover a fixed fraction of crashed hosts at one period.

    Useful for crash-recovery experiments that follow a massive
    failure: hosts come back with volatile state lost.
    """

    at_period: int
    fraction: float = 1.0
    seed: Optional[int] = None
    fired: bool = False

    def __call__(self, engine: RoundEngine) -> None:
        if self.fired or engine.period < self.at_period:
            return
        count = int(round(self.fraction * (engine.n - engine.alive_count())))
        if count:
            engine.recover_uniform(make_generator(self.seed), count)
        self.fired = True
