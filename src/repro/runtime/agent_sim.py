"""The asynchronous agent-level simulator.

:class:`AgentSimulation` runs a protocol with one DES coroutine per
process over an unreliable latency network -- the high-fidelity engine
used to validate that the synchronous
:class:`~repro.runtime.round_engine.RoundEngine` results are not
artifacts of synchrony.  Per the paper's system model:

* protocol periods start at arbitrary times at different processes;
* clocks may drift (per-agent clock-speed factors); the analysis holds
  for the group-average period;
* the network delays and drops messages.

This is the bottom (most faithful, slowest) tier of the three-engine
hierarchy:

* **agent sim** (this module) -- one coroutine per process, arbitrary
  period phases, latency, drift.  Use it to check that a result
  survives asynchrony; groups up to a few thousand processes.
* **round engine** (:mod:`~repro.runtime.round_engine`) -- one
  vectorized synchronous instance.  Use it for single-run experiments
  at the paper's 100,000-host scale.
* **batch engine** (:mod:`~repro.runtime.batch_engine`) -- M trials in
  one ``(M, N)`` array.  Use it whenever the claim is an ensemble
  statement (means, spreads, frequencies) or a campaign grid cell.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..synthesis.protocol import ProtocolSpec
from .agent import Agent
from .des import Environment
from .membership import FullMembership, PartialMembership
from .metrics import BatchMetricsRecorder, trial_rows
from .network import LatencyModel, Network
from .rng import RandomSource


class AgentSimulation:
    """Asynchronous simulation of one protocol over N agent processes.

    Parameters
    ----------
    spec:
        Protocol to execute.
    n:
        Number of processes.
    initial:
        Initial state distribution (counts summing to ``n`` or
        fractions summing to 1).
    period:
        Nominal protocol period duration (simulation time units).
    loss_rate:
        Per-connection failure probability of the network.
    latency:
        Round-trip latency model (defaults to ~3% of a period).
    clock_drift_std:
        Standard deviation of per-agent clock-speed factors around 1.
    membership:
        Optional :class:`PartialMembership` for footnote-1 experiments;
        the default is full membership.
    """

    def __init__(
        self,
        spec: ProtocolSpec,
        n: int,
        initial: Mapping[str, float],
        *,
        period: float = 1.0,
        seed: Optional[int] = None,
        loss_rate: float = 0.0,
        latency: Optional[LatencyModel] = None,
        clock_drift_std: float = 0.0,
        membership: Optional[PartialMembership] = None,
    ):
        if n < 2:
            raise ValueError(f"need at least 2 processes, got {n}")
        self.spec = spec
        self.n = n
        self.period_duration = period
        self.env = Environment()
        source = RandomSource(seed)
        self.rng = source.stream("agents")
        self.network = Network(
            self.env,
            source.stream("network"),
            loss_rate=loss_rate,
            latency=latency or LatencyModel(base=0.01 * period, jitter_mean=0.02 * period),
        )
        self.membership = membership or FullMembership(n, source.stream("membership"))
        self.transition_counts: Dict[Tuple[str, str], int] = {}
        self._transition_log: List[Tuple[float, Tuple[str, str]]] = []

        states = self._assign_initial(initial, source.stream("initial"))
        drift_rng = source.stream("clocks")
        self.agents: List[Agent] = []
        for agent_id in range(n):
            clock = 1.0
            if clock_drift_std > 0.0:
                clock = max(0.1, float(drift_rng.normal(1.0, clock_drift_std)))
            agent = Agent(
                self,
                agent_id,
                state=states[agent_id],
                period=period,
                clock_factor=clock,
                phase=float(self.rng.random() * period),
            )
            self.agents.append(agent)
            self.network.register(agent_id, agent.handle)
            self.env.spawn(agent.run())

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _assign_initial(
        self, initial: Mapping[str, float], rng: np.random.Generator
    ) -> List[str]:
        names = list(self.spec.states)
        unknown = set(initial) - set(names)
        if unknown:
            raise ValueError(f"unknown states {sorted(unknown)}")
        values = np.array([float(initial.get(s, 0.0)) for s in names])
        total = values.sum()
        if abs(total - 1.0) < 1e-6:
            values *= self.n
        elif abs(total - self.n) > max(1.0, 1e-6 * self.n):
            raise ValueError(
                f"initial distribution sums to {total}; expected 1 or {self.n}"
            )
        counts = np.floor(values).astype(int)
        for index in np.argsort(-(values - np.floor(values)))[: self.n - counts.sum()]:
            counts[index] += 1
        assignment = [
            name for name, count in zip(names, counts) for _ in range(count)
        ]
        rng.shuffle(assignment)
        return assignment

    # ------------------------------------------------------------------
    # Services used by agents
    # ------------------------------------------------------------------
    def sample_peer(self, caller: int) -> int:
        return int(self.membership.sample(caller, 1)[0])

    def oracle_member(self, state: str) -> Optional[int]:
        """A uniformly random alive agent currently in ``state``.

        Models the membership-service-based token routing of Section 6
        (e.g. SWIM); None when no such process exists (token dropped).
        """
        candidates = [
            a.id for a in self.agents if a.alive and a.state == state
        ]
        if not candidates:
            return None
        return int(self.rng.choice(candidates))

    def note_transition(self, edge: Tuple[str, str]) -> None:
        self.transition_counts[edge] = self.transition_counts.get(edge, 0) + 1
        self._transition_log.append((self.env.now, edge))

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def crash(self, agent_ids) -> None:
        for agent_id in np.atleast_1d(agent_ids):
            agent = self.agents[int(agent_id)]
            agent.alive = False
            self.network.unregister(int(agent_id))

    def crash_fraction(self, fraction: float) -> np.ndarray:
        alive = [a.id for a in self.agents if a.alive]
        count = int(round(fraction * len(alive)))
        victims = self.rng.choice(np.array(alive), size=count, replace=False)
        self.crash(victims)
        return victims

    def recover(self, agent_ids, state: Optional[str] = None) -> None:
        """Crash-recovery: the agent rejoins with volatile state lost."""
        for agent_id in np.atleast_1d(agent_ids):
            agent = self.agents[int(agent_id)]
            if agent.alive:
                continue
            agent.alive = True
            agent.state = state or self.spec.states[0]
            self.network.register(int(agent_id), agent.handle)
            self.env.spawn(agent.run())

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    @property
    def period(self) -> int:
        """Elapsed *nominal* periods (the group-average clock).

        Matches the round engines' convention -- 0 before the first
        period runs -- so period-triggered hooks
        (:class:`~repro.runtime.failures.MassiveFailure` and friends)
        fire at the same nominal time on every tier.
        """
        return int(round(self.env.now / self.period_duration))

    @property
    def alive(self) -> np.ndarray:
        """Per-agent alive flags as a read-only ``(n,)`` bool snapshot.

        The round engines' hook surface, rebuilt on access (O(n), fine
        at DES scales): stock failure hooks index it
        (``np.nonzero(engine.alive)``) and then mutate through
        :meth:`crash` / :meth:`recover` -- writing to this snapshot has
        no effect, exactly like the batch engine's row views.
        """
        return np.array([agent.alive for agent in self.agents])

    @property
    def states(self) -> np.ndarray:
        """Per-agent state ids as a read-only ``(n,)`` int8 snapshot."""
        index = {name: i for i, name in enumerate(self.spec.states)}
        return np.array(
            [index[agent.state] for agent in self.agents], dtype=np.int8
        )

    def state_id(self, name: str) -> int:
        return self.spec.states.index(name)

    def members_in(self, state: str) -> np.ndarray:
        """Ids of alive agents currently in ``state`` (hook surface)."""
        return np.array([
            agent.id for agent in self.agents
            if agent.alive and agent.state == state
        ], dtype=np.int64)

    def counts(self) -> Dict[str, int]:
        out = {s: 0 for s in self.spec.states}
        for agent in self.agents:
            if agent.alive:
                out[agent.state] += 1
        return out

    def fractions(self) -> Dict[str, float]:
        alive = sum(1 for a in self.agents if a.alive)
        counts = self.counts()
        if alive == 0:
            return {s: 0.0 for s in self.spec.states}
        return {s: counts[s] / alive for s in self.spec.states}

    def alive_count(self) -> int:
        return sum(1 for a in self.agents if a.alive)

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def run(
        self,
        periods: float,
        recorder: Optional[BatchMetricsRecorder] = None,
        sample_every: float = 1.0,
        hooks: Sequence[Callable[["AgentSimulation"], None]] = (),
        record_initial: bool = True,
    ) -> BatchMetricsRecorder:
        """Advance the simulation ``periods`` nominal periods.

        Counts are sampled every ``sample_every`` periods into the
        one-trial recorder as ``(1, S)`` rows (period index = elapsed
        nominal periods).
        ``record_initial`` stores the period-0 state before anything
        runs -- the round engines' convention, so the agent tier's
        recordings align period-for-period with theirs for cross-tier
        comparison.

        ``hooks`` are called with the simulation before every sampling
        step, mirroring :meth:`RoundEngine.run` (with
        ``sample_every != 1`` they fire once per *sample*, at nominal
        period resolution).  The fault surface matches the round
        engines': :attr:`period`, :meth:`crash`,
        :meth:`crash_fraction`, :meth:`recover`, plus read-only
        :attr:`alive` / :attr:`states` snapshots, :meth:`state_id` and
        :meth:`members_in` -- so the stock failure hooks
        (:class:`~repro.runtime.failures.MassiveFailure`,
        :class:`~repro.runtime.failures.CrashRecoveryNoise`,
        :class:`~repro.runtime.failures.DirectedAttack`, ...) work
        unchanged.  Hooks that *write* the round engines' arrays
        directly (rather than mutating via crash/recover) do not apply
        to this tier.
        """
        if recorder is None:
            recorder = BatchMetricsRecorder(self.spec.states, 1)
        start = self.env.now
        if record_initial and self.period == 0:
            recorder.record(0, *trial_rows(
                recorder.states, self.counts(), self.alive_count(), {}
            ))
        steps = int(round(periods / sample_every))
        last_counts: Dict[Tuple[str, str], int] = dict(self.transition_counts)
        for step in range(1, steps + 1):
            for hook in hooks:
                hook(self)
            target_time = start + step * sample_every * self.period_duration
            self.env.run(until=target_time)
            deltas = {
                edge: self.transition_counts.get(edge, 0) - last_counts.get(edge, 0)
                for edge in self.transition_counts
            }
            last_counts = dict(self.transition_counts)
            recorder.record(
                int(round((self.env.now - start) / self.period_duration)),
                *trial_rows(
                    recorder.states, self.counts(), self.alive_count(), deltas
                ),
            )
        return recorder
