"""Synthetic host-churn traces in the style of the Overnet measurements.

The paper drives its churn experiments (Figures 9 and 10) with
availability traces from the Overnet measurement study (Bhagwan et al.,
IPTPS 2003), which is not redistributable here.  We substitute a
synthetic generator calibrated to the statistics the paper itself
cites:

* hosts rejoin the system about **6.4 times per day** on average;
* hourly churn (fraction of the population departing per hour) lies in
  the **10-25%** band;
* the original traces were hourly snapshots which the paper "spread out
  over each hour" -- our continuous session model produces naturally
  spread arrival/departure times.

Host sessions alternate exponentially distributed online and offline
intervals.  With mean session length ``s`` hours (both online and
offline), a host cycles every ``2s`` hours, giving ``24 / (2s)``
rejoins per day and an hourly departure rate of ``0.5 / s`` of the
population.  The default ``s = 2.0`` yields 6 rejoins/day and 25%/h
churn, matching the top of the paper's band; see the churn bench for
the measured statistics.

The endemic protocol only observes the alive/dead status of each host
per period (a departed host loses its replicas; a returning host is
receptive), so matching these statistics exercises the same code path
as the original traces.

Sessions here are exponential, so a generated trace
(:class:`GeneratedTrace`) is memoryless: whether a host flips next
depends only on whether it is up, and the hosts that leave in a period
are a uniform subset of those up.  The batch tier replays such a trace
by counts (:class:`ChurnStep`); any other trace is not exchangeable
that way and replays host by host, on the serial tier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .rng import make_generator
from .round_engine import RoundEngine


@dataclass(frozen=True)
class ChurnEvent:
    """One availability flip: host goes up or comes down."""

    time_hours: float
    host: int
    online: bool


@dataclass
class ChurnTrace:
    """An availability trace: per-host alternating sessions.

    ``events`` are sorted by time.  ``initially_online`` flags which
    hosts are up at time zero.
    """

    n_hosts: int
    duration_hours: float
    events: List[ChurnEvent]
    initially_online: np.ndarray

    def hourly_churn_rates(self) -> np.ndarray:
        """Fraction of the population departing, per whole hour."""
        hours = int(np.ceil(self.duration_hours))
        departures = np.zeros(hours)
        for event in self.events:
            if not event.online and event.time_hours < hours:
                departures[int(event.time_hours)] += 1
        return departures / self.n_hosts

    def rejoins_per_day(self) -> float:
        """Mean number of arrivals per host per 24 hours."""
        arrivals = sum(1 for e in self.events if e.online)
        days = self.duration_hours / 24.0
        if days <= 0:
            return 0.0
        return arrivals / (self.n_hosts * days)

    def mean_availability(self) -> float:
        """Time-averaged fraction of hosts online."""
        online = self.initially_online.astype(float).sum()
        last_time = 0.0
        weighted = 0.0
        for event in self.events:
            weighted += online * (event.time_hours - last_time)
            online += 1 if event.online else -1
            last_time = event.time_hours
        weighted += online * (self.duration_hours - last_time)
        return weighted / (self.n_hosts * self.duration_hours)

    def per_host_availability(self) -> np.ndarray:
        """Time-averaged availability of each host, in ``[0, 1]``.

        Hosts are independent in the generator, so these make an i.i.d.
        sample suitable for a z-test on the mean -- unlike the single
        pooled :meth:`mean_availability` number.
        """
        weighted = np.zeros(self.n_hosts)
        online = self.initially_online.astype(bool).copy()
        last = np.zeros(self.n_hosts)
        for event in self.events:
            host = event.host
            if online[host]:
                weighted[host] += event.time_hours - last[host]
            last[host] = event.time_hours
            online[host] = event.online
        weighted[online] += self.duration_hours - last[online]
        return weighted / self.duration_hours

    def per_host_arrivals_per_day(self) -> np.ndarray:
        """Arrival (rejoin) events per host, scaled to a 24-hour day."""
        arrivals = np.zeros(self.n_hosts)
        for event in self.events:
            if event.online:
                arrivals[event.host] += 1
        days = self.duration_hours / 24.0
        if days <= 0:
            return arrivals
        return arrivals / days


class GeneratedTrace(ChurnTrace):
    """A trace of :func:`generate_trace`: every host's online and
    offline intervals are exponential, one law for all hosts."""


def generate_trace(
    n_hosts: int,
    duration_hours: float,
    mean_session_hours: float = 2.0,
    mean_offline_hours: Optional[float] = None,
    seed: Optional[int] = None,
    initial_online_fraction: float = 0.5,
) -> GeneratedTrace:
    """Generate a synthetic Overnet-style availability trace.

    Parameters
    ----------
    mean_session_hours:
        Mean online session length (exponential).
    mean_offline_hours:
        Mean offline interval; defaults to ``mean_session_hours``
        (symmetric up/down behaviour, ~50% availability as observed for
        the short-lived majority of Overnet hosts).
    initial_online_fraction:
        Fraction of hosts online at time zero.
    """
    if mean_session_hours <= 0:
        raise ValueError("mean_session_hours must be positive")
    mean_offline = (
        mean_offline_hours if mean_offline_hours is not None else mean_session_hours
    )
    rng = make_generator(seed)
    initially_online = rng.random(n_hosts) < initial_online_fraction
    events: List[ChurnEvent] = []
    for host in range(n_hosts):
        online = bool(initially_online[host])
        # Start mid-session: residual of an exponential is exponential.
        time = 0.0
        while True:
            mean = mean_session_hours if online else mean_offline
            time += rng.exponential(mean)
            if time >= duration_hours:
                break
            online = not online
            events.append(ChurnEvent(float(time), host, online))
    events.sort(key=lambda e: (e.time_hours, e.host))
    return GeneratedTrace(
        n_hosts=n_hosts,
        duration_hours=duration_hours,
        events=events,
        initially_online=initially_online,
    )


@dataclass(frozen=True)
class ChurnStep:
    """What one replayer call does to a group, on any tier.

    An engine that tracks hosts crashes ``downs`` and then recovers
    ``ups``.  The census needs counts only: ``crashes`` hosts that were
    up go down (an up whose host was already up left and came back
    within the step, losing its state), then ``len(ups)`` come back.
    That is exact only when the hosts that move are a uniform subset of
    those up, which a :class:`GeneratedTrace` promises, and when the
    hosts the trace has up are the group's alive ones.
    """

    downs: np.ndarray
    ups: np.ndarray
    crashes: int
    trace: ChurnTrace


@dataclass
class ChurnReplayer:
    """Hook replaying a churn trace, one :class:`ChurnStep` per period.

    ``periods_per_hour`` converts trace time to protocol periods (the
    paper: 6-minute periods, so 10 periods per hour).  Departing hosts
    crash (losing all replicas, the paper's worst-case model); returning
    hosts recover in the engine's recovery state (receptive) and "do not
    participate in any startup file transfers".  A
    :class:`GeneratedTrace` replays by counts on the batch tier too, as
    long as no other fault moves the trial's hosts; any other trace
    asks which hosts (``asks_hosts``) and replays on the serial tier.
    """

    trace: ChurnTrace
    periods_per_hour: float = 10.0
    _cursor: int = 0
    applied_initial: bool = False
    #: Which hosts the trace has up, as replayed so far.
    _online: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def asks_hosts(self) -> bool:
        """Only a generated trace replays by counts."""
        return not isinstance(self.trace, GeneratedTrace)

    def __call__(self, engine: RoundEngine) -> None:
        downs = []
        if not self.applied_initial:
            # Every host starts up: the trace's offline ones go first.
            self._online = np.ones(self.trace.n_hosts, dtype=bool)
            downs.append(np.nonzero(~self.trace.initially_online)[0])
            self.applied_initial = True
        now_hours = engine.period / self.periods_per_hour
        events = self.trace.events
        # A host may flip several times between hook invocations; the
        # last event per host decides its state for this batch.
        final_state: Dict[int, bool] = {}
        while self._cursor < len(events) and events[self._cursor].time_hours <= now_hours:
            event = events[self._cursor]
            final_state[event.host] = event.online
            self._cursor += 1
        hosts = np.fromiter(final_state, np.int64, len(final_state))
        up = np.fromiter(final_state.values(), bool, len(final_state))
        downs, ups = np.concatenate(downs + [hosts[~up]]), hosts[up]
        crashes = int(np.count_nonzero(self._online[np.union1d(downs, ups)]))
        self._online[downs] = False
        self._online[ups] = True
        engine.apply_churn(ChurnStep(downs, ups, crashes, self.trace))

    def reset(self) -> None:
        self._cursor = 0
        self.applied_initial = False
        self._online = None
