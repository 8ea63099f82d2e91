"""Vectorized synchronous-round execution of protocol specifications.

The paper's experiments run "multiple instances ... synchronously over a
simulated network" -- i.e. a synchronous-round simulation.  This engine
reproduces that setup at scale: process states live in one numpy array,
and each protocol period executes every action of the
:class:`~repro.synthesis.protocol.ProtocolSpec` vectorized over the
processes currently in the acting state.

This is the middle tier of the repository's three-engine hierarchy:

* :class:`~repro.runtime.agent_sim.AgentSimulation` -- one DES
  coroutine per process, asynchronous periods, latency and clock
  drift.  Use it to validate that a result is not an artifact of
  synchrony; slowest, most faithful to a real deployment.
* :class:`RoundEngine` (this module) -- one protocol instance,
  vectorized over the N processes.  Use it for single-run experiments
  and whenever hooks need to ask *which* hosts (member logs, directed
  attacks, measured churn traces).
* :class:`~repro.runtime.batch_engine.BatchRoundEngine` -- M
  independent trials as one ``(M, S)`` census.  Use it whenever a
  claim is about an *ensemble* (means, spreads, extinction
  frequencies): it amortizes per-period overhead across trials and
  agrees with M seeded :class:`RoundEngine` runs in distribution.

Semantics (matching the paper's system model):

* Targets are sampled uniformly from the *maximal membership* (all N
  ids, excluding the caller); contacts that land on crashed processes
  fail.  This is exactly the mechanism behind Figure 5's observation
  that after a 50% massive failure the receptive count is unchanged
  (the effective contact fan-out halves).
* A per-connection failure probability can drop any individual contact,
  modeling the lossy network of Section 3 ("The Effect of Failures").
* All action conditions are evaluated against the state snapshot taken
  at the start of the period, and each process transitions at most once
  per period (rare same-period conflicts resolve in action declaration
  order; they are an O((p c)^2) effect the normalizing constant keeps
  small).

Coin flips use exact binomial thinning: instead of tossing one coin per
process, the engine draws the number of heads from the binomial
distribution and then picks that many distinct processes -- identical in
distribution, and what makes 100,000-host, 10,000-period runs fast when
the biased coins are heavily weighted toward tails (e.g. alpha = 1e-6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..synthesis.actions import (
    AnyOfSampleAction,
    FlipAction,
    PushAction,
    SampleAction,
    TokenizeAction,
)
from ..synthesis.protocol import ProtocolSpec
from .metrics import GROUP_SIZE_LIMIT, BatchMetricsRecorder, trial_rows
from .rng import (
    RandomSource,
    SnapshotError,
    generator_from_state,
    generator_state,
    sample_other,
)
from .sampling import sorted_distinct

#: Hook signature: called once per period, before actions execute.
Hook = Callable[["RoundEngine"], None]


@dataclass
class _Compiled:
    """A protocol action lowered to integer state ids."""

    kind: str
    actor: int
    probability: float
    target: int
    required: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int8))
    match: int = -1
    fanout: int = 0
    token_state: int = -1
    ttl: Optional[int] = None
    edge_from: int = -1  # state the moving process leaves
    index: int = -1  # place in the spec's declaration order
    #: Peer contacts per firing (the action's ``messages_per_period``).
    messages_per_period: int = 0


#: Host arrays store state ids as int8.
_MAX_STATES = int(np.iinfo(np.int8).max) + 1


def _compile(spec: ProtocolSpec) -> List[_Compiled]:
    if len(spec.states) > _MAX_STATES:
        raise ValueError(
            f"protocol {spec.name!r} has {len(spec.states)} states; the "
            f"engines store state ids as int8 and run at most {_MAX_STATES}"
        )
    index = {name: i for i, name in enumerate(spec.states)}
    compiled = []
    for action in spec.actions:
        base = dict(
            actor=index[action.actor_state],
            probability=action.probability,
            target=index[action.target_state],
            messages_per_period=action.messages_per_period,
        )
        if isinstance(action, FlipAction):
            compiled.append(
                _Compiled(kind="flip", edge_from=base["actor"], **base)
            )
        elif isinstance(action, TokenizeAction):
            compiled.append(
                _Compiled(
                    kind="tokenize",
                    required=np.array(
                        [index[s] for s in action.required_states], dtype=np.int8
                    ),
                    token_state=index[action.token_state],
                    ttl=action.ttl,
                    edge_from=index[action.token_state],
                    **base,
                )
            )
        elif isinstance(action, SampleAction):
            compiled.append(
                _Compiled(
                    kind="sample",
                    required=np.array(
                        [index[s] for s in action.required_states], dtype=np.int8
                    ),
                    edge_from=base["actor"],
                    **base,
                )
            )
        elif isinstance(action, AnyOfSampleAction):
            compiled.append(
                _Compiled(
                    kind="anyof",
                    match=index[action.match_state],
                    fanout=action.fanout,
                    edge_from=base["actor"],
                    **base,
                )
            )
        elif isinstance(action, PushAction):
            compiled.append(
                _Compiled(
                    kind="push",
                    match=index[action.match_state],
                    fanout=action.fanout,
                    edge_from=index[action.match_state],
                    **base,
                )
            )
        else:  # pragma: no cover - future kinds
            raise TypeError(f"cannot compile action kind {action.kind}")
        compiled[-1].index = len(compiled) - 1
    return compiled


def initial_counts(
    state_names: Sequence[str], n: int, initial: Mapping[str, float]
) -> np.ndarray:
    """How many of ``n`` hosts start in each state, as int64 ``(S,)``.

    Accepts counts (summing to ``n``) or fractions (summing to 1) and
    applies largest-remainder rounding; shared by every tier so all of
    them resolve an initial distribution to identical state counts.
    Allocates nothing of size ``n``.
    """
    unknown = set(initial) - set(state_names)
    if unknown:
        raise ValueError(f"unknown states in initial distribution: {sorted(unknown)}")
    values = np.array([float(initial.get(s, 0.0)) for s in state_names])
    total = values.sum()
    if abs(total - 1.0) < 1e-6:
        values = values * n
    elif abs(total - n) > max(1.0, 1e-6 * n):
        raise ValueError(
            f"initial distribution sums to {total}; expected 1.0 "
            f"(fractions) or {n} (counts)"
        )
    counts = np.floor(values).astype(np.int64)
    remainder = n - counts.sum()
    if remainder < 0:
        raise ValueError("initial counts exceed the group size")
    # Largest-remainder rounding for the leftover processes.
    fractional = values - np.floor(values)
    for index in np.argsort(-fractional)[:remainder]:
        counts[index] += 1
    return counts


def initial_state_vector(
    state_names: Sequence[str], n: int, initial: Mapping[str, float]
) -> np.ndarray:
    """The unshuffled initial state assignment for one protocol group.

    :func:`initial_counts` as one state id per host, for the tiers that
    track hosts (:class:`RoundEngine`, the agent tier).
    """
    return np.repeat(
        np.arange(len(state_names), dtype=np.int8),
        initial_counts(state_names, n, initial),
    )


def check_group_size(n: int) -> None:
    """Refuse a group size no tier runs, before anything is allocated.

    At least two hosts, and no more than an int32 recorder slab counts:
    a larger group is refused by name, never wrapped.
    """
    if n < 2:
        raise ValueError(f"group size must be >= 2, got {n}")
    if n > GROUP_SIZE_LIMIT:
        raise ValueError(
            f"group size {n} exceeds {GROUP_SIZE_LIMIT}, the most hosts "
            f"an int32 recorder slab counts"
        )


class HostFaults:
    """The fault vocabulary, on an engine that tracks hosts.

    Stock hooks (:mod:`repro.runtime.failures`,
    :mod:`repro.runtime.churn`) speak counts only -- crash ``k`` uniform
    alive hosts, recover ``k`` uniform dead ones, apply one step of a
    generated churn trace -- so the batch tier's census
    (:class:`~repro.runtime.batch_engine.BatchTrialView`) runs them
    unchanged.  Here ``rng`` picks the hosts and :meth:`crash` /
    :meth:`recover` move them, and every call checks its arguments
    before it changes a host.  An engine provides ``state_names``,
    per-host ``alive`` and ``states`` arrays and the generator
    :meth:`crash_fraction` draws on (``_fault_rng``), and overrides
    :meth:`crash` and :meth:`_revive` when its hosts are more than
    array entries (the agent tier's coroutines).
    """

    def state_id(self, name: str) -> int:
        return self.state_names.index(name)

    def _alive_in_each(self, states: np.ndarray) -> List[int]:
        """Alive hosts per state id of ``states``; the engine's one count."""
        # One compare + popcount per state: ``bincount`` over
        # ``states[alive]`` would copy N bytes through the mask and
        # widen int8 to intp on every call.
        alive = self.alive
        masked = not alive.all()
        return [
            int(np.count_nonzero(
                (states == i) & alive if masked else states == i
            ))
            for i in range(len(self.state_names))
        ]

    def counts(self) -> Dict[str, int]:
        """Alive process count per state."""
        return dict(zip(self.state_names, self._alive_in_each(self.states)))

    def alive_count(self) -> int:
        return int(np.count_nonzero(self.alive))

    def fractions(self) -> Dict[str, float]:
        """State fractions among alive processes."""
        alive = self.alive_count()
        if alive == 0:
            return {s: 0.0 for s in self.state_names}
        counts = self.counts()
        return {s: counts[s] / alive for s in self.state_names}

    def members_in(self, state: str) -> np.ndarray:
        """Ids of alive processes currently in ``state``."""
        return np.nonzero((self.states == self.state_id(state)) & self.alive)[0]

    def crash(self, hosts: np.ndarray) -> None:
        """Crash-stop the given hosts (they stop responding)."""
        self.alive[np.asarray(hosts, dtype=np.int64)] = False

    def crash_fraction(self, fraction: float) -> np.ndarray:
        """Crash a uniformly random fraction of the alive hosts."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must lie in [0, 1], got {fraction}")
        count = int(round(fraction * np.count_nonzero(self.alive)))
        return self.crash_uniform(self._fault_rng, count)

    def recover(self, hosts: np.ndarray, state: Optional[str] = None) -> None:
        """Crash-recovery: hosts rejoin in ``state`` (volatile state lost).

        The default is the first protocol state, which for the endemic
        protocol is *receptive*: a recovered host has lost its replicas
        and must re-acquire responsibility.  The state is looked up
        before any host moves: a bad name must not leave the hosts
        revived but stateless.
        """
        state = state or self.state_names[0]
        if state not in self.state_names:
            raise ValueError(
                f"unknown recovery state {state!r}; protocol states are "
                f"{list(self.state_names)}"
            )
        self._revive(
            np.asarray(hosts, dtype=np.int64), self.state_names.index(state)
        )

    def _revive(self, hosts: np.ndarray, sid: int) -> None:
        self.alive[hosts] = True
        self.states[hosts] = sid

    def crash_uniform(
        self, rng: np.random.Generator, count: int
    ) -> np.ndarray:
        """Crash ``count`` alive hosts picked uniformly; returns their ids."""
        victims = rng.choice(np.nonzero(self.alive)[0], count, replace=False)
        self.crash(victims)
        return victims

    def recover_uniform(
        self, rng: np.random.Generator, count: int, state: Optional[str] = None
    ) -> None:
        """Recover ``count`` dead hosts, picked uniformly, into ``state``."""
        self.recover(
            rng.choice(np.nonzero(~self.alive)[0], count, replace=False), state
        )

    def apply_churn(self, step) -> None:
        """One :class:`~repro.runtime.churn.ChurnStep`: its downs crash,
        then its ups recover."""
        if len(step.downs):
            self.crash(step.downs)
        if len(step.ups):
            self.recover(step.ups)


@dataclass
class RunResult:
    """Outcome of a :meth:`RoundEngine.run` call."""

    engine: "RoundEngine"
    recorder: BatchMetricsRecorder

    def final_counts(self) -> Dict[str, int]:
        return self.engine.counts()


class RoundEngine(HostFaults):
    """Synchronous-round simulator for one protocol instance.

    Parameters
    ----------
    spec:
        The protocol to execute.
    n:
        Group size (maximal membership; ids ``0 .. n-1``).
    initial:
        Initial distribution over states, as counts (summing to ``n``)
        or fractions (summing to 1).  Missing states get zero.
    seed:
        Seed for the Mersenne Twister streams.
    connection_failure_rate:
        Probability ``f`` that any individual contact attempt fails
        (Section 3's per-connection failure rate).
    shuffle:
        Assign initial states to host ids in random order (default), so
        host id carries no information -- required for the Figure 8
        untraceability measurement.
    """

    def __init__(
        self,
        spec: ProtocolSpec,
        n: int,
        initial: Mapping[str, float],
        seed: Optional[int] = None,
        connection_failure_rate: float = 0.0,
        shuffle: bool = True,
    ):
        check_group_size(n)
        if not 0.0 <= connection_failure_rate < 1.0:
            raise ValueError(
                f"connection failure rate must lie in [0, 1), got "
                f"{connection_failure_rate}"
            )
        self.spec = spec
        self.n = n
        self.connection_failure_rate = connection_failure_rate
        self.state_names = spec.states
        self._compiled = _compile(spec)
        self._random_source = RandomSource(seed)
        self._rng = self._random_source.stream("protocol")
        self._fault_rng = self._random_source.stream("faults")

        self.states = self._initial_states(initial, shuffle)
        self.alive = np.ones(n, dtype=bool)
        self.period = 0
        self.last_transitions: Dict[Tuple[str, str], int] = {}
        self.total_messages = 0

    # ------------------------------------------------------------------
    # Setup helpers
    # ------------------------------------------------------------------
    def _initial_states(
        self, initial: Mapping[str, float], shuffle: bool
    ) -> np.ndarray:
        states = initial_state_vector(self.state_names, self.n, initial)
        if shuffle:
            self._random_source.stream("initial-shuffle").shuffle(states)
        return states

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def elapsed_time(self) -> float:
        """ODE time corresponding to the periods run so far."""
        return self.spec.time_for_periods(self.period)

    # ------------------------------------------------------------------
    # Checkpoint / restore: the one engine codec every snapshot uses
    # ------------------------------------------------------------------
    def snapshot(self) -> Tuple[Dict[str, np.ndarray], Dict[str, object]]:
        """Everything that evolves after construction, as ``(arrays, meta)``.

        ``save_snapshot``'s shape: ``states`` and ``alive`` as arrays,
        ``period``, ``total_messages`` and both generators
        (:func:`~repro.runtime.rng.generator_state`) as plain JSON.  An
        engine built with the same ``(spec, n, connection_failure_rate)``
        and then :meth:`restore`-d continues bit-identically.
        """
        arrays = {"states": self.states.copy(), "alive": self.alive.copy()}
        meta = {
            "period": self.period,
            "total_messages": self.total_messages,
            "rng": generator_state(self._rng),
            "fault_rng": generator_state(self._fault_rng),
        }
        return arrays, meta

    def restore(
        self, arrays: Mapping[str, np.ndarray], meta: Mapping[str, object]
    ) -> None:
        """Inverse of :meth:`snapshot`.

        Every field is checked before the engine is touched; a bad one
        raises :class:`~repro.runtime.rng.SnapshotError` naming it.
        """
        for name, dtype in (("states", np.int8), ("alive", np.bool_)):
            array = arrays.get(name)
            if not (
                isinstance(array, np.ndarray) and array.dtype == dtype
                and array.shape == (self.n,)
            ):
                raise SnapshotError(
                    f"{name}: expected {np.dtype(dtype)} of shape ({self.n},)"
                )
        states = arrays["states"]
        if not 0 <= states.min() <= states.max() < len(self.state_names):
            raise SnapshotError(
                f"states: ids must lie in [0, {len(self.state_names)})"
            )
        for name in ("period", "total_messages"):
            if type(meta.get(name)) is not int or meta[name] < 0:
                raise SnapshotError(
                    f"{name}: expected a non-negative integer, "
                    f"got {meta.get(name)!r}"
                )
        generators = []
        for name in ("rng", "fault_rng"):
            try:
                generators.append(generator_from_state(meta.get(name)))
            except SnapshotError as exc:
                raise SnapshotError(f"{name}: {exc}") from None
        self.states = states.copy()
        self.alive = arrays["alive"].copy()
        self.period = meta["period"]
        self.total_messages = meta["total_messages"]
        self._rng, self._fault_rng = generators
        self.last_transitions = {}

    # ------------------------------------------------------------------
    # Fault injection (HostFaults, used directly and by hooks)
    # ------------------------------------------------------------------
    def set_states(self, hosts: np.ndarray, state: str) -> None:
        """Force hosts into a state (test and application hook)."""
        self.states[np.asarray(hosts, dtype=np.int64)] = self.state_id(state)

    # ------------------------------------------------------------------
    # The synchronous round
    # ------------------------------------------------------------------
    def step(self) -> Dict[Tuple[str, str], int]:
        """Execute one protocol period; returns the transition counts."""
        snapshot = self.states.copy()
        alive = self.alive
        moved = np.zeros(self.n, dtype=bool)
        transitions: Dict[Tuple[str, str], int] = {}
        members_cache: Dict[int, np.ndarray] = {}

        def members(sid: int) -> np.ndarray:
            cached = members_cache.get(sid)
            if cached is None:
                cached = np.nonzero((snapshot == sid) & alive)[0]
                members_cache[sid] = cached
            return cached

        counts = self._alive_in_each(snapshot)

        for action in self._compiled:
            actor_count = counts[action.actor]
            if actor_count == 0:
                continue
            if action.probability <= 0.0:
                continue
            if action.probability < 1.0:
                heads = self._rng.binomial(actor_count, action.probability)
                if heads == 0:
                    continue
                actors = self._rng.choice(
                    members(action.actor), size=heads, replace=False
                )
            else:
                actors = members(action.actor)
            movers, edge_from = self._execute(
                action, actors, snapshot, alive, moved, members
            )
            if len(movers) == 0:
                continue
            movers = movers[~moved[movers]]
            if len(movers) == 0:
                continue
            moved[movers] = True
            self.states[movers] = action.target
            edge = (
                self.state_names[edge_from],
                self.state_names[action.target],
            )
            transitions[edge] = transitions.get(edge, 0) + len(movers)

        self.period += 1
        self.last_transitions = transitions
        return transitions

    def _execute(
        self,
        action: _Compiled,
        actors: np.ndarray,
        snapshot: np.ndarray,
        alive: np.ndarray,
        moved: np.ndarray,
        members: Callable[[int], np.ndarray],
    ) -> Tuple[np.ndarray, int]:
        """Run one action's sampling and return (movers, from_state)."""
        failure = self.connection_failure_rate
        if action.kind == "flip":
            return actors, action.edge_from

        if action.kind in ("sample", "tokenize"):
            width = len(action.required)
            if width == 0:
                fired = actors
            else:
                targets = sample_other(self._rng, self.n, actors, width)
                self.total_messages += targets.size
                ok = alive[targets] & (snapshot[targets] == action.required[None, :])
                if failure > 0.0:
                    ok &= self._rng.random(targets.shape) >= failure
                fired = actors[ok.all(axis=1)]
            if action.kind == "sample":
                return fired, action.edge_from
            return self._deliver_tokens(action, len(fired), snapshot, alive, moved, members)

        if action.kind == "anyof":
            targets = sample_other(self._rng, self.n, actors, action.fanout)
            self.total_messages += targets.size
            ok = alive[targets] & (snapshot[targets] == action.match)
            if failure > 0.0:
                ok &= self._rng.random(targets.shape) >= failure
            return actors[ok.any(axis=1)], action.edge_from

        if action.kind == "push":
            targets = sample_other(self._rng, self.n, actors, action.fanout)
            self.total_messages += targets.size
            ok = alive[targets] & (snapshot[targets] == action.match)
            if failure > 0.0:
                ok &= self._rng.random(targets.shape) >= failure
            converted = sorted_distinct(targets[ok])
            return converted, action.edge_from

        raise AssertionError(f"unknown compiled kind {action.kind}")

    def _deliver_tokens(
        self,
        action: _Compiled,
        token_count: int,
        snapshot: np.ndarray,
        alive: np.ndarray,
        moved: np.ndarray,
        members: Callable[[int], np.ndarray],
    ) -> Tuple[np.ndarray, int]:
        """Route fired tokens to processes in the token state.

        Oracle mode (ttl=None): every token reaches a distinct target
        while targets remain (excess tokens are dropped, as the paper
        specifies when "no processes in the system are in state x").
        TTL mode: each token independently survives a ``ttl``-hop
        random walk with success probability ``1 - (1 - x_frac)^ttl``.
        """
        if token_count == 0:
            return np.empty(0, dtype=np.int64), action.edge_from
        pool = members(action.token_state)
        pool = pool[~moved[pool]]
        if len(pool) == 0:
            return np.empty(0, dtype=np.int64), action.edge_from
        if action.ttl is not None:
            alive_total = int(np.count_nonzero(alive))
            fraction = len(pool) / alive_total if alive_total else 0.0
            reach = 1.0 - (1.0 - fraction) ** action.ttl
            token_count = self._rng.binomial(token_count, reach)
            if token_count == 0:
                return np.empty(0, dtype=np.int64), action.edge_from
        take = min(token_count, len(pool))
        movers = self._rng.choice(pool, size=take, replace=False)
        return movers, action.edge_from

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def run(
        self,
        periods: int,
        recorder: Optional[BatchMetricsRecorder] = None,
        hooks: Iterable[Hook] = (),
        record_initial: bool = True,
        stop: Optional[Callable[["RoundEngine"], bool]] = None,
    ) -> RunResult:
        """Run ``periods`` rounds, applying hooks before each round.

        Hooks are callables ``hook(engine)``; failure injectors and
        churn replayers from :mod:`repro.runtime.failures` /
        :mod:`repro.runtime.churn` plug in here.  The run records one
        trial: ``(1, S)`` rows into a one-trial recorder.

        ``stop`` is an optional early-exit predicate, called with the
        engine after each period is stepped and recorded; returning
        True ends the run (as in :meth:`BatchRoundEngine.run`).
        """
        if recorder is None:
            recorder = BatchMetricsRecorder(self.state_names, 1)
        hooks = list(hooks)
        recorder.reserve(periods // recorder.stride + 2)
        if record_initial and self.period == 0:
            self._record(recorder)
        for _ in range(periods):
            for hook in hooks:
                hook(self)
            self.step()
            self._record(recorder)
            if stop is not None and stop(self):
                break
        return RunResult(engine=self, recorder=recorder)

    def _record(self, recorder: BatchMetricsRecorder) -> None:
        if self.period % recorder.stride:
            return
        rows = trial_rows(
            recorder.states, self.counts(), self.alive_count(),
            self.last_transitions,
        )
        if recorder.member_log_state is None:
            recorder._append(self.period, *rows)
            return
        recorder.record(
            self.period, *rows,
            members=[self.members_in(recorder.member_log_state)],
        )
