"""Batched multi-trial execution: M protocol instances in one array.

Every experimental claim in the paper (Figures 5-12) is an *ensemble*
statement -- means and spreads over many independent runs of N-process
groups -- and mean-field results of the Bournez et al. kind only hold
in expectation.  Running the trial axis one :class:`RoundEngine` at a
time therefore wastes both wall clock and statistical power.  This
module runs M independent trials in a single ``(M, N)`` int8 state
array.

This is the top tier of the three-engine hierarchy (agent sim -> round
engine -> batch engine; see :mod:`repro.runtime.round_engine`).  Use it
whenever the quantity of interest is an ensemble mean, quantile band,
or frequency (extinction, accuracy); drop to :class:`RoundEngine` to
study one run, and to :class:`~repro.runtime.agent_sim.AgentSimulation`
to check synchrony artifacts.

All trials draw from one root stream and every per-action step (actor
selection, condition thinning, token routing) is vectorized across the
whole batch.  Each period is *planned* first
(:class:`~repro.runtime.planner.ActionPlanner`): one broadcast
multinomial draw splits every (trial, state) occupancy across that
state's actions plus the no-op remainder, the exact peer-match law
thins the splits to the movers, one selection pass per state picks them
(dense states share a single rejection-probe loop over pool positions;
sparse regimes like the endemic protocol's alpha ~ 1e-6 coin keep
per-trial scans; exact per-trial draw counts go through
:func:`~repro.runtime.sampling.segmented_choice`, a segmented
without-replacement sampler), and the selection is partitioned across
the state's actions.  No peer target is ever drawn, at any action
probability, except for a push into its own actor state.  Member pools
are maintained *incrementally* for the states plans select from (the
population-protocol simulation idiom).  Trials are statistically
independent, with per-action marginals identical to M serial runs;
actors fire at most one action of their state per period (the paper's
multi-way coin), where the serial engine flips independent per-action
coins -- the two agree to the ``O((p c)^2)`` conflict order the
normalizing constant bounds.

The engine is therefore validated *in distribution* against
:func:`serial_ensemble` and the mean-field ODEs (see
``tests/test_batch_engine.py``), not draw for draw.

Runs record into a :class:`BatchMetricsRecorder`, which stores
``(M, periods, states)`` count tensors and provides the mean/quantile
reducers the figure benches aggregate with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..synthesis.protocol import ProtocolSpec
from .metrics import MetricsRecorder
from .planner import ActionPlanner, TrialMemberPools
from .round_engine import RoundEngine, _compile, initial_state_vector
from .rng import RandomSource, spawn_seeds
from .sampling import segmented_choice

#: A per-trial hook factory: called with the trial index, returns a hook
#: ``hook(view)`` where ``view`` offers the RoundEngine mutation surface
#: (``period``, ``crash``, ``crash_fraction``, ``recover``,
#: ``members_in``, ...).  Stock hooks from :mod:`repro.runtime.failures`
#: and :mod:`repro.runtime.churn` work unchanged:
#: ``lambda m: MassiveFailure(at_period=500, fraction=0.5)``.
HookFactory = Callable[[int], Callable[[object], None]]

Edge = Tuple[str, str]


class BatchMetricsRecorder:
    """Per-period ensemble observations as ``(M, periods, states)`` tensors.

    The batched sibling of :class:`~repro.runtime.metrics.MetricsRecorder`:
    one :meth:`record` call stores a full ``(M, S)`` count matrix, and the
    accessors return count tensors plus mean/quantile reducers over the
    trial axis.
    """

    def __init__(
        self,
        states: Sequence[str],
        trials: int,
        track_transitions: bool = True,
        member_log_state: Optional[str] = None,
        stride: int = 1,
    ):
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        self.states = tuple(states)
        self.trials = trials
        self.track_transitions = track_transitions
        #: As for :class:`~repro.runtime.metrics.MetricsRecorder`: when
        #: set to a state name, each recorded period stores the host ids
        #: of that state's alive members, per trial (the Figure 8
        #: stasher log, batched).  Expensive for big groups.
        self.member_log_state = member_log_state
        self.stride = stride
        self.periods: List[int] = []
        self._counts: List[np.ndarray] = []      # each (M, S)
        self._alive: List[np.ndarray] = []       # each (M,)
        self._transitions: List[Dict[Edge, np.ndarray]] = []
        #: Per recorded period: (period, [per-trial member id arrays]).
        self.member_log: List[Tuple[int, List[np.ndarray]]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(
        self,
        period: int,
        counts: np.ndarray,
        alive: np.ndarray,
        transitions: Optional[Mapping[Edge, np.ndarray]] = None,
        members: Optional[List[np.ndarray]] = None,
    ) -> None:
        """Store one period's ``(M, S)`` counts (subject to the stride)."""
        if period % self.stride != 0:
            return
        counts = np.asarray(counts)
        if counts.shape != (self.trials, len(self.states)):
            raise ValueError(
                f"counts shape {counts.shape} != "
                f"({self.trials}, {len(self.states)})"
            )
        self.periods.append(period)
        self._counts.append(np.array(counts, dtype=np.int64, copy=True))
        self._alive.append(np.array(alive, dtype=np.int64, copy=True))
        if self.track_transitions:
            self._transitions.append(
                {e: np.array(v, dtype=np.int64, copy=True)
                 for e, v in (transitions or {}).items()}
            )
        if self.member_log_state is not None and members is not None:
            if len(members) != self.trials:
                raise ValueError(
                    f"got member lists for {len(members)} trials, "
                    f"expected {self.trials}"
                )
            self.member_log.append(
                (period, [np.array(m, copy=True) for m in members])
            )

    # ------------------------------------------------------------------
    # Merging (trial-sharded execution)
    # ------------------------------------------------------------------
    @classmethod
    def merge(
        cls, parts: Sequence["BatchMetricsRecorder"]
    ) -> "BatchMetricsRecorder":
        """Concatenate shard recorders along the trial axis, exactly.

        The merge behind :class:`repro.runtime.parallel.ShardedBatchExecutor`:
        per recorded period the shards' ``(M_k, S)`` count matrices (and
        alive vectors, transition matrices, member logs) concatenate in
        shard order -- integer concatenation, no arithmetic -- so the
        merged recorder is bitwise independent of how the shards were
        scheduled.  All parts must agree on states, stride, recording
        schedule and tracking configuration.
        """
        if not parts:
            raise ValueError("cannot merge zero recorders")
        if len(parts) == 1:
            return parts[0]  # nothing to concatenate (the unsharded run)
        first = parts[0]
        for other in parts[1:]:
            if other.states != first.states:
                raise ValueError("shard recorders disagree on states")
            if other.periods != first.periods:
                raise ValueError(
                    "shard recorders disagree on the recording schedule"
                )
            if (other.track_transitions != first.track_transitions
                    or other.member_log_state != first.member_log_state
                    or other.stride != first.stride):
                raise ValueError(
                    "shard recorders disagree on tracking configuration"
                )
        merged = cls(
            first.states,
            sum(p.trials for p in parts),
            track_transitions=first.track_transitions,
            member_log_state=first.member_log_state,
            stride=first.stride,
        )
        merged.periods = list(first.periods)
        merged._counts = [
            np.concatenate([p._counts[i] for p in parts], axis=0)
            for i in range(len(first.periods))
        ]
        merged._alive = [
            np.concatenate([p._alive[i] for p in parts])
            for i in range(len(first.periods))
        ]
        if first.track_transitions:
            zeros = [np.zeros(p.trials, dtype=np.int64) for p in parts]
            for i in range(len(first.periods)):
                edges: List[Edge] = []
                for p in parts:
                    for edge in p._transitions[i]:
                        if edge not in edges:
                            edges.append(edge)
                merged._transitions.append({
                    edge: np.concatenate([
                        p._transitions[i].get(edge, zeros[k])
                        for k, p in enumerate(parts)
                    ])
                    for edge in edges
                })
        if first.member_log_state is not None:
            for i, (period, _) in enumerate(first.member_log):
                merged.member_log.append((
                    period,
                    [m for p in parts for m in p.member_log[i][1]],
                ))
        return merged

    # ------------------------------------------------------------------
    # Tensors
    # ------------------------------------------------------------------
    @property
    def times(self) -> np.ndarray:
        return np.array(self.periods, dtype=np.int64)

    def count_tensor(self) -> np.ndarray:
        """All counts as one ``(M, periods, S)`` tensor."""
        if not self._counts:
            return np.empty((self.trials, 0, len(self.states)), dtype=np.int64)
        return np.stack(self._counts, axis=1)

    def counts(self, state: str) -> np.ndarray:
        """Count series of one state, shape ``(M, periods)``."""
        index = self.states.index(state)
        if not self._counts:
            return np.empty((self.trials, 0), dtype=np.int64)
        return np.stack([c[:, index] for c in self._counts], axis=1)

    def alive_tensor(self) -> np.ndarray:
        """Alive population per trial and period, shape ``(M, periods)``."""
        if not self._alive:
            return np.empty((self.trials, 0), dtype=np.int64)
        return np.stack(self._alive, axis=1)

    def fractions(self, state: str) -> np.ndarray:
        """Per-trial state fractions among alive, shape ``(M, periods)``."""
        alive = self.alive_tensor().astype(float)
        alive[alive == 0] = np.nan
        return self.counts(state) / alive

    def transition_tensor(self, edge: Edge) -> np.ndarray:
        """Per-trial transitions along one edge, shape ``(M, periods)``."""
        if not self.track_transitions:
            raise RuntimeError("transition tracking is disabled")
        zero = np.zeros(self.trials, dtype=np.int64)
        if not self._transitions:
            return np.empty((self.trials, 0), dtype=np.int64)
        return np.stack(
            [t.get(edge, zero) for t in self._transitions], axis=1
        )

    def trial_member_log(self, trial: int) -> List[Tuple[int, np.ndarray]]:
        """One trial's member log, in :class:`MetricsRecorder` layout.

        Feeds the Figure 8 fairness/untraceability statistics
        (:func:`repro.analysis.fairness.analyze_member_log` accepts a
        raw log list) for any single ensemble member.
        """
        if self.member_log_state is None:
            raise RuntimeError("member logging is disabled")
        if not 0 <= trial < self.trials:
            raise IndexError(f"trial {trial} out of range [0, {self.trials})")
        return [(period, members[trial]) for period, members in self.member_log]

    def edges_seen(self) -> List[Edge]:
        """Every edge that carried at least one transition in any trial."""
        seen: List[Edge] = []
        for period_transitions in self._transitions:
            for edge, counts in period_transitions.items():
                if counts.any() and edge not in seen:
                    seen.append(edge)
        return sorted(seen)

    # ------------------------------------------------------------------
    # Reducers over the trial axis
    # ------------------------------------------------------------------
    def mean_counts(self, state: str) -> np.ndarray:
        """Ensemble-mean count series, shape ``(periods,)``."""
        return self.counts(state).mean(axis=0)

    def std_counts(self, state: str) -> np.ndarray:
        """Ensemble standard deviation series, shape ``(periods,)``."""
        return self.counts(state).std(axis=0)

    def quantile_counts(self, state: str, q) -> np.ndarray:
        """Ensemble quantiles per period (``q`` scalar or sequence)."""
        return np.quantile(self.counts(state), q, axis=0)

    def mean_fractions(self, state: str) -> np.ndarray:
        """Ensemble-mean fraction series, shape ``(periods,)``."""
        return np.nanmean(self.fractions(state), axis=0)

    def mean_alive(self) -> np.ndarray:
        """Ensemble-mean alive population per period."""
        return self.alive_tensor().mean(axis=0)

    def mean_transitions(self, edge: Edge) -> np.ndarray:
        """Ensemble-mean transition series along one edge."""
        return self.transition_tensor(edge).mean(axis=0)

    def last_counts(self) -> np.ndarray:
        """Counts at the most recent recorded period, shape ``(M, S)``."""
        if not self._counts:
            return np.zeros((self.trials, len(self.states)), dtype=np.int64)
        return self._counts[-1].copy()


@dataclass
class BatchRunResult:
    """Outcome of a :meth:`BatchRoundEngine.run` call."""

    engine: "BatchRoundEngine"
    recorder: BatchMetricsRecorder

    def final_counts(self) -> Dict[str, np.ndarray]:
        """Per-state final counts, each an ``(M,)`` array."""
        matrix = self.engine.counts_matrix()
        return {
            s: matrix[:, i].copy()
            for i, s in enumerate(self.engine.state_names)
        }

    def mean_final_counts(self) -> Dict[str, float]:
        """Ensemble means of the final per-state counts."""
        return {s: float(v.mean()) for s, v in self.final_counts().items()}


class BatchTrialView:
    """One trial of a batch engine, quacking like a RoundEngine.

    Hooks written against :class:`RoundEngine` (failure injectors, churn
    replayers) receive one of these per trial.  All *mutations* must go
    through the methods below -- they keep the engine's incremental
    count and membership bookkeeping consistent; writing directly to the
    ``alive`` / ``states`` row views would corrupt it.
    """

    def __init__(self, engine: "BatchRoundEngine", trial: int):
        self._engine = engine
        self.trial = trial
        self.n = engine.n

    @property
    def period(self) -> int:
        return self._engine.period

    @property
    def alive(self) -> np.ndarray:
        """Read-only row view of this trial's alive flags."""
        return self._engine.alive[self.trial]

    @property
    def states(self) -> np.ndarray:
        """Read-only row view of this trial's state array."""
        return self._engine.states[self.trial]

    def state_id(self, name: str) -> int:
        return self._engine.state_id(name)

    def counts(self) -> Dict[str, int]:
        row = self._engine.counts_matrix()[self.trial]
        return {s: int(row[i]) for i, s in enumerate(self._engine.state_names)}

    def alive_count(self) -> int:
        return int(self._engine.alive_counts()[self.trial])

    def members_in(self, state: str) -> np.ndarray:
        sid = self._engine.state_id(state)
        return np.flatnonzero(
            (self.states == sid) & self.alive
        )

    def crash(self, hosts: np.ndarray) -> None:
        self._engine._crash(self.trial, np.asarray(hosts, dtype=np.int64))

    def crash_fraction(self, fraction: float) -> np.ndarray:
        return self._engine._crash_fraction(self.trial, fraction)

    def recover(self, hosts: np.ndarray, state: Optional[str] = None) -> None:
        self._engine._recover(
            self.trial, np.asarray(hosts, dtype=np.int64), state
        )

    def set_states(self, hosts: np.ndarray, state: str) -> None:
        self._engine._set_states(
            self.trial, np.asarray(hosts, dtype=np.int64), state
        )


class BatchRoundEngine:
    """M independent synchronous-round trials in one ``(M, N)`` array.

    Parameters
    ----------
    spec:
        The protocol to execute (same for every trial).
    n:
        Group size per trial.
    trials:
        Number of independent trials M.
    initial:
        Initial distribution, counts or fractions (resolved identically
        to :class:`RoundEngine` via ``initial_state_vector``); every
        trial starts from the same counts with its own placement
        shuffle.
    seed:
        Root seed of the batch stream; :attr:`trial_seeds` labels the
        trials with the serial tier's ``spawn_seeds(seed, trials)``.
    connection_failure_rate:
        Per-connection failure probability, as for :class:`RoundEngine`.
    mode:
        Only ``"batch"`` exists; kept for callers that spell it out.
    """

    def __init__(
        self,
        spec: ProtocolSpec,
        n: int,
        trials: int,
        initial: Mapping[str, float],
        seed: Optional[int] = None,
        connection_failure_rate: float = 0.0,
        shuffle: bool = True,
        mode: str = "batch",
    ):
        if n < 2:
            raise ValueError(f"group size must be >= 2, got {n}")
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        if mode != "batch":
            raise ValueError(
                f"mode must be 'batch', got {mode!r} (the lockstep mode "
                f"was removed: Experiment(..., engine=\"serial\") runs the "
                f"same seeded RoundEngine trials)"
            )
        if not 0.0 <= connection_failure_rate < 1.0:
            raise ValueError(
                f"connection failure rate must lie in [0, 1), got "
                f"{connection_failure_rate}"
            )
        self.spec = spec
        self.n = n
        self.trials = trials
        self.seed = seed
        self.connection_failure_rate = connection_failure_rate
        self.state_names = spec.states
        self._index = {name: i for i, name in enumerate(spec.states)}
        self._compiled = _compile(spec)
        self.period = 0
        self.last_transitions: Dict[Edge, np.ndarray] = {}
        self.recovery_state = spec.states[0]
        self.trial_seeds = spawn_seeds(seed, trials)

        n_states = len(self.state_names)
        source = RandomSource(seed)
        self._rng = source.stream("batch-protocol")
        self._fault_rngs = [
            source.stream(f"batch-faults-{m}") for m in range(trials)
        ]
        base = initial_state_vector(self.state_names, n, initial)
        self._states_arr = np.tile(base, (trials, 1))
        if shuffle:
            source.stream("batch-shuffle").permuted(
                self._states_arr, axis=1, out=self._states_arr
            )
        self._alive_arr = np.ones((trials, n), dtype=bool)
        self._states_flat = self._states_arr.reshape(-1)
        self._alive_flat = self._alive_arr.reshape(-1)
        self._any_dead = False
        base_counts = np.bincount(base, minlength=n_states).astype(np.int64)
        self._counts = np.tile(base_counts, (trials, 1))
        self._alive_counts = np.full(trials, n, dtype=np.int64)
        self._total_messages = np.zeros(trials, dtype=np.int64)

        # The per-period action planner (one multinomial split per
        # state, fused dense probing; see repro.runtime.planner) plus
        # the period-scoped scratch buffers it and step() reuse -- the
        # hot path makes no per-period O(M * N) allocations.
        self._planner = ActionPlanner(
            self._compiled, trials, n,
            connection_failure_rate=connection_failure_rate,
        )
        self._moved_buf: Optional[np.ndarray] = None
        self._counts0_buf = np.empty_like(self._counts)
        # Incremental membership: every state whose members a plan
        # selects or probes keeps per-trial member pools with O(movers)
        # swap-delete maintenance.  A state that is only ever counted
        # (the actor state of an analytic push) keeps none.
        self._pools = TrialMemberPools(
            sorted(self._planner.selected_states), trials, n,
            self._states_flat,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def states(self) -> np.ndarray:
        """The live ``(M, N)`` state array (mutate only via views)."""
        return self._states_arr

    @property
    def alive(self) -> np.ndarray:
        """The live ``(M, N)`` alive flags (mutate only via views)."""
        return self._alive_arr

    @property
    def total_messages(self) -> np.ndarray:
        """Per-trial messages sent so far, shape ``(M,)``."""
        return self._total_messages

    def state_id(self, name: str) -> int:
        return self._index[name]

    def counts_matrix(self) -> np.ndarray:
        """Alive counts per state, shape ``(M, S)``."""
        return self._counts.copy()

    def counts(self, state: str) -> np.ndarray:
        """Alive counts of one state across trials, shape ``(M,)``."""
        return self.counts_matrix()[:, self._index[state]]

    def mean_counts(self) -> Dict[str, float]:
        """Ensemble-mean alive count per state."""
        matrix = self.counts_matrix()
        return {
            s: float(matrix[:, i].mean())
            for i, s in enumerate(self.state_names)
        }

    def alive_counts(self) -> np.ndarray:
        """Alive population per trial, shape ``(M,)``."""
        return self._alive_counts.copy()

    def elapsed_time(self) -> float:
        """ODE time corresponding to the periods run so far."""
        return self.spec.time_for_periods(self.period)

    def trial_views(self) -> List:
        """Per-trial hook targets (RoundEngine-compatible)."""
        return [BatchTrialView(self, m) for m in range(self.trials)]

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def _crash(self, trial: int, hosts: np.ndarray) -> None:
        hosts = np.unique(hosts)
        newly = hosts[self.alive[trial, hosts]]
        if newly.size == 0:
            return
        self.alive[trial, newly] = False
        self._any_dead = True
        old_states = self.states[trial, newly]
        self._counts[trial] -= np.bincount(
            old_states, minlength=len(self.state_names)
        )
        self._alive_counts[trial] -= newly.size
        gids = newly.astype(np.int64) + trial * self.n
        for sid in self._pools.slots:
            self._pools.remove(sid, gids[old_states == sid])

    def _crash_fraction(self, trial: int, fraction: float) -> np.ndarray:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must lie in [0, 1], got {fraction}")
        alive_ids = np.flatnonzero(self.alive[trial])
        count = int(round(fraction * alive_ids.size))
        victims = self._fault_rngs[trial].choice(
            alive_ids, size=count, replace=False
        )
        self._crash(trial, victims)
        return victims

    def _recover(
        self, trial: int, hosts: np.ndarray, state: Optional[str] = None
    ) -> None:
        sid = self._index[state or self.recovery_state]
        hosts = np.unique(hosts)
        was_alive = self.alive[trial, hosts]
        revived = hosts[~was_alive]
        already = hosts[was_alive]
        if already.size:
            # RoundEngine.recover also resets already-alive hosts.
            self._set_states_by_id(trial, already, sid)
        if revived.size == 0:
            return
        self.alive[trial, revived] = True
        self.states[trial, revived] = sid
        self._counts[trial, sid] += revived.size
        self._alive_counts[trial] += revived.size
        self._pools.add(sid, revived.astype(np.int64) + trial * self.n)
        if self._alive_counts.sum() == self.alive.size:
            self._any_dead = False

    def _set_states(self, trial: int, hosts: np.ndarray, state: str) -> None:
        self._set_states_by_id(trial, hosts, self._index[state])

    def _set_states_by_id(
        self, trial: int, hosts: np.ndarray, sid: int
    ) -> None:
        if hosts.size == 0:
            return
        # Duplicate ids would double-count in the bincount updates
        # below; RoundEngine.set_states tolerates them, so must we.
        hosts = np.unique(hosts)
        live = hosts[self.alive[trial, hosts]]
        if live.size:
            old_states = self.states[trial, live]
            keep = live[old_states != sid]
            old_states = old_states[old_states != sid]
            if keep.size:
                self._counts[trial] -= np.bincount(
                    old_states, minlength=len(self.state_names)
                )
                self._counts[trial, sid] += keep.size
                gids = keep.astype(np.int64) + trial * self.n
                for tracked in self._pools.slots:
                    if tracked != sid:
                        self._pools.remove(tracked, gids[old_states == tracked])
                self._pools.add(sid, gids)
        # Dead hosts carry the new state but stay out of counts and
        # membership, exactly like RoundEngine.set_states.
        self.states[trial, hosts] = sid

    def _validate_consistency(self) -> None:
        """Debug invariant check: counts and members match the arrays."""
        n_states = len(self.state_names)
        for m in range(self.trials):
            expected = np.bincount(
                self.states[m][self.alive[m]], minlength=n_states
            )
            if not np.array_equal(expected, self._counts[m]):
                raise AssertionError(
                    f"trial {m}: counts {self._counts[m]} != {expected}"
                )
        assert np.array_equal(
            self._alive_counts, self.alive.sum(axis=1)
        ), "alive counts out of sync"
        for sid in sorted(self._pools.tracked - set(self._pools.slots)):
            # The lazy-allocation invariant: a tracked state without a
            # row has no alive members (gains always go through add()).
            mask = self._states_flat == sid
            mask &= self._alive_flat
            if mask.any():
                raise AssertionError(
                    f"state {sid} has members but no allocated pool row"
                )
        for sid in list(self._pools.slots):
            mask = self._states_flat == sid
            mask &= self._alive_flat
            expected_ids = np.flatnonzero(mask)
            grouped, bounds = self._pools.grouped(sid)
            if not np.array_equal(np.sort(grouped), expected_ids):
                raise AssertionError(f"member pool of state {sid} out of sync")
            pos = self._pools.pos[grouped]
            slot = self._pools.slots[sid]
            if not np.array_equal(
                self._pools.pool[slot].reshape(-1)[
                    (grouped // self.n) * self.n + pos
                ],
                grouped,
            ):
                raise AssertionError(f"pool index of state {sid} out of sync")

    # ------------------------------------------------------------------
    # The batched synchronous round
    # ------------------------------------------------------------------
    def step(self) -> Dict[Edge, np.ndarray]:
        """One period for every trial; returns per-edge ``(M,)`` counts."""
        m_trials, n = self.trials, self.n
        # All period reads (peer checks, member lookups) must observe
        # the start-of-period state; state writes and pool deltas are
        # deferred to the end of the period, so the live arrays ARE
        # that snapshot and no O(M * N) copy is needed.
        if self._planner.disjoint_movers:
            # Every planned mover is a distinct actor (see
            # ActionPlanner.disjoint_movers), so the at-most-one-move
            # mask would never filter anything: skip it entirely.
            moved = None
        else:
            if self._moved_buf is None:
                self._moved_buf = np.zeros(m_trials * n, dtype=bool)
            # Kept all-False between periods: the touched entries are
            # reset from the mover batches at the end of the period.
            moved = self._moved_buf
        counts0 = self._counts0_buf
        np.copyto(counts0, self._counts)
        transitions: Dict[Edge, np.ndarray] = {}
        member_adds: Dict[int, List[np.ndarray]] = {}
        member_removes: Dict[int, List[np.ndarray]] = {}

        # Phase 1 -- actor selection for every action, via the fused
        # per-state multinomial planner (repro.runtime.planner): one
        # multinomial split per state across its actions, thinned by
        # the exact peer-match law, one selection pass per state (dense
        # states share a single rejection-probe loop), partitioned
        # across the winning actions.  All selections observe the
        # start-of-period pools (RoundEngine semantics), so no action's
        # actors depend on another's execution; strategy switches
        # depend only on period-start counts and prior draws, so
        # replays are deterministic.
        plans, period_messages = self._planner.plan(
            self._rng, counts0, self._pools
        )
        self._total_messages += period_messages

        # Phase 2 -- execution, in action declaration order (token
        # delivery and the at-most-one-move rule stay sequential).
        deferred_writes: List[Tuple[np.ndarray, int]] = []
        for entry in plans:
            action = entry.action
            if entry.tokens is not None:
                movers, edge_from = self._deliver_tokens_counts(
                    action, entry.tokens, moved
                )
            elif entry.prefired:
                # The planner already applied the action's interaction
                # condition analytically: the actors ARE the movers.
                movers, edge_from = entry.actors, action.edge_from
            else:
                movers, edge_from = self._execute_batch(
                    action, entry.actors
                )
            if movers.size == 0:
                continue
            if moved is not None:
                movers = movers[~moved[movers]]
                if movers.size == 0:
                    continue
                moved[movers] = True
            deferred_writes.append((movers, action.target))
            per_trial = np.bincount(movers // n, minlength=m_trials)
            self._counts[:, edge_from] -= per_trial
            self._counts[:, action.target] += per_trial
            edge = (
                self.state_names[edge_from], self.state_names[action.target]
            )
            if edge in transitions:
                transitions[edge] += per_trial
            else:
                transitions[edge] = per_trial
            member_removes.setdefault(edge_from, []).append(movers)
            member_adds.setdefault(action.target, []).append(movers)

        # State writes, the moved-mask reset and the membership deltas
        # are applied only now: during the period every lookup must
        # observe the start-of-period snapshot, matching RoundEngine's
        # semantics.
        for movers, target in deferred_writes:
            self._states_flat[movers] = target
            if moved is not None:
                moved[movers] = False
        self._pools.apply_deltas(member_removes, member_adds)
        self.period += 1
        self.last_transitions = transitions
        return transitions

    def _execute_batch(
        self, action, actors: np.ndarray
    ) -> Tuple[np.ndarray, int]:
        """Explicit peer draws for a self-match push's ``actors``.

        The one action the planner cannot reduce to a count law: a push
        whose match state is its own actor state (each actor excludes
        itself from its peers, so no single match probability serves
        every contact).  Every other kind arrives prefired.  State
        writes are deferred to the end of the period, so the live
        arrays are the period-start snapshot.
        """
        if action.kind != "push":
            raise AssertionError(
                f"{action.kind} actions are planned analytically"
            )
        # Uniform non-self peers within each actor's own trial row (the
        # flat-global-id form of repro.runtime.rng.sample_other).
        hosts = actors % self.n
        targets = self._rng.integers(
            0, self.n - 1, size=(actors.size, action.fanout)
        )
        targets += targets >= hosts[:, None]
        targets += (actors - hosts)[:, None]
        ok = self._states_flat[targets] == action.match
        if self._any_dead:
            ok &= self._alive_flat[targets]
        if self.connection_failure_rate > 0.0:
            ok &= self._rng.random(targets.shape) \
                >= self.connection_failure_rate
        return np.unique(targets[ok]), action.edge_from

    def _deliver_tokens_counts(
        self,
        action,
        tokens: np.ndarray,
        moved: np.ndarray,
    ) -> Tuple[np.ndarray, int]:
        """Route ``tokens[m]`` fired tokens per trial (RoundEngine semantics).

        Token routing never needs the firing actors' identities, so the
        planner hands over thinned per-trial counts.  Delivery needs
        *exact* per-trial draw counts (trial ``m`` delivers
        ``min(tokens[m], pool[m])`` tokens), so the dense path runs
        through :func:`segmented_choice`.  When only a handful of
        trials fired a token, the per-trial loop is kept instead: it
        reads just those trials' pool rows, which is cheaper than
        gathering the token state's full batch-wide grouping.
        """
        empty = np.empty(0, dtype=np.int64)
        active = np.flatnonzero(tokens)
        if active.size <= max(1, self.trials // 4):
            chunks: List[np.ndarray] = []
            for trial in active:
                pool = self._pools.members(action.token_state, int(trial))
                pool = pool[~moved[pool]]
                if pool.size == 0:
                    continue
                count = int(tokens[trial])
                if action.ttl is not None:
                    alive_total = int(self._alive_counts[trial])
                    fraction = pool.size / alive_total if alive_total else 0.0
                    reach = 1.0 - (1.0 - fraction) ** action.ttl
                    count = int(self._rng.binomial(count, reach))
                    if count == 0:
                        continue
                take = min(count, pool.size)
                chunks.append(
                    self._rng.choice(pool, size=take, replace=False)
                )
            if not chunks:
                return empty, action.edge_from
            return np.concatenate(chunks), action.edge_from

        grouped, _ = self._pools.grouped(action.token_state)
        pool = grouped[~moved[grouped]]
        if pool.size == 0:
            return empty, action.edge_from
        # Filtering preserves within-trial grouping, so the filtered
        # pool's segment bounds are one bincount + cumsum away.
        sizes = np.bincount(pool // self.n, minlength=self.trials)
        if action.ttl is not None:
            fractions = np.divide(
                sizes, self._alive_counts,
                out=np.zeros(self.trials), where=self._alive_counts > 0,
            )
            reach = 1.0 - (1.0 - fractions) ** action.ttl
            tokens = self._rng.binomial(tokens, reach)
        take = np.minimum(tokens, sizes)
        if not take.any():
            return empty, action.edge_from
        bounds = np.concatenate([[0], np.cumsum(sizes)])
        return segmented_choice(self._rng, pool, bounds, take), action.edge_from

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def run(
        self,
        periods: int,
        recorder: Optional[BatchMetricsRecorder] = None,
        hook_factories: Iterable[HookFactory] = (),
        record_initial: bool = True,
        stop: Optional[Callable[["BatchRoundEngine"], bool]] = None,
    ) -> BatchRunResult:
        """Run ``periods`` rounds of every trial.

        ``hook_factories`` are called once per trial index and must
        return fresh hook instances (stock hooks are stateful); each
        trial's hooks fire against its own view before every period,
        exactly as in :meth:`RoundEngine.run`.

        ``stop`` is an optional early-exit predicate, called with the
        engine after each period is stepped and recorded; returning
        True ends the run.  This is how ensemble drivers interleave
        per-period measurements (e.g. :class:`LVEnsemble` convergence
        detection) without re-implementing the loop.
        """
        if recorder is None:
            recorder = BatchMetricsRecorder(self.state_names, self.trials)
        factories = list(hook_factories)
        views = self.trial_views() if factories else []
        trial_hooks = [
            [factory(m) for factory in factories]
            for m in range(self.trials if factories else 0)
        ]
        if record_initial and self.period == 0:
            self._record(recorder)
        for _ in range(periods):
            for m, view in enumerate(views):
                for hook in trial_hooks[m]:
                    hook(view)
            self.step()
            self._record(recorder)
            if stop is not None and stop(self):
                break
        return BatchRunResult(engine=self, recorder=recorder)

    def _record(self, recorder: BatchMetricsRecorder) -> None:
        members = None
        if (recorder.member_log_state is not None
                and self.period % recorder.stride == 0):
            sid = self.state_id(recorder.member_log_state)
            mask = (self.states == sid) & self.alive
            members = [np.flatnonzero(mask[m]) for m in range(self.trials)]
        recorder.record(
            self.period,
            self.counts_matrix(),
            self.alive_counts(),
            transitions=self.last_transitions,
            members=members,
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"BatchRoundEngine({self.spec.name!r}, n={self.n}, "
            f"trials={self.trials}, period={self.period})"
        )


def serial_ensemble(
    spec: ProtocolSpec,
    n: int,
    trials: int,
    initial: Mapping[str, float],
    periods: int,
    seed: Optional[int] = None,
    connection_failure_rate: float = 0.0,
    stride: int = 1,
) -> Tuple[List[MetricsRecorder], List[int]]:
    """Reference implementation: M serial RoundEngine runs.

    Runs the trial loop the way the benches did before the batch engine
    existed, with the same spawned trial seeds the batch engine uses.
    Kept as the baseline for ``benchmarks/bench_batch_throughput.py``
    and the equivalence tests; returns the per-trial recorders and the
    trial seeds.
    """
    seeds = spawn_seeds(seed, trials)
    recorders = []
    for trial_seed in seeds:
        engine = RoundEngine(
            spec, n=n, initial=initial, seed=trial_seed,
            connection_failure_rate=connection_failure_rate,
        )
        recorder = MetricsRecorder(spec.states, stride=stride)
        engine.run(periods, recorder=recorder)
        recorders.append(recorder)
    return recorders, seeds
