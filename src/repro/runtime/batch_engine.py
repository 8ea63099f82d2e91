"""Batched multi-trial execution: M protocol instances, one census.

Every experimental claim in the paper (Figures 5-12) is an *ensemble*
statement -- means and spreads over many independent runs of N-process
groups -- and mean-field results of the Bournez et al. kind are
statements about the census Markov chain, the per-state counts.  This
module runs M independent trials as one ``(M, S)`` count matrix and
puts hosts under it only when somebody asks which hosts.

This is the top tier of the three-engine hierarchy (agent sim -> round
engine -> batch engine; see :mod:`repro.runtime.round_engine`).  Use it
whenever the quantity of interest is an ensemble mean, quantile band,
or frequency (extinction, accuracy); drop to :class:`RoundEngine` to
study one run, and to :class:`~repro.runtime.agent_sim.AgentSimulation`
to check synchrony artifacts.

Each period is planned in two passes
(:class:`~repro.runtime.planner.ActionPlanner`).  The **census pass**
draws *how many* hosts every action moves, per trial, from the
period-start counts alone: one broadcast multinomial splits every
(trial, state) occupancy across that state's actions plus the no-op
remainder, the exact peer-match law thins the splits, a push converts
the distinct bins its surviving contacts hit, a tokenize delivers its
tokens while unmoved members last, and the at-most-one-move rule is a
hypergeometric overlap.  Counts, transitions and message totals advance
from that pass alone, so a run nobody looks inside costs
``O(periods x M x S + push contacts)`` whatever ``N`` is.  The **who
pass** exists only once identities do: the ``(M, N)`` state and alive
arrays and the member pools are built -- as a uniform placement of the
current census -- the first time something asks *which* hosts
(``.states`` / ``.alive``, a view accessor or mutator a hook calls, a
member log, ``_validate_consistency``, or ``shuffle=False``), and from
then on every period's movers are placed on hosts -- a uniform subset
of each source state's members, from the one sampler a massive failure
picks its victims with too
(:func:`~repro.runtime.sampling.distinct_positions`) -- with
incremental O(movers) pool maintenance.  The two passes draw from
separate streams: **observation cannot perturb the census**.

Trials are statistically independent, with per-action marginals
identical to M serial runs; actors fire at most one action of their
state per period (the paper's multi-way coin), where the serial engine
flips independent per-action coins -- the two agree to the
``O((p c)^2)`` conflict order the normalizing constant bounds.  The
engine is therefore validated *in distribution* against
:func:`serial_ensemble` and the mean-field ODEs (see
``tests/test_batch_engine.py``), not draw for draw.

Runs record into a :class:`~repro.runtime.metrics.BatchMetricsRecorder`
(re-exported here), which stores ``(M, periods, states)`` count
tensors and provides the mean/quantile reducers the figure benches
aggregate with.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
)

import numpy as np

from ..synthesis.protocol import ProtocolSpec
from .metrics import BatchMetricsRecorder, Edge
from .planner import ActionPlanner, TrialMemberPools
from .round_engine import RoundEngine, _compile, initial_state_vector
from .rng import RandomSource, make_generator, spawn_seeds
from .sampling import distinct_positions

#: A per-trial hook factory: called with the trial index, returns a hook
#: ``hook(view)`` where ``view`` offers the RoundEngine mutation surface
#: (``period``, ``crash``, ``crash_fraction``, ``recover``,
#: ``members_in``, ...).  Stock hooks from :mod:`repro.runtime.failures`
#: and :mod:`repro.runtime.churn` work unchanged:
#: ``lambda m: MassiveFailure(at_period=500, fraction=0.5)``.  A factory
#: returns ``None`` for a trial it has no hook for.
HookFactory = Callable[[int], Optional[Callable[[object], None]]]


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
    ``alive`` / ``states`` row views would corrupt it.  ``period``,
    :meth:`counts` and :meth:`alive_count` read the census; everything
    else is a question about hosts and makes the engine place them.
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
        row = self._engine._counts[self.trial].tolist()
        return dict(zip(self._engine.state_names, row))

    def alive_count(self) -> int:
        return int(self._engine._alive_counts[self.trial])

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
    """M independent synchronous-round trials, stepped by their census.

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
        shuffle (``shuffle=False`` pins hosts to the unshuffled layout,
        and so builds the host arrays at construction).
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

        source = RandomSource(seed)
        # One stream per pass (spawned in this order; labels are
        # documentation): the census draws *how many* hosts move on
        # ``batch-protocol``, identities are placed on ``batch-shuffle``
        # and followed on ``batch-who``, so looking at hosts can never
        # shift a census draw.
        self._rng = source.stream("batch-protocol")
        # A trial's fault generator is built at its first failure (most
        # runs have none); spawning its seed here is what fixes it.
        self._fault_seeds = [
            source.child(f"batch-faults-{m}") for m in range(trials)
        ]
        self._fault_rngs: Dict[int, np.random.Generator] = {}
        self._shuffle_rng = source.stream("batch-shuffle") if shuffle else None
        self._who_rng = source.stream("batch-who")
        base = initial_state_vector(self.state_names, n, initial)
        base_counts = np.bincount(
            base, minlength=len(self.state_names)
        ).astype(np.int64)
        # The census IS the state: (M, S) alive counts per state.
        self._counts = np.tile(base_counts, (trials, 1))
        self._alive_counts = np.full(trials, n, dtype=np.int64)
        self._total_messages = np.zeros(trials, dtype=np.int64)
        self._planner = ActionPlanner(
            self._compiled, trials, n,
            connection_failure_rate=connection_failure_rate,
        )
        # Per compiled action: the count columns its movers leave and
        # join, and the edge's name.  ``_counts`` is never rebound, so
        # the views are cut once.
        self._edges = [
            (
                self._counts[:, action.edge_from],
                self._counts[:, action.target],
                (spec.states[action.edge_from], spec.states[action.target]),
            )
            for action in self._compiled
        ]
        # Identities -- the (M, N) state/alive arrays and the member
        # pools of the states movers leave -- exist only once something
        # asks *which* hosts (see _materialise).  An unshuffled start
        # is such a question: it says who is where.
        self._states_arr: Optional[np.ndarray] = None
        self._alive_arr: Optional[np.ndarray] = None
        self._states_flat: Optional[np.ndarray] = None
        self._pools: Optional[TrialMemberPools] = None
        if not shuffle:
            self._materialise()

    def _materialise(self) -> None:
        """Place the current census on hosts, uniformly at random.

        Hosts in one state are exchangeable and the start is shuffled,
        so given the census every placement is equally likely: laying
        each trial's counts out in state order and permuting the row
        (on the ``batch-shuffle`` stream) is a draw from exactly the
        law an engine that tracked hosts from period 0 would be in.
        Nobody can be dead yet -- crashing is itself a question about
        identities.  From here on step() runs the planner's who pass
        after every census, which is several times the cost of a
        count-only period: one DEBUG record says when that began, and
        for whom.
        """
        trials, n = self.trials, self.n
        layout = np.repeat(
            np.tile(np.arange(len(self.state_names), dtype=np.int8), trials),
            self._counts.ravel(),
        ).reshape(trials, n)
        if self._shuffle_rng is not None:
            self._shuffle_rng.permuted(layout, axis=1, out=layout)
        self._states_arr = layout
        self._states_flat = layout.reshape(-1)
        self._alive_arr = np.ones((trials, n), dtype=bool)
        self._pools = TrialMemberPools(
            sorted(self._planner.selected_states), trials, n,
            self._states_flat,
        )
        import logging  # only an engine that places hosts pays for it

        log = logging.getLogger(__name__)
        if log.isEnabledFor(logging.DEBUG):
            # Who asked: the nearest caller that is neither this method
            # nor the states/alive properties it sits behind.
            own = {
                type(self)._materialise.__code__,
                type(self).states.fget.__code__,
                type(self).alive.fget.__code__,
            }
            frame = sys._getframe(1)
            while frame.f_code in own and frame.f_back is not None:
                frame = frame.f_back
            code = frame.f_code
            log.debug(
                "identities placed at period %d for (trials, n) = (%d, %d): "
                "asked by %s (%s:%d)", self.period, trials, n,
                getattr(code, "co_qualname", code.co_name),
                code.co_filename, frame.f_lineno,
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def states(self) -> np.ndarray:
        """The live ``(M, N)`` state array (mutate only via views).

        Reading it is what brings host identities into being.
        """
        if self._states_arr is None:
            self._materialise()
        return self._states_arr

    @property
    def alive(self) -> np.ndarray:
        """The live ``(M, N)`` alive flags (mutate only via views)."""
        if self._alive_arr is None:
            self._materialise()
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
        return self._counts[:, self._index[state]].copy()

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
        # How many of each state first -- a uniform sample of the alive
        # hosts is multivariate hypergeometric in the census -- then
        # who, so hosts read earlier cannot change what a failure costs.
        if trial not in self._fault_rngs:
            self._fault_rngs[trial] = make_generator(self._fault_seeds[trial])
        per_state = self._fault_rngs[trial].multivariate_hypergeometric(
            self._counts[trial],
            int(round(fraction * self._alive_counts[trial])),
        )
        # Alive hosts grouped by state, so the census row is the
        # segment sizes and a victim is a position in its state's run.
        census = self._counts[trial]
        hosts = np.flatnonzero(self.alive[trial])
        hosts = hosts[np.argsort(self.states[trial, hosts], kind="stable")]
        victims = hosts[
            np.repeat(np.cumsum(census) - census, per_state)
            + distinct_positions(self._who_rng, census, per_state)
        ]
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
        """Cross-check the two passes: the census against the hosts.

        The census pass advances the counts and the who pass the
        arrays and pools, on separate streams; they must describe the
        same population.  (Asking is a question about identities, so
        this materialises them.)
        """
        n_states = len(self.state_names)
        alive_flat = self.alive.reshape(-1)
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
            mask &= alive_flat
            if mask.any():
                raise AssertionError(
                    f"state {sid} has members but no allocated pool row"
                )
        for sid in list(self._pools.slots):
            mask = self._states_flat == sid
            mask &= alive_flat
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
        """One period for every trial; returns per-edge ``(M,)`` counts.

        How many first: the planner's census pass turns the period-start
        counts into every action's new movers (all reads observe the
        start of the period, RoundEngine semantics), and counts,
        transitions and messages advance from that alone.  Who second,
        and only if identities exist: the who pass places those movers
        on hosts, on its own stream.
        """
        # The census reads the live counts: nothing writes them until
        # it has returned every action's movers.
        moves, messages = self._planner.census(
            self._rng, self._counts, self._alive_counts
        )
        self._total_messages += messages
        transitions: Dict[Edge, np.ndarray] = {}
        for action, new in moves:
            source, target, edge = self._edges[action.index]
            source -= new  # in place, on the kept column views
            target += new
            transitions[edge] = (
                transitions[edge] + new if edge in transitions else new
            )
        if self._pools is not None and moves:
            # Selections read the period-start pools; writes and pool
            # deltas land after every action has chosen.
            removes: Dict[int, List[np.ndarray]] = {}
            adds: Dict[int, List[np.ndarray]] = {}
            for action, hosts in self._planner.who(
                self._who_rng, moves, self._pools
            ):
                self._states_flat[hosts] = action.target
                removes.setdefault(action.edge_from, []).append(hosts)
                adds.setdefault(action.target, []).append(hosts)
            self._pools.remove_many(removes.items())
            self._pools.add_many(adds.items())
        self.period += 1
        self.last_transitions = transitions
        return transitions

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
        return fresh hook instances (stock hooks are stateful), or
        ``None`` for a trial they leave alone; each trial's hooks fire
        against its own view before every period, exactly as in
        :meth:`RoundEngine.run`.

        ``stop`` is an optional early-exit predicate, called with the
        engine after each period is stepped and recorded; returning
        True ends the run.  This is how ensemble drivers interleave
        per-period measurements (e.g. :class:`LVEnsemble` convergence
        detection) without re-implementing the loop.
        """
        if recorder is None:
            recorder = BatchMetricsRecorder(self.state_names, self.trials)
        factories = list(hook_factories)
        # Only trials that have a hook are walked each period.
        hooked = []
        for m in range(self.trials):
            hooks = [
                hook for factory in factories
                if (hook := factory(m)) is not None
            ]
            if hooks:
                hooked.append((BatchTrialView(self, m), hooks))
        recorder.reserve(periods // recorder.stride + 2)
        if record_initial and self.period == 0:
            self._record(recorder)
        for _ in range(periods):
            for view, hooks in hooked:
                for hook in hooks:
                    hook(view)
            self.step()
            self._record(recorder)
            if stop is not None and stop(self):
                break
        return BatchRunResult(engine=self, recorder=recorder)

    def _record(self, recorder: BatchMetricsRecorder) -> None:
        if self.period % recorder.stride:
            return
        if recorder.member_log_state is None:
            # The engine's own arrays pass record's checks by
            # construction: write the rows (copies) without them.
            recorder._append(
                self.period, self._counts, self._alive_counts,
                self.last_transitions,
            )
            return
        sid = self.state_id(recorder.member_log_state)
        mask = (self.states == sid) & self.alive
        recorder.record(
            self.period, self._counts, self._alive_counts,
            transitions=self.last_transitions,
            members=[np.flatnonzero(mask[m]) for m in range(self.trials)],
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
) -> Tuple[BatchMetricsRecorder, List[int]]:
    """Reference implementation: M serial RoundEngine runs.

    Runs the trial loop the way the benches did before the batch engine
    existed, with the same spawned trial seeds the batch engine uses.
    Kept as the baseline of the equivalence tests; returns the trials'
    one-trial recorders merged in trial order, and the trial seeds.
    """
    seeds = spawn_seeds(seed, trials)
    recorders = []
    for trial_seed in seeds:
        engine = RoundEngine(
            spec, n=n, initial=initial, seed=trial_seed,
            connection_failure_rate=connection_failure_rate,
        )
        recorder = BatchMetricsRecorder(spec.states, 1, stride=stride)
        engine.run(periods, recorder=recorder)
        recorders.append(recorder)
    return BatchMetricsRecorder.merge(recorders), seeds
