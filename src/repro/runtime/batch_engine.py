"""Batched multi-trial execution: M protocol instances, one census.

Every experimental claim in the paper (Figures 5-12) is an *ensemble*
statement -- means and spreads over many independent runs of N-process
groups -- and mean-field results of the Bournez et al. kind are
statements about the census Markov chain, the per-state counts.  This
module runs M independent trials as one ``(M, S)`` count matrix, and
nothing else: no host of a batch trial has an identity.

This is the top tier of the three-engine hierarchy (agent sim -> round
engine -> batch engine; see :mod:`repro.runtime.round_engine`).  Use it
whenever the quantity of interest is an ensemble mean, quantile band,
or frequency (extinction, accuracy); drop to :class:`RoundEngine` to
study one run or anything that asks *which* hosts, and to
:class:`~repro.runtime.agent_sim.AgentSimulation` to check synchrony
artifacts.

Each period is one pass of :class:`~repro.runtime.planner.ActionPlanner`,
the **census**: it draws *how many* hosts every action moves, per
trial, from the period-start counts alone.  One broadcast multinomial
splits every (trial, state) occupancy across that state's actions plus
the no-op remainder, the exact peer-match law thins the splits, a push
converts the distinct bins its surviving contacts hit, a tokenize
delivers its tokens while unmoved members last, and the at-most-one-move
rule is a hypergeometric overlap.  A run costs
``O(periods x M x S + push contacts)`` whatever ``N`` is.

Faults are census operations too.  Hosts in one state are exchangeable,
so a hook's view of a trial (:class:`BatchTrialView`) implements the
fault vocabulary every engine shares
(:class:`~repro.runtime.round_engine.HostFaults`) as count laws: ``k``
uniform alive hosts are a multivariate hypergeometric draw over the
census, and dead hosts are interchangeable.  A question about *which*
hosts -- a member log, ``members_in``, ``crash(hosts)`` -- is refused
by name (:class:`HostIdentityError`); the serial tier answers it.

Trials are statistically independent, with per-action marginals
identical to M serial runs; actors fire at most one action of their
state per period (the paper's multi-way coin), where the serial engine
flips independent per-action coins -- the two agree to the
``O((p c)^2)`` conflict order the normalizing constant bounds.  The
engine is therefore validated *in distribution* against the serial
tier (``EnsembleExecutor(..., engine="serial")``) and the mean-field
ODEs (see ``tests/test_batch_engine.py``), not draw for draw.

Runs record into a :class:`~repro.runtime.metrics.BatchMetricsRecorder`
(re-exported here), which stores ``(M, periods, states)`` count
tensors and provides the mean/quantile reducers the figure benches
aggregate with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    NoReturn,
    Optional,
)

import numpy as np

from ..synthesis.protocol import ProtocolSpec
from .churn import GeneratedTrace
from .metrics import BatchMetricsRecorder, Edge
from .planner import ActionPlanner
from .round_engine import _compile, initial_state_vector
from .rng import RandomSource, make_generator, spawn_seeds

#: A per-trial hook factory: called with the trial index, returns a hook
#: ``hook(view)`` where ``view`` is a :class:`BatchTrialView` (``period``,
#: ``counts``, ``crash_fraction``, ``crash_uniform``, ...).  Stock hooks
#: from :mod:`repro.runtime.failures` and :mod:`repro.runtime.churn`
#: that act by counts work unchanged:
#: ``lambda m: MassiveFailure(at_period=500, fraction=0.5)``.  A factory
#: returns ``None`` for a trial it has no hook for.
HookFactory = Callable[[int], Optional[Callable[[object], None]]]


class HostIdentityError(RuntimeError):
    """Something asked *which* hosts of a batch trial; only counts exist."""


def _refuse(call: str) -> NoReturn:
    raise HostIdentityError(
        f"{call} asks which hosts, and a batch trial is only a census: "
        f'run it with engine="serial" (engine="auto" does, for a member '
        f"log or a scenario whose hooks ask)"
    )


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
    """One trial of a batch engine, as a hook sees it: a census.

    ``period``, :meth:`counts` and :meth:`alive_count` read it, and the
    fault vocabulary every engine shares
    (:class:`~repro.runtime.round_engine.HostFaults`) changes it by
    count laws.  What asks *which* hosts -- ``alive``, ``states``,
    :meth:`members_in`, :meth:`crash`, :meth:`recover`,
    :meth:`set_states` -- raises :class:`HostIdentityError` naming
    itself.
    """

    def __init__(self, engine: "BatchRoundEngine", trial: int):
        self._engine = engine
        self._census = engine._counts[trial]  # a row view, written in place
        self.trial = trial
        self.n = engine.n

    @property
    def period(self) -> int:
        return self._engine.period

    def state_id(self, name: str) -> int:
        return self._engine.state_id(name)

    def counts(self) -> Dict[str, int]:
        return dict(zip(self._engine.state_names, self._census.tolist()))

    def alive_count(self) -> int:
        return int(self._engine._alive_counts[self.trial])

    def crash_fraction(self, fraction: float) -> np.ndarray:
        """Crash a uniform fraction of the alive hosts; returns how many
        of each state went."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must lie in [0, 1], got {fraction}")
        return self.crash_uniform(
            None, int(round(fraction * self.alive_count()))
        )

    def crash_uniform(
        self, rng: Optional[np.random.Generator], count: int
    ) -> np.ndarray:
        """Crash ``count`` uniform alive hosts; returns how many of each
        state went.

        That split is a multivariate hypergeometric over the census,
        drawn on the trial's fault stream: ``rng`` is not drawn from, so
        a hook's own draws, and the alive counts they decide, do not
        depend on the census (nor on how the ensemble is sharded).
        """
        self._moved_by(churn=False)
        return self._take(count)

    def recover_uniform(
        self,
        rng: Optional[np.random.Generator],
        count: int,
        state: Optional[str] = None,
    ) -> None:
        """``count`` dead hosts rejoin in ``state`` (default: the
        recovery state).  Dead hosts are interchangeable: ``rng`` is
        not drawn from."""
        dead = self.n - self.alive_count()
        if not 0 <= count <= dead:
            raise ValueError(f"cannot recover {count} of {dead} dead hosts")
        state = state or self._engine.recovery_state
        if state not in self._engine._index:
            raise ValueError(
                f"unknown recovery state {state!r}; protocol states are "
                f"{list(self._engine.state_names)}"
            )
        self._moved_by(churn=False)
        self._census[self._engine._index[state]] += count
        self._engine._alive_counts[self.trial] += count

    def apply_churn(self, step) -> None:
        """A :class:`~repro.runtime.churn.ChurnStep` by its counts: the
        crashes, then the returns.

        Exact only while the hosts the trace has up are the trial's
        alive ones: the trace is a
        :class:`~repro.runtime.churn.GeneratedTrace` of ``n`` hosts,
        and no other fault moves the trial's hosts.
        """
        if not isinstance(step.trace, GeneratedTrace):
            _refuse("ChurnReplayer on a trace not made by generate_trace")
        if step.trace.n_hosts != self.n:
            _refuse(
                f"ChurnReplayer on a trace of {step.trace.n_hosts} hosts "
                f"(n={self.n})"
            )
        self._moved_by(churn=True)
        if step.crashes:
            self._take(step.crashes)
        engine, returns = self._engine, len(step.ups)
        self._census[engine._index[engine.recovery_state]] += returns
        engine._alive_counts[self.trial] += returns

    def _moved_by(self, churn: bool) -> None:
        # Which fault moves this trial's hosts first: a churn replay
        # by counts, or a count fault.  Beside each other the two would
        # need to know which hosts the trace has up.
        if self._engine._churned.setdefault(self.trial, churn) != churn:
            _refuse("ChurnReplayer beside another fault")

    def _take(self, count: int) -> np.ndarray:
        per_state = self._engine._fault_rng(
            self.trial
        ).multivariate_hypergeometric(self._census, count)
        self._census -= per_state
        self._engine._alive_counts[self.trial] -= count
        return per_state

    alive = property(lambda self: _refuse("BatchTrialView.alive"))
    states = property(lambda self: _refuse("BatchTrialView.states"))

    def members_in(self, state: str) -> NoReturn:
        _refuse("members_in")

    def crash(self, hosts) -> NoReturn:
        _refuse("crash(hosts)")

    def recover(self, hosts, state: Optional[str] = None) -> NoReturn:
        _refuse("recover(hosts)")

    def set_states(self, hosts, state: str) -> NoReturn:
        _refuse("set_states")


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
        trial starts from the same counts.
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
        # The census draws on ``batch-protocol``; each trial's faults
        # on its own stream, so a fault never shifts a census draw.
        self._rng = source.stream("batch-protocol")
        # A trial's fault generator is built at its first failure (most
        # runs have none); spawning its seed here is what fixes it.
        self._fault_seeds = [
            source.child(f"batch-faults-{m}") for m in range(trials)
        ]
        self._fault_rngs: Dict[int, np.random.Generator] = {}
        # Per faulted trial: whether a churn replay (True) or a count
        # fault (False) moved its hosts first (BatchTrialView._moved_by).
        self._churned: Dict[int, bool] = {}
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

    def _fault_rng(self, trial: int) -> np.random.Generator:
        rng = self._fault_rngs.get(trial)
        if rng is None:
            rng = self._fault_rngs[trial] = make_generator(
                self._fault_seeds[trial]
            )
        return rng

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
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

    def trial_views(self) -> List[BatchTrialView]:
        """Per-trial hook targets (the shared fault vocabulary)."""
        return [BatchTrialView(self, m) for m in range(self.trials)]

    # ------------------------------------------------------------------
    # The batched synchronous round
    # ------------------------------------------------------------------
    def step(self) -> Dict[Edge, np.ndarray]:
        """One period for every trial; returns per-edge ``(M,)`` counts.

        The planner's census turns the period-start counts into every
        action's new movers (all reads observe the start of the period,
        RoundEngine semantics), and counts, transitions and messages
        advance from that alone.
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
        elif recorder.member_log_state is not None:
            _refuse(f"member_log_state={recorder.member_log_state!r}")
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
        # The engine's own arrays pass record's checks by construction:
        # write the rows (copies) without them.
        if self.period % recorder.stride == 0:
            recorder._append(
                self.period, self._counts, self._alive_counts,
                self.last_transitions,
            )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"BatchRoundEngine({self.spec.name!r}, n={self.n}, "
            f"trials={self.trials}, period={self.period})"
        )
