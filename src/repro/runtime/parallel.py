"""Process-parallel ensembles: trial-sharded batch runs and agent DES runs.

The batch engine vectorizes the trial axis inside one process; this
module fans ensembles out *across* processes, as
:class:`~repro.runtime.exec.ExecutionPlan` instances over the unified
execution layer (:mod:`repro.runtime.exec`).  Two executors live here:

* :class:`ShardedBatchExecutor` -- an M-trial batch ensemble splits
  into campaign-style shards: independently seeded sub-ensembles whose
  seed family is spawned from ``(seed, SHARD_DOMAIN)``, exactly the
  discipline ``repro.campaign`` uses for ``--shards``.  Each shard
  (one work unit) runs its own
  :class:`~repro.runtime.batch_engine.BatchRoundEngine`, and the shard
  recorders merge integer-exactly along the trial axis.  Because the
  shard decomposition depends only on ``(seed, trials, shards)`` and
  the merge is pure concatenation in shard order, the result is
  **bitwise identical** however the shards are scheduled: one process,
  K workers, or a later replay.  With ``shards == 1`` the executor
  degenerates to a plain :class:`BatchRoundEngine` seeded with the
  root seed (no spawn), so single-shard runs reproduce unsharded ones
  bit for bit -- again the campaign's convention.
* :class:`AgentEnsemble` -- M seeded
  :class:`~repro.runtime.agent_sim.AgentSimulation` trials (the DES
  tier), one work unit per trial, with per-trial seeds from
  ``spawn_seeds(seed, M)`` -- the *same* trial-seed discipline the
  serial tier uses.  The merge concatenates the one-trial recorders
  in trial order (:meth:`BatchMetricsRecorder.merge`), so an agent
  ensemble is bitwise reproducible and schedule-independent by
  construction (each trial owns its whole RNG stream).

These are the engine-level siblings of campaign fan-out: campaigns
parallelize across grid points and shards of points, while the
executors here give a *single* experiment (via
``Experiment(..., workers=K)`` / ``python -m repro run --workers``)
the same multi-core scaling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..synthesis.protocol import ProtocolSpec
from .agent_sim import AgentSimulation
from .batch_engine import BatchMetricsRecorder, BatchRoundEngine, HookFactory
from .exec import (
    BACKENDS,
    ExecutionPlan,
    FaultPolicy,
    UnitExecutionError,
    UnitFailure,
    WorkUnit,
    run_plan,
)
from .rng import spawn_seeds

__all__ = [
    "SHARD_DOMAIN",
    "AgentEnsemble",
    "AgentEnsembleResult",
    "ShardedBatchExecutor",
    "ShardedRunResult",
    "shard_layout",
]

#: Entropy domain separating shard seed families from everything else.
#: Shared with the campaign runner (one discipline, one constant), so
#: an executor shard and a campaign shard rooted at the same seed see
#: identical seed families.
SHARD_DOMAIN = 0x51A4


def shard_layout(
    seed: Optional[int], trials: int, shards: int
) -> List[Tuple[int, Optional[int]]]:
    """The deterministic ``(trials, seed)`` decomposition of an ensemble.

    Trials split as evenly as possible (earlier shards take the
    remainder); shard seeds are spawned from ``(seed, SHARD_DOMAIN)``.
    A single shard keeps the root seed untouched, so ``shards == 1``
    is bitwise-equal to not sharding at all.  The layout depends only
    on ``(seed, trials, shards)`` -- never on worker count -- which is
    what makes sharded runs reproducible and schedule-independent.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 1 <= shards <= trials:
        raise ValueError(
            f"shards must lie in [1, trials={trials}], got {shards}"
        )
    if shards == 1:
        return [(trials, seed)]
    base, extra = divmod(trials, shards)
    sizes = [base + (1 if k < extra else 0) for k in range(shards)]
    # An unseeded layout draws fresh OS entropy (SeedSequence rejects
    # None inside an entropy tuple, and there is no deterministic
    # family to domain-separate from anyway); such a run is not
    # replayable -- record the engines' trial seeds if that matters.
    entropy = None if seed is None else (seed, SHARD_DOMAIN)
    seeds = spawn_seeds(entropy, shards)
    layout = list(zip(sizes, seeds))
    # The layout length IS the shard count: replay identity (campaign
    # points record `shards`, not the layout) depends on every shard
    # being present and non-empty, so a violation must abort loudly --
    # silently dropping a shard would produce a layout that can never
    # be replayed from its recorded parameters.
    if (
        len(layout) != shards
        or any(size < 1 for size, _ in layout)
        or sum(size for size, _ in layout) != trials
    ):
        raise AssertionError(
            f"shard_layout invariant violated: expected {shards} "
            f"non-empty shards covering {trials} trials, got "
            f"{[size for size, _ in layout]}"
        )
    return layout


@dataclass
class _ShardJob:
    """Everything one worker needs to run one shard (picklable)."""

    spec: ProtocolSpec
    n: int
    trials: int
    initial: Dict[str, float]
    seed: Optional[int]
    connection_failure_rate: float
    periods: int
    stride: int
    track_transitions: bool
    member_log_state: Optional[str]
    record_initial: bool
    hook_factories: Tuple[HookFactory, ...]
    trial_offset: int


class _OffsetHookFactory:
    """Rebase a global-trial hook factory onto a shard's local indices.

    Executor hook factories are indexed by *global* trial (0..M-1), so
    scenario seed families and trial-dependent faults are identical
    however the ensemble is sharded; each shard wraps them with its
    trial offset.  A plain top-level class so jobs stay picklable.
    """

    def __init__(self, factory: HookFactory, offset: int):
        self._factory = factory
        self._offset = offset

    def __call__(self, trial: int):
        return self._factory(self._offset + trial)


def _run_shard(job: _ShardJob):
    """Worker entry point: run one shard, return its raw outcome."""
    engine = BatchRoundEngine(
        job.spec,
        n=job.n,
        trials=job.trials,
        initial=job.initial,
        seed=job.seed,
        connection_failure_rate=job.connection_failure_rate,
    )
    recorder = BatchMetricsRecorder(
        engine.state_names,
        job.trials,
        track_transitions=job.track_transitions,
        member_log_state=job.member_log_state,
        stride=job.stride,
    )
    engine.run(
        job.periods,
        recorder=recorder,
        hook_factories=[
            _OffsetHookFactory(factory, job.trial_offset)
            for factory in job.hook_factories
        ],
        record_initial=job.record_initial,
    )
    return (
        recorder,
        list(engine.trial_seeds),
        engine.counts_matrix(),
        engine.alive_counts(),
        np.asarray(engine.total_messages),
    )


@dataclass
class ShardedRunResult:
    """Merged outcome of a sharded ensemble run.

    Everything is ordered along the concatenated trial axis (shard 0's
    trials first), matching :attr:`trial_seeds`.  Under a skipping
    fault policy the failed shards' trials are simply absent from the
    merged axes (the surviving shards are untouched -- failure
    isolation cannot perturb their streams), and :attr:`failures`
    records what was lost; :attr:`shard_seeds`/:attr:`shard_sizes`
    always describe the *full* layout, so any failed shard can be
    re-run alone from its recorded seed.
    """

    recorder: BatchMetricsRecorder
    trial_seeds: List[int]
    shard_seeds: List[Optional[int]]
    shard_sizes: List[int]
    final_counts_matrix: np.ndarray    # (M, S) int64
    final_alive: np.ndarray            # (M,) int64
    total_messages: np.ndarray         # (M,) int64
    #: Terminal unit failures recorded by ``on_error="skip"`` (empty
    #: on a clean run; raising policies never construct a result).
    failures: List[UnitFailure] = field(default_factory=list)

    @property
    def shards(self) -> int:
        return len(self.shard_sizes)


class ShardedBatchExecutor:
    """Run one batch ensemble as campaign-style shards, optionally pooled.

    Parameters
    ----------
    spec, n, trials, initial, seed, connection_failure_rate:
        As for :class:`~repro.runtime.batch_engine.BatchRoundEngine`.
    shards:
        Number of independently seeded sub-ensembles (defaults to
        ``min(workers, trials)``).  Part of the run's identity: the
        same ``(seed, trials, shards)`` always yields the same merged
        tensors, regardless of ``workers``.
    workers:
        Processes to fan the shards across (1 = run them serially in
        this process -- same bits, no pool).
    backend:
        Executor backend for the fan-out
        (:data:`~repro.runtime.exec.BACKENDS`): ``"pool"`` (default)
        or ``"cluster"`` -- socket workers with heartbeats and
        dead-worker re-dispatch, bitwise identical by the plan
        contract.

    Hook factories passed to :meth:`run` are indexed by *global* trial,
    so scenarios inject identical faults however the ensemble is
    sharded.  Unpicklable hook factories (closures, lambdas) force a
    serial in-process run with a warning instead of failing inside the
    pool -- the results are bitwise the same either way.
    """

    def __init__(
        self,
        spec: ProtocolSpec,
        n: int,
        trials: int,
        initial: Mapping[str, float],
        seed: Optional[int] = None,
        connection_failure_rate: float = 0.0,
        shards: Optional[int] = None,
        workers: int = 1,
        backend: str = "pool",
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {backend!r}"
            )
        self.backend = backend
        self.spec = spec
        self.n = n
        self.trials = trials
        self.initial = dict(initial)
        self.seed = seed
        self.connection_failure_rate = connection_failure_rate
        self.workers = workers
        self.shards = shards if shards is not None else min(workers, trials)
        #: The deterministic decomposition (validates ``shards`` too).
        self.layout = shard_layout(seed, trials, self.shards)

    def run(
        self,
        periods: int,
        *,
        stride: int = 1,
        track_transitions: bool = True,
        member_log_state: Optional[str] = None,
        hook_factories: Sequence[HookFactory] = (),
        record_initial: bool = True,
        fault_policy: Optional[FaultPolicy] = None,
    ) -> ShardedRunResult:
        """Run every shard and merge the recorders integer-exactly.

        ``fault_policy`` governs shard faults (default: raise on the
        first failure, wrapped as a
        :class:`~repro.runtime.exec.UnitExecutionError` naming the
        shard).  ``on_error="retry"`` re-runs a failed shard's exact
        payload (same seed, same merge slot), so a retried run stays
        bitwise identical; ``on_error="skip"`` drops failed shards
        from the merged trial axis and records them on
        :attr:`ShardedRunResult.failures`.
        """
        jobs: List[_ShardJob] = []
        offset = 0
        for size, shard_seed in self.layout:
            jobs.append(_ShardJob(
                spec=self.spec,
                n=self.n,
                trials=size,
                initial=self.initial,
                seed=shard_seed,
                connection_failure_rate=self.connection_failure_rate,
                periods=periods,
                stride=stride,
                track_transitions=track_transitions,
                member_log_state=member_log_state,
                record_initial=record_initial,
                hook_factories=tuple(hook_factories),
                trial_offset=offset,
            ))
            offset += size

        def merge(outputs: List) -> ShardedRunResult:
            # Under a skipping policy, failed shards occupy their slot
            # as UnitFailure records; the survivors merge unchanged, in
            # shard order, so failure isolation never perturbs them.
            failures = [o for o in outputs if isinstance(o, UnitFailure)]
            landed = [o for o in outputs if not isinstance(o, UnitFailure)]
            if not landed:
                raise UnitExecutionError(
                    failures[0], f"sharded {self.spec.name!r} ensemble "
                    f"(all {len(outputs)} shards failed)"
                )
            recorders = [o[0] for o in landed]
            return ShardedRunResult(
                recorder=BatchMetricsRecorder.merge(recorders),
                trial_seeds=[s for o in landed for s in o[1]],
                shard_seeds=[seed for _, seed in self.layout],
                shard_sizes=[size for size, _ in self.layout],
                final_counts_matrix=np.concatenate(
                    [o[2] for o in landed], axis=0
                ),
                final_alive=np.concatenate([o[3] for o in landed]),
                total_messages=np.concatenate([o[4] for o in landed]),
                failures=failures,
            )

        plan = ExecutionPlan(
            units=[
                WorkUnit(runner=_run_shard, payload=job,
                         label=f"shard {index}")
                for index, job in enumerate(jobs)
            ],
            merge=merge,
            label=f"sharded {self.spec.name!r} ensemble",
        )
        return run_plan(plan, workers=self.workers,
                        fault_policy=fault_policy, backend=self.backend)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"ShardedBatchExecutor({self.spec.name!r}, n={self.n}, "
            f"trials={self.trials}, shards={self.shards}, "
            f"workers={self.workers})"
        )


# ----------------------------------------------------------------------
# Agent-tier (DES) ensembles
# ----------------------------------------------------------------------
@dataclass
class _AgentTrialJob:
    """Everything one worker needs to run one DES trial (picklable)."""

    spec: ProtocolSpec
    n: int
    initial: Dict[str, float]
    seed: int
    period: float
    loss_rate: float
    clock_drift_std: float
    periods: float
    sample_every: float
    stride: int
    track_transitions: bool
    record_initial: bool
    hook_factories: Tuple[Callable[[int], Callable], ...]
    trial: int


def _run_agent_trial(job: _AgentTrialJob) -> BatchMetricsRecorder:
    """Worker entry point: run one asynchronous trial, return its recorder."""
    simulation = AgentSimulation(
        job.spec,
        job.n,
        job.initial,
        period=job.period,
        seed=job.seed,
        loss_rate=job.loss_rate,
        clock_drift_std=job.clock_drift_std,
    )
    recorder = BatchMetricsRecorder(
        job.spec.states,
        1,
        track_transitions=job.track_transitions,
        stride=job.stride,
    )
    simulation.run(
        job.periods,
        recorder=recorder,
        sample_every=job.sample_every,
        hooks=[
            hook for factory in job.hook_factories
            if (hook := factory(job.trial)) is not None
        ],
        record_initial=job.record_initial,
    )
    return recorder


@dataclass
class AgentEnsembleResult:
    """Outcome of an agent-tier ensemble: one recorder, trials in order.

    Under a skipping fault policy, failed trials are absent from
    :attr:`recorder`'s trial axis and :attr:`trial_seeds` (which stay
    aligned) and recorded on :attr:`failures`; each failure's ``index``
    is the global trial, so the lost trial's seed is recoverable from
    the ensemble's spawned family.
    """

    recorder: BatchMetricsRecorder
    trial_seeds: List[int]
    #: Terminal unit failures recorded by ``on_error="skip"``.
    failures: List[UnitFailure] = field(default_factory=list)

    @property
    def trials(self) -> int:
        return self.recorder.trials


class AgentEnsemble:
    """M independently seeded :class:`AgentSimulation` trials, optionally pooled.

    The DES tier's ensemble driver: trial ``m`` runs
    ``AgentSimulation(..., seed=spawn_seeds(seed, M)[m])`` -- the exact
    trial-seed family the serial tier uses -- so an agent
    ensemble shares the repository-wide seed discipline, and re-running
    any single trial serially reproduces it bit for bit.  Each trial is
    one work unit of an :class:`~repro.runtime.exec.ExecutionPlan`;
    since every trial owns its whole RNG stream, the merged result is
    trivially **bitwise identical** however the trials are scheduled
    (serial, pooled, any worker count).

    Parameters
    ----------
    spec, n, initial, period, loss_rate, clock_drift_std:
        As for :class:`~repro.runtime.agent_sim.AgentSimulation`.
    trials:
        Ensemble width M.
    seed:
        Root seed for the spawned per-trial seed family.
    workers:
        Processes to fan the trials across (clamped to ``trials``;
        1 = run them serially in this process -- same bits, no pool).
    backend:
        Executor backend (:data:`~repro.runtime.exec.BACKENDS`):
        ``"pool"`` (default) or ``"cluster"``.

    Hook factories passed to :meth:`run` are called with the global
    trial index and must return a per-period hook ``hook(simulation)``
    (see :meth:`AgentSimulation.run`); unpicklable factories degrade to
    a serial in-process run with a warning, bitwise the same.
    """

    def __init__(
        self,
        spec: ProtocolSpec,
        n: int,
        trials: int,
        initial: Mapping[str, float],
        seed: Optional[int] = None,
        *,
        period: float = 1.0,
        loss_rate: float = 0.0,
        clock_drift_std: float = 0.0,
        workers: int = 1,
        backend: str = "pool",
    ):
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {backend!r}"
            )
        self.backend = backend
        self.spec = spec
        self.n = n
        self.trials = trials
        self.initial = dict(initial)
        self.seed = seed
        self.period = period
        self.loss_rate = loss_rate
        self.clock_drift_std = clock_drift_std
        self.workers = min(workers, trials)
        self.trial_seeds = spawn_seeds(seed, trials)

    def run(
        self,
        periods: float,
        *,
        sample_every: float = 1.0,
        stride: int = 1,
        track_transitions: bool = True,
        record_initial: bool = True,
        hook_factories: Sequence[Callable[[int], Callable]] = (),
        fault_policy: Optional[FaultPolicy] = None,
    ) -> AgentEnsembleResult:
        """Run every trial and merge the recorders in trial order.

        ``fault_policy`` governs trial faults exactly as on
        :meth:`ShardedBatchExecutor.run`: retries re-run the same
        seeded trial (bitwise identical), and ``on_error="skip"``
        yields the surviving trials plus recorded
        :class:`~repro.runtime.exec.UnitFailure` entries.
        """
        jobs = [
            _AgentTrialJob(
                spec=self.spec,
                n=self.n,
                initial=self.initial,
                seed=trial_seed,
                period=self.period,
                loss_rate=self.loss_rate,
                clock_drift_std=self.clock_drift_std,
                periods=periods,
                sample_every=sample_every,
                stride=stride,
                track_transitions=track_transitions,
                record_initial=record_initial,
                hook_factories=tuple(hook_factories),
                trial=trial,
            )
            for trial, trial_seed in enumerate(self.trial_seeds)
        ]
        def merge(outputs: List) -> AgentEnsembleResult:
            failures = [o for o in outputs if isinstance(o, UnitFailure)]
            survivors = [
                (trial, o) for trial, o in enumerate(outputs)
                if not isinstance(o, UnitFailure)
            ]
            if not survivors:
                raise UnitExecutionError(
                    failures[0], f"agent ensemble {self.spec.name!r} "
                    f"(all {len(outputs)} trials failed)"
                )
            return AgentEnsembleResult(
                recorder=BatchMetricsRecorder.merge(
                    [o for _, o in survivors]
                ),
                trial_seeds=[self.trial_seeds[t] for t, _ in survivors],
                failures=failures,
            )

        plan = ExecutionPlan(
            units=[
                WorkUnit(runner=_run_agent_trial, payload=job,
                         label=f"trial {job.trial}")
                for job in jobs
            ],
            merge=merge,
            label=f"agent ensemble {self.spec.name!r}",
        )
        return run_plan(plan, workers=self.workers,
                        fault_policy=fault_policy, backend=self.backend)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"AgentEnsemble({self.spec.name!r}, n={self.n}, "
            f"trials={self.trials}, workers={self.workers})"
        )
