"""One ensemble executor for every engine tier.

An M-trial ensemble of any tier -- the serial
:class:`~repro.runtime.round_engine.RoundEngine`, the vectorized
:class:`~repro.runtime.batch_engine.BatchRoundEngine` or the
asynchronous :class:`~repro.runtime.agent_sim.AgentSimulation` -- runs
as one :class:`~repro.runtime.exec.ExecutionPlan` over the unified
execution layer (:mod:`repro.runtime.exec`).  :class:`EnsembleExecutor`
cuts the trial axis into work units, one runner builds each unit's
engine, and one merge concatenates the unit recorders in unit order
(:meth:`BatchMetricsRecorder.merge`).  What a unit is depends only on
the tier:

* **batch** -- a unit is a *shard*: an independently seeded
  sub-ensemble whose seed family is spawned from
  ``(seed, SHARD_DOMAIN)`` (a campaign point's ``--shards``).  The
  shard count is part of the stream identity; one shard keeps the root
  seed, so it reproduces a bare ``BatchRoundEngine`` bit for bit.
* **serial** and **agent** -- a unit is one trial, seeded
  ``spawn_seeds(seed, M)[m]``.  Each trial owns its whole RNG stream,
  so trial ``m`` equals a standalone engine on that seed, whatever the
  worker count.

Because the decomposition depends only on ``(engine, seed, trials,
shards)`` and the merge is pure concatenation in unit order, every
ensemble is **bitwise identical** however its units are scheduled: one
process, K pool workers, the cluster backend, or a later replay.  It
is the only ensemble path: ``Experiment(..., workers=K)`` / ``python -m
repro run --workers`` is one :meth:`EnsembleExecutor.run`, and a
campaign puts every grid point's units into one plan and merges each
point as its last unit lands.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

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
from .round_engine import RoundEngine

__all__ = [
    "SHARD_DOMAIN",
    "TIERS",
    "EnsembleExecutor",
    "EnsembleResult",
    "UnitOutput",
    "shard_layout",
]

#: The engine tiers an ensemble can run on.
TIERS = ("serial", "batch", "agent")

#: Entropy domain separating shard seed families from everything else.
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
class _UnitJob:
    """Everything one worker needs to run one unit (picklable)."""

    engine: str
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


@dataclass
class UnitOutput:
    """What one work unit returns: its recorder and its engine's end state."""

    recorder: BatchMetricsRecorder
    trial_seeds: List[int]
    #: ``(M_unit, S)`` alive counts after the last period -- the state
    #: the run ended in, which the recorder misses whenever ``stride``
    #: does not divide ``periods``.
    final_counts: np.ndarray
    #: ``(M_unit,)`` messages each trial sent.
    total_messages: np.ndarray
    #: Wall seconds the unit took where it ran.
    seconds: float


def _run_unit(job: _UnitJob) -> UnitOutput:
    """Worker entry point: build one unit's engine, run it, report."""
    started = time.perf_counter()
    recorder = BatchMetricsRecorder(
        job.spec.states,
        job.trials,
        track_transitions=job.track_transitions,
        member_log_state=job.member_log_state,
        stride=job.stride,
    )
    if job.engine == "batch":
        engine = BatchRoundEngine(
            job.spec,
            n=job.n,
            trials=job.trials,
            initial=job.initial,
            seed=job.seed,
            connection_failure_rate=job.connection_failure_rate,
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
        return UnitOutput(
            recorder, list(engine.trial_seeds), engine.counts_matrix(),
            engine.total_messages.copy(), time.perf_counter() - started,
        )
    if job.engine == "serial":
        engine = RoundEngine(
            job.spec,
            n=job.n,
            initial=job.initial,
            seed=job.seed,
            connection_failure_rate=job.connection_failure_rate,
        )
    else:
        engine = AgentSimulation(
            job.spec,
            job.n,
            job.initial,
            seed=job.seed,
            loss_rate=job.connection_failure_rate,
        )
    engine.run(
        job.periods,
        recorder=recorder,
        hooks=[
            hook for factory in job.hook_factories
            if (hook := factory(job.trial_offset)) is not None
        ],
        record_initial=job.record_initial,
    )
    census = engine.counts()
    messages = (
        engine.total_messages if job.engine == "serial"
        else engine.network.contacts_attempted
    )
    return UnitOutput(
        recorder, [job.seed],
        np.array([[census[s] for s in job.spec.states]], dtype=np.int64),
        np.array([messages], dtype=np.int64), time.perf_counter() - started,
    )


@dataclass
class EnsembleResult:
    """Merged outcome of an ensemble run: one recorder, trials in order.

    :attr:`recorder`, :attr:`trial_seeds`, :attr:`final_counts` and
    :attr:`total_messages` run along the concatenated trial axis (unit
    0's trials first).  Under a skipping fault policy the failed units'
    trials are simply absent from all of them (the surviving units are
    untouched -- failure isolation cannot perturb their streams), and
    :attr:`failures` records what was lost; each failure's ``index`` is
    its unit's position in :attr:`layout`, which always describes the
    *full* decomposition, so any lost unit can be re-run alone from its
    recorded seed.
    """

    recorder: BatchMetricsRecorder
    trial_seeds: List[int]
    #: ``(trials, seed)`` per unit, failed ones included.
    layout: List[Tuple[int, Optional[int]]]
    #: ``(M, S)`` alive counts after the last period.
    final_counts: np.ndarray
    #: ``(M,)`` messages each trial sent.
    total_messages: np.ndarray
    #: Compute seconds summed over the landed units (exceeds the wall
    #: time when they ran side by side).
    seconds: float
    #: Terminal unit failures recorded by ``on_error="skip"`` (empty
    #: on a clean run; raising policies never construct a result).
    failures: List[UnitFailure] = field(default_factory=list)

    @property
    def trials(self) -> int:
        return self.recorder.trials


class EnsembleExecutor:
    """Run one M-trial ensemble of any tier as work units, optionally pooled.

    Parameters
    ----------
    spec, n, trials, initial, seed, connection_failure_rate:
        The ensemble: protocol, group size, width M, initial
        distribution, root seed and per-connection failure rate (the
        agent tier's ``loss_rate``).
    engine:
        The tier (:data:`TIERS`): ``"batch"`` (default), ``"serial"``
        or ``"agent"``; see the module docstring for what a unit is.
    shards:
        Batch tier only: the number of independently seeded
        sub-ensembles (defaults to ``min(workers, trials)``).  Part of
        the run's identity: the same ``(seed, trials, shards)`` always
        yields the same merged tensors, regardless of ``workers``.
        The per-trial tiers are unsharded (:attr:`shards` is 1).
    workers:
        Processes to fan the units across (1 = run them serially in
        this process -- same bits, no pool).
    backend:
        Executor backend for the fan-out
        (:data:`~repro.runtime.exec.BACKENDS`): ``"pool"`` (default)
        or ``"cluster"`` -- socket workers with heartbeats and
        dead-worker re-dispatch, bitwise identical by the plan
        contract.

    An ensemble is two steps around one
    :func:`~repro.runtime.exec.run_plan`: :meth:`units` hands out the
    work units and :meth:`merge` assembles their outputs.  :meth:`run`
    is exactly that; a caller running many ensembles in one plan (the
    campaign runner) calls the two steps itself.

    Hook factories are called with the *global* trial index and return
    a per-period hook for that trial's engine (a
    :class:`~repro.runtime.batch_engine.BatchTrialView`, which answers
    counts only, on the batch tier), so scenarios inject identical
    faults however the ensemble is cut.  Only the spec and the
    factories cross a process boundary; unpicklable factories
    (closures, lambdas) force a serial
    in-process run with a warning instead of failing inside the pool
    -- the results are bitwise the same either way.
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
        *,
        engine: str = "batch",
    ):
        if engine not in TIERS:
            raise ValueError(f"engine must be one of {TIERS}, got {engine!r}")
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {backend!r}"
            )
        self.engine = engine
        self.backend = backend
        self.spec = spec
        self.n = n
        self.trials = trials
        self.initial = dict(initial)
        self.seed = seed
        self.connection_failure_rate = connection_failure_rate
        self.workers = workers
        if engine == "batch":
            self.shards = (
                shards if shards is not None else min(workers, trials)
            )
            #: ``(trials, seed)`` per unit (validates ``shards`` too).
            self.layout = shard_layout(seed, trials, self.shards)
        else:
            if shards not in (None, 1):
                raise ValueError(
                    f"shards apply to the batch tier only; the {engine} "
                    f"tier runs one unit per trial, got shards={shards}"
                )
            self.shards = 1
            self.layout = [(1, s) for s in spawn_seeds(seed, trials)]
        self.label = f"{engine} {spec.name!r} ensemble"
        self._noun = "shard" if engine == "batch" else "trial"

    def units(
        self,
        periods: int,
        *,
        stride: int = 1,
        track_transitions: bool = True,
        member_log_state: Optional[str] = None,
        hook_factories: Sequence[HookFactory] = (),
        record_initial: bool = True,
    ) -> List[WorkUnit]:
        """The ensemble's work units, one per :attr:`layout` entry."""
        if member_log_state is not None and self.engine != "serial":
            raise ValueError(
                f"member_log_state asks which hosts, which only the "
                f"serial tier records: run it with engine=\"serial\", "
                f"not {self.engine!r}"
            )
        units = []
        offset = 0
        for index, (size, unit_seed) in enumerate(self.layout):
            job = _UnitJob(
                engine=self.engine,
                spec=self.spec,
                n=self.n,
                trials=size,
                initial=self.initial,
                seed=unit_seed,
                connection_failure_rate=self.connection_failure_rate,
                periods=periods,
                stride=stride,
                track_transitions=track_transitions,
                member_log_state=member_log_state,
                record_initial=record_initial,
                hook_factories=tuple(hook_factories),
                trial_offset=offset,
            )
            units.append(
                WorkUnit(runner=_run_unit, payload=job,
                         label=f"{self._noun} {index}")
            )
            offset += size
        return units

    def merge(self, outputs: Sequence) -> EnsembleResult:
        """Concatenate unit outputs, in unit order, into one result.

        Under a skipping policy, failed units occupy their slot as
        :class:`~repro.runtime.exec.UnitFailure` records; the survivors
        merge unchanged, so failure isolation never perturbs them.
        """
        failures = [o for o in outputs if isinstance(o, UnitFailure)]
        landed = [o for o in outputs if not isinstance(o, UnitFailure)]
        if not landed:
            raise UnitExecutionError(
                failures[0],
                f"{self.label} (all {len(outputs)} {self._noun}s failed)",
            )
        return EnsembleResult(
            recorder=BatchMetricsRecorder.merge([o.recorder for o in landed]),
            trial_seeds=[s for o in landed for s in o.trial_seeds],
            layout=list(self.layout),
            final_counts=np.concatenate([o.final_counts for o in landed]),
            total_messages=np.concatenate(
                [o.total_messages for o in landed]
            ),
            seconds=sum(o.seconds for o in landed),
            failures=failures,
        )

    def run(
        self,
        periods: int,
        *,
        fault_policy: Optional[FaultPolicy] = None,
        **options,
    ) -> EnsembleResult:
        """Run every unit (:meth:`units` takes ``options``) and merge.

        ``fault_policy`` governs unit faults (default: raise on the
        first failure, wrapped as a
        :class:`~repro.runtime.exec.UnitExecutionError` naming the
        unit).  ``on_error="retry"`` re-runs a failed unit's exact
        payload (same seed, same merge slot), so a retried run stays
        bitwise identical; ``on_error="skip"`` drops failed units
        from the merged trial axis and records them on
        :attr:`EnsembleResult.failures`.
        """
        plan = ExecutionPlan(
            units=self.units(periods, **options), merge=self.merge,
            label=self.label,
        )
        return run_plan(plan, workers=self.workers,
                        fault_policy=fault_policy, backend=self.backend)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"EnsembleExecutor({self.spec.name!r}, n={self.n}, "
            f"trials={self.trials}, engine={self.engine!r}, "
            f"shards={self.shards}, workers={self.workers})"
        )


#: The batch tier's former name, kept because the frozen benchmark
#: harness (``benchmarks/perf/workloads.py``) imports it.
ShardedBatchExecutor = EnsembleExecutor
