"""The declarative equations-to-results runner.

:class:`Experiment` is the canonical way to run a protocol: give it a
:class:`~repro.experiment.protocol.Protocol` handle (or a registry
name), a group size, a trial count and a horizon, and it picks the
right engine tier, wires the scenario hooks into that tier's
convention, and returns one
:class:`~repro.experiment.result.ExperimentResult` whatever ran
underneath.

Engine auto-selection (``engine="auto"``):

* ``trials == 1`` -> the **serial** :class:`RoundEngine` (single-run
  studies, and anything whose hooks must see a real engine);
* ``trials > 1`` -> the vectorized **batch**
  :class:`BatchRoundEngine` (ensembles: means, quantile bands,
  frequencies).

Explicit tiers: ``engine="serial"`` runs ``trials`` seeded
:class:`RoundEngine` instances (seeds from
:func:`~repro.runtime.rng.spawn_seeds`), so trial ``m`` is
*bit-identical* to ``RoundEngine(..., seed=spawn_seeds(seed, M)[m])``
-- the tier to replay a single ensemble member on;
``engine="batch"`` forces the vectorized engine (statistically
equivalent, not draw-for-draw); ``engine="agent"`` runs ``trials``
seeded :class:`AgentSimulation` instances -- the asynchronous DES tier
(arbitrary period phases, latency, drift), as an ensemble with the
*same* spawned trial-seed family as the serial tier, pooled across
``workers`` processes via
:class:`~repro.runtime.parallel.AgentEnsemble`.
"""

from __future__ import annotations

import secrets
import time
from typing import Mapping, Optional, Union

from ..runtime.exec import BACKENDS, FaultPolicy
from ..runtime.metrics import BatchMetricsRecorder
from ..runtime.parallel import AgentEnsemble, ShardedBatchExecutor
from ..runtime.round_engine import RoundEngine, initial_state_vector
from ..runtime.rng import spawn_seeds
from .protocol import Protocol
from .result import ExperimentResult
from .scenario import RunContext, Scenario

ENGINES = ("auto", "serial", "batch", "agent")


class Experiment:
    """A fully-specified protocol run: who, how large, how long, under what.

    Parameters
    ----------
    protocol:
        A :class:`Protocol` handle or a campaign-registry name.
    n:
        Group size per trial.
    trials:
        Ensemble width M (default 1).
    periods:
        Protocol periods per trial.
    scenario:
        Fault injection: ``None``, a registry scenario name, a
        :class:`Scenario`, or a per-trial hook factory.
    seed:
        Root seed.  The serial and agent tiers spawn per-trial seeds
        from it; scenario seeds come from a domain-separated family
        (campaign-compatible).  ``None``
        draws a fresh root seed, recorded on :attr:`seed`, so every
        run -- including its fault injection -- remains reproducible
        after the fact.
    engine:
        ``"auto"`` (default), ``"serial"``, ``"batch"`` or
        ``"agent"``; see the module docstring.
    loss_rate:
        Per-connection failure probability (Section 3's ``f``).
    stride:
        Record every ``stride``-th period.
    record_transitions:
        Keep per-edge transition tensors (default True).
    member_log_state:
        Record per-period member ids of one state (the Figure 8 log).
    initial:
        Override the protocol handle's initial distribution (counts
        summing to ``n`` or fractions summing to 1).
    workers:
        Processes to fan the trial axis across (default 1).  The
        batch tier always runs through
        :class:`~repro.runtime.parallel.ShardedBatchExecutor`: the
        trials split into ``min(workers, trials)`` campaign-style
        shards (seed family spawned from ``(seed, SHARD_DOMAIN)``; one
        shard keeps the root seed) and the recorders merge
        integer-exactly, so a run is bitwise reproducible for a fixed
        ``(seed, workers)`` and identical whether the shards actually
        ran pooled or serially.  Note the *shard count* is part of the
        stream identity: results differ from the unsharded
        ``workers=1`` run (exactly as campaign ``--shards``
        documents).  The agent tier fans whole
        trials across the pool (each trial owns its RNG stream, so the
        result is bitwise independent of ``workers``, clamped to
        ``trials``).  The serial tier ignores it.
    on_error, retries, unit_timeout:
        The execution layer's fault policy
        (:class:`~repro.runtime.exec.FaultPolicy`), applied wherever
        the run decomposes into work units (the agent and batch
        tiers).  ``on_error``:
        ``"raise"`` (default) aborts on the first unit failure,
        ``"retry"`` re-runs a failed unit's exact payload up to
        ``retries`` times with capped backoff (retries cannot perturb
        seeds or merge order, so a retried run is bitwise identical to
        a clean one), ``"skip"`` keeps the surviving units and records
        the losses on :attr:`ExperimentResult.failures`.
        ``unit_timeout`` bounds each attempt's wall clock in seconds.
    fault_policy:
        A fully-built :class:`~repro.runtime.exec.FaultPolicy`
        overriding the three convenience knobs above -- the way to
        reach the cluster backend's heartbeat interval/miss-threshold
        and re-dispatch budget.
    backend:
        Executor backend for every work-unit fan-out
        (:data:`~repro.runtime.exec.BACKENDS`): ``"pool"`` (default)
        keeps the local process pool; ``"cluster"`` runs socket-
        connected worker processes with heartbeats, dead-worker
        re-dispatch and elastic worker counts -- results are bitwise
        identical either way (plan contract clause 5).
    """

    def __init__(
        self,
        protocol: Union[Protocol, str],
        n: int,
        *,
        trials: int = 1,
        periods: int = 100,
        scenario: Union[None, str, Scenario] = None,
        seed: Optional[int] = None,
        engine: str = "auto",
        loss_rate: float = 0.0,
        stride: int = 1,
        record_transitions: bool = True,
        member_log_state: Optional[str] = None,
        initial: Optional[Mapping[str, float]] = None,
        workers: int = 1,
        on_error: str = "raise",
        retries: int = 2,
        unit_timeout: Optional[float] = None,
        fault_policy: Optional[FaultPolicy] = None,
        backend: str = "pool",
        check: str = "warn",
    ):
        if isinstance(protocol, str):
            protocol = Protocol.named(protocol)
        if not isinstance(protocol, Protocol):
            raise TypeError(
                f"protocol must be a Protocol handle or a registry name, "
                f"got {type(protocol).__name__}; wrap raw specs with "
                f"Protocol.from_spec(spec, initial)"
            )
        if engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {ENGINES}, got {engine!r}"
            )
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        if periods < 1:
            raise ValueError(f"periods must be >= 1, got {periods}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {backend!r}"
            )
        self.backend = backend
        self.protocol = protocol
        self.n = n
        self.trials = trials
        self.periods = periods
        self.scenario = Scenario.normalize(scenario)
        # An unseeded run still gets a *concrete* root seed: protocol
        # and scenario streams must derive from the same root (the
        # scenario family is spawned from it), and recording it is the
        # only way an unseeded run can be replayed afterwards.
        self.seed = seed if seed is not None else secrets.randbits(63)
        self.engine = engine
        self.loss_rate = loss_rate
        self.stride = stride
        self.record_transitions = record_transitions
        self.member_log_state = member_log_state
        self.initial = dict(initial) if initial is not None else None
        self.workers = workers
        if check not in ("off", "warn", "strict"):
            raise ValueError(
                f"check must be 'off', 'warn' or 'strict', got {check!r}"
            )
        #: Static spec verification mode applied at :meth:`run` time
        #: (``repro.check``): warn on ERROR findings by default,
        #: ``"strict"`` raises, ``"off"`` skips.
        self.check = check
        # Constructing the policy up front validates on_error/retries/
        # unit_timeout with FaultPolicy's own error messages; a
        # fully-built policy (heartbeat tuning, dispatch budget) wins
        # over the convenience knobs.
        self.fault_policy = (
            fault_policy if fault_policy is not None else FaultPolicy(
                on_error=on_error,
                retries=retries,
                timeout_seconds=unit_timeout,
            )
        )

    # ------------------------------------------------------------------
    # Engine selection
    # ------------------------------------------------------------------
    @property
    def chosen_engine(self) -> str:
        """The tier that will run: auto resolves to serial or batch."""
        if self.engine != "auto":
            return self.engine
        return "serial" if self.trials == 1 else "batch"

    def context(self) -> RunContext:
        """The campaign-point-shaped description of this run."""
        return RunContext(
            protocol=self.protocol.label,
            n=self.n,
            loss_rate=self.loss_rate,
            scenario=self.scenario.label if self.scenario else "none",
            trials=self.trials,
            periods=self.periods,
            seed=self.seed,
            stride=self.stride,
        )

    # ------------------------------------------------------------------
    # Forking off a live population (the service tier's what-if hook)
    # ------------------------------------------------------------------
    @classmethod
    def from_live(
        cls,
        live,
        *,
        trials: int,
        periods: int,
        seed: Optional[int] = None,
        **kwargs,
    ) -> "Experiment":
        """Fork a batch what-if ensemble off a live population.

        ``live`` is anything with a ``fork_state()`` returning the
        :class:`repro.service.live.LiveEngine` fork recipe (protocol
        name, alive count, current census, loss rate) -- duck-typed so
        the experiment layer stays import-independent of the service
        tier.  The ensemble asks "starting from the population as it
        stands *right now*, what do ``trials`` independent futures look
        like?", using the ordinary batch fan-out underneath.
        """
        fork = live.fork_state()
        if fork["n"] < 2:
            raise ValueError(
                f"live population too small to fork "
                f"(alive={fork['n']}, need >= 2)"
            )
        return cls(
            fork["protocol"],
            fork["n"],
            trials=trials,
            periods=periods,
            seed=seed,
            loss_rate=fork["loss_rate"],
            initial=fork["initial"],
            **kwargs,
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> ExperimentResult:
        """Execute the experiment on the selected engine tier."""
        resolved = self.protocol.resolve(self.n)
        self.protocol.verify(self.n, mode=self.check)
        initial = self.initial if self.initial is not None else resolved.initial
        # A bad start is the caller's ValueError, not a failed work unit.
        initial_state_vector(resolved.spec.states, self.n, initial)
        engine_name = self.chosen_engine
        started = time.perf_counter()
        if engine_name == "serial":
            result = self._run_serial(resolved.spec, initial)
        elif engine_name == "agent":
            result = self._run_agent(resolved.spec, initial)
        else:
            result = self._run_batched(resolved.spec, initial)
        result.elapsed_seconds = time.perf_counter() - started
        return result

    def _run_serial(self, spec, initial) -> ExperimentResult:
        context = self.context()
        seeds = spawn_seeds(self.seed, self.trials)
        scenario_seeds = (
            self.scenario.trial_seeds(context) if self.scenario else None
        )
        recorders = []
        for trial, trial_seed in enumerate(seeds):
            engine = RoundEngine(
                spec, n=self.n, initial=initial, seed=trial_seed,
                connection_failure_rate=self.loss_rate,
            )
            recorder = BatchMetricsRecorder(
                spec.states,
                1,
                track_transitions=self.record_transitions,
                member_log_state=self.member_log_state,
                stride=self.stride,
            )
            hooks = (
                self.scenario.hooks_for(context, trial, scenario_seeds[trial])
                if self.scenario else ()
            )
            engine.run(self.periods, recorder=recorder, hooks=hooks)
            recorders.append(recorder)
        return ExperimentResult(
            spec=spec, n=self.n, trials=self.trials, periods=self.periods,
            engine="serial", trial_seeds=list(seeds), elapsed_seconds=0.0,
            protocol=self.protocol,
            scenario=self.scenario.label if self.scenario else None,
            recorder=BatchMetricsRecorder.merge(recorders),
        )

    def _run_agent(self, spec, initial) -> ExperimentResult:
        """The asynchronous DES tier, as a (possibly pooled) ensemble.

        Trial seeds are ``spawn_seeds(seed, trials)`` -- the serial
        tier's own family -- and scenario hooks are indexed by global
        trial through the same domain-separated
        :class:`~repro.experiment.scenario.Scenario` contract, so an
        asynchrony check of a batch result keeps the batch run's fault
        schedule.  The tier exposes the round engines' fault surface
        (period, crash/recover, read-only alive/states snapshots), so
        the stock registry scenarios apply; hooks that write engine
        arrays directly do not (see :meth:`AgentSimulation.run`).
        """
        if self.member_log_state is not None:
            raise ValueError(
                "member_log_state is not supported on the agent tier"
            )
        context = self.context()
        hook_factories = (
            [self.scenario.hook_factory(context)] if self.scenario else ()
        )
        ensemble = AgentEnsemble(
            spec, n=self.n, trials=self.trials, initial=initial,
            seed=self.seed, loss_rate=self.loss_rate,
            workers=self.workers, backend=self.backend,
        )
        outcome = ensemble.run(
            self.periods,
            stride=self.stride,
            track_transitions=self.record_transitions,
            hook_factories=hook_factories,
            fault_policy=self.fault_policy,
        )
        return ExperimentResult(
            spec=spec, n=self.n, trials=len(outcome.trial_seeds),
            periods=self.periods,
            engine="agent", trial_seeds=list(outcome.trial_seeds),
            elapsed_seconds=0.0,
            protocol=self.protocol,
            scenario=self.scenario.label if self.scenario else None,
            recorder=outcome.recorder,
            failures=outcome.failures,
        )

    def _run_batched(self, spec, initial) -> ExperimentResult:
        """The batch tier: the sharded executor at any worker count.

        A single shard keeps the root seed, bitwise-equal to the bare
        engine.
        """
        context = self.context()
        hook_factories = (
            [self.scenario.hook_factory(context)] if self.scenario else ()
        )
        shards = min(self.workers, self.trials)
        executor = ShardedBatchExecutor(
            spec, n=self.n, trials=self.trials, initial=initial,
            seed=self.seed,
            connection_failure_rate=self.loss_rate,
            shards=shards, workers=self.workers,
            backend=self.backend,
        )
        outcome = executor.run(
            self.periods,
            stride=self.stride,
            track_transitions=self.record_transitions,
            member_log_state=self.member_log_state,
            hook_factories=hook_factories,
            fault_policy=self.fault_policy,
        )
        return ExperimentResult(
            spec=spec, n=self.n, trials=len(outcome.trial_seeds),
            periods=self.periods,
            engine="batch", trial_seeds=list(outcome.trial_seeds),
            elapsed_seconds=0.0,
            protocol=self.protocol,
            scenario=self.scenario.label if self.scenario else None,
            recorder=outcome.recorder,
            shards=shards,
            failures=outcome.failures,
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"Experiment({self.protocol.label!r}, n={self.n}, "
            f"trials={self.trials}, periods={self.periods}, "
            f"engine={self.engine!r})"
        )
