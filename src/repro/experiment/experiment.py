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
  studies);
* ``trials > 1`` -> the vectorized **batch**
  :class:`BatchRoundEngine` (ensembles: means, quantile bands,
  frequencies) -- unless the run asks *which* hosts, which the batch
  tier's census cannot answer: a member log, or a scenario hook whose
  ``asks_hosts`` is true (:class:`~repro.runtime.failures.DirectedAttack`,
  a replayed measured trace, ...) or a churn replay beside another
  hook -- or the spec is outside the census's one-coin-per-state model
  (:func:`~repro.runtime.planner.census_refusal`: a hand-built state
  whose coins sum above 1, a push at its own actor state).  Those run
  on the serial tier.

Explicit tiers: ``engine="serial"`` runs ``trials`` seeded
:class:`RoundEngine` instances (seeds from
:func:`~repro.runtime.rng.spawn_seeds`), so trial ``m`` is
*bit-identical* to ``RoundEngine(..., seed=spawn_seeds(seed, M)[m])``
-- the tier to replay a single ensemble member on;
``engine="batch"`` forces the vectorized engine (statistically
equivalent, not draw-for-draw); ``engine="agent"`` runs ``trials``
seeded :class:`AgentSimulation` instances -- the asynchronous DES tier
(arbitrary period phases, latency, drift) -- with the *same* spawned
trial-seed family as the serial tier.

An experiment is a :class:`~repro.experiment.point.RunPoint` run with
its own protocol handle and scenario: the constructor checks every
field and picks the tier into :attr:`Experiment.point`, and
:meth:`Experiment.run` takes the point's one path to its
:class:`~repro.runtime.parallel.EnsembleExecutor` plan, the path a
campaign point takes.  Batch shards or single serial/agent trials are
its work units, fanned across ``workers`` processes under one fault
policy and merged into one recorder.
"""

from __future__ import annotations

import secrets
import time
from dataclasses import replace
from typing import Mapping, Optional, Union

from ..runtime.exec import BACKENDS, FaultPolicy
from ..runtime.parallel import TIERS
from ..runtime.planner import census_refusal
from ..runtime.round_engine import _compile
from .point import RunPoint
from .protocol import Protocol
from .result import ExperimentResult
from .scenario import Scenario, ScenarioHookFactory

ENGINES = ("auto",) + TIERS


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
        Processes to fan the trial axis across (default 1), through
        :class:`~repro.runtime.parallel.EnsembleExecutor`.  The batch
        tier splits the trials into ``min(workers, trials)``
        campaign-style shards (seed family spawned from
        ``(seed, SHARD_DOMAIN)``; one shard keeps the root seed) and
        the recorders merge integer-exactly, so a run is bitwise
        reproducible for a fixed ``(seed, workers)`` and identical
        whether the shards actually ran pooled or serially.  Note the
        *shard count* is part of the batch stream identity: results
        differ from the unsharded ``workers=1`` run (exactly as
        campaign ``--shards`` documents).  The serial and agent tiers
        fan whole trials across the pool (each trial owns its RNG
        stream, so the result is bitwise independent of ``workers``).
        Pool children are forks that inherit the run's units; a unit
        that will not pickle (a closure hook or scenario) still runs
        the whole ensemble in-process, with a warning.
    on_error, retries, unit_timeout:
        The execution layer's fault policy
        (:class:`~repro.runtime.exec.FaultPolicy`), applied to the
        run's work units on every tier.  ``on_error``:
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
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {backend!r}"
            )
        self.backend = backend
        self.protocol = protocol
        self.scenario = Scenario.normalize(scenario)
        self.engine = engine
        self.record_transitions = record_transitions
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

        # An unseeded run still gets a *concrete* root seed: protocol
        # and scenario streams must derive from the same root, and
        # recording it is the only way an unseeded run can be replayed
        # afterwards.
        self.seed = seed if seed is not None else secrets.randbits(63)
        tier = engine
        if engine == "auto":
            batch = trials > 1 and member_log_state is None
            tier = "batch" if batch else "serial"
        #: The run, every field checked: ``engine`` is the chosen tier.
        self.point = RunPoint(
            protocol.label, n, loss_rate,
            self.scenario.label if self.scenario else "none",
            trials, periods, self.seed, stride,
            shards=min(workers, trials) if tier == "batch" else 1,
            engine=tier, initial=initial, member_log_state=member_log_state,
        )
        self._hooks: Optional[ScenarioHookFactory] = (
            self.scenario.hook_factory(self.point) if self.scenario else None
        )
        if engine == "auto" and tier == "batch" and self._needs_serial():
            self.point = replace(self.point, engine="serial", shards=1)
            if self._hooks is not None:
                # Trial 0's hooks, built to ask, are the ones it runs.
                self._hooks.point = self.point

    # ------------------------------------------------------------------
    # Engine selection
    # ------------------------------------------------------------------
    @property
    def chosen_engine(self) -> str:
        """The tier that will run: auto resolves to serial or batch."""
        return self.point.engine

    def _needs_serial(self) -> bool:
        """Whether the batch tier's census cannot run this experiment:
        the spec is outside its one-coin-per-state model, or the
        scenario's trial-0 hooks ask which hosts."""
        spec = self.protocol.resolve(self.point.n).spec
        if census_refusal(_compile(spec), spec.states) is not None:
            return True
        return self._hooks is not None and self._hooks.asks_hosts()

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
        """Execute the experiment on the selected engine tier.

        Every tier runs through one
        :class:`~repro.runtime.parallel.EnsembleExecutor`: the trial
        axis becomes work units (batch shards, or one unit per serial or
        agent trial) under this experiment's workers, backend and fault
        policy.
        """
        self.protocol.verify(self.point.n, mode=self.check)
        started = time.perf_counter()
        executor, options = self.point.ensemble(
            self.protocol, [self._hooks] if self._hooks else [],
            workers=self.workers, backend=self.backend,
            track_transitions=self.record_transitions,
        )
        outcome = executor.run(fault_policy=self.fault_policy, **options)
        return ExperimentResult(
            spec=executor.spec, n=self.point.n, trials=outcome.trials,
            periods=self.point.periods, engine=self.point.engine,
            trial_seeds=outcome.trial_seeds,
            elapsed_seconds=time.perf_counter() - started,
            protocol=self.protocol,
            scenario=self.scenario.label if self.scenario else None,
            recorder=outcome.recorder,
            shards=executor.shards,
            failures=outcome.failures,
            final=outcome.final_counts,
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"Experiment({self.protocol.label!r}, n={self.point.n}, "
            f"trials={self.point.trials}, periods={self.point.periods}, "
            f"engine={self.engine!r})"
        )
