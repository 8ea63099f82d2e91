"""Simulation substrates for synthesized protocols.

Three engines execute any :class:`~repro.synthesis.protocol.ProtocolSpec`,
ordered from most faithful to fastest:

* :class:`~repro.runtime.agent_sim.AgentSimulation` -- one DES coroutine
  per process over an unreliable latency network with arbitrary period
  phases and clock drift; validates that results are not artifacts of
  synchrony.
* :class:`~repro.runtime.round_engine.RoundEngine` -- vectorized
  synchronous rounds for one protocol instance; the faithful
  reproduction of the paper's C simulator, fast enough for
  100,000-host, 10,000-period experiments.
* :class:`~repro.runtime.batch_engine.BatchRoundEngine` -- M independent
  trials in one ``(M, N)`` state array drawing from one batched RNG
  stream; the substrate for every ensemble measurement (means,
  quantile bands, extinction frequencies) and for the campaign runner
  (:mod:`repro.campaign`).

:class:`~repro.runtime.parallel.EnsembleExecutor` runs an M-trial
ensemble of any of the three as work units over the execution layer
(:mod:`~repro.runtime.exec`), in-process or fanned across workers.

Support modules: the agent tier's discrete-event kernel
(:mod:`~repro.runtime.des`, one event heap driving generator
processes) and network model (:mod:`~repro.runtime.network`),
membership views and overlays, failure injection
(:mod:`~repro.runtime.failures`), synthetic Overnet-style churn traces
(:mod:`~repro.runtime.churn`), metrics recording and Mersenne Twister
stream management (:mod:`~repro.runtime.rng`).
"""

from .agent_sim import AgentSimulation
from .batch_engine import BatchRoundEngine, BatchRunResult, BatchTrialView
from .churn import (
    ChurnEvent, ChurnReplayer, ChurnStep, ChurnTrace, GeneratedTrace,
    generate_trace,
)
from .des import Environment
from .failures import CrashRecoveryNoise, DirectedAttack, MassiveFailure, OpenGroupJoins, ScheduledRecovery
from .membership import FullMembership, PartialMembership
from .metrics import BatchMetricsRecorder, WindowStats
from .network import ContactFailed, LatencyModel, Network
from .overlay import erdos_renyi_overlay, log_degree, overlay_stats, random_regular_overlay
from .chaos import ChaosSchedule, WorkerFault
from .exec import (
    BACKENDS,
    ExecutionPlan,
    FaultPolicy,
    UnitExecutionError,
    UnitFailure,
    UnitTimeout,
    WorkUnit,
    run_plan,
)
from .parallel import (
    SHARD_DOMAIN,
    TIERS,
    EnsembleExecutor,
    EnsembleResult,
    shard_layout,
)
from .planner import ActionPlanner, CensusError
from .rng import RandomSource, make_generator, sample_other, spawn_seeds
from .round_engine import (
    RoundEngine,
    RunResult,
    initial_counts,
    initial_state_vector,
)

__all__ = [
    "RoundEngine",
    "RunResult",
    "BatchRoundEngine",
    "BatchRunResult",
    "BatchMetricsRecorder",
    "BatchTrialView",
    "CensusError",
    "ActionPlanner",
    "BACKENDS",
    "ChaosSchedule",
    "ExecutionPlan",
    "FaultPolicy",
    "UnitExecutionError",
    "UnitFailure",
    "UnitTimeout",
    "WorkUnit",
    "WorkerFault",
    "run_plan",
    "TIERS",
    "EnsembleExecutor",
    "EnsembleResult",
    "shard_layout",
    "SHARD_DOMAIN",
    "initial_counts",
    "initial_state_vector",
    "AgentSimulation",
    "Environment",
    "Network",
    "LatencyModel",
    "ContactFailed",
    "FullMembership",
    "PartialMembership",
    "WindowStats",
    "MassiveFailure",
    "OpenGroupJoins",
    "CrashRecoveryNoise",
    "DirectedAttack",
    "ScheduledRecovery",
    "ChurnTrace",
    "ChurnEvent",
    "ChurnReplayer",
    "ChurnStep",
    "GeneratedTrace",
    "generate_trace",
    "RandomSource",
    "make_generator",
    "sample_other",
    "spawn_seeds",
    "log_degree",
    "random_regular_overlay",
    "erdos_renyi_overlay",
    "overlay_stats",
]
