"""Simulation-vs-analysis comparison harness (Theorem 1).

:func:`compare_trajectory` runs a protocol from a given start and
compares the full simulated trajectory against a deterministic
reference: the integrated source equations (the empirical content of
the Theorem 1/5 equivalence), or the exact infinite-N round map
:func:`discrete_mean_field`, the round the engines execute.  Figure
7's finite-N equilibrium window is
:meth:`repro.experiment.ExperimentResult.equilibrium_check`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

from ..odes.integrate import integrate
from ..runtime.metrics import BatchMetricsRecorder
from ..runtime.planner import ActionPlanner, CensusError, census_refusal
from ..runtime.round_engine import RoundEngine, _compile
from ..synthesis.protocol import ProtocolSpec


@dataclass(frozen=True)
class TrajectoryComparison:
    """Simulated vs integrated trajectories of one protocol run."""

    spec: ProtocolSpec
    n: int
    periods: np.ndarray
    simulated: Dict[str, np.ndarray]   # counts per state
    predicted: Dict[str, np.ndarray]   # ODE counts at matching times

    def max_abs_error(self, state: str) -> float:
        return float(
            np.max(np.abs(self.simulated[state] - self.predicted[state]))
        )

    def rms_fraction_error(self, state: str) -> float:
        """RMS error of the state fraction (normalized by n)."""
        diff = (self.simulated[state] - self.predicted[state]) / self.n
        return float(np.sqrt(np.mean(diff**2)))

    def worst_rms_fraction_error(self) -> float:
        return max(self.rms_fraction_error(s) for s in self.simulated)


def discrete_mean_field(
    spec: ProtocolSpec,
    initial_fractions: Mapping[str, float],
    periods: int,
    connection_failure_rate: float = 0.0,
) -> Dict[str, np.ndarray]:
    """Iterate the protocol's exact infinite-N round map.

    One period is :meth:`ActionPlanner.limit
    <repro.runtime.planner.ActionPlanner.limit>`: the census's period
    program with each count law's ``N -> infinity`` mean, so collisions
    are in it (a pull of fan-out ``b`` hits with ``1 - (1 - q)^b``, a
    push's targets are distinct, a host moves once a period).  On a
    synthesized exact spec it is ``x + p f(x)``, one Euler step of the
    source ODE; on a fan-out variant it is what the engines' ensemble
    means converge to as ``N`` grows.  ``connection_failure_rate`` is
    the network's, as every engine takes it.  A spec the census refuses
    (:func:`~repro.runtime.planner.census_refusal`) has no map: it
    raises :class:`~repro.runtime.planner.CensusError`.
    """
    compiled = _compile(spec)
    refusal = census_refusal(compiled, spec.states)
    if refusal is not None:
        raise CensusError(refusal)
    # The map reads no count: any group size lowers the same program.
    planner = ActionPlanner(compiled, 1, 2, connection_failure_rate)
    state = np.array([float(initial_fractions[s]) for s in spec.states])
    out = np.empty((periods + 1, len(spec.states)))
    out[0] = state
    for step in range(1, periods + 1):
        for action, moved in planner.limit(state.tolist()):
            state[action.edge_from] -= moved
            state[action.target] += moved
        out[step] = state
    return {s: out[:, i] for i, s in enumerate(spec.states)}


def compare_trajectory(
    spec: ProtocolSpec,
    n: int,
    initial_counts: Mapping[str, float],
    periods: int,
    *,
    seed: Optional[int] = None,
    record_every: int = 1,
    connection_failure_rate: float = 0.0,
    reference: str = "ode",
) -> TrajectoryComparison:
    """Simulate and solve the mean field from the same start.

    ``reference="ode"`` integrates the protocol's *source system*
    scaled by the normalizer (one period = ``p`` time units) -- the
    paper's continuous-time analysis, which a period approximates to
    O(p).  ``reference="discrete"`` iterates the exact infinite-N round
    map :func:`discrete_mean_field` on this run's
    ``connection_failure_rate`` instead: the real round, which the
    simulation tracks to O(1/sqrt(N)) whatever ``p`` is.

    This function is the workhorse of the EQUIV bench and the
    property-based equivalence tests.
    """
    if spec.source is None:
        raise ValueError("protocol has no source system to compare against")
    if reference not in ("ode", "discrete"):
        raise ValueError(f"unknown reference {reference!r}")
    engine = RoundEngine(
        spec,
        n=n,
        initial=dict(initial_counts),
        seed=seed,
        connection_failure_rate=connection_failure_rate,
    )
    recorder = BatchMetricsRecorder(spec.states, 1, stride=record_every)
    engine.run(periods, recorder=recorder)

    times = recorder.times
    fractions0 = {k: v / n for k, v in dict(initial_counts).items()}
    for state in spec.states:
        fractions0.setdefault(state, 0.0)

    predicted: Dict[str, np.ndarray] = {}
    simulated: Dict[str, np.ndarray] = {}
    if reference == "ode":
        trajectory = integrate(
            spec.source,
            fractions0,
            t_end=spec.time_for_periods(periods),
            samples=max(2, len(times)),
        )
        for state in spec.states:
            ode_values = np.interp(
                spec.time_for_periods(times.astype(float)),
                trajectory.times,
                trajectory.series(state),
            )
            predicted[state] = ode_values * n
    else:
        series = discrete_mean_field(
            spec, fractions0, periods, connection_failure_rate
        )
        for state in spec.states:
            predicted[state] = series[state][times] * n
    for state in spec.states:
        simulated[state] = recorder.counts(state)[0].astype(float)
    return TrajectoryComparison(
        spec=spec,
        n=n,
        periods=times,
        simulated=simulated,
        predicted=predicted,
    )
