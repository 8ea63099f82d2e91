"""Simulation-vs-analysis comparison harness (Figure 7 and Theorem 1).

Two reusable measurements:

* :func:`measure_equilibrium` -- run a protocol to (stochastic)
  equilibrium and summarize a long observation window per state; the
  Figure 7 experiment compares these medians/min/max against the
  closed-form equilibrium across group sizes.
* :func:`compare_trajectory` -- run a protocol from a given start and
  compare the full simulated trajectory against the integrated source
  equations (the empirical content of the Theorem 1/5 equivalence).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from ..odes.integrate import integrate
from ..runtime.batch_engine import BatchRoundEngine
from ..runtime.metrics import BatchMetricsRecorder, WindowStats
from ..runtime.round_engine import RoundEngine
from ..synthesis.protocol import ProtocolSpec


@dataclass(frozen=True)
class EquilibriumMeasurement:
    """One Figure 7 cell: measured window stats vs the analytic value."""

    n: int
    state: str
    analytic: float
    stats: WindowStats
    #: Ensemble size behind the stats (1 for a single serial run).
    trials: int = 1

    @property
    def relative_error(self) -> float:
        """|median - analytic| / analytic (NaN when analytic is 0)."""
        if self.analytic == 0:
            return float("nan")
        return abs(self.stats.median - self.analytic) / self.analytic

    def row(self) -> Tuple:
        return (
            self.n,
            self.state,
            round(self.analytic, 2),
            self.stats.median,
            self.stats.minimum,
            self.stats.maximum,
            round(self.relative_error, 4),
        )


def measure_equilibrium(
    spec: ProtocolSpec,
    n: int,
    analytic: Mapping[str, float],
    *,
    warmup_periods: int,
    window_periods: int,
    seed: Optional[int] = None,
    initial: Optional[Mapping[str, float]] = None,
    states: Optional[Iterable[str]] = None,
) -> Dict[str, EquilibriumMeasurement]:
    """Run to equilibrium; summarize each state over the window.

    ``analytic`` maps state names to predicted equilibrium *counts*.
    By default the simulation starts at the analytic equilibrium (as
    the paper's experiments do); override with ``initial``.
    """
    start = dict(initial) if initial is not None else dict(analytic)
    engine = RoundEngine(spec, n=n, initial=start, seed=seed)
    recorder = BatchMetricsRecorder(spec.states, 1)
    engine.run(warmup_periods, recorder=recorder)
    engine.run(window_periods, recorder=recorder, record_initial=False)
    observe = tuple(states) if states is not None else spec.states
    out = {}
    for state in observe:
        out[state] = EquilibriumMeasurement(
            n=n,
            state=state,
            analytic=float(analytic.get(state, 0.0)),
            stats=recorder.window(state, start_period=warmup_periods + 1),
        )
    return out


def measure_equilibrium_batch(
    spec: ProtocolSpec,
    n: int,
    analytic: Mapping[str, float],
    *,
    trials: int,
    warmup_periods: int,
    window_periods: int,
    seed: Optional[int] = None,
    initial: Optional[Mapping[str, float]] = None,
    states: Optional[Iterable[str]] = None,
) -> Dict[str, EquilibriumMeasurement]:
    """Batched :func:`measure_equilibrium`: M trials, pooled window stats.

    Runs the M-trial ensemble as one
    :class:`~repro.runtime.batch_engine.BatchRoundEngine` and summarizes
    each state over the union of all trials' observation windows
    (``M * window_periods`` samples), which both tightens the median
    against ensemble noise and replaces the serial per-size loop the
    Figure 7 bench used to run.
    """
    start = dict(initial) if initial is not None else dict(analytic)
    engine = BatchRoundEngine(
        spec, n=n, trials=trials, initial=start, seed=seed
    )
    # The warmup is burn-in: run it with a recorder that keeps nothing
    # (stride past the horizon) instead of storing per-period tensors
    # the window stats would only mask off.
    engine.run(
        warmup_periods,
        recorder=BatchMetricsRecorder(
            spec.states, trials, track_transitions=False,
            stride=warmup_periods + 1,
        ),
        record_initial=False,
    )
    recorder = BatchMetricsRecorder(
        spec.states, trials, track_transitions=False
    )
    engine.run(window_periods, recorder=recorder, record_initial=False)
    observe = tuple(states) if states is not None else spec.states
    out = {}
    for state in observe:
        out[state] = EquilibriumMeasurement(
            n=n,
            state=state,
            analytic=float(analytic.get(state, 0.0)),
            stats=recorder.window(state, warmup_periods + 1),
            trials=trials,
        )
    return out


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
) -> Dict[str, np.ndarray]:
    """Iterate the protocol's discrete mean-field map.

    The synchronous protocol is, in expectation, the map
    ``X_{n+1} = X_n + g(X_n)`` where ``g`` is the per-period effective
    mean field (``p * f`` for exact protocols).  This is the exact
    infinite-N reference for a synchronous-round simulation; it
    converges to the source ODE as the normalizer ``p`` shrinks.
    """
    system = spec.mean_field_system(effective=True)
    state = np.array([float(initial_fractions[s]) for s in spec.states])
    out = np.empty((periods + 1, len(spec.states)))
    out[0] = state
    for step in range(1, periods + 1):
        state = state + system.rhs(state)
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
    paper's continuous-time analysis.  ``reference="discrete"``
    iterates the exact per-period mean-field map instead, which removes
    the O(p) time-discretization gap (relevant when ``p`` is of order
    one, e.g. the epidemic protocol).

    For exact protocols the fraction error against the discrete
    reference shrinks as ``O(1/sqrt(n))``; this function is the
    workhorse of the EQUIV bench and the property-based equivalence
    tests.
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
        series = discrete_mean_field(spec, fractions0, periods)
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
