"""Mean-field integration of equation systems via scipy.

The differential equations are the infinite-N limit of the synthesized
protocols, so integrating them numerically gives the reference
("analysis") curves the paper compares simulations against (e.g.
Figure 7).  This module wraps :func:`scipy.integrate.solve_ivp` with the
conventions used throughout the repository: states as ``{name: value}``
mappings, trajectories as structured objects, optional convergence
events, and conservation checks for complete systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from .system import EquationSystem, SystemError


@dataclass
class Trajectory:
    """A solved trajectory of an equation system.

    Attributes
    ----------
    system:
        The integrated system (defines variable order).
    times:
        1-D array of time points.
    states:
        2-D array with shape ``(len(times), dimension)``.
    converged:
        True when integration stopped at the convergence event.
    """

    system: EquationSystem
    times: np.ndarray
    states: np.ndarray
    converged: bool = False

    @property
    def final(self) -> Dict[str, float]:
        """Final state as a mapping."""
        return self.system.state_dict(self.states[-1])

    @property
    def initial(self) -> Dict[str, float]:
        """Initial state as a mapping."""
        return self.system.state_dict(self.states[0])

    def series(self, variable: str) -> np.ndarray:
        """Time series of one variable."""
        return self.states[:, self.system.index_of(variable)]

    def at(self, time: float) -> Dict[str, float]:
        """Linearly interpolated state at an arbitrary time."""
        if not (self.times[0] <= time <= self.times[-1]):
            raise ValueError(
                f"time {time} outside [{self.times[0]}, {self.times[-1]}]"
            )
        values = [
            float(np.interp(time, self.times, self.states[:, i]))
            for i in range(self.system.dimension)
        ]
        return self.system.state_dict(values)

    def mass_drift(self) -> float:
        """Max deviation of ``sum(x)`` from its initial value.

        For complete systems this measures integration error only.
        """
        sums = self.states.sum(axis=1)
        return float(np.max(np.abs(sums - sums[0])))

    def time_to_reach(self, variable: str, value: float) -> Optional[float]:
        """First time the variable series crosses ``value`` (or None)."""
        series = self.series(variable)
        start = series[0]
        if start == value:
            return float(self.times[0])
        crossing = (series - value) * (start - value) <= 0
        hits = np.nonzero(crossing)[0]
        if len(hits) == 0:
            return None
        i = hits[0]
        if i == 0:
            return float(self.times[0])
        t0, t1 = self.times[i - 1], self.times[i]
        v0, v1 = series[i - 1], series[i]
        if v1 == v0:
            return float(t1)
        return float(t0 + (value - v0) * (t1 - t0) / (v1 - v0))


def integrate(
    system: EquationSystem,
    initial: Mapping[str, float],
    t_end: float,
    *,
    t_start: float = 0.0,
    samples: int = 400,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    method: str = "LSODA",
    stop_at_equilibrium: bool = False,
    equilibrium_tol: float = 1e-9,
) -> Trajectory:
    """Integrate ``system`` from ``initial`` over ``[t_start, t_end]``.

    Parameters
    ----------
    stop_at_equilibrium:
        When True, integration terminates early once ``|f(X)|_inf``
        drops below ``equilibrium_tol`` (useful for convergence-time
        measurements).
    """
    from scipy.integrate import solve_ivp  # on first use: docs/architecture.md

    missing = set(system.variables) - set(initial)
    if missing:
        raise SystemError(f"initial state missing variables {sorted(missing)}")
    y0 = system.state_vector(initial)
    t_eval = np.linspace(t_start, t_end, samples)

    events = None
    if stop_at_equilibrium:

        def settled(_t: float, y: np.ndarray) -> float:
            return float(np.max(np.abs(system.rhs(y))) - equilibrium_tol)

        settled.terminal = True  # type: ignore[attr-defined]
        settled.direction = -1  # type: ignore[attr-defined]
        events = [settled]

    solution = solve_ivp(
        system.rhs_function(),
        (t_start, t_end),
        y0,
        method=method,
        t_eval=t_eval,
        rtol=rtol,
        atol=atol,
        events=events,
        dense_output=False,
    )
    if not solution.success:  # pragma: no cover - scipy failure path
        raise RuntimeError(f"integration failed: {solution.message}")
    converged = bool(events and solution.t_events and len(solution.t_events[0]))
    times = solution.t
    states = solution.y.T
    if converged and solution.t_events[0].size:
        # Append the event point so `final` reflects the converged state.
        t_hit = solution.t_events[0][-1]
        y_hit = solution.y_events[0][-1]
        if times.size == 0 or t_hit > times[-1]:
            times = np.append(times, t_hit)
            states = np.vstack([states, y_hit])
    return Trajectory(system=system, times=times, states=states, converged=converged)


def integrate_to_equilibrium(
    system: EquationSystem,
    initial: Mapping[str, float],
    *,
    max_time: float = 1e6,
    tol: float = 1e-9,
    samples: int = 400,
) -> Trajectory:
    """Integrate until the flow settles (or ``max_time`` elapses)."""
    return integrate(
        system,
        initial,
        max_time,
        samples=samples,
        stop_at_equilibrium=True,
        equilibrium_tol=tol,
    )
