"""Mean-field integration of equation systems.

The differential equations are the infinite-N limit of the synthesized
protocols, so integrating them numerically gives the reference
("analysis") curves the paper compares simulations against (e.g.
Figure 7).  :func:`integrate` is Dormand-Prince 5(4) in numpy, with
the conventions used throughout the repository: states as
``{name: value}`` mappings, trajectories as structured objects, and
conservation checks for complete systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional

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
    """

    system: EquationSystem
    times: np.ndarray
    states: np.ndarray

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


# Dormand-Prince 5(4): stage coefficients, the 5th-order weights, the
# error weights (5th minus 4th order; the last multiplies the FSAL
# stage) and the quartic dense output of Shampine (1986).
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])
_ATOL = 1e-10


def integrate(
    system: EquationSystem,
    initial: Mapping[str, float],
    t_end: float,
    *,
    samples: int = 400,
    rtol: float = 1e-8,
) -> Trajectory:
    """Integrate ``system`` from ``initial`` over ``[0, t_end]``.

    Dormand-Prince 5(4) with local extrapolation, the quartic dense
    output at ``samples`` evenly spaced times, and the usual step
    controller (Hairer-Norsett-Wanner II.4's initial step, RMS error
    norm against ``1e-10 + rtol * |y|``, safety 0.9, factors 0.2 and
    10): ``solve_ivp(method="RK45")`` step for step.  The method is
    explicit, so stiff input costs steps -- the endemic system at
    ``beta = 4000`` takes ~12,500 evaluations of ``f`` to ``t = 50``,
    LSODA ~900 -- and none of the paper's systems is stiff.  A step
    that underflows (the solution blows up, or stiffness wins) raises
    ``RuntimeError``.
    """
    if not 0 < t_end < np.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    missing = set(system.variables) - set(initial)
    if missing:
        raise SystemError(f"initial state missing variables {sorted(missing)}")
    times = np.linspace(0.0, t_end, samples)
    with np.errstate(over="ignore", invalid="ignore"):  # a blow-up raises by name
        states = _dopri5(system.rhs, system.state_vector(initial), t_end, times, rtol)
    return Trajectory(system=system, times=times, states=states)


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def _dopri5(f: Callable[[np.ndarray], np.ndarray], y: np.ndarray, t_end: float,
            times: np.ndarray, rtol: float) -> np.ndarray:
    """The states at ``times`` of ``y' = f(y)`` from ``y`` at 0 to ``t_end``."""
    t, fy = 0.0, f(y)
    scale = _ATOL + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(fy / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end)
    d2 = _rms((f(y + h0 * fy) - fy) / scale) / h0
    h1 = max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** 0.2
    h = min(100 * h0, h1, t_end)
    k = np.empty((7, y.size))
    out = np.empty((times.size, y.size))
    done = 0
    while t < t_end:
        min_step = 10 * (np.nextafter(t, np.inf) - t)
        h, rejected = max(h, min_step), False
        while True:
            if h < min_step:
                raise RuntimeError(f"integration failed at t = {t:.6g}: the step size "
                                   f"underflowed (the solution blows up, or is stiff)")
            t_new = min(t + h, t_end)
            step = t_new - t
            k[0] = fy
            for s in range(1, 6):
                k[s] = f(y + np.dot(k[:s].T, _A[s, :s]) * step)
            y_new = y + step * np.dot(k[:6].T, _B)
            k[6] = f_new = f(y_new)
            scale = _ATOL + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error = _rms(np.dot(k.T, _E) * step / scale)
            if error < 1:
                factor = 10 if error == 0 else min(10, 0.9 * error ** -0.2)
                h = step * (min(1, factor) if rejected else factor)
                break
            h = step * max(0.2, 0.9 * error ** -0.2)
            rejected = True
        upto = np.searchsorted(times, t_new, side="right")
        powers = np.cumprod(np.tile((times[done:upto] - t) / step, (4, 1)), axis=0)
        out[done:upto] = (step * np.dot(k.T.dot(_P), powers) + y[:, None]).T
        done = upto
        t, y, fy = t_new, y_new, f_new
    return out
