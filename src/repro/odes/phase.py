"""Phase portraits: trajectory bundles from sets of initial points.

Figures 2 and 4 of the paper are phase portraits -- simultaneous plots
of ``(N x(t), N y(t))`` from several initial conditions, showing the
stable spiral of the endemic system and the bistable structure of the
LV system.  This module generates the underlying trajectory data
(rendering is left to :mod:`repro.viz.ascii_plot` or external tools).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Tuple

import numpy as np

from .integrate import Trajectory, integrate
from .system import EquationSystem


@dataclass
class PhasePortrait:
    """A bundle of trajectories of one system.

    ``scale`` converts fractions to process counts for presentation
    (the paper plots ``(Num. X, Num. Y) = (N x, N y)``).
    """

    system: EquationSystem
    trajectories: List[Trajectory]
    scale: float = 1.0

    def projected(self, x_var: str, y_var: str) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Per-trajectory ``(x, y)`` curves scaled to counts."""
        return [
            (t.series(x_var) * self.scale, t.series(y_var) * self.scale)
            for t in self.trajectories
        ]

    def endpoints(self) -> List[Dict[str, float]]:
        """Final state of each trajectory (scaled)."""
        return [
            {k: v * self.scale for k, v in t.final.items()}
            for t in self.trajectories
        ]

    def start_points(self) -> List[Dict[str, float]]:
        """Initial state of each trajectory (scaled)."""
        return [
            {k: v * self.scale for k, v in t.initial.items()}
            for t in self.trajectories
        ]


def phase_portrait(
    system: EquationSystem,
    initial_points: Iterable[Mapping[str, float]],
    t_end: float,
    *,
    scale: float = 1.0,
    samples: int = 600,
    normalize_counts: bool = False,
    rtol: float = 1e-9,
) -> PhasePortrait:
    """Integrate the system from each initial point.

    Parameters
    ----------
    initial_points:
        States either as fractions or (with ``normalize_counts=True``)
        as process counts that are divided by ``scale`` first -- Figure 2
        lists its starting points as counts like ``(999, 1, 0)``.
    scale:
        Group size N used for presentation and count normalization.
    """
    trajectories = []
    for point in initial_points:
        state = dict(point)
        if normalize_counts:
            state = {k: v / scale for k, v in state.items()}
        trajectories.append(
            integrate(system, state, t_end, samples=samples, rtol=rtol)
        )
    return PhasePortrait(system=system, trajectories=trajectories, scale=scale)


# The seven starting points of Figure 2 (endemic portrait), as counts
# (X, Y, Z) in a group of 1000 processes.
FIGURE2_STARTS: Tuple[Dict[str, float], ...] = (
    {"x": 999, "y": 1, "z": 0},
    {"x": 0, "y": 1, "z": 999},
    {"x": 0, "y": 1000, "z": 0},
    {"x": 500, "y": 500, "z": 0},
    {"x": 500, "y": 1, "z": 499},
    {"x": 1, "y": 500, "z": 499},
    {"x": 333, "y": 333, "z": 334},
)

# The seven starting points of Figure 4 (LV portrait), as counts.
FIGURE4_STARTS: Tuple[Dict[str, float], ...] = (
    {"x": 100, "y": 200, "z": 700},
    {"x": 200, "y": 100, "z": 700},
    {"x": 300, "y": 500, "z": 200},
    {"x": 500, "y": 300, "z": 200},
    {"x": 100, "y": 800, "z": 100},
    {"x": 800, "y": 100, "z": 100},
    {"x": 100, "y": 100, "z": 800},
)
