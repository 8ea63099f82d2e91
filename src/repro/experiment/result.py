"""One result type for every engine tier.

An :class:`ExperimentResult` subsumes the three result surfaces the
engines expose (:class:`~repro.runtime.round_engine.RunResult`,
:class:`~repro.runtime.batch_engine.BatchRunResult` and direct
:class:`~repro.runtime.batch_engine.BatchMetricsRecorder` access):
whatever engine ran, the result is an ``(M, periods, states)`` count
tensor with the usual reducers, per-trial final counts, transition
tensors, and an equilibrium comparison against the protocol's source
ODE (via :mod:`repro.analysis.mean_field`'s window statistics).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..runtime.exec import UnitFailure
from ..runtime.metrics import BatchMetricsRecorder, WindowStats
from ..synthesis.protocol import ProtocolSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..odes.equilibria import Equilibrium
    from .protocol import Protocol

Edge = Tuple[str, str]

#: Default equilibrium-check tolerances on the pooled window median:
#: relative error below PASS_TOL passes, below WARN_TOL warns, above
#: fails.  Gated states must hold at least GATE_FRACTION of the group
#: at equilibrium (tiny populations are reported but not gated -- a
#: 5-host state's median is shot noise, not a verdict).
PASS_TOL = 0.10
WARN_TOL = 0.25
GATE_FRACTION = 0.01


@dataclass(frozen=True)
class EquilibriumCheckRow:
    """One state's analytic-vs-measured equilibrium comparison."""

    state: str
    analytic: float
    stats: WindowStats
    gated: bool

    @property
    def relative_error(self) -> float:
        if self.analytic == 0:
            return float("nan")
        return abs(self.stats.median - self.analytic) / self.analytic


def _worst_gated(rows) -> Optional["EquilibriumCheckRow"]:
    """The gated row with the largest relative error (None if none gated).

    The single definition behind both the check's verdict and its
    rendering, so the printed worst error always matches the status.
    """
    gated = [r for r in rows if r.gated]
    if not gated:
        return None
    return max(gated, key=lambda r: r.relative_error)


@dataclass(frozen=True)
class EquilibriumCheck:
    """Ensemble window statistics vs an equilibrium of the source ODE.

    ``status`` is ``"PASS"``/``"WARN"``/``"FAIL"`` on the worst gated
    state's relative error, or ``"SKIP"`` when the source system has no
    stable equilibrium to compare against (or none was recoverable).
    ``equilibrium`` is the labelled source-ODE equilibrium graded, or
    None for reference counts that are none of them.
    """

    status: str
    rows: Tuple[EquilibriumCheckRow, ...]
    window_periods: int
    trials: int
    pass_tol: float = PASS_TOL
    warn_tol: float = WARN_TOL
    equilibrium: Optional["Equilibrium"] = None

    @property
    def worst(self) -> Optional[EquilibriumCheckRow]:
        return _worst_gated(self.rows)

    def render(self) -> str:
        from ..viz import format_table

        if self.status == "SKIP":
            return ("equilibrium check: SKIP "
                    "(no stable source-ODE equilibrium to compare against)")
        graded = self.equilibrium
        target = ("the given reference counts" if graded is None else
                  f"the {graded.classification} {graded.coordinates()}")
        lines = [
            f"equilibrium check vs {target} "
            f"(window: last {self.window_periods} recorded periods "
            f"x {self.trials} trials, pooled):",
            format_table(
                ["state", "analytic", "median", "min", "max", "rel. error",
                 "gated"],
                [
                    (
                        row.state,
                        f"{row.analytic:.1f}",
                        f"{row.stats.median:g}",
                        f"{row.stats.minimum:g}",
                        f"{row.stats.maximum:g}",
                        "-" if np.isnan(row.relative_error)
                        else f"{row.relative_error:.1%}",
                        "yes" if row.gated else "no",
                    )
                    for row in self.rows
                ],
            ),
        ]
        worst = self.worst
        if worst is None:
            lines.append(
                f"equilibrium check: {self.status} (no state large enough "
                f"to gate on)")
        else:
            lines.append(
                f"equilibrium check: {self.status} (worst gated relative "
                f"error {worst.relative_error:.1%} on {worst.state!r}; "
                f"PASS <= {self.pass_tol:.0%}, WARN <= {self.warn_tol:.0%})"
            )
        return "\n".join(lines)


class ExperimentResult:
    """Unified outcome of an :class:`~repro.experiment.experiment.Experiment`.

    Whatever engine tier ran, the accessors are those of the batched
    recorder: ``(M, periods)`` per-state count series, ``(M, periods,
    S)`` tensors, trial-axis reducers, per-trial final counts and
    transition tensors.  ``recorder`` exposes the underlying
    :class:`BatchMetricsRecorder`, which every tier records into (the
    serial and agent tiers as one-trial recorders merged in trial
    order).
    """

    def __init__(
        self,
        *,
        spec: ProtocolSpec,
        n: int,
        trials: int,
        periods: int,
        engine: str,
        trial_seeds: Sequence[int],
        elapsed_seconds: float,
        protocol: Optional["Protocol"] = None,
        scenario: Optional[str] = None,
        recorder: BatchMetricsRecorder,
        shards: int = 1,
        failures: Optional[Sequence[UnitFailure]] = None,
        final: Optional[np.ndarray] = None,
    ):
        self.spec = spec
        self.n = n
        self.trials = trials
        self.periods = periods
        self.engine = engine
        self.trial_seeds = list(trial_seeds)
        self.elapsed_seconds = elapsed_seconds
        self.protocol = protocol
        self.scenario = scenario
        self.recorder = recorder
        #: Trial-axis shard count the run executed with (1 = unsharded;
        #: always 1 on the serial and agent tiers, whose trials each own
        #: a seed).  Part of the batch stream's identity: replaying a
        #: sharded run bit for bit requires the same shard count (see
        #: :class:`repro.runtime.parallel.EnsembleExecutor`).
        self.shards = shards
        #: Work units lost to a skipping fault policy
        #: (``Experiment(..., on_error="skip")``); empty on clean runs.
        #: When non-empty, ``trials``/``trial_seeds`` and every tensor
        #: cover only the surviving trials.
        self.failures: List[UnitFailure] = list(failures or [])
        #: ``(M, S)`` counts after the last period.  The recorder holds
        #: only the rows its stride recorded, which miss the end state
        #: whenever ``stride`` does not divide ``periods``; without
        #: ``final`` the last recorded row stands in for it.
        self._final = recorder.last_counts() if final is None else final

    # ------------------------------------------------------------------
    # Tensors
    # ------------------------------------------------------------------
    @property
    def states(self) -> Tuple[str, ...]:
        return tuple(self.spec.states)

    @property
    def times(self) -> np.ndarray:
        """Recorded periods, shape ``(periods,)``."""
        return self.recorder.times

    def count_tensor(self) -> np.ndarray:
        """All counts as one ``(M, periods, S)`` tensor."""
        return self.recorder.count_tensor()

    def counts(self, state: str) -> np.ndarray:
        """Count series of one state, shape ``(M, periods)``."""
        return self.recorder.counts(state)

    def alive_tensor(self) -> np.ndarray:
        """Alive population per trial and period, shape ``(M, periods)``."""
        return self.recorder.alive_tensor()

    def transition_tensor(self, edge: Edge) -> np.ndarray:
        """Per-trial transition series along one edge, ``(M, periods)``."""
        return self.recorder.transition_tensor(edge)

    def edges_seen(self) -> List[Edge]:
        """Every edge that carried at least one transition in any trial."""
        return self.recorder.edges_seen()

    # ------------------------------------------------------------------
    # Reducers
    # ------------------------------------------------------------------
    def mean_counts(self, state: str) -> np.ndarray:
        return self.counts(state).mean(axis=0)

    def std_counts(self, state: str) -> np.ndarray:
        return self.counts(state).std(axis=0)

    def quantile_counts(self, state: str, q) -> np.ndarray:
        return np.quantile(self.counts(state), q, axis=0)

    def mean_alive(self) -> np.ndarray:
        return self.alive_tensor().mean(axis=0)

    def final_counts(self) -> Dict[str, np.ndarray]:
        """Per-state counts after the last period, each an ``(M,)`` array."""
        return {
            s: self._final[:, i].copy() for i, s in enumerate(self.states)
        }

    def mean_final_counts(self) -> Dict[str, float]:
        return {s: float(v.mean()) for s, v in self.final_counts().items()}

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Final-count summary per state (the campaign-point reducers).

        Keys match :class:`repro.campaign.PointResult.summary`: both
        are the campaign's ``summarize_final_counts``.
        """
        from ..campaign.runner import summarize_final_counts

        return {
            state: summarize_final_counts(series)
            for state, series in self.final_counts().items()
        }

    # ------------------------------------------------------------------
    # Equilibrium comparison (the paper's Figure 7 idiom)
    # ------------------------------------------------------------------
    def window_stats(
        self, state: str, window_periods: Optional[int] = None
    ) -> WindowStats:
        """Pooled window statistics of one state's count series.

        The window is the last ``window_periods`` recorded periods of
        every trial, pooled (``M * window`` samples); default is the
        last quarter of the recording.
        """
        window = self._window(window_periods)
        return self.recorder.window(state, self.times[-window])

    def _window(self, window_periods: Optional[int]) -> int:
        recorded = len(self.times)
        if window_periods is None:
            return max(1, recorded // 4)
        return max(1, min(int(window_periods), recorded))

    def equilibrium_check(
        self,
        analytic: Optional[Dict[str, float]] = None,
        *,
        window_periods: Optional[int] = None,
        pass_tol: float = PASS_TOL,
        warn_tol: float = WARN_TOL,
    ) -> EquilibriumCheck:
        """Compare the ensemble's stationary window to the ODE equilibrium.

        ``analytic`` maps state names to predicted equilibrium *counts*;
        by default it comes from the protocol handle's stable source-ODE
        equilibrium (:meth:`Protocol.equilibrium_counts`).  States whose
        analytic population is below ``max(GATE_FRACTION * n, 30)``
        hosts are reported but not gated.

        The check names the source-ODE equilibrium it grades (the one
        ``analytic`` is within one host of), and refuses with a
        ``ValueError`` to grade convergence to a repelling one -- a
        saddle such as LV's barycenter, or an unstable node: no
        population settles there, whatever the protocol text says.
        """
        graded = None
        if self.protocol is not None:
            if analytic is None:
                graded = self.protocol.equilibrium(self.n)
                analytic = self.protocol.equilibrium_counts(self.n)
            else:
                graded = self._equilibrium_at(analytic)
        if graded is not None and graded.repelling:
            raise ValueError(
                f"refusing to grade convergence to the {graded.classification} "
                f"{graded.coordinates()} of {self.spec.name!r}: its spectral "
                f"abscissa is {graded.abscissa:.4g} > 0, so perturbations "
                f"grow and no population settles there"
            )
        if not analytic:
            return EquilibriumCheck(
                status="SKIP", rows=(), window_periods=0, trials=self.trials,
                pass_tol=pass_tol, warn_tol=warn_tol,
            )
        window = self._window(window_periods)
        gate_floor = max(GATE_FRACTION * self.n, 30.0)
        rows = []
        for state in self.states:
            target = float(analytic.get(state, 0.0))
            rows.append(EquilibriumCheckRow(
                state=state,
                analytic=target,
                stats=self.window_stats(state, window),
                gated=target >= gate_floor,
            ))
        worst = _worst_gated(rows)
        if worst is None:
            status = "WARN"
        elif worst.relative_error <= pass_tol:
            status = "PASS"
        elif worst.relative_error <= warn_tol:
            status = "WARN"
        else:
            status = "FAIL"
        return EquilibriumCheck(
            status=status, rows=tuple(rows), window_periods=window,
            trials=self.trials, pass_tol=pass_tol, warn_tol=warn_tol,
            equilibrium=graded,
        )

    def _equilibrium_at(self, analytic: Dict[str, float]) -> Optional["Equilibrium"]:
        """The protocol's source-ODE equilibrium within one host of ``analytic``."""
        for equilibrium in self.protocol.equilibria(self.n):
            if all(
                abs(float(analytic.get(variable, 0.0)) - value * self.n) <= 1.0
                for variable, value in equilibrium.point.items()
            ):
                return equilibrium
        return None

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render_summary(self) -> str:
        """The ensemble trajectory summary table, as printable text."""
        from ..viz import format_table

        initial, final = self.count_tensor()[:, 0, :], self._final
        rows = []
        for i, state in enumerate(self.states):
            series = final[:, i]
            rows.append((
                state,
                f"{initial[:, i].mean():.1f}",
                f"{series.mean():.1f}",
                f"{series.std():.1f}",
                f"{series.min():g}",
                f"{np.median(series):g}",
                f"{series.max():g}",
            ))
        return format_table(
            ["state", "initial", "final mean", "std", "min", "median", "max"],
            rows,
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"ExperimentResult({self.spec.name!r}, n={self.n}, "
            f"trials={self.trials}, periods={self.periods}, "
            f"engine={self.engine!r})"
        )
