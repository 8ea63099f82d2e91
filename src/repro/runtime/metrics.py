"""Metrics recording for protocol simulations, one recorder for every tier.

The paper's figures are all time series derived from three kinds of
observations, all captured here:

* per-period counts of alive processes in each state (Figures 2, 4, 5,
  7, 9, 11, 12);
* per-period transition counts along each state-machine edge -- the
  "file flux rate" of Figure 6 and the transition plot of Figure 10;
* per-period identity of the processes in a chosen state -- the stasher
  scatter of Figure 8.

Every engine tier records into the same :class:`BatchMetricsRecorder`:
the batch engine writes ``(M, S)`` rows, a serial or agent run writes
``(1, S)`` rows, and serial and agent ensembles are the per-trial
recorders put together with :meth:`BatchMetricsRecorder.merge`, the
merge the sharded batch executor uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

Edge = Tuple[str, str]

#: Bytes of counts a recorder's first slab holds when nobody said how
#: many periods are coming; slabs double from there.  Capacity nobody
#: has written is never resident, so a roomy start costs address space
#: only, and a run of a few hundred periods never reallocates (each
#: reallocation copies every slab).
_FIRST_SLAB = 1 << 20
#: The most bytes of counts :meth:`BatchMetricsRecorder.reserve` asks
#: for in one go: a run told to stop "within 10**9 periods" must not
#: try to map them.
_RESERVE_CAP = 64 << 20


@dataclass
class WindowStats:
    """Median/min/max/mean of a series over an observation window."""

    median: float
    minimum: float
    maximum: float
    mean: float

    @classmethod
    def of(cls, series: np.ndarray) -> "WindowStats":
        if len(series) == 0:
            raise ValueError("empty series")
        return cls(
            median=float(np.median(series)),
            minimum=float(np.min(series)),
            maximum=float(np.max(series)),
            mean=float(np.mean(series)),
        )


def trial_rows(
    states: Sequence[str],
    counts: Mapping[str, int],
    alive: int,
    transitions: Mapping[Edge, int],
) -> Tuple[np.ndarray, np.ndarray, Dict[Edge, np.ndarray]]:
    """One run's per-state counts as the ``(1, S)`` rows ``record`` takes.

    Returns ``(counts, alive, transitions)`` for a recorder of one
    trial: what a serial, agent or application loop observed as plain
    integers, as :meth:`BatchMetricsRecorder.record`'s arrays.
    """
    return (
        np.array([[counts[s] for s in states]], dtype=np.int64),
        np.array([alive], dtype=np.int64),
        {edge: np.array([moved], dtype=np.int64)
         for edge, moved in transitions.items()},
    )


class BatchMetricsRecorder:
    """Per-period ensemble observations as ``(M, periods, states)`` tensors.

    One :meth:`record` call stores a full ``(M, S)`` count matrix (a
    single run is ``M = 1``), and the accessors return count tensors
    plus mean/quantile reducers over the trial axis.  Observations are
    written into period-major slabs -- one ``(periods, M, S)`` for the
    counts, one ``(periods, M)`` for the alive populations and one per
    edge that ever carried a mover, cut to a run's length by
    :meth:`reserve` or else doubled -- so a recorded period is a few row
    writes, a merge one concatenate per slab, and a pickled recorder
    its slabs cut to length.

    Parameters
    ----------
    states:
        Ordered state names (defines the layout of count rows).
    trials:
        Ensemble width M.
    track_transitions:
        Record per-edge transition counts each period.
    member_log_state:
        When set to a state name, each recorded period stores the host
        ids of that state's alive members, per trial (Figure 8's
        stasher log).  Expensive for big groups; leave None unless
        needed.
    stride:
        Record only every ``stride``-th period (1 = every period).
    """

    def __init__(
        self,
        states: Sequence[str],
        trials: int,
        track_transitions: bool = True,
        member_log_state: Optional[str] = None,
        stride: int = 1,
    ):
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        self.states = tuple(states)
        self.trials = trials
        self.track_transitions = track_transitions
        self.member_log_state = member_log_state
        self.stride = stride
        self.periods: List[int] = []
        # Rows past len(self.periods) are capacity, never read.
        self._shape = (trials, len(self.states))
        self._counts = np.empty((0,) + self._shape, dtype=np.int64)
        self._alive = np.empty((0, trials), dtype=np.int64)
        #: Per edge seen so far: its (capacity, M) movers, zero where
        #: a recorded period did not report the edge.
        self._transitions: Dict[Edge, np.ndarray] = {}
        #: Per recorded period: (period, [per-trial member id arrays]).
        self.member_log: List[Tuple[int, List[np.ndarray]]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(
        self,
        period: int,
        counts: np.ndarray,
        alive: np.ndarray,
        transitions: Optional[Mapping[Edge, np.ndarray]] = None,
        members: Optional[List[np.ndarray]] = None,
    ) -> None:
        """Store one period's ``(M, S)`` counts (subject to the stride).

        Everything handed in is checked before anything is written,
        then copied into the recorder's own slabs.
        """
        if period % self.stride != 0:
            return
        counts, alive = np.asarray(counts), np.asarray(alive)
        # A slab row would broadcast a scalar and truncate a float.
        if (counts.shape != self._shape or alive.shape != self._shape[:1]
                or counts.dtype.kind not in "iu"
                or alive.dtype.kind not in "iu"):
            raise ValueError(
                f"counts shape {counts.shape} dtype {counts.dtype} and "
                f"alive shape {alive.shape} dtype {alive.dtype}: need "
                f"integers of shape {self._shape} and {self._shape[:1]}"
            )
        for edge, moved in (transitions or {}).items():
            moved = np.asarray(moved)
            if moved.shape != self._shape[:1] or moved.dtype.kind not in "iu":
                raise ValueError(
                    f"transitions {edge} shape {moved.shape} dtype "
                    f"{moved.dtype}: need integers of shape "
                    f"{self._shape[:1]}"
                )
        if (self.member_log_state is not None and members is not None
                and len(members) != self.trials):
            raise ValueError(
                f"got member lists for {len(members)} trials, "
                f"expected {self.trials}"
            )
        self._append(period, counts, alive, transitions, members)

    def _append(
        self,
        period: int,
        counts: np.ndarray,
        alive: np.ndarray,
        transitions: Optional[Mapping[Edge, np.ndarray]],
        members: Optional[List[np.ndarray]] = None,
    ) -> None:
        """Write one period's rows: :meth:`record` past its checks.

        For a caller whose ``counts`` and ``alive`` are already integer
        arrays of the recorder's shapes and whose period is on the
        stride -- :meth:`BatchRoundEngine._record`, every period.
        """
        row = len(self.periods)
        if row == len(self._counts):
            self._grow(2 * row or max(16, _FIRST_SLAB // counts.nbytes))
        self.periods.append(period)
        self._counts[row] = counts
        self._alive[row] = alive
        if self.track_transitions and transitions:
            slabs = self._transitions
            for edge, moved in transitions.items():
                try:
                    slab = slabs[edge]
                except KeyError:
                    slab = slabs[edge] = np.zeros(
                        self._alive.shape, dtype=np.int64
                    )
                slab[row] = moved
        if self.member_log_state is not None and members is not None:
            self.member_log.append(
                (period, [np.array(m, copy=True) for m in members])
            )

    def reserve(self, rows: int) -> None:
        """Make room for ``rows`` more recorded periods, in one piece.

        What an engine's ``run`` knows and a bare :meth:`record` cannot:
        the first run's slabs are cut to its length and hold no spare
        capacity at its end.  A later run on the same recorder grows the
        slabs to at least twice their capacity, so a loop of short runs
        reallocates O(log periods) times, not once per run.  Bounded, so
        a far-off horizon with an early ``stop`` maps no more than
        ``_RESERVE_CAP`` bytes of counts; past that the slabs double.
        """
        row_bytes = 8 * self.trials * len(self.states)
        capacity = len(self.periods) + min(rows, _RESERVE_CAP // row_bytes)
        if capacity > len(self._counts):
            self._grow(max(capacity, 2 * len(self._counts)))

    def _grow(self, capacity: int) -> None:
        """Reallocate every slab with room for ``capacity`` periods."""
        def grown(slab: np.ndarray, fill) -> np.ndarray:
            out = fill((capacity,) + slab.shape[1:], dtype=np.int64)
            out[:len(self.periods)] = slab[:len(self.periods)]
            return out

        self._counts = grown(self._counts, np.empty)
        self._alive = grown(self._alive, np.empty)
        self._transitions = {
            edge: grown(slab, np.zeros)
            for edge, slab in self._transitions.items()
        }

    def __getstate__(self) -> Dict[str, object]:
        """Pickle the recorded rows, not the slabs' spare capacity."""
        state = dict(self.__dict__)
        rows = len(self.periods)
        state["_counts"] = self._counts[:rows]
        state["_alive"] = self._alive[:rows]
        state["_transitions"] = {
            edge: slab[:rows] for edge, slab in self._transitions.items()
        }
        return state

    # ------------------------------------------------------------------
    # Merging (trial-sharded execution, serial and agent ensembles)
    # ------------------------------------------------------------------
    @classmethod
    def merge(
        cls, parts: Sequence["BatchMetricsRecorder"]
    ) -> "BatchMetricsRecorder":
        """Concatenate shard recorders along the trial axis, exactly.

        The merge behind :class:`repro.runtime.parallel.ShardedBatchExecutor`
        and the serial and agent ensembles: the parts' ``(periods, M_k,
        S)`` count slabs (and alive slabs, transition slabs, member
        logs) concatenate in part order -- integer concatenation, no
        arithmetic -- so the merged recorder is bitwise independent of
        how the parts were scheduled.  All parts must agree on states,
        stride, recording schedule and tracking configuration.
        """
        if not parts:
            raise ValueError("cannot merge zero recorders")
        if len(parts) == 1:
            return parts[0]  # nothing to concatenate (the unsharded run)
        first = parts[0]
        for other in parts[1:]:
            if other.states != first.states:
                raise ValueError("shard recorders disagree on states")
            if other.periods != first.periods:
                raise ValueError(
                    "shard recorders disagree on the recording schedule"
                )
            if (other.track_transitions != first.track_transitions
                    or other.member_log_state != first.member_log_state
                    or other.stride != first.stride):
                raise ValueError(
                    "shard recorders disagree on tracking configuration"
                )
        merged = cls(
            first.states,
            sum(p.trials for p in parts),
            track_transitions=first.track_transitions,
            member_log_state=first.member_log_state,
            stride=first.stride,
        )
        rows = len(first.periods)
        merged.periods = list(first.periods)
        merged._counts = np.concatenate(
            [p._counts[:rows] for p in parts], axis=1
        )
        merged._alive = np.concatenate(
            [p._alive[:rows] for p in parts], axis=1
        )
        zeros = [np.zeros((rows, p.trials), dtype=np.int64) for p in parts]
        for edge in dict.fromkeys(e for p in parts for e in p._transitions):
            merged._transitions[edge] = np.concatenate([
                p._transitions[edge][:rows] if edge in p._transitions
                else zeros[k]
                for k, p in enumerate(parts)
            ], axis=1)
        if first.member_log_state is not None:
            for i, (period, _) in enumerate(first.member_log):
                merged.member_log.append((
                    period,
                    [m for p in parts for m in p.member_log[i][1]],
                ))
        return merged

    # ------------------------------------------------------------------
    # Tensors
    # ------------------------------------------------------------------
    @property
    def times(self) -> np.ndarray:
        return np.array(self.periods, dtype=np.int64)

    def count_tensor(self) -> np.ndarray:
        """All counts as one ``(M, periods, S)`` tensor (a copy)."""
        return self._counts[:len(self.periods)].transpose(1, 0, 2).copy()

    def counts(self, state: str) -> np.ndarray:
        """Count series of one state, shape ``(M, periods)``."""
        index = self.states.index(state)
        return self._counts[:len(self.periods), :, index].T.copy()

    def alive_tensor(self) -> np.ndarray:
        """Alive population per trial and period, shape ``(M, periods)``."""
        return self._alive[:len(self.periods)].T.copy()

    def fractions(self, state: str) -> np.ndarray:
        """Per-trial state fractions among alive, shape ``(M, periods)``."""
        alive = self.alive_tensor().astype(float)
        alive[alive == 0] = np.nan
        return self.counts(state) / alive

    def transition_tensor(self, edge: Edge) -> np.ndarray:
        """Per-trial transitions along one edge, shape ``(M, periods)``."""
        if not self.track_transitions:
            raise RuntimeError("transition tracking is disabled")
        rows = len(self.periods)
        slab = self._transitions.get(edge)
        if slab is None:
            return np.zeros((self.trials, rows), dtype=np.int64)
        return slab[:rows].T.copy()

    def trial_member_log(self, trial: int) -> List[Tuple[int, np.ndarray]]:
        """One trial's member log, as ``[(period, member ids), ...]``.

        Feeds the Figure 8 fairness/untraceability statistics
        (:func:`repro.analysis.fairness.analyze_member_log`) for any
        single ensemble member.
        """
        if self.member_log_state is None:
            raise RuntimeError("member logging is disabled")
        if not 0 <= trial < self.trials:
            raise IndexError(f"trial {trial} out of range [0, {self.trials})")
        return [(period, members[trial]) for period, members in self.member_log]

    def edges_seen(self) -> List[Edge]:
        """Every edge that carried at least one transition in any trial."""
        rows = len(self.periods)
        return sorted(
            edge for edge, slab in self._transitions.items()
            if slab[:rows].any()
        )

    # ------------------------------------------------------------------
    # Reducers over the trial axis
    # ------------------------------------------------------------------
    def mean_counts(self, state: str) -> np.ndarray:
        """Ensemble-mean count series, shape ``(periods,)``."""
        return self.counts(state).mean(axis=0)

    def std_counts(self, state: str) -> np.ndarray:
        """Ensemble standard deviation series, shape ``(periods,)``."""
        return self.counts(state).std(axis=0)

    def quantile_counts(self, state: str, q) -> np.ndarray:
        """Ensemble quantiles per period (``q`` scalar or sequence)."""
        return np.quantile(self.counts(state), q, axis=0)

    def mean_fractions(self, state: str) -> np.ndarray:
        """Ensemble-mean fraction series, shape ``(periods,)``."""
        return np.nanmean(self.fractions(state), axis=0)

    def mean_alive(self) -> np.ndarray:
        """Ensemble-mean alive population per period."""
        return self.alive_tensor().mean(axis=0)

    def mean_transitions(self, edge: Edge) -> np.ndarray:
        """Ensemble-mean transition series along one edge."""
        return self.transition_tensor(edge).mean(axis=0)

    def last_counts(self) -> np.ndarray:
        """Counts at the most recent recorded period, shape ``(M, S)``."""
        if not self.periods:
            return np.zeros((self.trials, len(self.states)), dtype=np.int64)
        return self._counts[len(self.periods) - 1].copy()

    def window(
        self, state: str, start_period: int, end_period: Optional[int] = None
    ) -> WindowStats:
        """Stats of a state's counts over ``[start, end]`` periods, pooled.

        This is the Figure 7 measurement: median (plus min/max bars) of
        the state population over a long observation window.  Every
        trial's samples are pooled in ``(M, periods)`` row-major order,
        trial 0's window first.
        """
        times = self.times
        mask = times >= start_period
        if end_period is not None:
            mask &= times <= end_period
        return WindowStats.of(self.counts(state)[:, mask].ravel())
