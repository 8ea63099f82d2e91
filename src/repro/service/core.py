"""The deterministic heart of the live service.

:class:`ServiceCore` is deliberately *synchronous*: every externally
visible mutation -- membership event, clock tick, checkpoint, shutdown
-- happens in one atomic call that also appends the matching record to
the event log.  The asyncio shell (:mod:`repro.service.service`)
serializes calls through the event loop, so queries can never observe
a half-applied mutation; the replay verifier and the hypothesis
property suite drive the core directly, with no event loop at all.

The state *stream* is the replay contract's unit of comparison: one
:class:`StreamRow` per logged mutation, carrying the post-event census.
Replaying the log must reproduce the stream bit for bit.

The core counts its hosts when they change, not when they are read:
every mutation recounts the engine's arrays once, before its log
record is written, and the record, the stream row and every query read
that one census (docs/service.md, "Cost of a read").
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass
from numbers import Integral, Real
from pathlib import Path
from typing import Any, Deque, Dict, List, Mapping, Optional, Tuple

from ..store.eventlog import EVENTS_NAME, EventLog, LoggedEvent, MemoryEventLog
from ..store.snapshots import save_snapshot
from .live import LiveEngine

SNAPSHOT_PATTERN = "snapshot-{period:08d}.npz"

#: Query operations the core understands (the service's read surface).
QUERY_OPS = (
    "status", "counts", "fractions", "equilibrium", "majority",
    "convergence",
)


@dataclass(frozen=True)
class StreamRow:
    """Census after one logged event; the unit of replay comparison."""

    seq: int
    period: int
    counts: Tuple[int, ...]
    alive: int
    total_messages: int

    def counts_dict(self, state_names: Tuple[str, ...]) -> Dict[str, int]:
        return dict(zip(state_names, self.counts))


class ServiceCore:
    """Event-sourced driver for one :class:`LiveEngine`.

    Parameters
    ----------
    live:
        The population to drive.
    directory:
        Service state directory; when given, an :class:`EventLog` is
        created at ``<directory>/events.jsonl`` and snapshots are
        written alongside it.  Mutually exclusive with ``log``.
    log:
        An explicit log (typically :class:`MemoryEventLog`) for replay
        and property tests.
    snapshot_every:
        Auto-checkpoint period spacing (0 = only explicit snapshots).
    history_window:
        How many recent stream rows back the convergence query looks.
    retain_stream:
        Keep the full stream in memory (tests / replay verification);
        a long-running server leaves this off and relies on the log.
    """

    def __init__(
        self,
        live: LiveEngine,
        *,
        directory: Optional[os.PathLike] = None,
        log: Optional[Any] = None,
        snapshot_every: int = 0,
        history_window: int = 64,
        retain_stream: bool = False,
    ):
        if (directory is None) == (log is None):
            raise ValueError("pass exactly one of directory= or log=")
        self.live = live
        self.directory = None if directory is None else Path(directory)
        if self.directory is not None:
            self.log = EventLog(self.directory / EVENTS_NAME)
        else:
            self.log = log
        self.snapshot_every = int(snapshot_every)
        self.history_window = int(history_window)
        self.history: Deque[StreamRow] = deque(maxlen=self.history_window)
        # Each history row's census as shares of its population (None
        # for an empty one), divided once when the row is kept.
        self._shares: Deque[Optional[Tuple[float, ...]]] = deque(
            maxlen=self.history_window
        )
        self.retain_stream = retain_stream
        self.stream: List[StreamRow] = []
        self.snapshots_written = 0
        self._last_snapshot_period: Optional[int] = None
        self._started = False
        self._closed = False
        self._recount()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        return self._started

    @property
    def closed(self) -> bool:
        return self._closed

    def start(self) -> LoggedEvent:
        """Log the construction recipe; must be the first log record."""
        if self._started:
            raise RuntimeError("service core already started")
        # Warm before you serve: the first resolution runs the
        # multi-start solve; the Protocol memoizes it, so no
        # `equilibrium` query ever computes on the event loop.
        self.live.equilibrium_fractions()
        self._started = True
        counts, alive = self._recount()
        event = self.log.append("init", self.live.period, {
            "config": self.live.config.to_dict(),
            "states": list(self.live.state_names),
            "counts": dict(counts),
            "alive": alive,
        })
        self._observe(event.seq)
        return event

    def close(self) -> LoggedEvent:
        """Log an orderly shutdown with the final census."""
        self._require_open()
        self._closed = True
        counts, alive = self._recount()
        event = self.log.append("close", self.live.period, {
            "counts": dict(counts),
            "alive": alive,
            "total_messages": self.live.engine.total_messages,
        })
        self.log.close()
        return event

    def _require_open(self) -> None:
        if not self._started:
            raise RuntimeError("service core not started")
        if self._closed:
            raise RuntimeError("service core already closed")

    # ------------------------------------------------------------------
    # Mutations (each one = exactly one log record)
    # ------------------------------------------------------------------
    def apply_event(self, kind: str, data: Mapping[str, Any]) -> LoggedEvent:
        """Apply a membership event and log it with its effect."""
        self._require_open()
        effect = self.live.apply(kind, data)
        self._recount()
        event = self.log.append(
            kind, self.live.period, {**dict(data), "effect": effect},
        )
        self._observe(event.seq)
        return event

    def tick(self, periods: int = 1) -> LoggedEvent:
        """Advance the protocol and log the resulting census.

        The logged census is what replay verifies against, period by
        period; a divergence anywhere in engine stepping or RNG
        state shows up here as a loud mismatch.
        """
        self._require_open()
        if periods < 1:
            raise ValueError(f"periods must be >= 1, got {periods}")
        self.live.advance(periods)
        counts, alive = self._recount()
        event = self.log.append("tick", self.live.period, {
            "periods": int(periods),
            "counts": dict(counts),
            "alive": alive,
            "total_messages": self.live.engine.total_messages,
        })
        self._observe(event.seq)
        if (
            self.snapshot_every > 0
            and self.directory is not None
            and self.live.period - (self._last_snapshot_period or 0)
            >= self.snapshot_every
        ):
            self.snapshot_now()
        return event

    def snapshot_now(self) -> Optional[Path]:
        """Checkpoint now; returns the snapshot path (None if log-only)."""
        self._require_open()
        self._last_snapshot_period = self.live.period
        if self.directory is None:
            # Keep the log structurally identical to a directory-backed
            # run (replay relies on seq alignment) without touching disk.
            self.log.append("snapshot", self.live.period, {"file": None})
            self.snapshots_written += 1
            return None
        name = SNAPSHOT_PATTERN.format(period=self.live.period)
        arrays, meta = self.live.snapshot()
        meta["seq"] = self.log.next_seq  # seq of the snapshot record below
        meta["history"] = [
            {
                "seq": row.seq,
                "period": row.period,
                "counts": list(row.counts),
                "alive": row.alive,
                "total_messages": row.total_messages,
            }
            for row in self.history
        ]
        path = save_snapshot(self.directory / name, arrays, meta)
        self.log.append("snapshot", self.live.period, {"file": name})
        self.snapshots_written += 1
        return path

    @classmethod
    def from_snapshot(
        cls,
        arrays: Mapping[str, Any],
        meta: Mapping[str, Any],
        *,
        log: Any,
        history_window: int = 64,
        retain_stream: bool = False,
    ) -> "ServiceCore":
        """Rebuild a mid-stream core from a loaded snapshot.

        The snapshot's retained history window is restored too, so
        window-dependent queries (convergence) answer identically to
        the original immediately after the restore point.
        """
        live = LiveEngine.restore(arrays, meta)
        core = cls(
            live, log=log, history_window=history_window,
            retain_stream=retain_stream,
        )
        for row in meta.get("history", []):
            core._keep(StreamRow(
                seq=int(row["seq"]),
                period=int(row["period"]),
                counts=tuple(int(c) for c in row["counts"]),
                alive=int(row["alive"]),
                total_messages=int(row["total_messages"]),
            ))
        core._last_snapshot_period = live.period
        core._started = True
        return core

    def _recount(self) -> Tuple[Dict[str, int], int]:
        """Count the engine's arrays; the only place the core does.

        Every mutation calls this once, after the engine changed and
        before the log record is written.  It is a recount, never
        bookkeeping carried from one event to the next, so the censuses
        the log holds stay an independent check of the engine.
        """
        self._census = (self.live.counts(), self.live.alive_count())
        self._answers = {}
        self._answers_seq = self.log.next_seq
        return self._census

    def _observe(self, seq: int) -> None:
        counts, alive = self._census
        row = StreamRow(
            seq=seq,
            period=self.live.period,
            counts=tuple(counts[s] for s in self.live.state_names),
            alive=alive,
            total_messages=self.live.engine.total_messages,
        )
        self._keep(row)
        if self.retain_stream:
            self.stream.append(row)

    def _keep(self, row: StreamRow) -> None:
        """Put a row in the history window, with its shares."""
        self.history.append(row)
        self._shares.append(
            tuple(c / row.alive for c in row.counts) if row.alive else None
        )

    # ------------------------------------------------------------------
    # Queries (read-only, wall-clock-free, pure functions of state)
    # ------------------------------------------------------------------
    def query(
        self, op: str, params: Optional[Mapping[str, Any]] = None
    ) -> Dict[str, Any]:
        """Answer ``op`` from the census; O(states), never O(hosts).

        An answer without ``params`` is worked out once per log
        sequence number (a ``snapshot`` record moves ``status`` without
        a recount) and forgotten at the next mutation; one with
        ``params`` is never remembered, so clients cannot make the core
        grow.  The caller owns what it gets back.
        """
        if op not in QUERY_OPS:
            raise ValueError(
                f"unknown query op {op!r}; expected one of {QUERY_OPS}"
            )
        if params is not None and not isinstance(params, Mapping):
            raise ValueError(
                f"params must be a JSON object, got {type(params).__name__}"
            )
        answer_for = getattr(self, f"_query_{op}")
        if params:
            return _owned(answer_for(params))
        if self._answers_seq != self.log.next_seq:
            self._answers = {}
            self._answers_seq = self.log.next_seq
        answer = self._answers.get(op)
        if answer is None:
            answer = self._answers[op] = answer_for({})
        return _owned(answer)

    def _fractions(self) -> Dict[str, float]:
        counts, alive = self._census
        if alive == 0:
            return {s: 0.0 for s in counts}
        return {s: c / alive for s, c in counts.items()}

    def _query_status(self, params) -> Dict[str, Any]:
        return {
            "protocol": self.live.config.protocol,
            "n": self.live.config.n,
            "period": self.live.period,
            "alive": self._census[1],
            "events": self.log.next_seq,
            "snapshots": self.snapshots_written,
            "closed": self._closed,
        }

    def _query_counts(self, params) -> Dict[str, Any]:
        counts, alive = self._census
        return {"period": self.live.period, "counts": counts, "alive": alive}

    def _query_fractions(self, params) -> Dict[str, Any]:
        return {
            "period": self.live.period,
            "fractions": self._fractions(),
            "alive": self._census[1],
        }

    def _query_equilibrium(self, params) -> Dict[str, Any]:
        """Distance of the live census from the analytic equilibrium."""
        expected = self.live.equilibrium_fractions()
        observed = self._fractions()
        result: Dict[str, Any] = {
            "period": self.live.period,
            "fractions": observed,
            "expected": expected,
        }
        if expected is None:
            result["max_abs_error"] = None
        else:
            result["max_abs_error"] = max(
                abs(observed[s] - expected.get(s, 0.0)) for s in observed
            )
        return result

    def _query_majority(self, params) -> Dict[str, Any]:
        """Current dominant state and its margin (LV-style accuracy)."""
        counts, alive = self._census
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        top_state, top = ranked[0]
        second = ranked[1][1] if len(ranked) > 1 else 0
        return {
            "period": self.live.period,
            "leader": top_state,
            "count": top,
            "margin": (top - second) / alive if alive else 0.0,
            "strict_majority": bool(alive and top * 2 > alive),
        }

    def _query_convergence(self, params) -> Dict[str, Any]:
        """Has the census settled over the recent history window?"""
        window = params.get("window", self.history_window)
        # Neither is coerced: int("3") and int(2.9) would answer a
        # question the client did not ask, and True is an int.
        if isinstance(window, bool) or not isinstance(window, Integral):
            raise ValueError(f"window must be an integer, got {window!r}")
        if window < 1:
            # -0 slices to everything and -k drops the *oldest* k rows.
            raise ValueError(f"window must be >= 1, got {window}")
        tol = params.get("tol", 0.02)
        if isinstance(tol, bool) or not isinstance(tol, Real):
            raise ValueError(f"tol must be a number, got {tol!r}")
        if not (math.isfinite(tol) and tol >= 0.0):
            raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
        rows = [s for s in list(self._shares)[-window:] if s is not None]
        if len(rows) < 2:
            return {
                "period": self.live.period,
                "window": len(rows),
                "max_delta_fraction": None,
                "settled": False,
            }
        max_delta = max(max(vals) - min(vals) for vals in zip(*rows))
        return {
            "period": self.live.period,
            "window": len(rows),
            "max_delta_fraction": max_delta,
            "settled": max_delta <= tol,
        }


def _owned(answer: Dict[str, Any]) -> Dict[str, Any]:
    """A copy the caller may change (answers nest dicts one level deep).

    What the core holds -- the census, a remembered answer, the
    protocol's memoized equilibrium -- is never handed out itself.
    """
    return {
        key: dict(value) if isinstance(value, dict) else value
        for key, value in answer.items()
    }
