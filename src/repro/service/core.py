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

The core drives one application: a live service's one population, or
one of the paper's two applications (``repro.store``, subclasses of
:class:`Application`).  It asks the same five things of either: the
``init`` record, an event's record, a tick's record, the ``close``
record and a snapshot.
"""

from __future__ import annotations

import json
import os
from collections import deque
from dataclasses import dataclass
from numbers import Real
from pathlib import Path
from typing import Any, Deque, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..runtime.rng import generator_from_state, generator_state
from ..store.eventlog import (
    EVENTS_NAME, EventLog, EventLogError, LoggedEvent, MemoryEventLog,
)
from ..store.snapshots import require_kind, save_snapshot
from .live import LiveEngine, number_of

SNAPSHOT_PATTERN = "snapshot-{period:08d}.npz"
POPULATIONS_SNAPSHOT_KIND = "populations"

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
    """Event-sourced driver for one application of the live tier.

    Parameters
    ----------
    live:
        The one population of a live service; its records carry the
        census, which queries read.
    app:
        Or an :class:`Application` (it builds its own core).
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
        live: Optional[LiveEngine] = None,
        *,
        app: Optional["Application"] = None,
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
        self._answers: Dict[str, Dict[str, Any]] = {}
        self._answers_seq = -1
        self.app = app or _OnePopulation(live)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        return self._started

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def period(self) -> int:
        return self.app.period

    def start(self) -> LoggedEvent:
        """Log the construction recipe; must be the first log record."""
        if self._started:
            raise RuntimeError("service core already started")
        self._started = True
        return self._append("init", self.app.init_record())

    def close(self) -> LoggedEvent:
        """Log an orderly shutdown (a live service's final census)."""
        self._require_open()
        self._closed = True
        event = self.log.append("close", self.period, self.app.close_record())
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
        """Apply an event and log it with its effect.

        A refused event raises before anything moves and logs nothing.
        """
        self._require_open()
        return self._append(kind, self.app.apply(kind, data))

    def tick(self, periods: int = 1) -> LoggedEvent:
        """Advance the protocol and log the resulting census.

        The logged census is what replay verifies against, period by
        period; a divergence anywhere in engine stepping or RNG
        state shows up here as a loud mismatch.
        """
        self._require_open()
        if periods < 1:
            raise ValueError(f"periods must be >= 1, got {periods}")
        event = self._append("tick", self.app.advance(periods))
        if (
            self.snapshot_every > 0
            and self.directory is not None
            and self.period - (self._last_snapshot_period or 0)
            >= self.snapshot_every
        ):
            self.snapshot_now()
        return event

    def _append(self, kind: str, data: Dict[str, Any]) -> LoggedEvent:
        event = self.log.append(kind, self.period, data)
        if self.live is not None:  # the census stream is a live service's
            self._observe(event.seq)
        return event

    def snapshot_now(self) -> Optional[Path]:
        """Checkpoint now; returns the snapshot path (None if log-only)."""
        self._require_open()
        period = self._last_snapshot_period = self.period
        if self.directory is None:
            # Keep the log structurally identical to a directory-backed
            # run (replay relies on seq alignment) without touching disk.
            self.log.append("snapshot", period, {"file": None})
            self.snapshots_written += 1
            return None
        name = SNAPSHOT_PATTERN.format(period=period)
        arrays, meta = self.app.snapshot()
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
        self.log.append("snapshot", period, {"file": name})
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
        if meta.get("kind") == POPULATIONS_SNAPSHOT_KIND:
            app = application(meta["app"])
            app.restore(arrays, meta)
            core, core.log = app.core, log
        else:
            core = cls(
                LiveEngine.restore(arrays, meta), log=log,
                history_window=history_window, retain_stream=retain_stream,
            )
        for row in meta.get("history", []):
            core._keep(StreamRow(
                seq=int(row["seq"]),
                period=int(row["period"]),
                counts=tuple(int(c) for c in row["counts"]),
                alive=int(row["alive"]),
                total_messages=int(row["total_messages"]),
            ))
        core._last_snapshot_period = core.period
        core._started = True
        return core

    @property
    def _census(self) -> Tuple[Dict[str, int], int]:
        return self.app.census

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
        if self.live is None:
            raise ValueError(f"a {self.app.KIND} answers no census query")
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
        params = {"window": self.history_window, "tol": 0.02, **params}
        # window >= 1: -0 slices to everything and -k drops the
        # *oldest* k rows.
        window = number_of(params, "window", 1)
        tol = number_of(params, "tol", 0.0, kind=Real)
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


class _OnePopulation:
    """A live service as the core's application: one population, whose
    records carry its census (what queries read)."""

    def __init__(self, live: LiveEngine):
        self.live = live
        self.recount()

    def recount(self) -> Tuple[Dict[str, int], int]:
        """Count the engine's arrays; the only place a live service does.

        Every mutation calls this once, after the engine changed and
        before the log record is written.  It is a recount, never
        bookkeeping carried from one event to the next, so the censuses
        the log holds stay an independent check of the engine.
        """
        self.census = (self.live.counts(), self.live.alive_count())
        return self.census

    @property
    def period(self) -> int:
        return self.live.period

    def counts(self) -> Dict[str, int]:
        return self.live.counts()

    def init_record(self) -> Dict[str, Any]:
        # Warm before you serve: the first resolution runs the
        # multi-start solve; the Protocol memoizes it, so no
        # `equilibrium` query ever computes on the event loop.
        self.live.equilibrium_fractions()
        counts, alive = self.recount()
        return {
            "config": self.live.config.to_dict(),
            "states": list(self.live.state_names),
            "counts": dict(counts),
            "alive": alive,
        }

    def apply(self, kind: str, data: Mapping[str, Any]) -> Dict[str, Any]:
        effect = self.live.apply(kind, data)
        self.recount()
        return {**dict(data), "effect": effect}

    def advance(self, periods: int) -> Dict[str, Any]:
        self.live.advance(periods)
        return {"periods": int(periods), **self.close_record()}

    def close_record(self) -> Dict[str, Any]:
        counts, alive = self.recount()
        return {
            "counts": dict(counts),
            "alive": alive,
            "total_messages": self.live.engine.total_messages,
        }

    def snapshot(self) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
        return self.live.snapshot()


class Application:
    """One of the paper's applications (``repro.store``) as the client
    of a :class:`ServiceCore`.

    Its protocol populations (round engines, by name) and its one
    generator are what its snapshots carry, through the core's
    ``populations`` kind; its ``init`` record is its recipe (its
    constructor's arguments), so :func:`application` rebuilds it for
    replay.  A subclass sets ``KIND``, ``EVENTS`` and ``rng`` and
    answers ``period``, ``recipe()``, ``state()`` and
    ``restore_state(state)`` (which rebuilds its populations);
    ``_<kind>(data)`` applies one event and returns its effect, each
    field checked for every population before a population, a host or
    the generator moves.
    """

    KIND = ""
    EVENTS: Tuple[str, ...] = ()
    rng: np.random.Generator

    @property
    def populations(self) -> Dict[str, Any]:
        return {}

    def counts(self) -> Dict[str, Any]:
        """Each population's census, by name."""
        return {
            name: engine.counts()
            for name, engine in self.populations.items()
        }

    def _start(self, directory: Optional[os.PathLike]) -> None:
        """Log to ``directory``; without one, keep no record."""
        self.core = ServiceCore(
            app=self, directory=directory,
            log=MemoryEventLog(keep=False) if directory is None else None,
        )
        self.core.start()

    def init_record(self) -> Dict[str, Any]:
        return {"app": self.recipe()}

    def apply(self, kind: str, data: Mapping[str, Any]) -> Dict[str, Any]:
        if kind not in self.EVENTS:
            raise ValueError(f"unknown {self.KIND} event kind {kind!r}")
        # The application applies what replay will read back.
        data = json.loads(json.dumps(data, default=_plain))
        return {**data, "effect": getattr(self, "_" + kind)(data)}

    def advance(self, periods: int) -> Dict[str, Any]:
        return self.apply("tick", {"periods": periods})

    def close_record(self) -> Dict[str, Any]:
        return {}

    def snapshot(self) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
        arrays, populations = {}, []
        for index, engine in enumerate(self.populations.values()):
            engine_arrays, engine_meta = engine.snapshot()
            for field, array in engine_arrays.items():
                arrays[f"population{index}.{field}"] = array
            populations.append(engine_meta)
        return arrays, {
            "kind": POPULATIONS_SNAPSHOT_KIND,
            "app": self.recipe(),
            "state": self.state(),
            "rng": generator_state(self.rng),
            "populations": populations,
        }

    def restore(self, arrays: Mapping[str, Any], meta: Mapping[str, Any]):
        """Take the state of a snapshot of this recipe."""
        require_kind(arrays, meta, POPULATIONS_SNAPSHOT_KIND)
        self.rng = generator_from_state(meta.get("rng"))
        self.restore_state(meta["state"])
        for index, engine in enumerate(self.populations.values()):
            prefix = f"population{index}."
            engine.restore({
                key[len(prefix):]: array for key, array in arrays.items()
                if key.startswith(prefix)
            }, meta["populations"][index])


def application(recipe: Mapping[str, Any]) -> Application:
    """The application an ``init`` record names, keeping no record."""
    from ..store import MajorityService, MigratoryFileStore

    for cls in (MigratoryFileStore, MajorityService):
        if recipe.get("kind") == cls.KIND:
            return cls(**{k: v for k, v in recipe.items() if k != "kind"})
    raise EventLogError(f"unknown application {recipe.get('kind')!r}")


def _plain(value: Any) -> Any:
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise ValueError(f"an event carries JSON data, not {value!r}")


def _owned(answer: Dict[str, Any]) -> Dict[str, Any]:
    """A copy the caller may change (answers nest dicts one level deep).

    What the core holds -- the census, a remembered answer, the
    protocol's memoized equilibrium -- is never handed out itself.
    """
    return {
        key: dict(value) if isinstance(value, dict) else value
        for key, value in answer.items()
    }
