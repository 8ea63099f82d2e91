"""Replay a live-service event log and verify bit-identity.

The contract (docs/service.md): a service directory -- event log plus
optional snapshots -- fully determines the state stream.  Replay
rebuilds the population either from the ``init`` record (genesis) or
from the latest intact snapshot, re-applies every subsequent logged
event through the same :class:`~repro.service.core.ServiceCore` code,
and compares each record it *would* log against the record the
original run *did* log.  Any divergence -- a census off by one, a
different fault victim, drifted protocol code -- surfaces as a
:class:`ReplayMismatch` naming the seq where histories fork.

Verification is strict equality, not statistics: the logged censuses
are integer projections of the real state tensors, and the RNG streams
are restored byte for byte, so "close" is indistinguishable from
"wrong".
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..store.eventlog import (
    EVENTS_NAME, EventLog, EventLogError, LoggedEvent, MemoryEventLog,
    read_events,
)
from ..store.snapshots import SnapshotError, load_snapshot
from .core import ServiceCore, application
from .live import LiveConfig, LiveEngine


@dataclass(frozen=True)
class ReplayMismatch:
    """One point where the replayed stream diverges from the log."""

    seq: int
    kind: str
    field_name: str
    logged: Any
    replayed: Any

    def __str__(self) -> str:
        return (
            f"seq {self.seq} ({self.kind}): {self.field_name} "
            f"logged={self.logged!r} replayed={self.replayed!r}"
        )


@dataclass
class ReplayReport:
    """Outcome of a replay: the rebuilt core plus the verification."""

    core: Optional[ServiceCore]
    events: List[LoggedEvent]
    start_seq: int
    replayed: int
    mismatches: List[ReplayMismatch] = field(default_factory=list)
    torn_tail: bool = False
    from_snapshot: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def final_counts(self) -> Optional[Dict[str, Any]]:
        if self.core is None:
            return None
        return self.core.app.counts()


def latest_snapshot(
    events: List[LoggedEvent], directory: Path
) -> Optional[Tuple[LoggedEvent, Path]]:
    """The most recent snapshot record whose file is present and intact.

    Walks backwards so a snapshot torn by a crash mid-write (or
    corrupted later) falls through to the previous one -- replay
    prefers an older trusted anchor over a newer broken one.
    """
    for event in reversed(events):
        if event.kind != "snapshot" or not event.data.get("file"):
            continue
        path = directory / event.data["file"]
        if not path.exists():
            continue
        try:
            load_snapshot(path)
        except SnapshotError:
            continue
        return event, path
    return None


def _compare(
    replayed_event: LoggedEvent,
    logged_event: LoggedEvent,
    mismatches: List[ReplayMismatch],
) -> None:
    for field_name in ("seq", "kind", "period"):
        got = getattr(replayed_event, field_name)
        want = getattr(logged_event, field_name)
        if got != want:
            mismatches.append(ReplayMismatch(
                logged_event.seq, logged_event.kind, field_name, want, got,
            ))
    keys = set(replayed_event.data) | set(logged_event.data)
    for key in sorted(keys):
        got = replayed_event.data.get(key)
        want = logged_event.data.get(key)
        if got != want:
            mismatches.append(ReplayMismatch(
                logged_event.seq, logged_event.kind, f"data.{key}",
                want, got,
            ))


def replay_events(
    events: List[LoggedEvent],
    *,
    core: Optional[ServiceCore] = None,
    start_seq: int = 0,
    on_event: Optional[Callable[[ServiceCore, LoggedEvent], None]] = None,
    retain_stream: bool = True,
) -> ReplayReport:
    """Re-apply ``events[start_seq:]`` and verify record-for-record.

    ``core`` carries a snapshot-restored population (its log must be a
    :class:`MemoryEventLog` positioned at ``start_seq``); when None,
    ``events[0]`` must be the ``init`` record and the population is
    rebuilt from genesis.  ``on_event`` runs after each replayed event
    -- the hook tests use to re-issue queries at logged points.
    """
    report = ReplayReport(
        core=core, events=events, start_seq=start_seq, replayed=0,
    )
    for logged in events[start_seq:]:
        if logged.kind == "init":
            if report.core is not None:
                report.mismatches.append(ReplayMismatch(
                    logged.seq, "init", "kind", "init",
                    "second init record",
                ))
                break
            if "app" in logged.data:
                # An application logs its init record as it is built.
                app = application(logged.data["app"])
                report.core = app.core
                replayed = LoggedEvent(
                    0, app.period, "init", app.init_record()
                )
            else:
                config = LiveConfig.from_dict(logged.data["config"])
                report.core = ServiceCore(
                    LiveEngine(config),
                    log=MemoryEventLog(),
                    retain_stream=retain_stream,
                )
                replayed = report.core.start()
        elif report.core is None:
            report.mismatches.append(ReplayMismatch(
                logged.seq, logged.kind, "kind", "init", logged.kind,
            ))
            break
        elif logged.kind == "tick":
            replayed = report.core.tick(int(logged.data["periods"]))
        elif logged.kind == "snapshot":
            # Nothing to re-execute (checkpoints are pure observers);
            # append verbatim to keep seq alignment with the original.
            replayed = report.core.log.append(
                "snapshot", logged.period, logged.data
            )
        elif logged.kind == "close":
            replayed = report.core.close()
        else:
            data = {
                k: v for k, v in logged.data.items() if k != "effect"
            }
            replayed = report.core.apply_event(logged.kind, data)
        report.replayed += 1
        _compare(replayed, logged, report.mismatches)
        if on_event is not None:
            on_event(report.core, logged)
        if report.mismatches:
            break  # histories forked; further comparison is noise
    return report


def replay_directory(
    directory: os.PathLike,
    *,
    from_snapshot: bool = False,
    tolerate_torn_tail: bool = True,
    on_event: Optional[Callable[[ServiceCore, LoggedEvent], None]] = None,
    retain_stream: bool = True,
) -> ReplayReport:
    """Replay a service directory (``events.jsonl`` + snapshots)."""
    directory = Path(directory)
    events, torn = read_events(
        directory / EVENTS_NAME, tolerate_torn_tail=tolerate_torn_tail
    )
    core: Optional[ServiceCore] = None
    start_seq = 0
    snapshot_name: Optional[str] = None
    if from_snapshot:
        anchor = latest_snapshot(events, directory)
        if anchor is None:
            raise SnapshotError(
                f"{directory}: no intact snapshot to replay from"
            )
        snapshot_event, path = anchor
        arrays, meta = load_snapshot(path)
        # Resume right after the snapshot record itself.
        start_seq = snapshot_event.seq + 1
        core = ServiceCore.from_snapshot(
            arrays, meta,
            log=MemoryEventLog(start_seq=start_seq),
            retain_stream=retain_stream,
        )
        snapshot_name = snapshot_event.data["file"]
    report = replay_events(
        events,
        core=core,
        start_seq=start_seq,
        on_event=on_event,
        retain_stream=retain_stream,
    )
    report.torn_tail = torn
    report.from_snapshot = snapshot_name
    return report


def resume(directory: os.PathLike, *, from_snapshot: bool = False) -> ServiceCore:
    """Replay a service directory, then carry on logging to it.

    The core that comes back appends to the same ``events.jsonl`` (a
    torn final line is cut first) and writes its snapshots beside it,
    so a service, or an application (``resume(d).app``), can be
    stopped and resumed any number of times.
    """
    report = replay_directory(
        directory, from_snapshot=from_snapshot, retain_stream=False
    )
    if not report.ok or report.core is None:
        why = report.mismatches[0] if report.mismatches else "no init record"
        raise EventLogError(f"{directory}: {why}")
    core = report.core
    core.directory = Path(directory)
    core.log = EventLog(core.directory / EVENTS_NAME, resume=True)
    return core
