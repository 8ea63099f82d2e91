"""Append-only JSONL event log for the live protocol service.

The log is the replay contract's source of truth: every externally
visible mutation of a live population -- construction, membership
events, clock ticks, snapshots, shutdown -- is appended here as one
JSON object per line, stamped with a monotonically increasing ``seq``.
Replaying the log through the same code with the same recorded seeds
must reproduce the exact state stream (see ``docs/service.md``).

Two durability properties matter and are both tested:

* **appends are atomic at line granularity** -- each record is written
  as one ``write()`` of a complete line and flushed to the OS, so a
  killed process leaves at most one torn *final* line.  A flush is not
  an ``fsync``: after a power loss the file can also end early, short
  an unsynced suffix of complete lines (``EventLog(fsync=True)`` syncs
  every append; no caller enables it);
* **reads tolerate exactly that** -- ``read_events`` drops a torn
  final line (reporting it) but refuses mid-file corruption, which can
  only mean the log was edited or the filesystem lied.
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

EVENTS_NAME = "events.jsonl"

#: Event kinds with engine-side effects, in the vocabulary clients use.
MEMBERSHIP_KINDS = ("join", "leave", "fail")

#: Every kind that may legally appear in a log (the last five are the
#: applications' own, ``repro.store``).
ALL_KINDS = ("init", "tick", "snapshot", "close") + MEMBERSHIP_KINDS + (
    "insert", "remove", "fetch", "corrupt", "poll")


class EventLogError(ValueError):
    """A log line that cannot be explained by a torn final write."""


@dataclass(frozen=True)
class LoggedEvent:
    """One decoded log line."""

    seq: int
    period: int
    kind: str
    data: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "period": self.period,
            "kind": self.kind,
            "data": self.data,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "LoggedEvent":
        try:
            return cls(
                seq=int(payload["seq"]),
                period=int(payload["period"]),
                kind=str(payload["kind"]),
                data=dict(payload.get("data", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise EventLogError(f"malformed event record: {payload!r}") from exc


def _decode_line(line: str, lineno: int) -> LoggedEvent:
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise EventLogError(f"line {lineno}: invalid JSON: {line!r}") from exc
    if not isinstance(payload, dict):
        raise EventLogError(f"line {lineno}: expected object, got {payload!r}")
    event = LoggedEvent.from_dict(payload)
    if event.kind not in ALL_KINDS:
        raise EventLogError(f"line {lineno}: unknown event kind {event.kind!r}")
    return event


def read_events(
    path: os.PathLike, *, tolerate_torn_tail: bool = True
) -> Tuple[List[LoggedEvent], bool]:
    """Read a log file; returns ``(events, tail_was_torn)``.

    A final line that is incomplete (no newline and/or invalid JSON)
    is treated as a torn crash-time write and dropped when
    ``tolerate_torn_tail`` is set; any other defect -- bad JSON in the
    middle, a ``seq`` gap, an unknown kind -- raises
    :class:`EventLogError`.
    """
    raw = Path(path).read_text(encoding="utf-8")
    lines = raw.split("\n")
    # A well-formed log ends with a newline, leaving one trailing "".
    terminated = lines and lines[-1] == ""
    if terminated:
        lines = lines[:-1]
    events: List[LoggedEvent] = []
    torn = False
    for index, line in enumerate(lines):
        final = index == len(lines) - 1
        try:
            event = _decode_line(line, index + 1)
        except EventLogError:
            if final and tolerate_torn_tail:
                torn = True
                break
            raise
        if final and not terminated:
            # Complete-looking JSON but the newline never landed:
            # still a torn write (the flush was cut mid-line).
            if tolerate_torn_tail:
                torn = True
                break
            raise EventLogError("final line not newline-terminated")
        if event.seq != len(events):
            raise EventLogError(
                f"line {index + 1}: seq {event.seq}, expected {len(events)}"
            )
        events.append(event)
    return events, torn


class EventLog:
    """Writable append-only log backed by one JSONL file.

    ``append`` assigns the next ``seq``, writes one complete line and
    flushes it to the OS, so a killed process (SIGKILL) can tear at
    most the final line -- which ``read_events`` knows to drop.  A power
    loss can further drop the suffix the OS had not yet written back,
    unless ``fsync`` syncs each append.
    """

    def __init__(
        self, path: os.PathLike, *, fsync: bool = False, resume: bool = False
    ):
        self.path = Path(path)
        self.fsync = fsync
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._next_seq = 0
        if resume:
            # Carry on after the last whole record: a torn tail is cut,
            # so the next record starts on a line of its own.
            self._next_seq = len(read_events(self.path)[0])
            lines = self.path.read_bytes().split(b"\n")[:self._next_seq]
            with self.path.open("r+b") as fh:
                fh.truncate(sum(len(line) + 1 for line in lines))
        elif self.path.exists():
            raise FileExistsError(
                f"event log already exists: {self.path} "
                f"(refusing to interleave two runs; use replay instead)"
            )
        self._fh: Optional[io.TextIOBase] = self.path.open(
            "a" if resume else "w", encoding="utf-8"
        )

    @property
    def next_seq(self) -> int:
        """The ``seq`` the next ``append`` will assign."""
        return self._next_seq

    def append(
        self, kind: str, period: int, data: Optional[Dict[str, Any]] = None
    ) -> LoggedEvent:
        if self._fh is None:
            raise EventLogError(f"event log is closed: {self.path}")
        if kind not in ALL_KINDS:
            raise EventLogError(f"unknown event kind {kind!r}")
        event = LoggedEvent(
            seq=self._next_seq, period=int(period), kind=kind,
            data=dict(data or {}),
        )
        line = json.dumps(event.to_dict(), sort_keys=True)
        self._fh.write(line + "\n")
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())
        self._next_seq += 1
        return event

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class MemoryEventLog:
    """In-memory stand-in with the same ``append`` interface.

    Used by replay (which must not write to the directory it is
    verifying) and by property tests that drive thousands of short
    event streams without touching disk.  With ``keep=False`` it only
    numbers the records (an application without a directory).
    """

    def __init__(self, start_seq: int = 0, *, keep: bool = True):
        # start_seq lets a replay that begins mid-stream (from a
        # snapshot) assign the same seq numbers the original run did,
        # so replayed records compare 1:1 against the log tail.
        self._next_seq = int(start_seq)
        self._keep = keep
        self.events: List[LoggedEvent] = []

    @property
    def next_seq(self) -> int:
        return self._next_seq

    def append(
        self, kind: str, period: int, data: Optional[Dict[str, Any]] = None
    ) -> LoggedEvent:
        if kind not in ALL_KINDS:
            raise EventLogError(f"unknown event kind {kind!r}")
        event = LoggedEvent(
            seq=self.next_seq, period=int(period), kind=kind,
            data=dict(data or {}),
        )
        if self._keep:
            self.events.append(event)
        self._next_seq += 1
        return event

    def close(self) -> None:
        pass
