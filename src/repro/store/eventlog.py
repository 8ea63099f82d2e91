"""Append-only JSONL event log for the live protocol service.

The log is the replay contract's source of truth: every externally
visible mutation of a live population -- construction, membership
events, clock ticks, snapshots, shutdown -- is appended here as one
JSON object per line, stamped with a monotonically increasing ``seq``.
Replaying the log through the same code with the same recorded seeds
must reproduce the exact state stream (see ``docs/service.md``).

Two durability properties matter and are both tested:

* **appends are atomic at line granularity** -- each record is one
  ``write()`` of a complete line, flushed to the OS
  (:func:`repro.store.durable.append`), so a killed process leaves at
  most one torn *final* line.  A power loss can also drop the lines
  appended since the last :meth:`EventLog.sync`, which ``ServiceCore``
  calls before every snapshot;
* **reads tolerate exactly that** -- ``read_events`` drops a torn
  final line (reporting it) but refuses mid-file corruption, which can
  only mean the log was edited or the filesystem lied.
"""

from __future__ import annotations

import json
import os
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, Callable, Dict, List, Optional, Tuple

from . import durable

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


class MemoryEventLog:
    """An event log in memory; :class:`EventLog` numbers its records the
    same way and writes them to a file instead.

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
        """The ``seq`` the next ``append`` will assign."""
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
        self._write(event)
        self._next_seq += 1
        return event

    def _write(self, event: LoggedEvent) -> None:
        if self._keep:
            self.events.append(event)

    def close(self) -> None:
        pass


class EventLog(MemoryEventLog):
    """Writable append-only log backed by one JSONL file.

    ``append`` writes each record as one line through
    :mod:`repro.store.durable`; ``resume=True`` carries on an existing
    log after its last whole record, a torn tail cut off.  A write the
    OS refuses (``ENOSPC``, ``EIO``) fails the log: every later append
    or sync raises :class:`EventLogError`, so no record ever follows
    one that may be missing.
    """

    def __init__(self, path: os.PathLike, *, resume: bool = False):
        self.path = Path(path)
        seq, keep = 0, None
        if resume:
            seq = len(read_events(self.path)[0])
            lines = self.path.read_bytes().split(b"\n")[:seq]
            keep = sum(len(line) + 1 for line in lines)
        super().__init__(seq, keep=False)
        try:
            self._fh: Optional[IO[str]] = durable.open_log(self.path, keep)
        except FileExistsError:
            raise FileExistsError(
                f"event log already exists: {self.path} "
                f"(refusing to interleave two runs; use replay instead)"
            ) from None

    def _do(self, step: Callable[..., None], *args: str) -> None:
        """One durable step; a step the OS refuses fails the log."""
        if self._fh is None:
            raise EventLogError(f"event log is closed: {self.path}")
        try:
            step(self._fh, *args)
        except OSError:
            fh, self._fh = self._fh, None
            with suppress(OSError):
                fh.close()
            raise

    def _write(self, event: LoggedEvent) -> None:
        line = json.dumps(event.to_dict(), sort_keys=True)
        self._do(durable.append, line + "\n")

    def sync(self) -> None:
        """Make every record appended so far survive a power loss."""
        self._do(durable.sync)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
