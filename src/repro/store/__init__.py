"""Example applications built on the synthesized protocols.

* :class:`~repro.store.filestore.MigratoryFileStore` -- a persistent
  file store using endemic replication for replica location (the
  paper's motivating application, Section 4.1).
* :class:`~repro.store.majority_service.MajorityService` -- a
  LOCKSS-style repeated majority-polling service on the LV protocol
  (Section 4.2).

Plus the persistence primitives the live service tier sits on:

* :mod:`~repro.store.eventlog` -- append-only JSONL event log with
  torn-tail-tolerant reads (the replay source of truth);
* :mod:`~repro.store.snapshots` -- checksummed, atomically-written
  ``.npz`` state snapshots.
"""

from .eventlog import (
    EVENTS_NAME,
    EventLog,
    EventLogError,
    LoggedEvent,
    MemoryEventLog,
    read_events,
)
from .filestore import FetchResult, MigratoryFileStore, StoredFile
from .majority_service import MajorityService, PollRecord
from .snapshots import SnapshotError, load_snapshot, save_snapshot

__all__ = [
    "MigratoryFileStore",
    "StoredFile",
    "FetchResult",
    "MajorityService",
    "PollRecord",
    "EventLog",
    "EventLogError",
    "EVENTS_NAME",
    "LoggedEvent",
    "MemoryEventLog",
    "read_events",
    "SnapshotError",
    "save_snapshot",
    "load_snapshot",
]
