"""A migratory replicated file store built on endemic replication.

The paper positions endemic replication as the replica-*location* layer
of a persistent distributed file system ("a concept similar to the
eternity storage service"): every file runs its own endemic protocol
instance on its behalf, and at any time the file's replicas live
exactly on the processes in the *stash* state of that instance.

:class:`MigratoryFileStore` packages that design: files share one host
population (and one failure/churn schedule) but each file has an
independent :class:`~repro.runtime.round_engine.RoundEngine`.  The
store exposes insert/locate/fetch operations, per-file safety and flux
accounting, and the Section 5.1 bandwidth bookkeeping.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional

import numpy as np

from ..protocols.endemic import (
    AVERSE,
    RECEPTIVE,
    STASH,
    EndemicParams,
    figure1_protocol,
)
from ..runtime.metrics import BatchMetricsRecorder, trial_rows
from ..runtime.rng import generator_from_state, generator_state, make_generator
from ..runtime.round_engine import RoundEngine
from .snapshots import load_snapshot, require_kind, save_snapshot


@dataclass
class StoredFile:
    """Bookkeeping for one file's endemic instance."""

    name: str
    size_bytes: float
    engine: RoundEngine
    recorder: BatchMetricsRecorder
    inserted_period: int
    transfers: int = 0
    lost_at_period: Optional[int] = None
    params: Optional[EndemicParams] = None  # recorded for persistence

    @property
    def lost(self) -> bool:
        return self.lost_at_period is not None


@dataclass
class FetchResult:
    """Outcome of a fetch: where the file was found and the probe cost."""

    name: str
    found: bool
    probes: int
    replica_host: Optional[int]


class MigratoryFileStore:
    """A persistent file store with endemic (migratory) replica location.

    Parameters
    ----------
    n:
        Host population size.
    params:
        Endemic protocol parameters shared by all files (per-file
        parameters are possible via :meth:`insert`'s override).
    period_seconds:
        Wall-clock length of a protocol period (bandwidth accounting).
    seed:
        Base seed; per-file engines derive independent streams.
    """

    def __init__(
        self,
        n: int,
        params: EndemicParams,
        *,
        period_seconds: float = 360.0,
        seed: Optional[int] = None,
    ):
        if n < 2:
            raise ValueError(f"need at least 2 hosts, got {n}")
        self.n = n
        self.params = params
        self.period_seconds = period_seconds
        self._seed = seed if seed is not None else 0
        self.period = 0
        self.files: Dict[str, StoredFile] = {}
        self._inserted = 0  # files ever inserted: each one's seed
        self._fetch_rng = make_generator(self._seed ^ 0x5EED)
        self._down_hosts: set = set()

    # ------------------------------------------------------------------
    # File lifecycle
    # ------------------------------------------------------------------
    def insert(
        self,
        name: str,
        size_bytes: float = 88.2e3,
        initial_replicas: int = 1,
        params: Optional[EndemicParams] = None,
    ) -> StoredFile:
        """Insert a file: seed ``initial_replicas`` stashers.

        A single initial stasher suffices: the trivial equilibrium is a
        saddle (Theorem 3 corollary), so "inclusion of even a single
        stasher will drive the system towards the second, more stable
        equilibrium".
        """
        if name in self.files:
            raise ValueError(f"file {name!r} already stored")
        if not 1 <= initial_replicas <= self.n:
            raise ValueError(f"initial replicas must lie in [1, {self.n}]")
        file_params = params or self.params
        # Seeded by insertion count, so a file inserted after a remove
        # never takes a live file's seed (and replays its history).
        engine = RoundEngine(
            figure1_protocol(file_params),
            n=self.n,
            initial={
                RECEPTIVE: self.n - initial_replicas,
                STASH: initial_replicas,
                AVERSE: 0,
            },
            seed=self._seed + self._inserted * 7919 + 1,
        )
        self._inserted += 1
        # Keep host availability consistent with the store's view.
        if self._down_hosts:
            engine.crash(np.fromiter(self._down_hosts, dtype=np.int64))
        stored = StoredFile(
            name=name,
            size_bytes=size_bytes,
            engine=engine,
            recorder=BatchMetricsRecorder(engine.state_names, 1),
            inserted_period=self.period,
            params=file_params,
        )
        self.files[name] = stored
        return stored

    def remove(self, name: str) -> None:
        """Drop a file from the store (administrative delete)."""
        del self.files[name]

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    def tick(self, periods: int = 1) -> None:
        """Advance every file's protocol by ``periods`` rounds.

        A file's recorder gets one ``(1, S)`` row per tick, at the
        store's period: a file inserted late has a younger engine.
        """
        for _ in range(periods):
            self.period += 1
            for stored in self.files.values():
                engine = stored.engine
                engine.step()
                counts = engine.counts()
                stored.recorder.record(self.period, *trial_rows(
                    stored.recorder.states, counts, engine.alive_count(),
                    engine.last_transitions,
                ))
                stored.transfers += engine.last_transitions.get(
                    (RECEPTIVE, STASH), 0
                )
                if stored.lost_at_period is None and counts[STASH] == 0:
                    stored.lost_at_period = self.period

    # ------------------------------------------------------------------
    # Host availability (applies to every file's engine)
    # ------------------------------------------------------------------
    def crash_hosts(self, hosts: Iterable[int]) -> None:
        """Crash hosts across all files (replicas on them are lost)."""
        host_array = np.fromiter((int(h) for h in hosts), dtype=np.int64)
        self._down_hosts.update(host_array.tolist())
        for stored in self.files.values():
            stored.engine.crash(host_array)

    def crash_random_fraction(self, fraction: float) -> np.ndarray:
        """Crash a uniform random fraction of currently-up hosts."""
        up = np.array(
            [h for h in range(self.n) if h not in self._down_hosts],
            dtype=np.int64,
        )
        count = int(round(fraction * len(up)))
        victims = self._fetch_rng.choice(up, size=count, replace=False)
        self.crash_hosts(victims.tolist())
        return victims

    def recover_hosts(self, hosts: Iterable[int]) -> None:
        """Hosts rejoin receptive toward every file (no startup copies)."""
        host_array = np.fromiter((int(h) for h in hosts), dtype=np.int64)
        self._down_hosts.difference_update(host_array.tolist())
        for stored in self.files.values():
            stored.engine.recover(host_array, state=RECEPTIVE)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def locate(self, name: str) -> np.ndarray:
        """Current replica holders (stashers) of a file."""
        return self.files[name].engine.members_in(STASH)

    def fetch(self, name: str, max_probes: Optional[int] = None) -> FetchResult:
        """Client fetch by random probing (no directory).

        Contacts uniformly random hosts until one holds a replica; the
        expected probe count is ``n / stashers``.  A directory-less
        fetch is the honest cost model for a protocol whose *point* is
        that replica locations are untraceable.
        """
        stored = self.files[name]
        engine = stored.engine
        stash_id = engine.state_id(STASH)
        if max_probes is None:
            max_probes = 50 * self.n // max(1, len(self.locate(name)) or 1)
        probes = 0
        for _ in range(max_probes):
            probes += 1
            host = int(self._fetch_rng.integers(0, self.n))
            if engine.alive[host] and engine.states[host] == stash_id:
                return FetchResult(name, True, probes, host)
        return FetchResult(name, False, probes, None)

    def replica_count(self, name: str) -> int:
        return int(len(self.locate(name)))

    def lost_files(self) -> List[str]:
        return [name for name, f in self.files.items() if f.lost]

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    SNAPSHOT_KIND = "migratory-filestore"

    def save(self, path: os.PathLike) -> Path:
        """Checkpoint the store to a snapshot file (atomic write).

        Captures every bit that affects future behaviour: each file's
        engine state (states, alive mask, RNG streams), the fetch/crash
        RNG, the down-host set and the store clock.  Recorder *history*
        is deliberately not persisted -- it is derived observability
        data, so a restored store reports bandwidth only over periods
        ticked after the restore (see ``docs/service.md``).
        """
        arrays: Dict[str, np.ndarray] = {}
        files_meta = []
        for index, stored in enumerate(self.files.values()):
            engine_arrays, engine_meta = stored.engine.snapshot()
            for key, array in engine_arrays.items():
                arrays[f"file{index}.{key}"] = array
            files_meta.append({
                "name": stored.name,
                "size_bytes": stored.size_bytes,
                "inserted_period": stored.inserted_period,
                "transfers": stored.transfers,
                "lost_at_period": stored.lost_at_period,
                "params": asdict(stored.params or self.params),
                "engine": engine_meta,
            })
        meta = {
            "kind": self.SNAPSHOT_KIND,
            "n": self.n,
            "params": asdict(self.params),
            "period_seconds": self.period_seconds,
            "seed": self._seed,
            "period": self.period,
            "inserted": self._inserted,
            "down_hosts": sorted(self._down_hosts),
            "fetch_rng": generator_state(self._fetch_rng),
            "files": files_meta,
        }
        return save_snapshot(path, arrays, meta)

    @classmethod
    def load(cls, path: os.PathLike) -> "MigratoryFileStore":
        arrays, meta = load_snapshot(path)
        require_kind(arrays, meta, cls.SNAPSHOT_KIND)
        store = cls(
            int(meta["n"]),
            EndemicParams(**meta["params"]),
            period_seconds=float(meta["period_seconds"]),
            seed=int(meta["seed"]),
        )
        store.period = int(meta["period"])
        store._down_hosts = set(int(h) for h in meta["down_hosts"])
        store._fetch_rng = generator_from_state(meta.get("fetch_rng"))
        for index, file_meta in enumerate(meta["files"]):
            stored = store.insert(
                file_meta["name"], float(file_meta["size_bytes"]),
                params=EndemicParams(**file_meta["params"]),
            )
            prefix = f"file{index}."
            stored.engine.restore(  # overwrites all insert() drew
                {
                    key[len(prefix):]: array for key, array in arrays.items()
                    if key.startswith(prefix)
                },
                file_meta["engine"],
            )
            stored.inserted_period = int(file_meta["inserted_period"])
            stored.transfers = int(file_meta["transfers"])
            lost = file_meta["lost_at_period"]
            stored.lost_at_period = None if lost is None else int(lost)
        store._inserted = int(meta["inserted"])
        return store

    # ------------------------------------------------------------------
    # Accounting (Section 5.1 reality check)
    # ------------------------------------------------------------------
    def bandwidth_bps_per_host(self, name: str, window_periods: int = 100) -> float:
        """Measured steady-state transfer bandwidth, bits/s/host.

        Counts receptive->stash transfers (each moves the file once:
        one send + one receive across the population) over the last
        ``window_periods`` recorded periods.
        """
        stored = self.files[name]
        series = stored.recorder.transition_tensor((RECEPTIVE, STASH))[0]
        if len(series) == 0:
            return 0.0
        window = series[-window_periods:]
        transfers_per_period = float(np.mean(window))
        bytes_per_second = (
            transfers_per_period * stored.size_bytes / self.period_seconds
        )
        return 2.0 * 8.0 * bytes_per_second / self.n

    def storage_load(self) -> np.ndarray:
        """Bytes currently stored per host, across all files."""
        load = np.zeros(self.n)
        for stored in self.files.values():
            load[self.locate(stored.name)] += stored.size_bytes
        return load
