"""A migratory replicated file store built on endemic replication.

The paper positions endemic replication as the replica-*location* layer
of a persistent distributed file system ("a concept similar to the
eternity storage service"): every file runs its own endemic protocol
instance on its behalf, and at any time the file's replicas live
exactly on the processes in the *stash* state of that instance.

:class:`MigratoryFileStore` packages that design as a client of a
:class:`~repro.service.core.ServiceCore`: each file is a named endemic
population, files share one host population (and one failure/churn
schedule), and every operation that moves a file, a host or the
store's generator is a logged event.  It adds per-file safety and flux
accounting and the Section 5.1 bandwidth bookkeeping.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field
from numbers import Real
from typing import Any, Dict, Iterable, List, Mapping, Optional

import numpy as np

from ..protocols.endemic import (
    AVERSE, RECEPTIVE, STASH, EndemicParams, figure1_protocol,
)
from ..runtime.rng import make_generator
from ..runtime.round_engine import RoundEngine
from ..service.core import Application
from ..service.live import host_ids, number_of

__all__ = ["FetchResult", "MigratoryFileStore", "StoredFile"]


@dataclass
class StoredFile:
    """Bookkeeping for one file's endemic population."""

    name: str
    size_bytes: float
    engine: RoundEngine
    inserted_period: int
    params: EndemicParams
    seed: int
    transfers: int = 0
    lost_at_period: Optional[int] = None
    #: Receptive->stash transfers per period, since the insert (or the
    #: snapshot the store resumed from).
    transfer_series: List[int] = field(default_factory=list)

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


class MigratoryFileStore(Application):
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
    directory:
        Where the event log and snapshots go, as for ``repro serve``;
        without one no record is kept.
    """

    KIND = "filestore"
    EVENTS = ("insert", "remove", "tick", "leave", "fail", "join", "fetch")

    def __init__(
        self,
        n: int,
        params: EndemicParams,
        *,
        period_seconds: float = 360.0,
        seed: Optional[int] = None,
        directory: Optional[os.PathLike] = None,
    ):
        if n < 2:
            raise ValueError(f"need at least 2 hosts, got {n}")
        self.n = n
        self.params = (  # replay passes the recipe's dict
            params if isinstance(params, EndemicParams)
            else EndemicParams(**params)
        )
        self.period_seconds = period_seconds
        self._seed = seed if seed is not None else 0
        self.period = 0
        self.files: Dict[str, StoredFile] = {}
        self._inserted = 0  # files ever inserted: each one's seed
        self._down_hosts: set = set()
        self.rng = make_generator(self._seed ^ 0x5EED)
        self._start(directory)

    # ------------------------------------------------------------------
    # What ServiceCore asks of an application
    # ------------------------------------------------------------------
    def recipe(self) -> Dict[str, Any]:
        return {
            "kind": self.KIND, "n": self.n, "params": asdict(self.params),
            "period_seconds": self.period_seconds, "seed": self._seed,
        }

    @property
    def populations(self) -> Dict[str, RoundEngine]:
        return {name: stored.engine for name, stored in self.files.items()}

    def state(self) -> Dict[str, Any]:
        return {
            "period": self.period,
            "inserted": self._inserted,
            "down_hosts": sorted(self._down_hosts),
            "files": [{
                **{key: getattr(stored, key) for key in (
                    "name", "size_bytes", "inserted_period", "seed",
                    "transfers", "lost_at_period",
                )}, "params": asdict(stored.params),
            } for stored in self.files.values()],
        }

    def restore_state(self, state: Mapping[str, Any]) -> None:
        self.period = state["period"]
        self._inserted = state["inserted"]
        self._down_hosts = set(state["down_hosts"])
        self.files = {}
        for entry in state["files"]:
            params = EndemicParams(**entry["params"])
            self.files[entry["name"]] = StoredFile(**{
                **entry, "params": params,
                "engine": self._engine(params, entry["seed"], 1),
            })

    def _engine(
        self, params: EndemicParams, seed: int, replicas: int
    ) -> RoundEngine:
        return RoundEngine(
            figure1_protocol(params), n=self.n, seed=seed,
            initial={RECEPTIVE: self.n - replicas, STASH: replicas, AVERSE: 0},
        )

    def _insert(self, data: Mapping[str, Any]) -> Dict[str, Any]:
        name = data.get("name")
        if not isinstance(name, str) or name in self.files:
            raise ValueError(f"file {name!r} already stored (or not a name)")
        replicas = number_of(data, "initial_replicas", 1, self.n)
        size = number_of(data, "size_bytes", 0, kind=Real)
        params = EndemicParams(**data["params"])
        # Seeded by insertion count, so a file inserted after a remove
        # never takes a live file's seed (and replays its history).
        seed = self._seed + self._inserted * 7919 + 1
        engine = self._engine(params, seed, replicas)
        # Keep host availability consistent with the store's view.
        if self._down_hosts:
            engine.crash(np.fromiter(self._down_hosts, dtype=np.int64))
        self._inserted += 1
        self.files[name] = StoredFile(
            name, size, engine, self.period, params, seed
        )
        return {"seed": seed}

    def _remove(self, data: Mapping[str, Any]) -> Dict[str, Any]:
        del self.files[data.get("name")]
        return {}

    def _tick(self, data: Mapping[str, Any]) -> Dict[str, Any]:
        census: Dict[str, Dict[str, int]] = {}
        for _ in range(number_of(data, "periods", 1)):
            self.period += 1
            for stored in self.files.values():
                engine = stored.engine
                engine.step()
                counts = census[stored.name] = engine.counts()
                moved = engine.last_transitions.get((RECEPTIVE, STASH), 0)
                stored.transfer_series.append(moved)
                stored.transfers += moved
                if stored.lost_at_period is None and counts[STASH] == 0:
                    stored.lost_at_period = self.period
        return {"counts": census}

    def _leave(self, data: Mapping[str, Any]) -> Dict[str, Any]:
        hosts = host_ids(data, self.n)
        self._down_hosts.update(hosts.tolist())
        for engine in self.populations.values():
            engine.crash(hosts)
        return {"down": len(self._down_hosts)}

    def _fail(self, data: Mapping[str, Any]) -> Dict[str, Any]:
        fraction = number_of(data, "fraction", 0, 1, kind=Real)
        up = np.array(
            [h for h in range(self.n) if h not in self._down_hosts],
            dtype=np.int64,
        )
        count = int(round(fraction * len(up)))
        victims = {"hosts": self.rng.choice(
            up, size=count, replace=False
        ).tolist()}
        return {**victims, **self._leave(victims)}

    def _join(self, data: Mapping[str, Any]) -> Dict[str, Any]:
        hosts = host_ids(data, self.n)
        self._down_hosts.difference_update(hosts.tolist())
        for engine in self.populations.values():
            engine.recover(hosts, state=RECEPTIVE)
        return {"down": len(self._down_hosts)}

    def _fetch(self, data: Mapping[str, Any]) -> Dict[str, Any]:
        engine = self.files[data.get("name")].engine
        stash_id = engine.state_id(STASH)
        probes = 0
        for _ in range(number_of(data, "max_probes", 0)):
            probes += 1
            host = int(self.rng.integers(0, self.n))
            if engine.alive[host] and engine.states[host] == stash_id:
                return {"found": True, "probes": probes, "replica_host": host}
        return {"found": False, "probes": probes, "replica_host": None}

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
        self.core.apply_event("insert", {
            "name": name, "size_bytes": size_bytes,
            "initial_replicas": initial_replicas,
            "params": asdict(params or self.params),
        })
        return self.files[name]

    def remove(self, name: str) -> None:
        """Drop a file from the store (administrative delete)."""
        self.core.apply_event("remove", {"name": name})

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    def tick(self, periods: int = 1) -> None:
        """Advance every file's protocol by ``periods`` rounds.

        A file inserted late has a younger engine than the store.
        """
        self.core.tick(periods)

    # ------------------------------------------------------------------
    # Host availability (applies to every file's engine)
    # ------------------------------------------------------------------
    def crash_hosts(self, hosts: Iterable[int]) -> None:
        """Crash hosts across all files (replicas on them are lost)."""
        self.core.apply_event("leave", {"hosts": list(dict.fromkeys(hosts))})

    def crash_random_fraction(self, fraction: float) -> np.ndarray:
        """Crash a uniform random fraction of currently-up hosts."""
        event = self.core.apply_event("fail", {"fraction": fraction})
        return np.asarray(event.data["effect"]["hosts"], dtype=np.int64)

    def recover_hosts(self, hosts: Iterable[int]) -> None:
        """Hosts rejoin receptive toward every file (no startup copies)."""
        self.core.apply_event("join", {"hosts": list(dict.fromkeys(hosts))})

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
        if max_probes is None:
            max_probes = 50 * self.n // max(1, len(self.locate(name)) or 1)
        effect = self.core.apply_event(
            "fetch", {"name": name, "max_probes": max_probes}
        ).data["effect"]
        return FetchResult(name, **effect)

    def replica_count(self, name: str) -> int:
        return int(len(self.locate(name)))

    def lost_files(self) -> List[str]:
        return [name for name, f in self.files.items() if f.lost]

    # ------------------------------------------------------------------
    # Accounting (Section 5.1 reality check)
    # ------------------------------------------------------------------
    def bandwidth_bps_per_host(self, name: str, window_periods: int = 100) -> float:
        """Measured steady-state transfer bandwidth, bits/s/host.

        Counts receptive->stash transfers (each moves the file once:
        one send + one receive across the population) over the last
        ``window_periods`` periods of its transfer series.
        """
        stored = self.files[name]
        if not stored.transfer_series:
            return 0.0
        window = stored.transfer_series[-window_periods:]
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
