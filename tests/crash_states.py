"""Every crash state of a run, and every injected I/O error.

In the I/O-automaton view (Lynch), a crash is one more input action:
it can arrive between any two steps a run takes on the disk, and what
survives it is fixed by what the run had made durable.  This module
records a run's steps, builds every disk a conservative POSIX model
allows after a crash at each point, and recovers each one (the
ALICE recipe: Pillai et al., "All File Systems Are Not Created Equal",
OSDI 2014).

The shim (:class:`Disk`)
    sits under the program at the OS boundary: ``open`` for writing,
    raw writes, ``truncate``, ``os.fsync``, ``os.replace`` /
    ``os.rename``, ``os.unlink`` and a directory's ``os.open``, for
    files in one directory.  It records each as one step, with the
    file's bytes after it, and can make any one step fail with an
    ``OSError`` (a write that fails first lands half its bytes, as a
    short write does).  It patches the OS calls, not
    ``repro.store.durable``, so it records whatever writes the files,
    the seam or a writer beside it.

The crash model (:func:`crash_states`)
    A file's bytes are durable as of its last fsync; a name (a creation,
    rename or unlink) as of its directory's last fsync.  After a crash:

    * the unsynced namespace steps persist as any in-order prefix;
    * a log (``*.jsonl``) keeps its synced bytes plus its unsynced
      suffix cut at every line boundary and in the middle of every
      line; any other file keeps its synced bytes, the first half of
      its current bytes, or all of them.

The check
    Every distinct crash state is written to a fresh directory and
    recovered.  Recovery must give a state equal to some prefix of the
    uninterrupted run, or refuse by a named exception.  A run that
    recovers to anything else, or trusts a torn file, is a finding.
"""

from __future__ import annotations

import builtins
import errno
import hashlib
import io
import itertools
import json
import os
import shutil
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.campaign import CampaignSpec, run_campaign
from repro.campaign.runner import MANIFEST_NAME
from repro.protocols.endemic import EndemicParams
from repro.service import (
    LiveConfig, LiveEngine, ServiceCore, replay_directory, resume,
)
from repro.store import (
    EVENTS_NAME, EventLogError, MigratoryFileStore, SnapshotError,
    load_snapshot, read_events,
)

ERRNOS = (errno.ENOSPC, errno.EIO)

#: One step on the disk: ``(kind, name, *args)``.  ``write`` and
#: ``truncate`` carry the file's bytes after the step, ``rename`` the
#: target name; ``create``, ``fsync``, ``unlink`` and ``dirsync``
#: nothing more (``dirsync``'s name is "").
Step = Tuple


# ----------------------------------------------------------------------
# The recording shim
# ----------------------------------------------------------------------
class _Raw(io.RawIOBase):
    """A raw file whose writes and truncations are steps."""

    def __init__(self, disk: "Disk", real, path: Path):
        super().__init__()
        self._disk, self._real, self.path = disk, real, path
        self.name, self.mode = real.name, real.mode

    def readable(self) -> bool:
        return self._real.readable()

    def writable(self) -> bool:
        return self._real.writable()

    def seekable(self) -> bool:
        return self._real.seekable()

    def seek(self, *args) -> int:
        return self._real.seek(*args)

    def tell(self) -> int:
        return self._real.tell()

    def fileno(self) -> int:
        return self._real.fileno()

    def readinto(self, buffer) -> int:
        return self._real.readinto(buffer)

    def write(self, data) -> int:
        data = bytes(data)
        if self._disk.short_written == self.path:
            # The rest of a short write meets the same full disk.
            self._disk.short_written = None
            raise OSError(self._disk.fault, os.strerror(self._disk.fault))
        failing = self._disk.failing()
        if failing and len(data) > 1:
            data = data[: len(data) // 2]
            self._disk.short_written = self.path
        elif failing:
            self._disk.raise_fault()
        written = self._real.write(data)
        self._disk.record("write", self.path, self.path.read_bytes())
        return written

    def truncate(self, size=None) -> int:
        if self._disk.failing():
            self._disk.raise_fault()
        size = self._real.truncate(size)
        self._disk.record("truncate", self.path, self.path.read_bytes())
        return size

    def close(self) -> None:
        if not self.closed:
            self._disk._fds.pop(self._real.fileno(), None)
            self._real.close()
        super().close()


class Disk:
    """Records the steps a run takes on the files of ``root``.

    ``fail_at=k`` makes the k-th step (0-based) fail with ``errno``.
    """

    def __init__(self, root: Path, fail_at: Optional[int] = None,
                 fault: int = errno.EIO):
        self.root = Path(root).resolve()
        self.steps: List[Step] = []
        self.fail_at, self.fault = fail_at, fault
        self.short_written: Optional[Path] = None
        self._count = 0
        self._fds: Dict[int, str] = {}  # fd -> file name, or "" for root

    # -- bookkeeping ---------------------------------------------------
    def _mine(self, path) -> Optional[Path]:
        if not isinstance(path, (str, os.PathLike)):
            return None
        path = Path(path).resolve()
        return path if path.parent == self.root else None

    def failing(self) -> bool:
        """Whether the step about to happen is the one that fails."""
        index, self._count = self._count, self._count + 1
        return index == self.fail_at

    def raise_fault(self) -> None:
        raise OSError(self.fault, os.strerror(self.fault))

    def step(self) -> None:
        if self.failing():
            self.raise_fault()

    def record(self, kind: str, path: Optional[Path], *args) -> None:
        self.steps.append((kind, "" if path is None else path.name) + args)

    # -- the patched calls ---------------------------------------------
    def open(self, file, mode="r", buffering=-1, encoding=None,
             errors=None, newline=None, closefd=True, opener=None):
        path = self._mine(file)
        if path is None or not set(mode) & set("wax+"):
            return self._real_open(file, mode, buffering, encoding, errors,
                                   newline, closefd, opener)
        existed = path.exists()
        self.step()
        raw_mode = mode.replace("t", "").replace("b", "") + "b"
        raw = _Raw(self, self._real_open(path, raw_mode, buffering=0), path)
        if not existed:
            self.record("create", path)
        elif "w" in mode:
            self.record("truncate", path, b"")
        self._fds[raw.fileno()] = path.name
        layer = (io.BufferedRandom if "+" in mode else io.BufferedWriter)(raw)
        if "b" in mode:
            return layer
        text = io.TextIOWrapper(layer, encoding=encoding or "utf-8",
                                errors=errors, newline=newline)
        text.mode = mode
        return text

    def os_open(self, path, flags, mode=0o777, *, dir_fd=None):
        fd = self._real_os_open(path, flags, mode, dir_fd=dir_fd)
        if isinstance(path, (str, os.PathLike)) and (
            Path(path).resolve() == self.root
        ):
            self._fds[fd] = ""
        return fd

    def os_close(self, fd):
        self._fds.pop(fd, None)
        return self._real_os_close(fd)

    def fsync(self, fd):
        name = self._fds.get(fd)
        if name is not None:
            self.step()
        self._real_fsync(fd)
        if name == "":
            self.record("dirsync", None)
        elif name is not None:
            self.record("fsync", self.root / name)

    def _move(self, real):
        def move(src, dst, *args, **kwargs):
            source, target = self._mine(src), self._mine(dst)
            if source is not None and target is not None:
                self.step()
            real(src, dst, *args, **kwargs)
            if source is not None and target is not None:
                self.record("rename", source, target.name)
        return move

    def unlink(self, path, *args, **kwargs):
        mine = self._mine(path)
        if mine is not None:
            self.step()
        self._real_unlink(path, *args, **kwargs)
        if mine is not None:
            self.record("unlink", mine)

    @contextmanager
    def installed(self) -> Iterator["Disk"]:
        self._real_open = io.open
        self._real_os_open, self._real_os_close = os.open, os.close
        self._real_fsync, self._real_unlink = os.fsync, os.unlink
        patches = [
            (builtins, "open", self.open), (io, "open", self.open),
            (os, "open", self.os_open), (os, "close", self.os_close),
            (os, "fsync", self.fsync), (os, "unlink", self.unlink),
            (os, "replace", self._move(os.replace)),
            (os, "rename", self._move(os.rename)),
        ]
        saved = [(owner, name, getattr(owner, name))
                 for owner, name, _ in patches]
        for owner, name, value in patches:
            setattr(owner, name, value)
        try:
            yield self
        finally:
            for owner, name, value in saved:
                setattr(owner, name, value)


# ----------------------------------------------------------------------
# The crash model
# ----------------------------------------------------------------------
def _cuts(name: str, synced: bytes, current: bytes) -> List[bytes]:
    """What a crash can leave of a file synced at ``synced``."""
    if current == synced:
        return [synced]
    if not name.endswith(".jsonl"):
        return [synced, current[: len(current) // 2], current]
    start = len(os.path.commonprefix([synced, current]))
    ends = [start] + [
        i + 1 for i in range(start, len(current)) if current[i] == 10
    ] + [len(current)]
    offsets = set(ends) | {(a + b) // 2 for a, b in zip(ends, ends[1:])}
    return [synced] + [current[:offset] for offset in sorted(offsets)]


def _apply(names: Dict[str, int], step: Step) -> None:
    kind, name = step[0], step[1]
    if kind == "create":
        names[name] = step[2]
    elif kind == "rename":
        names[step[2]] = names.pop(name)
    elif kind == "unlink":
        names.pop(name, None)


def crash_states(steps: List[Step]) -> List[Dict[str, bytes]]:
    """Every distinct disk a crash after any step can leave."""
    synced_names: Dict[str, int] = {}
    names: Dict[str, int] = {}
    pending: List[Step] = []
    synced: Dict[int, bytes] = {}
    current: Dict[int, bytes] = {}
    inodes = itertools.count()
    seen, states = set(), []

    def crash() -> None:
        for cut in range(len(pending) + 1):
            visible = dict(synced_names)
            for step in pending[:cut]:
                _apply(visible, step)
            choices = [
                [(name, data) for data in
                 _cuts(name, synced[inode], current[inode])]
                for name, inode in sorted(visible.items())
            ]
            for files in itertools.product(*choices):
                key = tuple((n, hashlib.sha1(d).digest()) for n, d in files)
                if key not in seen:
                    seen.add(key)
                    states.append(dict(files))

    crash()
    for step in steps:
        kind, name = step[0], step[1]
        if kind == "create":
            inode = next(inodes)
            synced[inode], current[inode] = b"", b""
            step = (kind, name, inode)
        if kind in ("create", "rename", "unlink"):
            pending.append(step)
            _apply(names, step)
        elif kind in ("write", "truncate"):
            current[names[name]] = step[2]
        elif kind == "fsync":
            synced[names[name]] = current[names[name]]
        elif kind == "dirsync":
            synced_names, pending = dict(names), []
        crash()
    return states


def materialize(state: Dict[str, bytes], directory: Path) -> Path:
    directory.mkdir(parents=True)
    for name, data in state.items():
        (directory / name).write_bytes(data)
    return directory


# ----------------------------------------------------------------------
# The runs: each records an uninterrupted history, and checks a disk
# ----------------------------------------------------------------------
@dataclass
class Finding:
    state: str
    recovery: str
    why: str

    def __str__(self) -> str:
        return f"{self.state} / {self.recovery}: {self.why}"


def _fingerprint(core) -> Optional[str]:
    if core is None:
        return None
    arrays, meta = core.app.snapshot()
    digest = hashlib.sha1(json.dumps(meta, sort_keys=True).encode())
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        digest.update(f"{name}{array.dtype.str}{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


class ServiceRun:
    """A service directory's history: records, and the state after each.

    ``calls(directory)`` is the run, as a list of calls.
    """

    name = "service"
    REFUSALS = (EventLogError, SnapshotError, FileNotFoundError)

    def calls(self, directory: Path) -> List[Callable[[], object]]:
        raise NotImplementedError

    def drive(self, directory: Path) -> None:
        for call in self.calls(directory):
            call()

    def reference(self, directory: Path, steps: List[Step]) -> None:
        """Learn the history from an uninterrupted run's directory."""
        self.records = [
            e.to_dict() for e in read_events(directory / EVENTS_NAME)[0]
        ]
        self.states = [None]
        report = replay_directory(
            directory,
            on_event=lambda core, _: self.states.append(_fingerprint(core)),
        )
        assert report.ok and len(self.states) == len(self.records) + 1

    def _prefix(self, events, core) -> Optional[str]:
        records = [e.to_dict() for e in events]
        if records != self.records[: len(records)]:
            return f"records are not a prefix of the run ({len(records)})"
        if _fingerprint(core) != self.states[len(records)]:
            return f"state differs from the run's after {len(records)} records"
        return None

    def check(self, directory: Path, label: str) -> List[Finding]:
        findings = []

        def recover(recovery: str, attempt: Callable[[], Optional[str]]):
            try:
                why = attempt()
            except self.REFUSALS:
                return
            except Exception as exc:  # noqa: BLE001 - the finding
                why = f"unnamed failure {type(exc).__name__}: {exc}"
            if why:
                findings.append(Finding(label, recovery, why))

        def replayed(from_snapshot: bool) -> Optional[str]:
            report = replay_directory(directory, from_snapshot=from_snapshot)
            if not report.ok:
                return f"replay diverged: {report.mismatches[0]}"
            return self._prefix(report.events, report.core)

        def ordered() -> Optional[str]:
            """No snapshot on disk is ahead of the log prefix it names."""
            log = directory / EVENTS_NAME
            held = len(read_events(log)[0]) if log.exists() else 0
            for path in sorted(directory.glob("snapshot-*.npz")):
                try:
                    seq = load_snapshot(path)[1]["seq"]
                except SnapshotError:
                    continue  # torn: trusted by nothing
                if seq > held:
                    return f"{path.name} names seq {seq}, the log holds {held}"
            return None

        def resumed() -> Optional[str]:
            core = resume(directory)
            core.log.close()
            events = read_events(directory / EVENTS_NAME)[0]
            if len(events) != core.log.next_seq:
                return "resume left a log it does not continue"
            return self._prefix(events, core)

        recover("order", ordered)
        recover("genesis", lambda: replayed(False))
        recover("snapshot", lambda: replayed(True))
        recover("resume", resumed)
        return findings


class ServeLifetime(ServiceRun):
    """A ``repro serve`` lifetime: ticks, membership events, a
    snapshot every 4 periods, and an orderly close."""

    name = "serve"

    def calls(self, directory):
        box = {}

        def build():
            box["core"] = ServiceCore(
                LiveEngine(LiveConfig("endemic", 120, seed=11)),
                directory=directory, snapshot_every=4,
            )

        calls = [build, lambda: box["core"].start()]
        for period in range(1, 10):
            calls.append(lambda: box["core"].tick())
            if period == 3:
                calls.append(lambda: box["core"].apply_event(
                    "fail", {"fraction": 0.1}))
            if period == 6:
                calls.append(lambda: box["core"].apply_event(
                    "join", {"hosts": [1, 2]}))
        return calls + [lambda: box["core"].close()]


class FileStoreSession(ServiceRun):
    """A ``MigratoryFileStore`` session, killed mid-append and resumed:
    the resumed store cuts the torn tail, and snapshots again."""

    name = "filestore"

    def calls(self, directory):
        box = {}

        def build():
            box["store"] = MigratoryFileStore(
                n=60, params=EndemicParams(alpha=0.01, gamma=0.1, b=2),
                seed=5, directory=directory,
            )

        def kill():
            box["store"].core.log.close()
            with open(directory / EVENTS_NAME, "ab") as fh:
                fh.write(b'{"seq": 99, "kind": "ti')

        def resumed():
            box["store"] = resume(directory).app

        store = lambda: box["store"]  # noqa: E731 - the store of the moment
        return [
            build,
            lambda: store().insert("a.txt"),
            lambda: store().insert("b.txt", size_bytes=2048),
            lambda: store().tick(3),
            lambda: store().core.snapshot_now(),
            lambda: store().crash_hosts([1, 2, 3]),
            lambda: store().tick(2),
            kill,
            resumed,
            lambda: store().fetch("a.txt"),
            lambda: store().remove("a.txt"),
            lambda: store().tick(2),
            lambda: store().core.snapshot_now(),
            lambda: store().recover_hosts([2]),
            lambda: store().tick(1),
        ]


class CampaignRun:
    """A two-point sharded campaign saving tensors, and its resume."""

    name = "campaign"

    def __init__(self):
        self.spec = CampaignSpec(
            name="crash", protocols=["endemic"], group_sizes=[60, 80],
            trials=2, periods=4, shards=2, base_seed=7,
        )

    def drive(self, directory: Path) -> None:
        run_campaign(self.spec, save_tensors=str(directory))

    @staticmethod
    def _results(result) -> List[dict]:
        return [
            {**r.to_dict(), "elapsed_seconds": None} for r in result.results
        ]

    @staticmethod
    def _tensors(directory: Path, result) -> List[dict]:
        tensors = []
        for r in result.results:
            with np.load(directory / r.tensor_path) as bundle:
                tensors.append({key: bundle[key] for key in bundle.files})
        return tensors

    @staticmethod
    def _version(text: str) -> dict:
        """A manifest, less its wall-clock and host provenance."""
        manifest = json.loads(text)
        manifest.pop("provenance", None)
        for entry in manifest["points"]:
            entry.get("result", {}).pop("elapsed_seconds", None)
        return manifest

    def reference(self, directory: Path, steps: List[Step]) -> None:
        result = run_campaign(self.spec, resume=str(directory))
        self.results = self._results(result)
        self.tensors = self._tensors(directory, result)
        self.manifests, content = [], {}
        for step in steps:
            if step[0] in ("write", "truncate"):
                content[step[1]] = step[2]
            elif step[0] == "rename" and step[2] == MANIFEST_NAME:
                self.manifests.append(self._version(content[step[1]].decode()))

    def check(self, directory: Path, label: str) -> List[Finding]:
        manifest = directory / MANIFEST_NAME
        if manifest.exists():
            try:
                version = self._version(manifest.read_text())
            except ValueError:
                version = None
            if version is not None and version not in self.manifests:
                return [Finding(label, "manifest", "not one the run wrote")]
        try:
            result = run_campaign(self.spec, resume=str(directory))
        except ValueError as exc:
            if type(exc) is ValueError and str(directory) in str(exc):
                return []  # refused, naming the directory
            return [Finding(label, "resume", f"unnamed refusal: {exc!r}")]
        except Exception as exc:  # noqa: BLE001 - the finding
            return [Finding(label, "resume", f"unnamed failure: {exc!r}")]
        if self._results(result) != self.results:
            return [Finding(label, "resume", "results differ from the run")]
        try:
            tensors = self._tensors(directory, result)
        except Exception as exc:  # noqa: BLE001 - the finding
            return [Finding(label, "resume", f"trusts a torn tensor: {exc!r}")]
        for want, got in zip(self.tensors, tensors):
            if want.keys() != got.keys() or not all(
                np.array_equal(want[k], got[k]) for k in want
            ):
                return [Finding(label, "resume", "trusts a torn tensor")]
        return []


RUNS = {
    run.name: run for run in (ServeLifetime, FileStoreSession, CampaignRun)
}


# ----------------------------------------------------------------------
# Driving it
# ----------------------------------------------------------------------
def record(run, directory: Path) -> List[Step]:
    """Run uninterrupted under the shim; learn the reference history."""
    directory.mkdir(parents=True)
    disk = Disk(directory)
    with disk.installed():
        run.drive(directory)
    run.reference(directory, disk.steps)
    return disk.steps


def sample(items: list, every: int) -> list:
    """Every ``every``-th item, the last one always among them."""
    return items[::-1][::every][::-1] if every > 1 else list(items)


def check_crash_states(
    run, workdir: Path, every: int = 1
) -> Tuple[int, List[Finding]]:
    """Recover every (or every ``every``-th) crash state of ``run``."""
    states = crash_states(record(run, workdir / "run"))
    findings: List[Finding] = []
    for index, state in sample(list(enumerate(states)), every):
        directory = materialize(state, workdir / f"state{index}")
        label = f"state {index}: " + ", ".join(
            f"{name} ({len(data)} B)" for name, data in sorted(state.items())
        )
        findings += run.check(directory, label)
        shutil.rmtree(directory)
    return len(states), findings


def check_faults(
    run, workdir: Path, every: int = 1
) -> Tuple[int, List[Finding]]:
    """Fail each step (or every ``every``-th) with each of ``ERRNOS``."""
    total = len(record(run, workdir / "run"))
    findings: List[Finding] = []
    for index in sample(list(range(total)), every):
        for code in ERRNOS:
            directory = workdir / f"fault{index}-{code}"
            directory.mkdir()
            # The run stops at the error, as a process it kills would.
            with Disk(directory, fail_at=index, fault=code).installed(), \
                    suppress(OSError):
                run.drive(directory)
            label = f"{errno.errorcode[code]} at step {index}"
            findings += run.check(directory, label)
            shutil.rmtree(directory)
    return total, findings
