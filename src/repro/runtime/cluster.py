"""The cluster backend: process-isolated workers with re-dispatch.

:func:`~repro.runtime.exec.run_plan`'s default ``pool`` backend is
forked children on pipes -- fast, but it stops where the paper's
protocols carry on: a SIGKILLed child ends the plan (promptly and by
name, :class:`~repro.runtime.exec.WorkerLost`, but it ends), a hung
one stalls it, and the worker count is fixed at fork time.  This
module is the ``backend="cluster"`` alternative: a
**coordinator** (in the calling process) and **workers** that are fully
independent OS processes speaking a length-prefixed pickle protocol
over TCP sockets.  Workers are spawned locally today and dial in over
the same protocol a remote (SSH- or k8s-launched) worker would use;
``python -m repro worker --connect HOST:PORT`` starts a standalone one
that can join a plan already in flight.

Robustness model
----------------

* **Heartbeats.**  Every worker sends a heartbeat on an interval
  (``FaultPolicy.heartbeat_seconds``); any message counts as liveness.
  A worker silent for ``heartbeat_seconds * heartbeat_misses`` is
  *fenced*: its socket is closed, its process (if locally spawned) is
  SIGKILLed -- a fenced worker can never land a stale result.
* **Frames.**  Units travel in *frames*: one ``frame`` message carries
  a list of ``(index, blob, label)`` jobs, the worker runs them with
  :func:`~repro.runtime.exec._run_frame` and answers with one
  ``("results", outputs, failures, seconds)`` message, the columns a
  pool child replies with.  The coordinator sizes the next frame from
  how long the last ones ran (:func:`~repro.runtime.exec._next_frame_size`:
  units of tens of milliseconds travel alone, do-nothing units by the
  hundred) and keeps one frame in flight per worker.
* **Re-dispatch.**  A fenced or dead worker's in-flight frame goes back
  to the front of the queue, in order, and is re-dispatched to a
  survivor.  The dispatch payload is the *same* pre-pickled blob
  (:func:`~repro.runtime.exec._encode_units` serializes once per
  plan; the worker decodes a unit as it starts it), and unit seeds
  never depend on workers, so a re-dispatched
  run is bitwise identical to an undisturbed one -- plan contract
  clause 5.  A unit that out-lives ``FaultPolicy.max_dispatches``
  workers is treated as the unit's own fault and becomes a
  :class:`~repro.runtime.exec.UnitFailure` carrying provenance (the
  last worker id, re-dispatch count, heartbeat misses observed), which
  flows into the ordinary ``on_error`` machinery -- so campaign
  checkpoint/resume composes unchanged.
* **Elastic workers.**  The coordinator accepts joins for as long as
  the plan runs (pin the port with ``REPRO_CLUSTER_PORT`` to make it
  discoverable), dead local workers are respawned under a bounded
  budget, and losing every worker mid-plan is recoverable as long as
  some worker eventually serves each unit.
* **Graceful drain.**  SIGTERM stops dispatching, waits for in-flight
  units to land (checkpoint callbacks included), shuts workers down,
  and raises :class:`ClusterDrained` -- a campaign interrupted this
  way resumes from its manifest exactly like a pool-backend kill.

Faults for testing all of the above are scripted with
:mod:`repro.runtime.chaos` and injected into workers via their
environment, so chaos runs use the very same code paths as production
runs.
"""

from __future__ import annotations

import os
import pickle
import selectors
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import traceback as traceback_module
from collections import deque
from contextlib import suppress
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.runtime.chaos import (
    FAULTS_ENV,
    SCHEDULE_ENV,
    ChaosSchedule,
    WorkerFault,
    faults_env_value,
    faults_from_env,
)
from repro.runtime.exec import (
    Failures,
    FaultPolicy,
    UnitFailure,
    _encode_results,
    _land_frame,
    _log_frames,
    _next_frame_size,
    _normalize_traceback,
    _run_frame,
)

__all__ = [
    "ClusterCoordinator",
    "ClusterDrained",
    "WorkerSession",
    "worker_main",
]

#: Environment variables pinning the coordinator's listen address.
#: Default is an ephemeral port on loopback; pin the port to let
#: standalone ``python -m repro worker`` processes find the plan.
HOST_ENV = "REPRO_CLUSTER_HOST"
PORT_ENV = "REPRO_CLUSTER_PORT"

#: Set per spawned worker so its hello can report which launch slot it
#: fills (external joiners have none and report ``None``).
LAUNCH_ENV = "REPRO_CLUSTER_LAUNCH"

_HEADER = struct.Struct("!Q")

#: A unit on the wire: ``(index, blob, label)``, the blob a pickled
#: ``(runner, payload)`` pair from ``exec._encode_units``.
WireJob = Tuple[int, bytes, str]

#: Refuse to decode a frame longer than this (a corrupt or hostile
#: length prefix must not trigger a multi-GiB allocation).
_MAX_FRAME = 1 << 31


class ClusterDrained(RuntimeError):
    """The coordinator drained on SIGTERM before finishing the plan.

    Raised only after every in-flight unit has landed (and fired its
    ``on_unit`` checkpoint callbacks), so a campaign that catches the
    coordinating process's SIGTERM can be resumed from its manifest.
    """

    def __init__(self, label: str, completed: int, total: int):
        self.completed = completed
        self.total = total
        super().__init__(
            f"{label}: cluster drained on SIGTERM with {completed}/{total} "
            f"units complete; re-run with resume to finish"
        )


def encode_message(message: Tuple) -> bytes:
    """Frame a message: 8-byte big-endian length prefix + pickle."""
    blob = pickle.dumps(message)
    return _HEADER.pack(len(blob)) + blob


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> Optional[Tuple]:
    """Read one framed message from a blocking socket (None on EOF)."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > _MAX_FRAME:
        raise ValueError(f"frame length {length} exceeds limit")
    blob = _recv_exact(sock, length)
    if blob is None:
        return None
    return pickle.loads(blob)


class MessageBuffer:
    """Reassembles framed messages from a non-blocking byte stream."""

    def __init__(self):
        self._data = bytearray()

    def feed(self, chunk: bytes) -> None:
        self._data.extend(chunk)

    def pop(self) -> Optional[Tuple]:
        if len(self._data) < _HEADER.size:
            return None
        (length,) = _HEADER.unpack(self._data[: _HEADER.size])
        if length > _MAX_FRAME:
            raise ValueError(f"frame length {length} exceeds limit")
        end = _HEADER.size + length
        if len(self._data) < end:
            return None
        blob = bytes(self._data[_HEADER.size:end])
        del self._data[:end]
        return pickle.loads(blob)


@dataclass
class _Connection:
    """Coordinator-side state for one connected worker."""

    sock: socket.socket
    last_seen: float
    worker_id: str = ""
    launch_index: Optional[int] = None
    #: Unit indices of the frame in flight on this worker, in order.
    frame: List[int] = field(default_factory=list)
    ready: bool = False
    fenced: bool = False
    buffer: MessageBuffer = field(default_factory=MessageBuffer)
    outbox: bytearray = field(default_factory=bytearray)


@dataclass
class _UnitState:
    """Dispatch bookkeeping for one unit (provenance on failure)."""

    dispatches: int = 0
    misses: int = 0
    last_worker: str = ""


class ClusterCoordinator:
    """Runs one encoded plan over socket-connected worker processes.

    Instantiated by :func:`~repro.runtime.exec.run_plan` with the plan
    already serialized (``blobs`` from ``_encode_units``); ``run``
    drives the event loop in the calling thread and lands every unit
    through the same ``land(index, output, failure)`` callback the
    pool backend uses, so fault-policy semantics are identical.
    """

    def __init__(
        self,
        label: str,
        blobs: Sequence[bytes],
        labels: Sequence[str],
        policy: FaultPolicy,
        workers: int,
        initializer: Optional[Callable] = None,
        initargs: Tuple = (),
        chaos: Optional[ChaosSchedule] = None,
    ):
        self.label = label
        self._blobs = list(blobs)
        self._labels = list(labels)
        self._policy = policy
        self._workers = max(1, min(workers, len(self._blobs)))
        self._initializer = initializer
        self._initargs = initargs
        self._chaos = chaos if chaos is not None else ChaosSchedule.from_env()
        self._host = os.environ.get(HOST_ENV, "127.0.0.1")
        self._port = int(os.environ.get(PORT_ENV, "0"))
        self._pending: deque = deque(range(len(self._blobs)))
        self._states = [_UnitState() for _ in self._blobs]
        self._connections: Dict[int, _Connection] = {}
        self._procs: Dict[int, subprocess.Popen] = {}
        self._fenced: Dict[int, subprocess.Popen] = {}
        self._spawned = 0
        self._next_worker_id = 0
        self._done_count = 0
        self._frame_size = 1
        self._first_frame_at: Optional[float] = None
        self._draining = False
        self._selector: Optional[selectors.BaseSelector] = None
        self._listener: Optional[socket.socket] = None
        #: Observable run statistics (tests and drain messages read these).
        self.stats = dict.fromkeys((
            "spawned", "external_joins", "workers_lost", "redispatches",
            "dispatches", "frames", "largest_frame",
        ), 0)
        # A worker that dies instantly on every unit must not spawn
        # replacements forever: the budget covers every allowed
        # re-dispatch plus headroom for slow starters.
        self._spawn_budget = self._workers * max(2, policy.max_dispatches) + 2

    # -- lifecycle -----------------------------------------------------

    def run(self, land: Callable[[int, Any, Optional[UnitFailure]], None]):
        """Execute the plan, landing every unit through ``land``."""
        total = len(self._blobs)
        started = time.monotonic()
        previous_sigterm = None
        in_main_thread = (
            threading.current_thread() is threading.main_thread()
        )
        if in_main_thread and hasattr(signal, "SIGTERM"):
            def drain(signum, frame):
                self._draining = True

            previous_sigterm = signal.signal(signal.SIGTERM, drain)
        self._selector = selectors.DefaultSelector()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(
            socket.SOL_SOCKET, socket.SO_REUSEADDR, 1
        )
        try:
            self._listener.bind((self._host, self._port))
            self._listener.listen(64)
            self._listener.setblocking(False)
            self._port = self._listener.getsockname()[1]
            self._selector.register(
                self._listener, selectors.EVENT_READ, None
            )
            self._event_loop(land, total)
        finally:
            self._cleanup()
            if previous_sigterm is not None:
                signal.signal(signal.SIGTERM, previous_sigterm)
        ended = time.monotonic()
        _log_frames(
            self.label, self._done_count, self.stats["frames"],
            self.stats["largest_frame"], self._workers, ended - started,
            (self._first_frame_at or ended) - started,
        )
        if self._draining and self._done_count < total:
            raise ClusterDrained(self.label, self._done_count, total)

    def _event_loop(self, land, total: int) -> None:
        tick = min(0.5, max(0.01, self._policy.heartbeat_seconds / 4.0))
        while self._done_count < total:
            if self._draining and not self._in_flight():
                return
            self._maintain_workers()
            events = self._selector.select(timeout=tick)
            for key, mask in events:
                if key.fileobj is self._listener:
                    self._accept()
                    continue
                conn: _Connection = key.data
                if mask & selectors.EVENT_WRITE:
                    self._flush(conn)
                if mask & selectors.EVENT_READ:
                    self._read(conn, land)
            self._scan_heartbeats(land)
            self._stall_guard()

    def _in_flight(self) -> int:
        """How many units are out with workers."""
        return sum(len(conn.frame) for conn in self._connections.values())

    def _stall_guard(self) -> None:
        if self._draining or self._done_count >= len(self._blobs):
            return
        if self._connections or self._live_spawns():
            return
        if self._spawned < self._spawn_budget:
            return
        raise RuntimeError(
            f"{self.label}: cluster stalled -- no workers connected, "
            f"spawn budget ({self._spawn_budget}) exhausted, "
            f"{len(self._pending)} unit(s) still pending; pin "
            f"{PORT_ENV} and attach standalone workers, or raise "
            f"FaultPolicy.max_dispatches"
        )

    def _cleanup(self) -> None:
        for conn in list(self._connections.values()):
            with suppress(OSError):
                conn.sock.setblocking(True)
                conn.sock.settimeout(0.5)
                conn.sock.sendall(encode_message(("shutdown",)))
            with suppress(OSError):
                conn.sock.close()
        self._connections.clear()
        for proc in list(self._procs.values()) + list(self._fenced.values()):
            if proc.poll() is None:
                proc.kill()
        for proc in list(self._procs.values()) + list(self._fenced.values()):
            with suppress(subprocess.TimeoutExpired):
                proc.wait(timeout=5)
        self._procs.clear()
        self._fenced.clear()
        if self._listener is not None:
            self._listener.close()
        if self._selector is not None:
            self._selector.close()

    # -- worker processes ----------------------------------------------

    def _live_spawns(self) -> List[int]:
        """Launch indices of spawned procs alive but not yet connected."""
        connected = [
            conn.launch_index
            for conn in self._connections.values()
            if conn.launch_index is not None
        ]
        alive = []
        for launch_index, proc in list(self._procs.items()):
            if proc.poll() is not None:
                del self._procs[launch_index]
                continue
            if launch_index not in connected:
                alive.append(launch_index)
        return alive

    def _maintain_workers(self) -> None:
        if self._draining:
            return
        remaining = len(self._pending) + self._in_flight()
        if remaining == 0:
            return
        capacity = len(self._connections) + len(self._live_spawns())
        want = min(self._workers, remaining)
        while capacity < want and self._spawned < self._spawn_budget:
            self._spawn_worker()
            capacity += 1

    def _spawn_worker(self) -> None:
        launch_index = self._spawned
        self._spawned += 1
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[2])
        python_path = env.get("PYTHONPATH", "")
        if src_root not in python_path.split(os.pathsep):
            env["PYTHONPATH"] = (
                src_root + (os.pathsep + python_path if python_path else "")
            )
        env[LAUNCH_ENV] = str(launch_index)
        env.pop(SCHEDULE_ENV, None)
        faults: Tuple[WorkerFault, ...] = ()
        if self._chaos is not None:
            faults = self._chaos.for_worker(launch_index)
        if faults:
            env[FAULTS_ENV] = faults_env_value(faults)
        else:
            env.pop(FAULTS_ENV, None)
        self._procs[launch_index] = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.runtime.cluster",
                "--connect",
                f"{self._host}:{self._port}",
            ],
            env=env,
            stdin=subprocess.DEVNULL,
        )
        self.stats["spawned"] += 1

    # -- connection handling -------------------------------------------

    def _accept(self) -> None:
        while True:
            try:
                sock, _addr = self._listener.accept()
            except OSError:  # BlockingIOError included: none left
                return
            sock.setblocking(False)
            conn = _Connection(sock=sock, last_seen=time.monotonic())
            self._connections[sock.fileno()] = conn
            self._selector.register(sock, selectors.EVENT_READ, conn)

    def _events_for(self, conn: _Connection) -> int:
        events = selectors.EVENT_READ
        if conn.outbox:
            events |= selectors.EVENT_WRITE
        return events

    def _queue_send(self, conn: _Connection, message: Tuple) -> None:
        conn.outbox.extend(encode_message(message))
        self._selector.modify(conn.sock, self._events_for(conn), conn)
        self._flush(conn)

    def _flush(self, conn: _Connection) -> None:
        while conn.outbox:
            try:
                sent = conn.sock.send(bytes(conn.outbox[: 1 << 20]))
            except OSError:
                # Full (try again on EVENT_WRITE) or broken: the read
                # path (EOF) or heartbeat scan will fence it.
                break
            if sent == 0:
                break
            del conn.outbox[:sent]
        with suppress(KeyError):
            self._selector.modify(conn.sock, self._events_for(conn), conn)

    def _read(self, conn: _Connection, land) -> None:
        while True:
            try:
                chunk = conn.sock.recv(1 << 20)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._lose_worker(conn, land, reason="connection error")
                return
            if not chunk:
                self._lose_worker(conn, land, reason="connection closed")
                return
            conn.buffer.feed(chunk)
        conn.last_seen = time.monotonic()
        while not conn.fenced:
            try:
                message = conn.buffer.pop()
            except Exception:
                self._lose_worker(conn, land, reason="protocol error")
                return
            if message is None:
                return
            self._handle_message(conn, message, land)

    def _handle_message(self, conn: _Connection, message: Any, land):
        """Act on one decoded message; a malformed one fences its sender.

        The bytes come from another process, so nothing about their
        shape is assumed: whatever is not one of the four worker
        messages, well formed, costs the worker its connection and
        sends its frame back to the queue.
        """
        kind = message[0] if isinstance(message, tuple) and message else None
        if kind == "hello":
            info = message[1] if len(message) > 1 else {}
            conn.worker_id = f"w{self._next_worker_id}"
            self._next_worker_id += 1
            launch = info.get("launch") if isinstance(info, dict) else None
            conn.launch_index = launch
            if launch is None:
                self.stats["external_joins"] += 1
            self._queue_send(conn, (
                "setup",
                conn.worker_id,
                self._policy,
                self._initializer,
                self._initargs,
            ))
            conn.ready = True
            self._dispatch(conn)
        elif kind == "heartbeat":
            pass  # liveness already recorded in _read
        elif kind == "results":
            reply = self._frame_reply(conn, message)
            if reply is None:
                self._lose_worker(conn, land, reason="protocol error")
                return
            outputs, failures, seconds = reply
            frame, conn.frame = conn.frame, []
            self._frame_size = _next_frame_size(
                self._frame_size, len(frame), seconds
            )
            self._done_count += len(frame)
            _land_frame(land, frame, outputs, [
                (slot, self._stamp_provenance(
                    failure, conn, self._states[frame[slot]]
                ))
                for slot, failure in failures
            ])
            self._dispatch(conn)
        elif kind == "fatal":
            detail = message[1] if len(message) > 1 else ""
            self._lose_worker(conn, land, reason=f"worker fatal: {detail}")
        else:
            self._lose_worker(conn, land, reason="protocol error")

    @staticmethod
    def _frame_reply(
        conn: _Connection, message: Tuple
    ) -> Optional[Tuple[List[Any], Failures, float]]:
        """``(outputs, failures, seconds)`` of ``conn``'s in-flight
        frame, or None.

        A ``results`` message is taken only if it answers exactly the
        frame this connection was sent: one output per unit, and each
        failure a :class:`UnitFailure` of the unit dispatched in its
        slot (None there in ``outputs``), slots rising -- so no worker
        can land a unit it was not dispatched, a unit twice, or an index
        outside the plan.
        """
        if len(message) != 4 or not conn.frame:
            return None
        _, outputs, failures, seconds = message
        if not isinstance(outputs, list) or len(outputs) != len(conn.frame):
            return None
        if not isinstance(failures, list):
            return None
        if isinstance(seconds, bool) or not isinstance(seconds, (int, float)):
            return None
        previous = -1
        for failure in failures:
            if not isinstance(failure, tuple) or len(failure) != 2:
                return None
            slot, record = failure
            if type(slot) is not int or not previous < slot < len(outputs):
                return None
            if not isinstance(record, UnitFailure) or outputs[slot] is not None:
                return None
            index = record.index
            if type(index) is not int or index != conn.frame[slot]:
                return None
            previous = slot
        return outputs, failures, seconds

    def _stamp_provenance(
        self, failure: UnitFailure, conn: _Connection, state: _UnitState
    ) -> UnitFailure:
        return replace(
            failure, worker=conn.worker_id,
            redispatches=max(0, state.dispatches - 1),
            heartbeat_misses=state.misses,
        )

    def _dispatch(self, conn: _Connection) -> None:
        if (
            self._draining
            or not conn.ready
            or conn.frame
            or not self._pending
        ):
            return
        take = min(self._frame_size, len(self._pending))
        frame = [self._pending.popleft() for _ in range(take)]
        for index in frame:
            state = self._states[index]
            state.dispatches += 1
            state.last_worker = conn.worker_id
            if state.dispatches > 1:
                self.stats["redispatches"] += 1
        conn.frame = frame
        if self._first_frame_at is None:
            self._first_frame_at = time.monotonic()
        self._queue_send(conn, ("frame", [
            (index, self._blobs[index], self._labels[index])
            for index in frame
        ]))
        self.stats["dispatches"] += take
        self.stats["frames"] += 1
        self.stats["largest_frame"] = max(self.stats["largest_frame"], take)

    # -- failure detection ---------------------------------------------

    def _scan_heartbeats(self, land) -> None:
        deadline = self._policy.heartbeat_deadline
        now = time.monotonic()
        for conn in list(self._connections.values()):
            silence = now - conn.last_seen
            if silence > deadline:
                misses = int(silence / self._policy.heartbeat_seconds)
                self._lose_worker(
                    conn,
                    land,
                    reason=(
                        f"missed {misses} heartbeats "
                        f"({silence:.2f}s silent)"
                    ),
                    misses=misses,
                )

    def _lose_worker(
        self, conn: _Connection, land, reason: str, misses: int = 0
    ) -> None:
        """Fence a dead/hung worker and requeue its in-flight frame."""
        conn.fenced = True
        fileno = conn.sock.fileno()
        if fileno in self._connections:
            del self._connections[fileno]
        with suppress(KeyError, ValueError):
            self._selector.unregister(conn.sock)
        with suppress(OSError):
            conn.sock.close()
        if conn.launch_index is not None:
            proc = self._procs.pop(conn.launch_index, None)
            if proc is not None:
                if proc.poll() is None:
                    # SIGKILL, not SIGTERM: a SIGSTOPped (hung) process
                    # never receives SIGTERM, but SIGKILL ends it even
                    # while stopped.
                    proc.kill()
                self._fenced[conn.launch_index] = proc
        if conn.ready:
            self.stats["workers_lost"] += 1
        frame, conn.frame = conn.frame, []
        requeue = []
        for index in frame:
            state = self._states[index]
            state.misses += misses
            state.last_worker = conn.worker_id or state.last_worker
            if state.dispatches < self._policy.max_dispatches:
                requeue.append(index)
                continue
            self._done_count += 1
            land(index, None, UnitFailure(
                index=index,
                label=self._labels[index],
                error=(
                    f"worker {state.last_worker!r} lost ({reason}) and "
                    f"unit exhausted its {self._policy.max_dispatches} "
                    f"dispatch(es)"
                ),
                traceback="",
                attempts=state.dispatches,
                worker=state.last_worker,
                redispatches=max(0, state.dispatches - 1),
                heartbeat_misses=state.misses,
            ))
        # Back to the front, in order, and straight to idle survivors.
        self._pending.extendleft(reversed(requeue))
        for survivor in self._connections.values():
            if not self._pending:
                break
            self._dispatch(survivor)


# -- worker side -------------------------------------------------------


class WorkerSession:
    """One worker's dialogue with the coordinator, over any socket.

    Separated from :func:`worker_main` so tests can drive a session
    in-process against a ``socket.socketpair`` coordinator stub; the
    real entry point wraps it around a TCP connection.
    """

    def __init__(
        self,
        sock: socket.socket,
        faults: Sequence[WorkerFault] = (),
        launch_index: Optional[int] = None,
    ):
        self.sock = sock
        self.faults = tuple(faults)
        self.launch_index = launch_index
        self.worker_id = ""
        self._send_lock = threading.Lock()
        self._heartbeat_seconds = 0.5
        self._units_started = 0
        self._stop = threading.Event()

    def _send(self, message: Tuple) -> None:
        payload = encode_message(message)
        with self._send_lock:
            self.sock.sendall(payload)

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self._heartbeat_seconds):
            try:
                self._send(("heartbeat",))
            except OSError:
                return

    def _apply_faults(self) -> None:
        for fault in self.faults:
            if fault.kind == "slow-start":
                continue
            if fault.after_units != self._units_started:
                continue
            if fault.kind == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            elif fault.kind == "hang":
                os.kill(os.getpid(), signal.SIGSTOP)
            elif fault.kind == "delay":
                time.sleep(fault.seconds)

    def _starting(self, jobs: Sequence[WireJob]):
        """Yield a frame's ``(runner, payload)`` pairs decoded, counting
        each as it is started.

        Chaos triggers are ordinals of units *started*, so a scripted
        kill can fall in the middle of a frame.
        """
        for _index, blob, _label in jobs:
            self._units_started += 1
            self._apply_faults()
            yield pickle.loads(blob)

    def run(self) -> int:
        self._send(("hello", {
            "pid": os.getpid(),
            "launch": self.launch_index,
        }))
        message = recv_message(self.sock)
        if message is None or message[0] != "setup":
            return 1
        _, worker_id, policy, initializer, initargs = message
        self.worker_id = worker_id
        self._heartbeat_seconds = policy.heartbeat_seconds
        if initializer is not None:
            try:
                initializer(*initargs)
            except Exception:
                self._send((
                    "fatal",
                    _normalize_traceback(traceback_module.format_exc()),
                ))
                return 1
        heartbeat = threading.Thread(
            target=self._heartbeat_loop, daemon=True
        )
        heartbeat.start()
        try:
            while True:
                message = recv_message(self.sock)
                if message is None:
                    return 0
                kind = message[0]
                if kind == "shutdown":
                    return 0
                if kind != "frame":
                    continue
                jobs = message[1]
                indices = [job[0] for job in jobs]
                labels = [job[2] for job in jobs]
                reply = _encode_results(
                    _run_frame(indices, self._starting(jobs), labels, policy),
                    indices, labels,
                    lambda reply: encode_message(("results", *reply)),
                    self.worker_id,
                )
                with self._send_lock:
                    self.sock.sendall(reply)
        finally:
            self._stop.set()
            heartbeat.join(timeout=2.0)


def _parse_address(address: str) -> Tuple[str, int]:
    host, _, port = address.rpartition(":")
    if not host or not port:
        raise ValueError(
            f"worker address must be HOST:PORT, got {address!r}"
        )
    return host, int(port)


def _connect_with_retry(
    host: str, port: int, give_up_seconds: float = 20.0
) -> Optional[socket.socket]:
    """Dial the coordinator, retrying while it may still be binding."""
    deadline = time.monotonic() + give_up_seconds
    pause = 0.05
    while True:
        try:
            return socket.create_connection((host, port), timeout=5.0)
        except OSError:
            if time.monotonic() >= deadline:
                return None
            time.sleep(pause)
            pause = min(pause * 2, 0.5)


def worker_main(
    address: str,
    faults: Optional[Sequence[WorkerFault]] = None,
) -> int:
    """Entry point for one worker process: dial in and serve units.

    ``faults`` defaults to the worker's own chaos fault list from the
    environment (:data:`~repro.runtime.chaos.FAULTS_ENV`); slow-start
    faults delay the dial-in itself, which is how elastic mid-plan
    joins are exercised.  Returns a process exit status.
    """
    host, port = _parse_address(address)
    fault_list = tuple(faults) if faults is not None else faults_from_env()
    for fault in fault_list:
        if fault.kind == "slow-start":
            time.sleep(fault.seconds)
    launch_env = os.environ.get(LAUNCH_ENV)
    launch_index = int(launch_env) if launch_env is not None else None
    sock = _connect_with_retry(host, port)
    if sock is None:
        return 1
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return WorkerSession(
            sock, faults=fault_list, launch_index=launch_index
        ).run()
    finally:
        with suppress(OSError):
            sock.close()


def _main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.cluster",
        description="Run one cluster worker process that dials in to a "
        "coordinator (see also: python -m repro worker).",
    )
    parser.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="coordinator address to dial",
    )
    args = parser.parse_args(argv)
    return worker_main(args.connect)


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(_main())
