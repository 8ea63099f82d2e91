"""The cluster backend: process-isolated workers on TCP sockets.

:func:`~repro.runtime.exec.run_plan`'s default ``pool`` backend is
forked children on pipes -- fast, but a hung child stalls it and the
worker count is fixed at fork time.  This module is the
``backend="cluster"`` alternative: a **coordinator** (in the calling
process) and **workers** that are fully independent OS processes
speaking a length-prefixed pickle protocol over TCP sockets.  Workers
are spawned locally today and dial in over the same protocol a remote
(SSH- or k8s-launched) worker would use; ``python -m repro worker
--connect HOST:PORT`` starts a standalone one that can join a plan
already in flight.  The coordinator is the socket transport of
:class:`~repro.runtime.dispatch.Dispatcher`, the unit table the pool
drives over pipes: frames, frame sizing, re-dispatch and the
lost-worker rule live there, once.

Robustness model
----------------

* **Heartbeats.**  Every worker sends a heartbeat on an interval
  (``FaultPolicy.heartbeat_seconds``); any message counts as liveness.
  A worker silent for ``heartbeat_seconds * heartbeat_misses`` is
  *fenced*: its socket is closed, its process (if locally spawned) is
  SIGKILLed -- a fenced worker can never land a stale result.
* **Frames and re-dispatch.**  A worker gets the plan once, in its
  ``setup`` message: every unit's blob, pickled once per plan
  (:func:`~repro.runtime.exec._encode_units`), and every label -- a
  worker that joins mid-plan gets it the same way.  A frame is then
  ``("frame", start, stop)``, a range of that plan, exactly as a pool
  child's is, and the worker answers with the pool child's
  ``("results", outputs, failures, seconds)`` columns.  Nothing a
  worker sends names a unit: the coordinator stamps a failure's unit
  and provenance from the frame it sent.  A fenced or dead worker's
  units go out again as the *same* range of the *same* plan, so
  results cannot change (plan contract clause 5), until one out-lives
  ``FaultPolicy.max_dispatches`` workers and becomes a
  :class:`~repro.runtime.exec.UnitFailure` with provenance (last
  worker id, re-dispatch count, heartbeat misses) that follows
  ``on_error`` -- so campaign checkpoint/resume composes unchanged.
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
from repro.runtime.dispatch import Dispatcher
from repro.runtime.exec import Failures, FaultPolicy, UnitFailure, _serve_frame

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


class MessageBuffer:
    """The one decoder: reassembles framed messages from a byte stream."""

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

    def receive(self, sock: socket.socket) -> Optional[Tuple]:
        """The next message from blocking ``sock`` (None on EOF)."""
        message = self.pop()
        while message is None:
            chunk = sock.recv(1 << 20)
            if not chunk:
                return None
            self.feed(chunk)
            message = self.pop()
        return message


@dataclass(eq=False)
class _Connection:
    """Coordinator-side state for one connected worker (a table key)."""

    sock: socket.socket
    last_seen: float
    worker_id: str = ""
    launch_index: Optional[int] = None
    ready: bool = False
    fenced: bool = False
    buffer: MessageBuffer = field(default_factory=MessageBuffer)
    outbox: bytearray = field(default_factory=bytearray)


class ClusterCoordinator:
    """Runs one encoded plan over socket-connected worker processes.

    Instantiated by :func:`~repro.runtime.exec.run_plan` with the plan
    already serialized (``blobs`` from ``_encode_units``);
    ``run_frames`` drives the event loop in the calling thread and
    lands every reply through the same ``land(start, outputs,
    failures)`` callback the pool backend uses, so fault-policy
    semantics are identical (``run`` lands unit by unit instead).
    """

    def __init__(
        self,
        label: str,
        blobs: Sequence[bytes],
        labels: Sequence[str],
        policy: FaultPolicy,
        workers: int,
        chaos: Optional[ChaosSchedule] = None,
    ):
        self.label = label
        self._blobs = list(blobs)
        #: The unit table; ``run_frames`` hands it the landing callback.
        self._table = Dispatcher(label, list(labels), policy, workers, None)
        self._chaos = chaos if chaos is not None else ChaosSchedule.from_env()
        self._host = os.environ.get(HOST_ENV, "127.0.0.1")
        self._port = int(os.environ.get(PORT_ENV, "0"))
        self._connections: Dict[int, _Connection] = {}
        self._procs: Dict[int, subprocess.Popen] = {}
        self._fenced: Dict[int, subprocess.Popen] = {}
        self._next_worker_id = 0
        self._first_frame_at: Optional[float] = None
        self._selector: Optional[selectors.BaseSelector] = None
        self._listener: Optional[socket.socket] = None
        self._counts = dict.fromkeys(
            ("spawned", "external_joins", "workers_lost"), 0
        )

    @property
    def stats(self) -> Dict[str, int]:
        """Observable run statistics (tests and the benchmark read these)."""
        table = self._table
        return {
            **self._counts, "redispatches": table.redispatches,
            "dispatches": table.cursor + table.redispatches,
            "frames": table.frames, "spares": table.spares,
            "largest_frame": table.largest,
        }

    # -- lifecycle -----------------------------------------------------

    def run(self, land: Callable[[int, Any, Optional[UnitFailure]], None]):
        """Execute the plan, landing every unit through ``land(index,
        output, failure)``, for a caller that lands unit by unit."""
        def land_frame(start: int, outputs: List[Any], failures: Failures):
            failed = dict(failures)
            for slot, output in enumerate(outputs):
                land(start + slot, output, failed.get(slot))

        self.run_frames(land_frame)

    def run_frames(self, land: Callable[[int, List[Any], Failures], None]):
        """Execute the plan, landing each reply whole through the
        dispatcher's ``land(start, outputs, failures)``."""
        table = self._table
        table.land = land
        started = time.monotonic()
        previous_sigterm = None
        in_main_thread = (
            threading.current_thread() is threading.main_thread()
        )
        if in_main_thread and hasattr(signal, "SIGTERM"):
            def drain(signum, frame):
                table.draining = True

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
            self._event_loop()
        finally:
            self._cleanup()
            if previous_sigterm is not None:
                signal.signal(signal.SIGTERM, previous_sigterm)
        ended = time.monotonic()
        table.log(
            ended - started, (self._first_frame_at or ended) - started,
            self._counts["spawned"],
        )
        if table.landed < table.total:
            raise ClusterDrained(self.label, table.landed, table.total)

    def _event_loop(self) -> None:
        tick = min(0.5, max(0.01, self._table.policy.heartbeat_seconds / 4.0))
        while not self._table.finished():
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
                    self._read(conn)
            self._scan_heartbeats()
            if not (
                self._table.finished() or self._connections
                or self._live_spawns()
                or self._counts["spawned"] < self._table.spawn_budget
            ):
                raise self._table.stalled(
                    f"pin {PORT_ENV} and attach standalone workers, or "
                    f"raise FaultPolicy.max_dispatches"
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
        procs = [*self._procs.values(), *self._fenced.values()]
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
        for proc in procs:
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
        for launch_index, proc in list(self._procs.items()):
            if proc.poll() is not None:
                del self._procs[launch_index]
        connected = {conn.launch_index for conn in self._connections.values()}
        return [index for index in self._procs if index not in connected]

    def _maintain_workers(self) -> None:
        live = len(self._connections) + len(self._live_spawns())
        for _ in range(self._table.spawns(live, self._counts["spawned"])):
            self._spawn_worker()

    def _spawn_worker(self) -> None:
        launch_index = self._counts["spawned"]
        self._counts["spawned"] += 1
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

    def _queue_send(self, conn: _Connection, message: Tuple) -> None:
        conn.outbox.extend(encode_message(message))
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
        events = selectors.EVENT_READ
        if conn.outbox:
            events |= selectors.EVENT_WRITE
        with suppress(KeyError):
            self._selector.modify(conn.sock, events, conn)

    def _read(self, conn: _Connection) -> None:
        while True:
            try:
                chunk = conn.sock.recv(1 << 20)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._lose_worker(conn, "connection error")
                return
            if not chunk:
                self._lose_worker(conn, "connection closed")
                return
            conn.buffer.feed(chunk)
        conn.last_seen = time.monotonic()
        while not conn.fenced:
            try:
                message = conn.buffer.pop()
            except Exception:
                self._lose_worker(conn, "protocol error")
                return
            if message is None:
                return
            self._handle_message(conn, message)

    def _handle_message(self, conn: _Connection, message: Any) -> None:
        """Act on one decoded message; a malformed one fences its sender.

        The bytes come from another process, so nothing about their
        shape is assumed: whatever is not one of the three worker
        messages, well formed, costs the worker its connection and
        sends its frames back to the queue.
        """
        kind = message[0] if isinstance(message, tuple) and message else None
        if kind == "hello":
            info = message[1] if len(message) > 1 else {}
            conn.worker_id = f"w{self._next_worker_id}"
            self._next_worker_id += 1
            launch = info.get("launch") if isinstance(info, dict) else None
            conn.launch_index = launch
            if launch is None:
                self._counts["external_joins"] += 1
            table = self._table
            self._queue_send(
                conn, ("setup", table.policy, self._blobs, table.labels)
            )
            conn.ready = True
            self._dispatch(conn)
        elif kind == "heartbeat":
            pass  # liveness already recorded in _read
        elif kind == "results":
            reply = self._frame_reply(conn, message)
            if reply is None:
                self._lose_worker(conn, "protocol error")
                return
            outputs, failures, seconds = reply
            table = self._table
            frame = table.result(conn, seconds)
            stamped = []
            for slot, failure in failures:
                index = frame[slot]  # the coordinator names the unit
                stamped.append((slot, replace(
                    failure, index=index, label=table.labels[index],
                    worker=conn.worker_id,
                    redispatches=table.dispatches(index) - 1,
                    heartbeat_misses=table.misses(index),
                )))
            table.land_frame(frame, outputs, stamped)
            self._dispatch(conn)
        else:
            self._lose_worker(conn, "protocol error")

    def _frame_reply(
        self, conn: _Connection, message: Tuple
    ) -> Optional[Tuple[List[Any], Failures, float]]:
        """``(outputs, failures, seconds)`` of ``conn``'s oldest frame,
        or None.

        A ``results`` message is taken only if it answers exactly the
        oldest frame this connection holds: one output per unit, and each
        failure a :class:`UnitFailure` in a slot of the frame (None
        there in ``outputs``), slots rising -- so no worker can land a
        unit it was not dispatched or a unit twice.  A failure is the
        unit of its slot, whatever the record says.
        """
        frame = self._table.flight.get(conn)
        if len(message) != 4 or frame is None:
            return None
        _, outputs, failures, seconds = message
        if not isinstance(outputs, list) or len(outputs) != len(frame):
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
            previous = slot
        return outputs, failures, seconds

    def _dispatch(self, conn: _Connection) -> None:
        """Send ``conn`` the frames it may take: its next frame if it is
        idle, a spare if it is busy."""
        if not conn.ready:
            return
        while (frame := self._table.cut(conn, conn.worker_id)) is not None:
            if self._first_frame_at is None:
                self._first_frame_at = time.monotonic()
            self._queue_send(conn, ("frame", frame.start, frame.stop))

    # -- failure detection ---------------------------------------------

    def _scan_heartbeats(self) -> None:
        seconds = self._table.policy.heartbeat_seconds
        now = time.monotonic()
        for conn in list(self._connections.values()):
            silence = now - conn.last_seen
            if silence > self._table.policy.heartbeat_deadline:
                misses = int(silence / seconds)
                self._lose_worker(
                    conn, f"missed {misses} heartbeats ({silence:.2f}s "
                    f"silent)", misses,
                )

    def _lose_worker(
        self, conn: _Connection, reason: str, misses: int = 0
    ) -> None:
        """Fence a dead/hung worker; the table takes back its frames."""
        conn.fenced = True
        self._connections.pop(conn.sock.fileno(), None)
        with suppress(KeyError, ValueError):
            self._selector.unregister(conn.sock)
        with suppress(OSError):
            conn.sock.close()
        proc = self._procs.pop(conn.launch_index, None)
        if proc is not None:
            if proc.poll() is None:
                # SIGKILL, not SIGTERM: a SIGSTOPped (hung) process
                # never receives SIGTERM, but SIGKILL ends it even
                # while stopped.
                proc.kill()
            self._fenced[conn.launch_index] = proc
        if conn.ready:
            self._counts["workers_lost"] += 1
        self._table.lose(conn, reason, misses)
        for survivor in list(self._connections.values()):
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
        self._send_lock = threading.Lock()
        self._heartbeat_seconds = 0.5
        self._units_started = 0
        self._stop = threading.Event()
        self._buffer = MessageBuffer()

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

    def _starting(self, blobs: Sequence[bytes]):
        """Yield a frame's ``(runner, payload)`` pairs decoded, counting
        each as it is started.

        Chaos triggers are ordinals of units *started*, so a scripted
        kill can fall in the middle of a frame.
        """
        for blob in blobs:
            self._units_started += 1
            self._apply_faults()
            yield pickle.loads(blob)

    def run(self) -> int:
        self._send(("hello", {
            "pid": os.getpid(),
            "launch": self.launch_index,
        }))
        message = self._buffer.receive(self.sock)
        if message is None or message[0] != "setup":
            return 1
        _, policy, blobs, labels = message
        self._heartbeat_seconds = policy.heartbeat_seconds
        heartbeat = threading.Thread(
            target=self._heartbeat_loop, daemon=True
        )
        heartbeat.start()
        try:
            while True:
                message = self._buffer.receive(self.sock)
                if message is None or message[0] == "shutdown":
                    return 0
                if message[0] != "frame":
                    continue
                _, start, stop = message
                reply = _serve_frame(
                    range(start, stop), self._starting(blobs[start:stop]),
                    labels, policy,
                    lambda reply: encode_message(("results", *reply)),
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
            sock = socket.create_connection((host, port), timeout=5.0)
            sock.settimeout(None)  # a worker may idle long between frames
            return sock
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
