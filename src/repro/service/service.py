"""The asyncio shell around :class:`~repro.service.core.ServiceCore`.

:class:`ProtocolService` owns the tick loop: every ``tick_seconds`` of
clock time (wall or virtual) it advances the population by
``periods_per_tick`` protocol periods.  Because the core is
synchronous and the loop is single-threaded, every mutation and every
query is atomic with respect to each other -- concurrent clients can
never observe a half-applied event, which is the query-snapshot
consistency property the hypothesis suite hammers on.

The TCP endpoint speaks newline-delimited JSON, one request per line:

    {"op": "query", "q": "counts"}
    {"op": "event", "kind": "fail", "data": {"fraction": 0.2}}
    {"op": "what-if", "trials": 8, "periods": 200, "seed": 7}
    {"op": "metrics"}
    {"op": "stop"}

Responses mirror the shape: ``{"ok": true, "result": ...}`` or
``{"ok": false, "error": "..."}``.

Both ends of the socket are one line-framing ``asyncio.Protocol``
(:class:`_LineProtocol`).  The service's end answers inside
``data_received`` -- no task and no future per request; ``what-if``
alone is a task, and holds its connection so replies keep the order of
their requests -- and stops reading a peer that stops reading it.  A
reply is bytes: the line of a query without ``params`` is encoded once
per log sequence number and written as it is from then on, and a
request is bytes too: a segment that is one whole line is taken without
buffering it, and the line the client writes for a query without
``params`` (:data:`QUERY_LINES`) is answered without decoding it
(docs/service.md, "Cost of a read" and "Wire protocol").
"""

from __future__ import annotations

import asyncio
import json
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Mapping, Optional, Sequence

from ..experiment.experiment import Experiment
from .clock import WallClock
from .core import QUERY_OPS, ServiceCore


@dataclass(frozen=True)
class ScriptedEvent:
    """A membership event scheduled at a protocol period."""

    at_period: int
    kind: str
    data: Dict[str, Any]

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScriptedEvent":
        extra = {
            k: v for k, v in payload.items()
            if k not in ("at_period", "kind", "data")
        }
        data = dict(payload.get("data", {}))
        data.update(extra)  # allow flat {"at_period": 5, "kind": ..., ...}
        return cls(
            at_period=int(payload["at_period"]),
            kind=str(payload["kind"]),
            data=data,
        )


class ProtocolService:
    """Drive a service core on a clock, serving concurrent callers."""

    def __init__(
        self,
        core: ServiceCore,
        *,
        clock=None,
        tick_seconds: float = 1.0,
        periods_per_tick: int = 1,
        script: Sequence[ScriptedEvent] = (),
        max_periods: Optional[int] = None,
    ):
        if tick_seconds <= 0:
            raise ValueError(f"tick_seconds must be > 0, got {tick_seconds}")
        if periods_per_tick < 1:
            raise ValueError(
                f"periods_per_tick must be >= 1, got {periods_per_tick}"
            )
        self.core = core
        self.clock = clock if clock is not None else WallClock()
        self.tick_seconds = float(tick_seconds)
        self.periods_per_tick = int(periods_per_tick)
        self.script: List[ScriptedEvent] = sorted(
            script, key=lambda ev: ev.at_period
        )
        self._script_index = 0
        self.max_periods = max_periods
        self._task: Optional[asyncio.Task] = None
        self._stop: Optional[asyncio.Event] = None
        self._stopping: Optional[asyncio.Future] = None  # a client's stop
        self.finished: Optional[asyncio.Event] = None
        # What the ``metrics`` op reports: plain counters, no history.
        self.clients = 0
        self.requests = dict.fromkeys(
            ("query", "event", "what-if", "metrics", "stop"), 0
        )
        self.errors = 0
        self.replies_from_memo = 0
        self.replies_encoded = 0
        self.replies_canonical = 0
        self.ticks = 0
        self.tick_lag = 0.0
        self.tick_lag_max = 0.0
        # Encoded reply lines of param-less queries, per log.next_seq.
        self._lines: Dict[str, bytes] = {}
        self._lines_seq = -1

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._task is not None:
            raise RuntimeError("service already started")
        self._stop = asyncio.Event()
        self.finished = asyncio.Event()
        self.core.start()
        self._apply_due_script()
        self._task = asyncio.create_task(self._run(), name="protocol-ticks")

    async def _run(self) -> None:
        try:
            due = self.clock.time() + self.tick_seconds
            while not self._stop.is_set():
                if await self._sleep_or_stop(self.tick_seconds):
                    break
                # Lag: how much more than tick_seconds after the last
                # tick began this one does (0.0 on a virtual clock).
                woke = self.clock.time()
                self.tick_lag = woke - due
                self.tick_lag_max = max(self.tick_lag_max, self.tick_lag)
                due = woke + self.tick_seconds
                self.core.tick(self.periods_per_tick)
                self.ticks += 1
                self._apply_due_script()
                if (
                    self.max_periods is not None
                    and self.core.live.period >= self.max_periods
                ):
                    break
        finally:
            self.finished.set()

    async def _sleep_or_stop(self, delay: float) -> bool:
        """Sleep on the service clock; True if stop arrived first."""
        sleeper = asyncio.ensure_future(self.clock.sleep(delay))
        stopper = asyncio.ensure_future(self._stop.wait())
        done, pending = await asyncio.wait(
            (sleeper, stopper), return_when=asyncio.FIRST_COMPLETED
        )
        for task in pending:
            task.cancel()
        return stopper in done

    def _apply_due_script(self) -> None:
        while (
            self._script_index < len(self.script)
            and self.script[self._script_index].at_period
            <= self.core.live.period
        ):
            event = self.script[self._script_index]
            self._script_index += 1
            self.core.apply_event(event.kind, event.data)

    async def stop(self, *, close: bool = True) -> None:
        """Halt the tick loop; optionally log an orderly close.

        Idempotent and safe to call concurrently (signal handler plus
        main coroutine): the first caller through joins the tick task
        and closes the core; later callers find nothing left to do.
        """
        if self._stop is None:
            return
        self._stop.set()
        await self.finished.wait()
        task, self._task = self._task, None
        if task is not None:
            await asyncio.gather(task, return_exceptions=True)
        if close and self.core.started and not self.core.closed:
            self.core.close()

    async def run_to_completion(self) -> None:
        """Wait for the loop to end on its own (``max_periods``)."""
        await self.finished.wait()
        await self.stop()

    # ------------------------------------------------------------------
    # Client surface (atomic: the core runs inside the event loop)
    # ------------------------------------------------------------------
    async def submit(self, kind: str, data: Mapping[str, Any]) -> Dict[str, Any]:
        return self.core.apply_event(kind, data).to_dict()

    async def query(
        self, op: str, params: Optional[Mapping[str, Any]] = None
    ) -> Dict[str, Any]:
        return self.core.query(op, params)

    async def what_if(
        self,
        *,
        trials: int,
        periods: int,
        seed: Optional[int] = None,
        workers: int = 1,
        backend: str = "pool",
    ) -> Dict[str, Any]:
        """Fork a batch ensemble off the live state and summarize it.

        The fork recipe is captured synchronously (one consistent
        census); the ensemble then runs in a worker thread through the
        ordinary exec fan-out, so long what-ifs do not stall ticks.
        """
        forked_at = self.core.live.period
        experiment = Experiment.from_live(
            self.core.live, trials=trials, periods=periods, seed=seed,
            workers=workers, backend=backend,
        )
        loop = asyncio.get_running_loop()
        result = await loop.run_in_executor(None, experiment.run)
        return {
            "forked_at_period": forked_at,
            "trials": trials,
            "periods": periods,
            "n": experiment.point.n,
            "mean_final_counts": result.mean_final_counts(),
            "summary": result.summary(),
        }

    # ------------------------------------------------------------------
    # What the TCP endpoint writes (bytes, one line per reply)
    # ------------------------------------------------------------------
    def _encode(self, response: Dict[str, Any]) -> bytes:
        self.replies_encoded += 1
        return json.dumps(response).encode("utf-8") + b"\n"

    def _refusal(self, error: Exception) -> bytes:
        self.errors += 1
        return self._encode({"ok": False, "error": str(error)})

    def _query_line(self, op: Any, params: Any) -> bytes:
        """The reply line of a query, encoded at most once per census.

        The line of a query without ``params`` is remembered under the
        core's own rule for answers (:meth:`ServiceCore.query`): keyed
        on ``log.next_seq``, dropped at the next record, at most one
        per query op.  Anything else goes to the core, which validates
        it, and is never remembered.  Bytes are immutable, so what is
        remembered can be written to every client as it is.
        """
        if not (params is None or params == {}):
            return self._encode(
                {"ok": True, "result": self.core.query(op, params)}
            )
        seq = self.core.log.next_seq
        if self._lines_seq != seq:
            self._lines = {}
            self._lines_seq = seq
        line = self._lines.get(op) if isinstance(op, str) else None
        if line is None:
            line = self._encode({"ok": True, "result": self.core.query(op)})
            self._lines[op] = line
        else:
            self.replies_from_memo += 1
        return line

    def metrics(self) -> Dict[str, Any]:
        """The shell's counters, the ``{"op": "metrics"}`` reply.

        O(1) and pure: it reads no host, asks the core nothing and
        appends no record.  ``requests`` counts requests answered
        ``ok`` by op and ``errors`` the refused ones; every reply line
        was either ``encoded`` for that reply or served from the
        ``memo`` of reply lines, and ``canonical`` counts the replies
        to query lines recognised as :data:`QUERY_LINES` bytes, never
        decoded; ``tick_lag_seconds`` is how much
        later than ``tick_seconds`` after its predecessor a tick began,
        on the service clock.  `repro.obs` (ROADMAP item 1) adopts
        these counters when it lands.
        """
        return {
            "clients": self.clients,
            "requests": dict(self.requests),
            "errors": self.errors,
            "replies": {
                "memo": self.replies_from_memo,
                "encoded": self.replies_encoded,
                "canonical": self.replies_canonical,
            },
            "ticks": self.ticks,
            "tick_lag_seconds": {
                "last": self.tick_lag, "max": self.tick_lag_max,
            },
        }


# ----------------------------------------------------------------------
# Newline-JSON TCP endpoint
# ----------------------------------------------------------------------
#: Most bytes a line may hold before its newline.  A line of exactly
#: this many is taken; one byte more is "request line too long".
LINE_LIMIT = 2 ** 16

#: The line :meth:`ServiceClient.query` writes for each query op asked
#: without params.  The service looks a line up here before decoding
#: it: these bytes decode to ``_query_line(op, None)``, so a hit goes
#: there directly.  Any other spelling of the same request is decoded.
QUERY_LINES: Dict[str, bytes] = {
    op: json.dumps({"op": "query", "q": op, "params": None}).encode() + b"\n"
    for op in QUERY_OPS
}
_QUERY_OF_LINE: Dict[bytes, str] = {
    line: op for op, line in QUERY_LINES.items()
}


class _LineProtocol(asyncio.Protocol):
    """Newline framing, the one wire format of both ends of the socket.

    A subclass gets ``line_received(line)`` for each line in turn (its
    newline included, so JSON error positions read as the peer sent
    them) and ``line_too_long()`` for one past :data:`LINE_LIMIT`.
    Lines are taken only while nothing holds the connection: a hold
    also pauses reading, so what a held connection buffers is bounded
    by the segment that was being parsed when the hold began.
    """

    def __init__(self) -> None:
        self.transport: Optional[asyncio.Transport] = None
        self._buffer = bytearray()
        self._scanned = 0  # leading bytes of the buffer with no newline
        self._overlong = False  # dropping a line that outgrew the limit
        self._holds = 0  # reasons not to take the next line
        self._eof = False

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        # A segment that is one whole line, with nothing before it and
        # nothing to wait for, is that line: it skips the buffer.
        if (
            not (self._buffer or self._holds or self._overlong)
            and 0 <= data.find(b"\n") == len(data) - 1 <= LINE_LIMIT
        ):
            self.line_received(data)
        else:
            self._buffer += data
            self._take_lines()

    def eof_received(self) -> bool:
        """The peer sent its last byte; what is unterminated is a line."""
        self._eof = True
        if not self._holds:
            rest = bytes(self._buffer)
            self._buffer.clear()
            if self._overlong:
                self.line_too_long()
            elif rest:
                self.line_received(rest)
        # Stay open for a reply still owed; release() closes after it.
        return self._holds > 0

    def _take_lines(self) -> None:
        buffer = self._buffer
        while not self._holds:
            end = buffer.find(b"\n", self._scanned)
            if end < 0:
                self._scanned = len(buffer)
                if self._scanned > LINE_LIMIT:
                    # Drop an oversized line as it arrives, up to its
                    # newline, and only then refuse it: closing a
                    # socket with unread bytes resets the connection,
                    # and the peer would lose the error reply with it.
                    self._overlong = True
                    buffer.clear()
                    self._scanned = 0
                return
            line = bytes(buffer[:end + 1])
            del buffer[:end + 1]
            self._scanned = 0
            if self._overlong or end > LINE_LIMIT:
                self._overlong = False
                self.line_too_long()
            else:
                self.line_received(line)

    def hold(self) -> None:
        """Stop reading and taking lines until the matching release."""
        self._holds += 1
        self.transport.pause_reading()

    def release(self) -> None:
        self._holds -= 1
        if not self._holds:
            self.transport.resume_reading()
            self._take_lines()
            if self._eof and not self._holds:
                self.transport.close()

    def finish(self) -> None:
        """Close once what was written is flushed; take no further line."""
        self._holds += 1  # a hold nothing releases
        self.transport.close()

    def line_received(self, line: bytes) -> None:
        raise NotImplementedError

    def line_too_long(self) -> None:
        raise NotImplementedError


class _Connection(_LineProtocol):
    """The service's end of one client connection.

    ``query``, ``event``, ``metrics`` and ``stop`` are answered inside
    ``data_received``: the core is synchronous, so a request costs no
    task and no future.  ``what-if`` is the connection's one pending
    task, and holds the connection until it is answered so replies
    leave in the order their requests arrived.  A peer that stops
    reading its replies is held the same way.
    """

    def __init__(self, service: ProtocolService) -> None:
        super().__init__()
        self.service = service
        self._task: Optional[asyncio.Task] = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        super().connection_made(transport)
        self.service.clients += 1

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.service.clients -= 1
        if self._task is not None:
            self._task.cancel()

    def pause_writing(self) -> None:
        self.hold()

    def resume_writing(self) -> None:
        self.release()

    def line_too_long(self) -> None:
        self.transport.write(
            self.service._refusal(ValueError("request line too long"))
        )
        self.finish()

    def line_received(self, line: bytes) -> None:
        service = self.service
        try:
            q = _QUERY_OF_LINE.get(line)
            if q is not None:  # answered as its decoded form would be
                op, reply = "query", service._query_line(q, None)
                service.replies_canonical += 1
            else:
                request = json.loads(line)
                if not isinstance(request, dict):
                    raise ValueError("request must be a JSON object")
                op = request.get("op")
                reply = self._answer(op, request)
                if reply is None:  # a what-if: answered when it ends
                    return
            service.requests[op] += 1
        except Exception as exc:  # protocol surface: report, don't die
            self.transport.write(service._refusal(exc))
            return
        self.transport.write(reply)
        if op == "stop":
            # The reply is on its way: close this connection and halt
            # the ticks; the caller awaits the service's end.
            self.finish()
            service._stopping = asyncio.ensure_future(service.stop())

    def _answer(self, op: Any, request: Dict[str, Any]) -> Optional[bytes]:
        """The reply line of a decoded request; None for a what-if."""
        service = self.service
        if op == "query":
            return service._query_line(request["q"], request.get("params"))
        if op == "event":
            return service._encode({"ok": True, "result": (
                service.core.apply_event(
                    request["kind"], request.get("data", {})
                ).to_dict()
            )})
        if op == "what-if":
            self.hold()
            self._task = asyncio.ensure_future(self._what_if(request))
            return None
        if op == "metrics":
            return service._encode({"ok": True, "result": service.metrics()})
        if op == "stop":
            return service._encode({"ok": True, "result": "stopping"})
        raise ValueError(f"unknown op {op!r}")

    async def _what_if(self, request: Dict[str, Any]) -> None:
        service = self.service
        try:
            result = await service.what_if(
                trials=int(request.get("trials", 4)),
                periods=int(request.get("periods", 100)),
                seed=request.get("seed"),
                workers=int(request.get("workers", 1)),
                backend=str(request.get("backend", "pool")),
            )
            reply = service._encode({"ok": True, "result": result})
            service.requests["what-if"] += 1
        except Exception as exc:  # protocol surface: report, don't die
            reply = service._refusal(exc)
        self._task = None
        self.transport.write(reply)
        self.release()


async def serve_tcp(
    service: ProtocolService, host: str = "127.0.0.1", port: int = 0
) -> asyncio.AbstractServer:
    """Expose a service over newline-JSON TCP; port 0 = ephemeral."""
    return await asyncio.get_running_loop().create_server(
        lambda: _Connection(service), host, port
    )


class ServiceClient(_LineProtocol):
    """Minimal line-JSON client for tests and the CLI smoke.

    Replies come back in the order requests were written, so any
    number of coroutines may share one client: each request joins a
    FIFO of waiters and takes the reply that is its turn.
    """

    def __init__(self) -> None:
        super().__init__()
        self._waiters: Deque[asyncio.Future] = deque()
        self._writable: Optional[asyncio.Future] = None  # set: buffer full
        self._lost = asyncio.Event()

    @classmethod
    async def connect(cls, host: str, port: int) -> "ServiceClient":
        loop = asyncio.get_running_loop()
        _, client = await loop.create_connection(cls, host, port)
        return client

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._fail(ConnectionError("service closed the connection"))
        if self._writable is not None:
            self.resume_writing()
        self._lost.set()

    def _fail(self, error: Exception) -> None:
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():
                waiter.set_exception(error)

    def pause_writing(self) -> None:
        self._writable = asyncio.get_running_loop().create_future()

    def resume_writing(self) -> None:
        writable, self._writable = self._writable, None
        if not writable.done():
            writable.set_result(None)

    def line_received(self, line: bytes) -> None:
        # A reply nobody asked for has no waiter; one whose asker was
        # cancelled still takes its turn, so later replies stay aligned.
        if self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():
                waiter.set_result(line)

    def line_too_long(self) -> None:
        self._fail(ValueError("reply line too long"))
        self.finish()

    async def request(self, payload: Dict[str, Any]) -> Any:
        return await self._send(json.dumps(payload).encode("utf-8") + b"\n")

    async def _send(self, line: bytes) -> Any:
        while self._writable is not None:  # what drain() waited for
            await self._writable
        if self.transport.is_closing():
            raise ConnectionError("service closed the connection")
        waiter = asyncio.get_running_loop().create_future()
        self._waiters.append(waiter)
        self.transport.write(line)
        response = json.loads(await waiter)
        if not response.get("ok"):
            raise RuntimeError(f"service error: {response.get('error')}")
        return response["result"]

    async def query(
        self, q: str, params: Optional[Dict[str, Any]] = None
    ) -> Any:
        if params is None and isinstance(q, str) and q in QUERY_LINES:
            return await self._send(QUERY_LINES[q])
        return await self.request({"op": "query", "q": q, "params": params})

    async def event(self, kind: str, data: Optional[Dict[str, Any]] = None) -> Any:
        return await self.request({"op": "event", "kind": kind, "data": data or {}})

    async def what_if(self, **kwargs) -> Any:
        return await self.request({"op": "what-if", **kwargs})

    async def stop(self) -> Any:
        return await self.request({"op": "stop"})

    async def close(self) -> None:
        """Close the connection and wait until it is gone; idempotent."""
        self.transport.close()
        await self._lost.wait()
