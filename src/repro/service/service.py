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
    {"op": "stop"}

Responses mirror the shape: ``{"ok": true, "result": ...}`` or
``{"ok": false, "error": "..."}``.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..experiment.experiment import Experiment
from .clock import WallClock
from .core import ServiceCore


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
        self.finished: Optional[asyncio.Event] = None

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
            while not self._stop.is_set():
                if await self._sleep_or_stop(self.tick_seconds):
                    break
                self.core.tick(self.periods_per_tick)
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
            "n": experiment.n,
            "mean_final_counts": result.mean_final_counts(),
            "summary": result.summary(),
        }


# ----------------------------------------------------------------------
# Newline-JSON TCP endpoint
# ----------------------------------------------------------------------
async def _read_request(reader: asyncio.StreamReader) -> Optional[bytes]:
    """The next request line; ``None`` for one longer than the reader's limit.

    ``readline`` raises on such a line from wherever the scan stopped.
    Here the line is read to its newline and dropped first: closing a
    socket with unread bytes resets the connection, and the peer would
    lose the error reply with it.
    """
    too_long = False
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            line = exc.partial  # end of stream, as readline reports it
        except asyncio.LimitOverrunError as exc:
            await reader.readexactly(exc.consumed)
            too_long = True
            continue
        return None if too_long else line


async def _handle_client(
    service: ProtocolService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    async def send(response: Dict[str, Any]) -> None:
        writer.write(json.dumps(response).encode("utf-8") + b"\n")
        await writer.drain()

    try:
        while True:
            line = await _read_request(reader)
            if line is None:
                await send({"ok": False, "error": "request line too long"})
                break
            if not line:
                break
            try:
                request = json.loads(line)
                response = {
                    "ok": True,
                    "result": await _dispatch(service, request),
                }
            except Exception as exc:  # protocol surface: report, don't die
                response = {"ok": False, "error": str(exc)}
            await send(response)
            if response.get("result") == "stopping":
                break
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _dispatch(service: ProtocolService, request: Any) -> Any:
    if not isinstance(request, dict):
        raise ValueError("request must be a JSON object")
    op = request.get("op")
    if op == "query":
        return await service.query(request["q"], request.get("params"))
    if op == "event":
        return await service.submit(request["kind"], request.get("data", {}))
    if op == "what-if":
        return await service.what_if(
            trials=int(request.get("trials", 4)),
            periods=int(request.get("periods", 100)),
            seed=request.get("seed"),
            workers=int(request.get("workers", 1)),
            backend=str(request.get("backend", "pool")),
        )
    if op == "stop":
        # Stop after this response is flushed: the handler sees the
        # sentinel and closes; the caller awaits the service's end.
        asyncio.get_running_loop().call_soon(
            lambda: asyncio.ensure_future(service.stop())
        )
        return "stopping"
    raise ValueError(f"unknown op {op!r}")


async def serve_tcp(
    service: ProtocolService, host: str = "127.0.0.1", port: int = 0
) -> asyncio.AbstractServer:
    """Expose a service over newline-JSON TCP; port 0 = ephemeral."""
    return await asyncio.start_server(
        lambda r, w: _handle_client(service, r, w), host, port
    )


class ServiceClient:
    """Minimal line-JSON client for tests and the CLI smoke."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer

    @classmethod
    async def connect(cls, host: str, port: int) -> "ServiceClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def request(self, payload: Dict[str, Any]) -> Any:
        self._writer.write(json.dumps(payload).encode("utf-8") + b"\n")
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("service closed the connection")
        response = json.loads(line)
        if not response.get("ok"):
            raise RuntimeError(f"service error: {response.get('error')}")
        return response["result"]

    async def query(
        self, q: str, params: Optional[Dict[str, Any]] = None
    ) -> Any:
        return await self.request({"op": "query", "q": q, "params": params})

    async def event(self, kind: str, data: Optional[Dict[str, Any]] = None) -> Any:
        return await self.request({"op": "event", "kind": kind, "data": data or {}})

    async def what_if(self, **kwargs) -> Any:
        return await self.request({"op": "what-if", **kwargs})

    async def stop(self) -> Any:
        return await self.request({"op": "stop"})

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
