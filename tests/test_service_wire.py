"""The live service at its byte boundary (repro.service.service).

Both ends of the socket are one newline-framing ``asyncio.Protocol``.
Most tests here drive the service's end of a connection directly -- a
recording transport, ``data_received`` called with exactly the segments
the test wants -- so "one byte per segment" means one byte per segment
and nothing waits on a kernel; a hypothesis property cuts drawn request
streams into arbitrary segments the same way.  The rest use real
loopback sockets on a :class:`VirtualClock`; no test sleeps.
"""

import asyncio
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service import (
    LiveConfig,
    LiveEngine,
    ProtocolService,
    ServiceClient,
    ServiceCore,
    VirtualClock,
    serve_tcp,
)
from repro.service.core import QUERY_OPS
from repro.service.service import (
    LINE_LIMIT,
    QUERY_LINES,
    _Connection,
    _LineProtocol,
)
from repro.store import MemoryEventLog


def run(coro):
    return asyncio.run(coro)


def make_service(n=100, clock=None):
    core = ServiceCore(
        LiveEngine(LiveConfig(protocol="endemic", n=n, seed=42)),
        log=MemoryEventLog(),
    )
    return ProtocolService(
        core, clock=clock or VirtualClock(), tick_seconds=1.0
    )


def line(request):
    return json.dumps(request).encode() + b"\n"


def respaced(request):
    return json.dumps(request, separators=(",", ":")).encode() + b"\n"


def ok_line(result):
    return line({"ok": True, "result": result})


STATUS = line({"op": "query", "q": "status"})


class RecordingTransport:
    """What a connection wrote, and whether it would still be read."""

    def __init__(self):
        self.written = []
        self.reading = True
        self.closed = False

    def write(self, data):
        self.written.append(bytes(data))

    def pause_reading(self):
        self.reading = False

    def resume_reading(self):
        self.reading = True

    def close(self):
        self.closed = True

    def is_closing(self):
        return self.closed

    def replies(self):
        return [json.loads(data) for data in self.written]


async def connected(service):
    """A started service and its end of one scripted connection."""
    await service.start()
    connection = _Connection(service)
    transport = RecordingTransport()
    connection.connection_made(transport)
    return connection, transport


def fed(segments):
    """Replies, metrics and closed flag of a fresh service fed these
    segments in turn; one byte per segment is the framing oracle.

    Checks on the way that a segment answered only by refusals
    appended no log record.
    """
    async def body():
        service = make_service()
        connection, transport = await connected(service)
        for segment in segments:
            seq, replies = service.core.log.next_seq, len(transport.written)
            connection.data_received(segment)
            if transport.written[replies:] and all(
                reply.startswith(b'{"ok": false')
                for reply in transport.written[replies:]
            ):
                assert service.core.log.next_seq == seq
        metrics = service.metrics()
        await service.stop()
        return transport.written, metrics, transport.closed

    return run(body())


def one_byte_each(stream):
    return [stream[i:i + 1] for i in range(len(stream))]


def padded(size):
    """A query line of ``size`` bytes before its newline."""
    head = b'{"op": "query", "q": "'
    return head + b"x" * (size - len(head) - 2) + b'"}'


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
class TestFraming:
    def test_one_byte_per_segment(self):
        async def body():
            service = make_service()
            connection, transport = await connected(service)
            for byte in STATUS[:-1]:
                connection.data_received(bytes([byte]))
                assert transport.written == []
            connection.data_received(b"\n")
            assert transport.written == [
                ok_line(service.core.query("status"))
            ]
            await service.stop()

        run(body())

    def test_five_requests_in_one_segment_are_answered_in_order(self):
        async def body():
            service = make_service()
            connection, transport = await connected(service)
            ops = ["counts", "nope", "status", "majority", "fractions"]
            connection.data_received(
                b"".join(line({"op": "query", "q": q}) for q in ops)
                + STATUS[:7]  # and the head of a sixth
            )
            replies = transport.replies()
            assert [r["ok"] for r in replies] == [True, False, True, True, True]
            assert [r.get("result") for r in replies] == [
                service.core.query(q) if q != "nope" else None for q in ops
            ]
            connection.data_received(STATUS[7:])
            assert len(transport.written) == 6
            await service.stop()

        run(body())

    @pytest.mark.parametrize("garbage, named", [
        (b"\xff\xfe{}\n", "codec can't decode"),
        (b'{"op": "que\xc3\n', "codec can't decode"),
        (b"[1, 2]\n", "request must be a JSON object"),
        (b'"status"\n', "request must be a JSON object"),
        (b"\n", "Expecting value"),
        (b'{"op": "query"\n', "Expecting"),
        (b'{"op": ["query"]}\n', "unknown op ['query']"),
        (b'{"op": "query", "q": ["status"]}\n', "unknown query op ['status']"),
        (b'{"op": "query"}\n', "'q'"),
    ])
    def test_garbage_gets_an_error_reply_and_the_connection_survives(
        self, garbage, named
    ):
        async def body():
            service = make_service()
            connection, transport = await connected(service)
            connection.data_received(STATUS + garbage + STATUS)
            first, refused, last = transport.replies()
            assert first == last == {
                "ok": True, "result": service.core.query("status"),
            }
            assert refused["ok"] is False and named in refused["error"]
            assert transport.reading and not transport.closed
            assert service.metrics()["errors"] == 1
            await service.stop()

        run(body())

    @pytest.mark.parametrize("segments", [1, 2, 1000])
    def test_line_limit_is_the_bytes_before_the_newline(self, segments):
        # Pinned: LINE_LIMIT bytes and then a newline is a request; one
        # byte more is refused, however the line is cut into segments
        # (found whole, or outgrowing the buffer before its newline).
        def cut(data):
            step = -(-len(data) // segments)
            return [data[i:i + step] for i in range(0, len(data), step)]

        async def body():
            assert LINE_LIMIT == 65536
            service = make_service()
            connection, transport = await connected(service)
            exact = padded(LINE_LIMIT)
            assert len(exact) == LINE_LIMIT
            for segment in cut(exact + b"\n"):
                connection.data_received(segment)
            (reply,) = transport.replies()
            assert "unknown query op 'xxx" in reply["error"]
            assert not transport.closed
            for segment in cut(padded(LINE_LIMIT + 1) + b"\n" + STATUS):
                connection.data_received(segment)
            assert transport.replies()[1:] == [
                {"ok": False, "error": "request line too long"}
            ]
            assert transport.closed  # and nothing after it is answered
            assert len(connection._buffer) <= LINE_LIMIT + len(STATUS)
            await service.stop()

        run(body())

    def test_oversized_line_is_dropped_as_it_arrives(self):
        async def body():
            service = make_service()
            connection, transport = await connected(service)
            for _ in range(64):
                connection.data_received(b"x" * 50_000)
                assert len(connection._buffer) <= LINE_LIMIT
            assert transport.written == []  # refused at its newline
            connection.data_received(b"x\n")
            assert transport.replies() == [
                {"ok": False, "error": "request line too long"}
            ]
            assert transport.closed
            await service.stop()

        run(body())

    @pytest.mark.parametrize("before, segment, skips", [
        (b"", STATUS, True),
        (b"", b"\n", True),
        (b"", padded(LINE_LIMIT) + b"\n", True),
        (b"", padded(LINE_LIMIT + 1) + b"\n", False),
        (b"", STATUS * 2, False),
        (b"", STATUS[:-1], False),
        (b"", b"", False),
        (STATUS[:9], STATUS, False),  # the rest of a line is buffered
        (b"x" * (LINE_LIMIT + 1), STATUS, False),  # dropping a long line
    ], ids=[
        "query", "empty-line", "at-limit", "over-limit", "two-lines",
        "no-newline", "no-bytes", "after-a-head", "while-dropping",
    ])
    def test_a_whole_line_segment_skips_the_buffer(
        self, monkeypatch, before, segment, skips
    ):
        buffered = []
        take = _LineProtocol._take_lines
        monkeypatch.setattr(
            _LineProtocol, "_take_lines",
            lambda self: (buffered.append(segment), take(self)),
        )
        answered = fed([before, segment] if before else [segment])
        assert len(buffered) == bool(before) + (not skips)
        assert answered == fed(one_byte_each(before + segment))

    def test_a_whole_line_waits_for_a_held_connection(self):
        async def body():
            service = make_service()
            connection, transport = await connected(service)
            connection.pause_writing()
            connection.data_received(STATUS)
            assert transport.written == [] and connection._buffer == STATUS
            connection.resume_writing()
            assert transport.written == [ok_line(service.core.query("status"))]
            await service.stop()

        run(body())

    def test_last_line_may_end_at_end_of_stream(self):
        async def body():
            service = make_service()
            connection, transport = await connected(service)
            connection.data_received(STATUS + STATUS[:-1])
            assert len(transport.written) == 1
            assert not connection.eof_received()  # falsy: close it
            assert transport.written == (
                [ok_line(service.core.query("status"))] * 2
            )
            await service.stop()

        run(body())

    def test_a_reply_owed_at_end_of_stream_is_still_sent(self, monkeypatch):
        async def body():
            service = make_service()
            connection, transport = await connected(service)
            gate = asyncio.Event()

            async def what_if(**kwargs):
                await gate.wait()
                return "forecast"

            monkeypatch.setattr(service, "what_if", what_if)
            connection.data_received(line({"op": "what-if"})[:-1])
            assert connection.eof_received()  # truthy: keep it open
            assert not transport.closed
            gate.set()
            await connection._task
            assert transport.written == [ok_line("forecast")]
            assert transport.closed
            await service.stop()

        run(body())


request_lines = st.one_of(
    st.sampled_from(list(QUERY_LINES.values())),
    st.sampled_from(QUERY_OPS).map(
        lambda q: respaced({"op": "query", "q": q, "params": None})
    ),
    st.sampled_from(QUERY_OPS).map(
        lambda q: line({"op": "query", "q": q, "params": {}})
    ),
    st.builds(
        lambda kind, hosts: line(
            {"op": "event", "kind": kind, "data": {"hosts": hosts}}
        ),
        st.sampled_from(["leave", "join"]),
        st.lists(st.integers(0, 99), min_size=1, max_size=3, unique=True),
    ),
    st.just(line({"op": "event", "kind": "fail", "data": {"fraction": 0.1}})),
    st.just(line({"op": "metrics"})),
    st.sampled_from([
        b"\n", b"[1, 2]\n", b'{"op": "query"\n', b'{"op": "nope"}\n',
        b'{"op": "query", "q": "status", "params": []}\n',
        b"\xff\xfe{}\n", b'{"op": "que\xc3\n',
    ]),
    st.binary(max_size=12).map(lambda data: data + b"\n"),
)


@st.composite
def segmented_streams(draw):
    """A stream of request lines and the cuts that split it."""
    lines = draw(st.lists(request_lines, min_size=1, max_size=10))
    # At most one line at the limit: one byte per segment is slow.
    long = draw(st.sampled_from([None, LINE_LIMIT, LINE_LIMIT + 1]))
    if long is not None:
        lines.insert(draw(st.integers(0, len(lines))), padded(long) + b"\n")
    stream = b"".join(lines)
    # A cut at a line's end makes whole-line segments, one a byte
    # before it parts a line from its newline; others fall anywhere.
    marks, end = [], 0
    for each in lines:
        end += len(each)
        marks += [end - 1, end]
    chosen = draw(st.lists(
        st.booleans(), min_size=len(marks), max_size=len(marks)
    ))
    cuts = {mark for mark, cut in zip(marks, chosen) if cut}
    cuts |= draw(st.sets(st.integers(0, len(stream)), max_size=4))
    bounds = sorted(cuts | {0, len(stream)})
    return stream, [stream[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]


class TestSegmentation:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(drawn=segmented_streams())
    def test_any_split_answers_as_one_byte_at_a_time(self, drawn):
        stream, segments = drawn
        assert fed(segments) == fed(one_byte_each(stream))


# ----------------------------------------------------------------------
# One request at a time per connection
# ----------------------------------------------------------------------
class TestOrderAndBackpressure:
    def gated_what_if(self, service, monkeypatch):
        """Replace the forecast by one that waits for the test."""
        gate = asyncio.Event()

        async def what_if(**kwargs):
            await gate.wait()
            return {"asked": kwargs}

        monkeypatch.setattr(service, "what_if", what_if)
        return gate

    def test_nothing_is_parsed_behind_a_pending_what_if(self, monkeypatch):
        async def body():
            service = make_service()
            connection, transport = await connected(service)
            gate = self.gated_what_if(service, monkeypatch)
            behind = line({"op": "event", "kind": "leave",
                           "data": {"hosts": [1, 2]}}) + STATUS
            connection.data_received(
                line({"op": "what-if", "trials": 2, "seed": 5}) + behind
            )
            for _ in range(5):
                await asyncio.sleep(0)
            # Held: not read, not parsed, not applied, not answered.
            assert not transport.reading
            assert bytes(connection._buffer) == behind
            assert service.core.live.alive_count() == 100
            assert transport.written == []
            gate.set()
            await connection._task
            forecast, left, status = transport.replies()
            assert forecast["result"]["asked"] == {
                "trials": 2, "periods": 100, "seed": 5, "workers": 1,
                "backend": "pool",
            }
            assert left["result"]["data"]["effect"] == {"left": 2}
            assert status["result"]["alive"] == 98
            assert transport.reading and not connection._buffer
            assert service.metrics()["requests"] == {
                "query": 1, "event": 1, "what-if": 1, "metrics": 0,
                "stop": 0,
            }
            await service.stop()

        run(body())

    def test_refused_what_if_releases_the_connection(self):
        async def body():
            service = make_service()
            connection, transport = await connected(service)
            connection.data_received(
                line({"op": "what-if", "trials": "many"}) + STATUS
            )
            await connection._task
            refused, status = transport.replies()
            assert refused["ok"] is False and "many" in refused["error"]
            assert status["ok"] and transport.reading
            await service.stop()

        run(body())

    def test_what_if_of_a_lost_connection_is_cancelled(self, monkeypatch):
        async def body():
            service = make_service()
            connection, transport = await connected(service)
            self.gated_what_if(service, monkeypatch)
            connection.data_received(line({"op": "what-if"}))
            task = connection._task
            connection.connection_lost(None)
            await asyncio.gather(task, return_exceptions=True)
            assert task.cancelled() and transport.written == []
            assert service.clients == 0
            await service.stop()

        run(body())

    def test_a_peer_that_stops_reading_stops_being_read(self, monkeypatch):
        async def body():
            service = make_service()
            connection, transport = await connected(service)
            connection.data_received(STATUS)
            connection.pause_writing()  # its replies no longer drain
            assert not transport.reading
            connection.data_received(STATUS * 3)  # what was in flight
            assert len(transport.written) == 1
            connection.resume_writing()
            assert transport.reading and len(transport.written) == 4
            # A forecast that ends meanwhile does not reopen the tap.
            gate = self.gated_what_if(service, monkeypatch)
            connection.data_received(line({"op": "what-if"}) + STATUS)
            connection.pause_writing()
            gate.set()
            await connection._task
            assert not transport.reading and len(transport.written) == 5
            connection.resume_writing()
            assert transport.reading and len(transport.written) == 6
            await service.stop()

        run(body())

    def test_stop_replies_then_closes_and_takes_nothing_more(self):
        async def body():
            service = make_service()
            connection, transport = await connected(service)
            connection.data_received(line({"op": "stop"}) + STATUS)
            assert transport.written == [ok_line("stopping")]
            assert transport.closed
            await service.finished.wait()
            await service._stopping
            assert service.core.closed
            assert len(transport.written) == 1

        run(body())


# ----------------------------------------------------------------------
# The reply memo: encoded once per census, never stale
# ----------------------------------------------------------------------
class TestReplyMemo:
    def test_reply_lines_follow_every_record(self):
        async def body():
            service = make_service()
            core = service.core
            connection, transport = await connected(service)

            def check():
                for _ in range(2):  # cold, then from the memo
                    for op in QUERY_OPS:
                        del transport.written[:]
                        connection.data_received(
                            line({"op": "query", "q": op, "params": None})
                        )
                        assert transport.written == [
                            ok_line(core.query(op))
                        ], op
                assert len(service._lines) == len(QUERY_OPS)
                # Warm memo or not, params are validated first.
                del transport.written[:]
                connection.data_received(
                    line({"op": "query", "q": "status", "params": []})
                )
                assert transport.replies() == [{
                    "ok": False,
                    "error": "params must be a JSON object, got list",
                }]

            check()
            core.tick(2)
            check()
            core.apply_event("fail", {"fraction": 0.25})
            check()
            core.snapshot_now()  # moves status, not the census
            check()
            await service.clock.advance(1.0)  # the service's own tick
            assert core.live.period == 3
            check()
            await service.stop()

        run(body())

    def test_canonical_lines_skip_the_decoder_and_are_counted(
        self, monkeypatch
    ):
        spellings = {
            "canonical": lambda op: QUERY_LINES[op],
            "re-spaced": lambda op: respaced(
                {"op": "query", "q": op, "params": None}
            ),
            "empty params": lambda op: line(
                {"op": "query", "q": op, "params": {}}
            ),
            "no params": lambda op: line({"op": "query", "q": op}),
        }
        assert len(QUERY_LINES) == len(QUERY_OPS)
        for op in QUERY_OPS:  # what ServiceClient.query writes
            assert QUERY_LINES[op] == line(
                {"op": "query", "q": op, "params": None}
            )
        decoded = []
        loads = json.loads
        monkeypatch.setattr(
            json, "loads", lambda s, **kw: (decoded.append(s), loads(s, **kw))[1]
        )

        async def body():
            service = make_service()
            core = service.core
            connection, transport = await connected(service)
            for name, spelling in spellings.items():
                core.tick(1)  # a cold memo, then a warm one
                canonical = service.metrics()["replies"]["canonical"]
                for _ in range(2):
                    for op in QUERY_OPS:
                        del transport.written[:], decoded[:]
                        connection.data_received(spelling(op))
                        assert transport.written == [
                            ok_line(core.query(op))
                        ], (name, op)
                        assert len(decoded) == (name != "canonical")
                counted = service.metrics()["replies"]["canonical"] - canonical
                assert counted == (
                    2 * len(QUERY_OPS) if name == "canonical" else 0
                ), name
            assert service.metrics()["requests"]["query"] == (
                2 * len(QUERY_OPS) * len(spellings)
            )
            await service.stop()

        run(body())

    def test_memo_is_bounded_and_counted(self):
        async def body():
            service = make_service()
            connection, transport = await connected(service)
            for window in range(1, 50):
                connection.data_received(line({
                    "op": "query", "q": "convergence",
                    "params": {"window": window},
                }))
            connection.data_received(line({"op": "query", "q": "nope"}))
            assert service._lines == {}
            for _ in range(10):
                connection.data_received(
                    line({"op": "query", "q": "counts", "params": {}})
                )
            assert set(service._lines) == {"counts"}
            metrics = service.metrics()
            assert metrics["replies"] == {
                "memo": 9, "encoded": 51, "canonical": 0,
            }
            assert metrics["requests"]["query"] == 59
            assert metrics["errors"] == 1
            assert len(transport.written) == 60
            await service.stop()

        run(body())


# ----------------------------------------------------------------------
# Real sockets: the metrics op, shared clients, lost connections
# ----------------------------------------------------------------------
async def serving(service):
    await service.start()
    server = await serve_tcp(service)
    return server, server.sockets[0].getsockname()[1]


async def shut(service, server):
    server.close()
    await server.wait_closed()
    await service.stop()


class TestMetricsOp:
    def test_metrics_counts_and_appends_nothing(self):
        async def body():
            service = make_service()
            server, port = await serving(service)
            client = await ServiceClient.connect("127.0.0.1", port)
            other = await ServiceClient.connect("127.0.0.1", port)
            await service.clock.advance(3.0)
            for _ in range(4):
                await client.query("counts")
            await other.event("leave", {"hosts": [3]})
            with pytest.raises(RuntimeError):
                await other.query("nope")
            events = service.core.log.next_seq
            status = await client.query("status")
            metrics = await client.request({"op": "metrics"})
            assert metrics == {
                "clients": 2,
                "requests": {"query": 5, "event": 1, "what-if": 0,
                             "metrics": 0, "stop": 0},
                "errors": 1,
                # The client writes "counts" and "status" canonically.
                "replies": {"memo": 3, "encoded": 4, "canonical": 5},
                "ticks": 3,
                "tick_lag_seconds": {"last": 0.0, "max": 0.0},
            }
            again = await client.request({"op": "metrics"})
            assert again["requests"]["metrics"] == 1
            assert service.core.log.next_seq == events
            assert await client.query("status") == status
            assert "metrics" not in QUERY_OPS
            await other.close()
            for _ in range(100):
                if service.clients == 1:
                    break
                await asyncio.sleep(0)
            assert service.metrics()["clients"] == 1
            await client.close()
            await shut(service, server)

        run(body())

    def test_tick_lag_is_read_on_the_service_clock(self):
        class LateClock(VirtualClock):
            """Wakes every sleeper a quarter of a second late."""

            async def sleep(self, delay):
                await super().sleep(delay + 0.25)

        async def body():
            clock = LateClock()
            service = make_service(clock=clock)
            await service.start()
            await clock.advance(2.5)
            metrics = service.metrics()
            assert metrics["ticks"] == 2
            assert metrics["tick_lag_seconds"] == {"last": 0.25, "max": 0.25}
            await service.stop()

        run(body())


class TestSharedClient:
    def test_concurrent_and_pipelined_requests_are_answered_in_order(self):
        async def body():
            service = make_service()
            server, port = await serving(service)
            client = await ServiceClient.connect("127.0.0.1", port)
            # Two coroutines at once (the stream client died here:
            # "readuntil() called while another coroutine is waiting").
            ops = [QUERY_OPS[i % len(QUERY_OPS)] for i in range(40)]
            answers = await asyncio.gather(*(client.query(q) for q in ops))
            assert answers == [service.core.query(q) for q in ops]
            # Writes and reads pipelined: each sees the ones before it.
            left, alive, joined, back = await asyncio.gather(
                client.event("leave", {"hosts": [1, 2, 3]}),
                client.query("status"),
                client.event("join", {"hosts": [1]}),
                client.query("status"),
            )
            assert left["data"]["effect"] == {"left": 3}
            assert joined["data"]["effect"] == {"joined": 1}
            assert (alive["alive"], back["alive"]) == (97, 98)
            # An error takes its turn and fails only its own asker.
            results = await asyncio.gather(
                client.query("counts"), client.query("nope"),
                client.query("counts"), return_exceptions=True,
            )
            assert isinstance(results[1], RuntimeError)
            assert results[0] == results[2] == service.core.query("counts")
            await client.close()
            await shut(service, server)

        run(body())

    def test_a_cancelled_asker_keeps_later_replies_aligned(self):
        async def body():
            service = make_service()
            server, port = await serving(service)
            client = await ServiceClient.connect("127.0.0.1", port)
            dropped = asyncio.ensure_future(client.query("counts"))
            kept = asyncio.ensure_future(client.query("status"))
            await asyncio.sleep(0)  # both written
            dropped.cancel()
            assert await kept == service.core.query("status")
            await client.close()
            await shut(service, server)

        run(body())

    def test_lost_connection_fails_every_waiter_and_close_is_idempotent(
        self, monkeypatch
    ):
        async def body():
            service = make_service()
            server, port = await serving(service)
            holding = asyncio.Event()

            async def what_if(**kwargs):
                holding.set()
                await asyncio.Event().wait()  # never answered

            monkeypatch.setattr(service, "what_if", what_if)
            accepted = []
            made = _Connection.connection_made
            monkeypatch.setattr(
                _Connection, "connection_made",
                lambda self, transport: (
                    accepted.append(transport), made(self, transport)
                ),
            )
            client = await ServiceClient.connect("127.0.0.1", port)
            bystander = await ServiceClient.connect("127.0.0.1", port)
            waiting = [
                asyncio.ensure_future(client.what_if(trials=1)),
                asyncio.ensure_future(client.query("status")),
                asyncio.ensure_future(client.query("counts")),
            ]
            await holding.wait()
            accepted[0].abort()  # the service's end goes, mid-request
            results = await asyncio.gather(*waiting, return_exceptions=True)
            assert [type(r) for r in results] == [ConnectionError] * 3
            assert {str(r) for r in results} == {
                "service closed the connection"
            }
            with pytest.raises(ConnectionError):
                await client.query("status")
            await client.close()
            await client.close()
            # Everyone else is still served.
            assert (await bystander.query("status"))["alive"] == 100
            await bystander.close()
            await bystander.close()
            await shut(service, server)

        run(body())

    def test_mid_request_disconnect_leaves_the_service_serving(self):
        async def body():
            service = make_service()
            server, port = await serving(service)
            client = await ServiceClient.connect("127.0.0.1", port)
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(STATUS + b'{"op": "event", "kind": "fail", "da')
            assert json.loads(await reader.readline())["ok"]
            events = service.core.log.next_seq
            writer.transport.abort()  # gone, half a request sent
            for _ in range(100):
                if service.clients == 1:
                    break
                await asyncio.sleep(0)
            assert service.clients == 1
            # The torn line was refused like any other, not applied.
            assert service.metrics()["errors"] == 1
            status = await client.query("status")
            assert (status["events"], status["alive"]) == (events, 100)
            await client.close()
            await shut(service, server)

        run(body())

    def test_raw_pipelining_behind_a_real_what_if(self):
        async def body():
            service = make_service(n=60)
            server, port = await serving(service)
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(
                line({"op": "what-if", "trials": 2, "periods": 5, "seed": 3})
                + line({"op": "event", "kind": "leave",
                        "data": {"hosts": [0, 1]}})
                + STATUS
            )
            forecast = json.loads(await reader.readline())
            assert forecast["result"]["n"] == 60  # forked before the leave
            assert json.loads(await reader.readline())["ok"]
            assert json.loads(await reader.readline())["result"]["alive"] == 58
            writer.close()
            await writer.wait_closed()
            await shut(service, server)

        run(body())
