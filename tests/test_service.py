"""Tests for the live service tier (repro.service).

Every timing-dependent test runs on :class:`VirtualClock` -- the suite
contains no sleep-based assertions, per the tier-1 policy.  The
acceptance test drives a virtual-clock service with concurrent TCP
clients, snapshots mid-stream, kills the service *without* an orderly
close, and proves both genesis and snapshot-anchored replay reproduce
the state stream bit for bit, including query answers at logged points.
"""

import asyncio
import json
import math
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.service import (
    CensusDriftError,
    LiveConfig,
    LiveEngine,
    ProtocolService,
    ServiceClient,
    ServiceCore,
    VirtualClock,
    latest_snapshot,
    replay_directory,
    replay_events,
    serve_tcp,
)
from repro.runtime.round_engine import RoundEngine
from repro.service.core import QUERY_OPS
from repro.service.service import ScriptedEvent
from repro.__main__ import main as cli_main
from repro.store import (
    EVENTS_NAME,
    MemoryEventLog,
    SnapshotError,
    load_snapshot,
    read_events,
    save_snapshot,
)

from service_helpers import (
    assert_answers_match_arrays,
    census_from_scratch,
    scribble,
)


def run(coro):
    """Run an async test body to completion on a fresh event loop."""
    return asyncio.run(coro)


def make_core(log=None, *, n=300, seed=42, snapshot_every=0, **kwargs):
    config = LiveConfig(protocol="endemic", n=n, seed=seed)
    return ServiceCore(
        LiveEngine(config),
        log=log if log is not None else MemoryEventLog(),
        snapshot_every=snapshot_every,
        retain_stream=True,
        **kwargs,
    )


# ----------------------------------------------------------------------
# VirtualClock
# ----------------------------------------------------------------------
class TestVirtualClock:
    def test_time_starts_at_zero(self):
        assert VirtualClock().time() == 0.0

    def test_wakes_in_deadline_order(self):
        async def body():
            clock = VirtualClock()
            order = []

            async def sleeper(tag, delay):
                await clock.sleep(delay)
                order.append(tag)

            tasks = [
                asyncio.ensure_future(sleeper(tag, delay))
                for tag, delay in (("c", 3.0), ("a", 1.0), ("b", 2.0))
            ]
            await clock.advance(5.0)
            await asyncio.gather(*tasks)
            assert order == ["a", "b", "c"]
            assert clock.time() == 5.0

        run(body())

    def test_partial_advance_leaves_sleeper_parked(self):
        async def body():
            clock = VirtualClock()
            woken = asyncio.Event()

            async def sleeper():
                await clock.sleep(5.0)
                woken.set()

            task = asyncio.ensure_future(sleeper())
            await clock.advance(2.0)
            assert not woken.is_set()
            assert clock.pending == 1
            await clock.advance(3.0)
            assert woken.is_set()
            await task

        run(body())

    def test_fifo_among_equal_deadlines(self):
        async def body():
            clock = VirtualClock()
            order = []

            async def sleeper(tag):
                await clock.sleep(1.0)
                order.append(tag)

            tasks = [
                asyncio.ensure_future(sleeper(t)) for t in ("x", "y", "z")
            ]
            await clock.advance(1.0)
            await asyncio.gather(*tasks)
            assert order == ["x", "y", "z"]

        run(body())

    def test_negative_advance_rejected(self):
        async def body():
            with pytest.raises(ValueError):
                await VirtualClock().advance(-1.0)

        run(body())

    def test_run_until_timeout_is_deterministic(self):
        async def body():
            clock = VirtualClock()
            with pytest.raises(TimeoutError):
                await clock.run_until(lambda: False, step=1.0, limit=5.0)
            assert clock.time() == 5.0

        run(body())


# ----------------------------------------------------------------------
# ServiceCore (synchronous -- no event loop at all)
# ----------------------------------------------------------------------
class TestServiceCore:
    def test_requires_exactly_one_backend(self, tmp_path):
        live = LiveEngine(LiveConfig(protocol="endemic", n=10, seed=0))
        with pytest.raises(ValueError):
            ServiceCore(live)
        with pytest.raises(ValueError):
            ServiceCore(live, directory=tmp_path, log=MemoryEventLog())

    def test_lifecycle_guards(self):
        core = make_core(n=20)
        with pytest.raises(RuntimeError):
            core.tick()  # not started
        core.start()
        with pytest.raises(RuntimeError):
            core.start()  # double start
        core.close()
        with pytest.raises(RuntimeError):
            core.tick()  # closed

    def test_every_mutation_logs_one_record(self):
        core = make_core(n=50)
        core.start()
        core.tick(3)
        core.apply_event("fail", {"fraction": 0.1})
        core.snapshot_now()
        core.close()
        kinds = [e.kind for e in core.log.events]
        assert kinds == ["init", "tick", "fail", "snapshot", "close"]
        seqs = [e.seq for e in core.log.events]
        assert seqs == list(range(5))

    def test_stream_matches_live_census(self):
        core = make_core(n=100)
        core.start()
        core.tick(2)
        row = core.stream[-1]
        counts = core.live.counts()
        assert row.counts == tuple(
            counts[s] for s in core.live.state_names
        )
        assert row.alive == core.live.alive_count()
        assert row.period == core.live.period == 2

    def test_query_counts_consistent_with_stream(self):
        core = make_core(n=100)
        core.start()
        for _ in range(4):
            core.tick()
            answer = core.query("counts")
            row = core.stream[-1]
            assert answer["period"] == row.period
            assert (
                tuple(answer["counts"][s] for s in core.live.state_names)
                == row.counts
            )

    def test_unknown_query_rejected(self):
        core = make_core(n=20)
        core.start()
        with pytest.raises(ValueError):
            core.query("nope")

    def test_majority_query(self):
        core = make_core(n=100)
        core.start()
        answer = core.query("majority")
        counts = core.live.counts()
        assert answer["count"] == max(counts.values())
        assert counts[answer["leader"]] == answer["count"]
        assert 0.0 <= answer["margin"] <= 1.0

    def test_convergence_needs_window(self):
        core = make_core(n=50)
        core.start()
        answer = core.query("convergence")
        assert answer["max_delta_fraction"] is None
        assert not answer["settled"]
        for _ in range(10):
            core.tick()
        answer = core.query("convergence", {"window": 5, "tol": 1.0})
        assert answer["settled"]
        assert answer["window"] == 5

    def test_convergence_skips_rows_of_an_empty_population(self):
        core = make_core(n=20)
        core.start()
        core.tick()
        core.apply_event("leave", {"hosts": list(range(20))})
        core.tick()
        core.apply_event("join", {"hosts": list(range(20))})
        core.tick()
        assert [s is None for s in core._shares] == [
            False, False, True, True, False, False,
        ]
        answer = core.query("convergence", {"window": 4, "tol": 1})
        assert answer["window"] == 2 and answer["settled"]
        assert core.query("convergence", {"window": 3})["window"] == 2

    def test_membership_events_change_population(self):
        core = make_core(n=60)
        core.start()
        left = core.apply_event("leave", {"hosts": [0, 1, 2]})
        assert left.data["effect"] == {"left": 3}
        assert core.live.alive_count() == 57
        joined = core.apply_event("join", {"hosts": [0, 1]})
        assert joined.data["effect"] == {"joined": 2}
        assert core.live.alive_count() == 59

    @pytest.mark.parametrize("kind, data", [
        ("leave", {"hosts": [99]}),  # out of range
        ("leave", {"hosts": [-1]}),
        ("join", {"hosts": [np.int64(2), np.int64(10)]}),
        ("shrug", {}),  # unknown kind
        # Loose values are refused by name, not coerced:
        ("leave", {"hosts": "12"}),  # iterated, it would name 1 and 2
        ("leave", {"hosts": 3}),
        ("leave", {"hosts": (3, 4)}),
        ("leave", {"hosts": [1.9]}),  # int() would name host 1
        ("leave", {"hosts": [True]}),  # and so would a bool
        ("leave", {"hosts": ["3"]}),
        ("join", {"hosts": [1.9, True]}),
        ("leave", {"hosts": [3, 3]}),  # would log {"left": 2}
        ("fail", {"hosts": [2, 2]}),
        ("fail", {"fraction": True}),  # would fail every host
        ("fail", {"fraction": "0.5"}),
        ("fail", {"fraction": math.nan}),
        ("fail", {"fraction": math.inf}),
        ("fail", {"fraction": 1.5}),
        ("fail", {"fraction": None}),
    ])
    def test_invalid_membership_rejected(self, kind, data):
        core = make_core(n=10)
        core.start()
        core.apply_event("leave", {"hosts": [0]})
        before = core.live.snapshot(), list(core.log.events)
        census = core.app.census
        with pytest.raises(ValueError, match="hosts|fraction|kind"):
            core.apply_event(kind, data)
        (arrays, meta), events = core.live.snapshot(), core.log.events
        assert meta == before[0][1] and events == before[1]
        assert core.app.census is census
        for key, array in before[0][0].items():
            assert np.array_equal(arrays[key], array)

    @pytest.mark.parametrize("params, named", [
        ({"window": 0}, "window"),    # rows[-0:] is the whole history
        ({"window": -2}, "window"),   # rows[2:] drops the oldest rows
        ({"tol": -0.5}, "tol"),
        ({"tol": math.nan}, "tol"),
        ({"tol": math.inf}, "tol"),
        ([("window", 3)], "params"),
        # Loose values are refused, not coerced (2.9 answered as 2).
        ({"window": "3"}, "window"),
        ({"window": 2.9}, "window"),
        ({"window": True}, "window"),
        ({"window": [3]}, "window"),
        ({"tol": "0.5"}, "tol"),
        ({"tol": True}, "tol"),
    ])
    def test_bad_query_params_are_refused_by_name(self, params, named):
        core = make_core(n=50)
        core.start()
        for _ in range(10):
            core.tick()
        with pytest.raises(ValueError, match=named):
            core.query("convergence", params)
        assert core.query("convergence", {"window": 1})["window"] == 1
        assert core.query("convergence", {"tol": 0})["window"] == 11


# ----------------------------------------------------------------------
# The read contract: one recount per mutation, none per read
# ----------------------------------------------------------------------
class TestReadContract:
    @pytest.fixture
    def recounts(self, monkeypatch):
        """Calls of the engine's two O(N) counting methods, by name."""
        calls = {"counts": 0, "alive_count": 0}
        for name in calls:
            inner = getattr(RoundEngine, name)

            def counting(engine, _inner=inner, _name=name):
                calls[_name] += 1
                return _inner(engine)

            monkeypatch.setattr(RoundEngine, name, counting)
        return calls

    def query_everything(self, core, times=3):
        for _ in range(times):
            for op in QUERY_OPS:
                core.query(op)
            core.query("convergence", {"window": 4, "tol": 0.5})

    def test_ticks_recount_once_events_never_and_reads_never(self, recounts):
        core = make_core(n=200)
        mutations = [  # (mutation, recounts it makes)
            (core.start, 1),
            (lambda: core.tick(3), 1),
            (lambda: core.apply_event("fail", {"fraction": 0.1}), 0),
            (lambda: core.apply_event("leave", {"hosts": [0, 1, 2]}), 0),
            # 1 and 2 are down; 3 and 4 are up and change state
            (lambda: core.apply_event(
                "join", {"hosts": [1, 2, 3, 4], "state": "z"}), 0),
            (lambda: core.apply_event("fail", {"hosts": [2, 5]}), 0),
            (lambda: core.apply_event("fail", {"hosts": [2]}), 0),  # down
            (core.tick, 1),
            (core.close, 1),
        ]
        for mutate, recounted in mutations:
            expected = {k: v + recounted for k, v in recounts.items()}
            mutate()
            assert recounts == expected
            self.query_everything(core)
            if not core.closed:
                core.snapshot_now()  # a record, not a change of population
            self.query_everything(core)
            assert recounts == expected
            assert_answers_match_arrays(core)

    @pytest.mark.parametrize("off", [
        lambda counts, alive: ({**counts, "y": counts["y"] + 1}, alive),
        lambda counts, alive: (counts, alive - 1),
    ], ids=["a state", "the alive count"])
    def test_a_census_off_by_one_fails_the_next_tick_unlogged(self, off):
        core = make_core(n=200)
        core.start()
        core.apply_event("leave", {"hosts": [0, 1, 2]})
        core.app.census = off(*core.app.census)
        logged = core.log.next_seq
        with pytest.raises(CensusDriftError, match="not the recount"):
            core.tick()
        # The core is failed: nothing further is applied or logged, and
        # the log ends at the last verified record, with no close.
        assert core.closed
        for mutate in (
            lambda: core.apply_event("join", {"hosts": [0]}),
            core.tick,
            core.snapshot_now,
            core.close,
        ):
            with pytest.raises(RuntimeError, match="already closed"):
                mutate()
        assert core.log.next_seq == logged

    def test_snapshot_record_moves_status_without_a_recount(self, recounts):
        core = make_core(n=50)
        core.start()
        before = core.query("status")
        counted = dict(recounts)
        core.snapshot_now()
        after = core.query("status")
        assert after["events"] == before["events"] + 1
        assert after["snapshots"] == before["snapshots"] + 1
        assert recounts == counted

    def test_close_logs_a_recount(self):
        # The benchmark harness steps the engine under the core and
        # then closes it; the close record is the engine's census.
        core = make_core(n=200)
        core.start()
        core.live.engine.crash(np.arange(50))
        closed = core.close()
        counts, alive = census_from_scratch(core)
        assert closed.data["alive"] == alive == 150
        assert closed.data["counts"] == counts

    def test_restored_core_answers_its_first_query(self, tmp_path):
        core = ServiceCore(
            LiveEngine(LiveConfig(protocol="endemic", n=200, seed=3)),
            directory=tmp_path,
        )
        core.start()
        core.tick(5)
        core.apply_event("fail", {"fraction": 0.3})
        path = core.snapshot_now()
        expected = {op: core.query(op) for op in QUERY_OPS}
        restored = ServiceCore.from_snapshot(
            *load_snapshot(path),
            log=MemoryEventLog(start_seq=core.log.next_seq),
        )
        core.close()
        for op in QUERY_OPS:
            answer = restored.query(op)
            if op == "status":  # checkpoints written by *this* process
                answer["snapshots"] = expected[op]["snapshots"]
            assert answer == expected[op]
        assert_answers_match_arrays(restored)

    def test_answers_belong_to_the_caller(self):
        core = make_core(n=100)
        core.start()
        core.tick(2)
        pristine = {op: core.query(op) for op in QUERY_OPS}
        for op in QUERY_OPS:
            scribble(core.query(op))
        assert {op: core.query(op) for op in QUERY_OPS} == pristine
        row = core.stream[-1]
        assert row.counts_dict(core.live.state_names) == (
            pristine["counts"]["counts"]
        )
        assert core.log.events[-1].data["counts"] == (
            pristine["counts"]["counts"]
        )

    def test_params_answers_are_not_remembered(self):
        core = make_core(n=50)
        core.start()
        for window in range(1, 200):
            core.query("convergence", {"window": window})
        assert set(core._answers) <= set(QUERY_OPS)



# ----------------------------------------------------------------------
# Replay from a memory log (no disk, no loop)
# ----------------------------------------------------------------------
class TestReplayEvents:
    def build_history(self):
        core = make_core(n=120, seed=9)
        core.start()
        core.tick(3)
        core.apply_event("fail", {"fraction": 0.25})
        core.tick(2)
        core.apply_event("join", {"hosts": [0, 1, 2, 3]})
        core.tick(1)
        core.close()
        return core

    def test_replay_is_bit_identical(self):
        original = self.build_history()
        report = replay_events(original.log.events)
        assert report.ok, [str(m) for m in report.mismatches]
        assert report.replayed == len(original.log.events)
        assert report.core.stream == original.stream
        assert np.array_equal(
            report.core.live.engine.states, original.live.engine.states
        )
        assert np.array_equal(
            report.core.live.engine.alive, original.live.engine.alive
        )

    def test_replay_detects_tampered_census(self):
        original = self.build_history()
        events = list(original.log.events)
        tick = next(e for e in events if e.kind == "tick")
        tampered = dict(tick.data)
        tampered["alive"] = tick.data["alive"] + 1
        events[tick.seq] = type(tick)(
            seq=tick.seq, period=tick.period, kind=tick.kind, data=tampered,
        )
        report = replay_events(events)
        assert not report.ok
        assert report.mismatches[0].seq == tick.seq
        assert report.mismatches[0].field_name == "data.alive"

    def test_replay_requires_init_first(self):
        original = self.build_history()
        report = replay_events(original.log.events[1:], start_seq=0)
        assert not report.ok
        assert report.mismatches[0].field_name == "kind"


# ----------------------------------------------------------------------
# ProtocolService on a virtual clock
# ----------------------------------------------------------------------
class TestProtocolService:
    def test_constructor_validation(self):
        core = make_core(n=20)
        with pytest.raises(ValueError):
            ProtocolService(core, tick_seconds=0.0)
        with pytest.raises(ValueError):
            ProtocolService(core, periods_per_tick=0)

    def test_ticks_follow_the_clock(self):
        async def body():
            clock = VirtualClock()
            core = make_core(n=80)
            service = ProtocolService(
                core, clock=clock, tick_seconds=2.0, periods_per_tick=3,
            )
            await service.start()
            assert core.live.period == 0
            await clock.advance(2.0)
            assert core.live.period == 3
            await clock.advance(6.0)
            assert core.live.period == 12
            await service.stop()
            assert core.closed

        run(body())

    def test_max_periods_finishes_loop(self):
        async def body():
            clock = VirtualClock()
            core = make_core(n=80)
            service = ProtocolService(
                core, clock=clock, tick_seconds=1.0, max_periods=5,
            )
            await service.start()
            await clock.run_until(
                service.finished.is_set, step=1.0, limit=50.0
            )
            assert core.live.period == 5
            await service.stop()

        run(body())

    def test_stop_is_idempotent_and_concurrent_safe(self):
        async def body():
            clock = VirtualClock()
            core = make_core(n=40)
            service = ProtocolService(core, clock=clock, tick_seconds=1.0)
            await service.start()
            await asyncio.gather(service.stop(), service.stop())
            await service.stop()
            assert core.closed

        run(body())

    def test_scripted_events_fire_at_their_period(self):
        async def body():
            clock = VirtualClock()
            core = make_core(n=100)
            script = [
                ScriptedEvent(at_period=2, kind="fail", data={"fraction": 0.5}),
                ScriptedEvent(at_period=4, kind="join", data={"hosts": [0]}),
            ]
            service = ProtocolService(
                core, clock=clock, tick_seconds=1.0, script=script,
                max_periods=5,
            )
            await service.start()
            await clock.run_until(
                service.finished.is_set, step=1.0, limit=50.0
            )
            await service.stop()
            by_kind = {
                e.kind: e for e in core.log.events
                if e.kind in ("fail", "join")
            }
            assert by_kind["fail"].period == 2
            assert by_kind["join"].period == 4

        run(body())

    def test_scripted_event_flat_dict_form(self):
        event = ScriptedEvent.from_dict(
            {"at_period": 3, "kind": "fail", "fraction": 0.1}
        )
        assert event.data == {"fraction": 0.1}
        nested = ScriptedEvent.from_dict(
            {"at_period": 3, "kind": "leave", "data": {"hosts": [1]}}
        )
        assert nested.data == {"hosts": [1]}

    def test_what_if_forks_current_state(self):
        async def body():
            clock = VirtualClock()
            core = make_core(n=60)
            service = ProtocolService(core, clock=clock, tick_seconds=1.0)
            await service.start()
            await clock.advance(3.0)
            answer = await service.what_if(trials=2, periods=5, seed=3)
            assert answer["forked_at_period"] == 3
            assert answer["trials"] == 2
            assert answer["n"] == core.live.alive_count()
            assert set(answer["mean_final_counts"]) >= set(
                core.live.state_names
            )
            await service.stop()

        run(body())

    def test_start_resolves_the_equilibrium_before_serving(self, monkeypatch):
        # Warm before you serve: the first resolution runs the
        # multi-start solve, so it belongs to start(), never to a
        # query answered on the event loop.
        from repro.experiment import protocol as protocol_module

        calls = []
        solve = protocol_module.find_equilibria

        def counting(system):
            calls.append(system)
            return solve(system)

        monkeypatch.setattr(protocol_module, "find_equilibria", counting)

        async def body():
            clock = VirtualClock()
            core = make_core(n=60)
            service = ProtocolService(core, clock=clock, tick_seconds=1.0)
            assert not calls
            await service.start()
            assert len(calls) == 1
            await clock.advance(2.0)
            answer = await service.query("equilibrium")
            assert answer["expected"] is not None
            assert len(calls) == 1
            await service.stop()

        run(body())


# ----------------------------------------------------------------------
# TCP endpoint
# ----------------------------------------------------------------------
class TestTcpEndpoint:
    async def start_service(self, clock, **kwargs):
        core = make_core(n=100)
        service = ProtocolService(
            core, clock=clock, tick_seconds=1.0, **kwargs
        )
        await service.start()
        server = await serve_tcp(service)
        port = server.sockets[0].getsockname()[1]
        return service, server, port

    def test_query_event_roundtrip(self):
        async def body():
            clock = VirtualClock()
            service, server, port = await self.start_service(clock)
            client = await ServiceClient.connect("127.0.0.1", port)
            status = await client.query("status")
            assert status["protocol"] == "endemic"
            effect = await client.event("fail", {"fraction": 0.2})
            assert effect["data"]["effect"]["failed"] > 0
            counts = await client.query("counts")
            assert counts["alive"] == service.core.live.alive_count()
            await client.close()
            server.close()
            await server.wait_closed()
            await service.stop()

        run(body())

    def test_bad_requests_keep_connection_alive(self):
        async def body():
            clock = VirtualClock()
            service, server, port = await self.start_service(clock)
            client = await ServiceClient.connect("127.0.0.1", port)
            with pytest.raises(RuntimeError):
                await client.query("nope")
            with pytest.raises(RuntimeError):
                await client.request({"op": "wat"})
            # The connection survives protocol errors.
            assert (await client.query("status"))["protocol"] == "endemic"
            await client.close()
            server.close()
            await server.wait_closed()
            await service.stop()

        run(body())

    def test_oversized_line_is_answered_and_only_that_connection_ends(self):
        async def body():
            clock = VirtualClock()
            service, server, port = await self.start_service(clock)
            bystander = await ServiceClient.connect("127.0.0.1", port)
            # Past the StreamReader limit (64 KiB), with and without
            # the newline landing in the same buffer as the overrun.
            for size in (70_000, 100_000, 300_000):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writer.write(
                    b'{"op": "query", "q": "' + b"x" * size + b'"}\n'
                )
                await writer.drain()
                reply = json.loads(await reader.readline())
                assert reply == {
                    "ok": False, "error": "request line too long",
                }
                assert await reader.read() == b""  # closed, not reset
                writer.close()
                await writer.wait_closed()
            assert (await bystander.query("status"))["protocol"] == "endemic"
            await bystander.close()
            fresh = await ServiceClient.connect("127.0.0.1", port)
            assert (await fresh.query("status"))["events"] == 1
            await fresh.close()
            server.close()
            await server.wait_closed()
            await service.stop()

        run(body())

    def test_join_with_unknown_state_is_rejected_whole(self, tmp_path):
        """A bad ``state`` must not revive the hosts before it raises.

        ``RoundEngine.recover`` used to set ``alive`` first and look
        the state up second, so the rejected join half-applied, logged
        nothing, and replay diverged at the next tick.
        """
        async def body():
            core = ServiceCore(
                LiveEngine(LiveConfig(protocol="endemic", n=100, seed=9)),
                directory=tmp_path, retain_stream=True,
            )
            service = ProtocolService(
                core, clock=VirtualClock(), tick_seconds=1.0
            )
            await service.start()
            server = await serve_tcp(service)
            port = server.sockets[0].getsockname()[1]
            core.apply_event("leave", {"hosts": [1, 2, 3]})
            engine = core.live.engine
            alive, states = engine.alive.copy(), engine.states.copy()
            logged = (tmp_path / EVENTS_NAME).read_bytes()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(json.dumps({
                "op": "event", "kind": "join",
                "data": {"hosts": [1, 2], "state": "nope"},
            }).encode() + b"\n")
            await writer.drain()
            reply = json.loads(await reader.readline())
            assert reply["ok"] is False and "nope" in reply["error"]
            writer.close()
            await writer.wait_closed()
            assert np.array_equal(engine.alive, alive)
            assert np.array_equal(engine.states, states)
            assert (tmp_path / EVENTS_NAME).read_bytes() == logged
            core.tick()
            server.close()
            await server.wait_closed()
            await service.stop()

        run(body())
        assert replay_directory(tmp_path).ok
        # The engine refuses it on its own, too, before touching arrays.
        engine = LiveEngine(
            LiveConfig(protocol="endemic", n=20, seed=0)
        ).engine
        engine.crash(np.array([4]))
        with pytest.raises(ValueError, match="nope"):
            engine.recover(np.array([4]), state="nope")
        assert not engine.alive[4]

    def test_bad_params_get_an_error_reply_that_names_them(self):
        async def body():
            clock = VirtualClock()
            service, server, port = await self.start_service(clock)
            client = await ServiceClient.connect("127.0.0.1", port)
            for params, named in (
                ({"window": 0}, "window"),
                ({"tol": -1}, "tol"),
                ({"window": [3]}, "window must be an integer"),
                ([1, 2], "params must be a JSON object"),
                ("window", "params must be a JSON object"),
            ):
                with pytest.raises(RuntimeError, match=named):
                    await client.query("convergence", params)
            answer = await client.query("convergence", {"window": 8})
            assert answer["settled"] is False
            await client.close()
            server.close()
            await server.wait_closed()
            await service.stop()

        run(body())

    def test_stop_op_halts_service(self):
        async def body():
            clock = VirtualClock()
            service, server, port = await self.start_service(clock)
            client = await ServiceClient.connect("127.0.0.1", port)
            assert await client.stop() == "stopping"
            await service.finished.wait()
            await client.close()
            server.close()
            await server.wait_closed()
            await service.stop()
            assert service.core.closed

        run(body())


# ----------------------------------------------------------------------
# Acceptance: kill mid-stream, replay bit-identically (2 and 5 clients)
# ----------------------------------------------------------------------
QUERY_SCRIPT = ("status", "counts", "fractions", "majority", "convergence")


def query_all(core):
    """All scripted queries; drops process-local status fields.

    ``status.snapshots`` counts checkpoints written by *this* process;
    a replay verifies state without writing new ones, so that field is
    legitimately different and excluded from bit-identity comparison.
    """
    answers = {q: core.query(q) for q in QUERY_SCRIPT}
    answers["status"] = {
        k: v for k, v in answers["status"].items() if k != "snapshots"
    }
    return answers


class TestReplayAcceptance:
    @pytest.mark.parametrize("n_clients", [2, 5])
    def test_killed_service_replays_bit_identically(
        self, tmp_path, n_clients
    ):
        run(self._acceptance(tmp_path, n_clients))

    async def _acceptance(self, directory, n_clients):
        clock = VirtualClock()
        config = LiveConfig(protocol="endemic", n=400, seed=1234)
        core = ServiceCore(
            LiveEngine(config),
            directory=directory,
            snapshot_every=10,
            retain_stream=True,
        )
        script = [
            ScriptedEvent(at_period=7, kind="fail", data={"fraction": 0.2}),
            ScriptedEvent(
                at_period=15, kind="join", data={"hosts": list(range(12))}
            ),
        ]
        service = ProtocolService(
            core, clock=clock, tick_seconds=1.0, script=script,
            max_periods=30,
        )
        await service.start()
        server = await serve_tcp(service)
        port = server.sockets[0].getsockname()[1]

        async def client_loop(index):
            client = await ServiceClient.connect("127.0.0.1", port)
            answers = []
            for q in QUERY_SCRIPT:
                answers.append(await client.query(q))
            await client.close()
            return answers

        driver = asyncio.ensure_future(clock.run_until(
            service.finished.is_set, step=1.0, limit=100.0
        ))
        answers = await asyncio.gather(
            *(client_loop(i) for i in range(n_clients))
        )
        await driver
        # Each concurrent client saw internally consistent answers
        # (single-threaded core: no torn reads at any concurrency).
        for per_client in answers:
            for answer in per_client:
                if "alive" in answer and "counts" in answer:
                    assert sum(answer["counts"].values()) == answer["alive"]

        # Kill without an orderly close: no "close" record lands, as if
        # the process took a SIGKILL after its last flushed line.
        await service.stop(close=False)
        server.close()
        await server.wait_closed()
        original_stream = list(core.stream)
        final_states = core.live.engine.states.copy()
        final_alive = core.live.engine.alive.copy()
        final_queries = query_all(core)
        core.log.close()

        assert core.snapshots_written >= 2  # mid-stream anchors exist

        # --- replay from genesis --------------------------------------
        genesis_queries = {}

        def record_queries(replay_core, logged):
            genesis_queries[logged.seq] = query_all(replay_core)

        report = replay_directory(directory, on_event=record_queries)
        assert report.ok, [str(m) for m in report.mismatches]
        assert not report.torn_tail
        assert report.core.stream == original_stream
        assert np.array_equal(report.core.live.engine.states, final_states)
        assert np.array_equal(report.core.live.engine.alive, final_alive)
        assert query_all(report.core) == final_queries

        # --- replay from the latest snapshot --------------------------
        snapshot_queries = {}

        def record_snapshot_queries(replay_core, logged):
            snapshot_queries[logged.seq] = query_all(replay_core)

        report2 = replay_directory(
            directory, from_snapshot=True, on_event=record_snapshot_queries,
        )
        assert report2.ok, [str(m) for m in report2.mismatches]
        assert report2.from_snapshot is not None
        assert report2.start_seq > 0
        assert np.array_equal(report2.core.live.engine.states, final_states)
        assert np.array_equal(report2.core.live.engine.alive, final_alive)
        # The replayed suffix of the stream matches the original rows.
        suffix = [
            row for row in original_stream if row.seq >= report2.start_seq
        ]
        assert report2.core.stream == suffix
        # Query answers agree at every logged point both replays share
        # -- including the window-dependent convergence query, which
        # only works because snapshots carry the history window.
        for seq, expected in snapshot_queries.items():
            assert genesis_queries[seq] == expected

    def test_replay_tolerates_torn_tail(self, tmp_path):
        core = ServiceCore(
            LiveEngine(LiveConfig(protocol="endemic", n=64, seed=5)),
            directory=tmp_path,
            retain_stream=True,
        )
        core.start()
        for _ in range(3):
            core.tick()
        core.log.close()
        # Simulate a crash mid-append: half a JSON record, no newline.
        with open(tmp_path / EVENTS_NAME, "a", encoding="utf-8") as fh:
            fh.write('{"seq": 4, "kind": "tick", "per')
        report = replay_directory(tmp_path)
        assert report.ok
        assert report.torn_tail
        assert report.replayed == 4  # init + 3 ticks; torn line dropped

    def test_from_snapshot_skips_corrupt_anchor(self, tmp_path):
        core = ServiceCore(
            LiveEngine(LiveConfig(protocol="endemic", n=64, seed=6)),
            directory=tmp_path,
            retain_stream=True,
        )
        core.start()
        core.tick(2)
        core.snapshot_now()
        core.tick(2)
        core.snapshot_now()
        core.tick(1)
        core.close()
        events, _ = read_events(tmp_path / EVENTS_NAME)
        snapshots = [e for e in events if e.kind == "snapshot"]
        assert len(snapshots) == 2
        # Corrupt the newest snapshot across a 64-byte window (a single
        # byte can land in unchecked zip padding).
        newest = tmp_path / snapshots[-1].data["file"]
        blob = bytearray(newest.read_bytes())
        start = len(blob) // 2
        for i in range(start, min(start + 64, len(blob))):
            blob[i] ^= 0xFF
        newest.write_bytes(bytes(blob))
        anchor = latest_snapshot(events, tmp_path)
        assert anchor is not None
        assert anchor[0].seq == snapshots[0].seq  # fell back to older
        report = replay_directory(tmp_path, from_snapshot=True)
        assert report.ok, [str(m) for m in report.mismatches]
        assert report.from_snapshot == snapshots[0].data["file"]

    @pytest.mark.parametrize("from_snapshot", [False, True])
    def test_a_directory_from_before_the_applications_replays(
        self, from_snapshot
    ):
        # Written by `repro serve --protocol endemic --n 60 --seed 5
        # --no-listen --virtual-clock --max-periods 12 --snapshot-every
        # 12` before the applications became ServiceCore clients: the
        # single-population log and snapshot formats did not move.
        directory = Path(__file__).parent / "data" / "serve-endemic-60"
        report = replay_directory(directory, from_snapshot=from_snapshot)
        assert report.ok, [str(m) for m in report.mismatches]
        assert report.replayed == (1 if from_snapshot else 15)
        assert report.core.live.period == 12

    def test_old_format_snapshot_is_refused_and_genesis_replays(
        self, tmp_path, capsys
    ):
        core = ServiceCore(
            LiveEngine(LiveConfig(protocol="endemic", n=64, seed=8)),
            directory=tmp_path,
        )
        core.start()
        core.tick(3)
        core.apply_event("fail", {"fraction": 0.25})
        path = core.snapshot_now()
        core.tick(2)
        core.close()
        # Rewrite the snapshot into the retired layout: each generator a
        # pickled uint8 array beside the host arrays, none in meta.
        arrays, meta = load_snapshot(path)
        engine = LiveEngine.restore(arrays, meta).engine
        for name, rng in (("rng", engine._rng), ("fault_rng", engine._fault_rng)):
            arrays[name] = np.frombuffer(pickle.dumps(rng), dtype=np.uint8)
            del meta[name]
        save_snapshot(path, arrays, meta)

        with pytest.raises(SnapshotError, match="old-format .*genesis"):
            replay_directory(tmp_path, from_snapshot=True)
        assert cli_main(["replay", str(tmp_path), "--from-snapshot"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cannot replay: old-format")
        assert replay_directory(tmp_path).ok
