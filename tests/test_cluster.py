"""Tests for the cluster backend (repro.runtime.cluster).

Four layers, cheapest first: pure framing (no sockets beyond a
``socketpair``), a :class:`WorkerSession` driven in-process against a
scripted coordinator stub, a real coordinator driven by scripted
workers (``cluster_helpers.CoordinatorStub`` -- frames, requeueing and
what a lying worker can and cannot do), and full
``run_plan(backend="cluster")`` runs with real spawned worker
processes -- including scripted chaos (kill/hang), dispatch-exhaustion
provenance, SIGTERM drain, and an elastic standalone
``python -m repro worker`` joining mid-plan.
"""

import os
import pickle
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import cluster_helpers as helpers
from repro.runtime import (
    ChaosSchedule,
    ExecutionPlan,
    FaultPolicy,
    WorkerFault,
    WorkUnit,
    run_plan,
)
from repro.runtime.cluster import (
    PORT_ENV,
    SCHEDULE_ENV,
    ClusterCoordinator,
    ClusterDrained,
    MessageBuffer,
    WorkerSession,
    _connect_with_retry,
    encode_message,
)
from repro.runtime.exec import UnitFailure, _encode_units

TESTS_DIR = Path(__file__).resolve().parent
SRC_DIR = TESTS_DIR.parent / "src"


def fast_policy(**overrides):
    """A fault policy tuned so failure detection takes ~0.3s, not 2s."""
    base = dict(heartbeat_seconds=0.1, heartbeat_misses=3)
    base.update(overrides)
    return FaultPolicy(**base)


def plan_of(values, runner=helpers.double_unit, **kwargs):
    return ExecutionPlan(
        units=[
            WorkUnit(runner=runner, payload=v, label=f"unit-{i}")
            for i, v in enumerate(values)
        ],
        merge=list,
        **kwargs,
    )


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
class TestFraming:
    def test_socket_round_trip(self):
        a, b = socket.socketpair()
        try:
            message = ("results", [{"value": [1, 2, 3]}], [], 0.5)
            a.sendall(encode_message(message))
            assert MessageBuffer().receive(b) == message
        finally:
            a.close()
            b.close()

    def test_receive_none_on_eof(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert MessageBuffer().receive(b) is None
        finally:
            b.close()

    def test_receive_keeps_what_came_with_a_message(self):
        # Two messages in one segment: the second waits in the buffer,
        # and EOF is only reported once both are read.
        a, b = socket.socketpair()
        try:
            messages = [("frame", 0, 4), ("shutdown",)]
            a.sendall(b"".join(encode_message(m) for m in messages))
            a.close()
            buffer = MessageBuffer()
            assert [buffer.receive(b) for _ in messages] == messages
            assert buffer.receive(b) is None
        finally:
            b.close()

    def test_buffer_reassembles_byte_by_byte(self):
        message = ("setup", None, [b"payload-blob"], ["label"])
        frame = encode_message(message)
        buffer = MessageBuffer()
        for i, byte in enumerate(frame):
            assert buffer.pop() is None, f"popped early at byte {i}"
            buffer.feed(bytes([byte]))
        assert buffer.pop() == message
        assert buffer.pop() is None

    def test_buffer_pops_coalesced_messages_in_order(self):
        messages = [
            ("heartbeat",), ("results", [42], [], 0.0), ("hello", {}),
        ]
        buffer = MessageBuffer()
        buffer.feed(b"".join(encode_message(m) for m in messages))
        assert [buffer.pop() for _ in messages] == messages
        assert buffer.pop() is None

    def test_oversized_frame_is_rejected_not_allocated(self):
        buffer = MessageBuffer()
        buffer.feed(struct.pack("!Q", 1 << 40))
        with pytest.raises(ValueError, match="exceeds limit"):
            buffer.pop()


def test_a_dialled_socket_waits_for_frames_without_a_deadline():
    # The dial is bounded; the wait for the next frame is not, or a
    # worker idle while others finish theirs would die of a timeout.
    listener = socket.create_server(("127.0.0.1", 0))
    try:
        sock = _connect_with_retry(*listener.getsockname())
        try:
            assert sock.gettimeout() is None
        finally:
            sock.close()
    finally:
        listener.close()


# ----------------------------------------------------------------------
# WorkerSession over a socketpair (no subprocesses)
# ----------------------------------------------------------------------
def boom_runner(payload):
    raise RuntimeError(f"unit {payload} exploded")


class ScriptedCoordinator:
    """The coordinator's end of a socketpair, spoken for by a test."""

    def __init__(self, sock):
        self.sock = sock
        self.inbox = MessageBuffer()

    def send(self, *messages):
        self.sock.sendall(b"".join(encode_message(m) for m in messages))

    def expect(self, kind, timeout=5.0):
        """Read messages (skipping heartbeats) until ``kind`` arrives."""
        self.sock.settimeout(timeout)
        while True:
            message = self.inbox.receive(self.sock)
            assert message is not None, f"EOF while waiting for {kind!r}"
            if message[0] == kind:
                return message


def start_session(sock, **kwargs):
    session = WorkerSession(sock, **kwargs)
    box = {}

    def run():
        box["status"] = session.run()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return session, thread, box


def setup_message(units=(), policy=None):
    """A ``setup`` carrying the plan ``units``: ``(runner, payload,
    label)`` triples, pickled as ``exec._encode_units`` does."""
    return (
        "setup", policy or FaultPolicy(),
        [pickle.dumps((runner, payload)) for runner, payload, _ in units],
        [label for _, _, label in units],
    )


class TestWorkerSession:
    def test_hello_setup_unit_result_shutdown(self):
        near, worker = socket.socketpair()
        coord = ScriptedCoordinator(near)
        try:
            _, thread, box = start_session(worker, launch_index=4)
            hello = coord.expect("hello")
            assert hello[1]["pid"] == os.getpid()
            assert hello[1]["launch"] == 4
            coord.send(
                setup_message([(helpers.double_unit, 21, "u")]),
                ("frame", 0, 1),
            )
            _, outputs, failures, seconds = coord.expect("results")
            assert (outputs, failures) == ([42], [])
            assert seconds >= 0.0
            coord.send(("shutdown",))
            thread.join(timeout=5)
            assert box["status"] == 0
        finally:
            near.close()
            worker.close()

    def test_a_frame_is_any_range_of_the_plan(self):
        near, worker = socket.socketpair()
        coord = ScriptedCoordinator(near)
        try:
            _, thread, _ = start_session(worker)
            coord.expect("hello")
            coord.send(setup_message([
                (helpers.double_unit, v, f"u{v}") for v in range(6)
            ]))
            for start, stop in [(2, 5), (0, 1), (5, 6), (2, 5)]:
                coord.send(("frame", start, stop))
                _, outputs, _, _ = coord.expect("results")
                assert outputs == [2 * v for v in range(start, stop)]
            coord.send(("shutdown",))
            thread.join(timeout=5)
        finally:
            near.close()
            worker.close()

    def test_heartbeats_flow_between_units(self):
        near, worker = socket.socketpair()
        coord = ScriptedCoordinator(near)
        try:
            _, thread, _ = start_session(worker)
            coord.expect("hello")
            coord.send(setup_message(
                policy=FaultPolicy(heartbeat_seconds=0.02)
            ))
            assert coord.expect("heartbeat") == ("heartbeat",)
            coord.send(("shutdown",))
            thread.join(timeout=5)
        finally:
            near.close()
            worker.close()

    def test_unit_failure_respects_the_policy(self):
        near, worker = socket.socketpair()
        coord = ScriptedCoordinator(near)
        try:
            _, thread, _ = start_session(worker)
            coord.expect("hello")
            policy = FaultPolicy(on_error="skip", retries=0)
            coord.send(
                setup_message([
                    (helpers.double_unit, 2, "first"),
                    (helpers.double_unit, 4, "u"),
                    (boom_runner, 5, "bad"),
                    (helpers.double_unit, 6, "u"),
                ], policy),
                ("frame", 1, 4),
            )
            _, outputs, failures, _seconds = coord.expect("results")
            # The failure sits in its own slot; its frame-mates land.
            assert outputs == [8, None, 12]
            ((slot, failure),) = failures
            assert (slot, failure.index) == (1, 2)
            assert isinstance(failure, UnitFailure)
            assert failure.label == "bad"
            assert failure.attempts == 1
            assert "exploded" in failure.error
            coord.send(("shutdown",))
            thread.join(timeout=5)
        finally:
            near.close()
            worker.close()

    def test_unpicklable_output_degrades_to_a_failure(self):
        near, worker = socket.socketpair()
        coord = ScriptedCoordinator(near)
        try:
            _, thread, _ = start_session(worker)
            coord.expect("hello")
            coord.send(
                setup_message([
                    (helpers.double_unit, 4, "u"),
                    (helpers.make_unpicklable, 9, "lambda-out"),
                ]),
                ("frame", 0, 2),
            )
            _, outputs, failures, _seconds = coord.expect("results")
            # Only the unit whose output will not pickle fails.
            assert outputs == [8, None]
            ((slot, failure),) = failures
            assert (slot, failure.index) == (1, 1)
            assert isinstance(failure, UnitFailure)
            assert "pickled" in failure.error
            coord.send(("shutdown",))
            thread.join(timeout=5)
        finally:
            near.close()
            worker.close()

    def test_coordinator_eof_ends_the_session_cleanly(self):
        near, worker = socket.socketpair()
        coord = ScriptedCoordinator(near)
        try:
            _, thread, box = start_session(worker)
            coord.expect("hello")
            coord.send(setup_message())
            near.close()
            thread.join(timeout=5)
            assert box["status"] == 0
        finally:
            worker.close()


# ----------------------------------------------------------------------
# A real coordinator, scripted workers (no subprocesses)
# ----------------------------------------------------------------------
@pytest.fixture
def stub():
    stub = helpers.CoordinatorStub(units=8)
    yield stub
    stub.close()


class TestCoordinatorFrames:
    def test_setup_carries_the_plan_and_frames_only_a_range(self, stub):
        far, setup, frame = stub.join()
        kind, policy, blobs, labels = setup
        assert kind == "setup"
        assert policy == stub.table.policy
        assert blobs == stub.blobs
        assert labels == [f"unit-{v}" for v in range(8)]
        assert frame == [0]
        # A worker that joins mid-plan gets the very same plan.
        stub.say(far, ("results", [0], [], 0.0001))
        _late, late_setup, late_frame = stub.join()
        assert late_setup == ("setup", policy, stub.blobs, labels)
        assert (stub.frame(far), late_frame) == ([1, 2], [5, 6, 7])

    def test_results_land_and_the_next_frame_doubles(self, stub):
        far, _setup, frame = stub.join()
        stub.say(far, ("results", [0], [], 0.0001))
        assert stub.landed == [(0, 0, None)]
        assert stub.frame(far) == [1, 2]
        stub.say(far, ("results", [2, 4], [], 0.0001))
        assert (stub.frame(far), stub.frame(far)) == ([3, 4], [5, 6, 7])
        stats = stub.coordinator.stats
        assert (stats["frames"], stats["largest_frame"]) == (4, 3)
        assert (stats["dispatches"], stats["redispatches"]) == (8, 0)
        assert stats["spares"] == 2

    def test_slow_units_never_share_a_frame(self, stub):
        far, _setup, frame = stub.join()
        for index in range(4):
            assert frame == [index]
            stub.say(far, ("results", [2 * index], [], 0.030))
            frame = stub.frame(far)
        assert stub.coordinator.stats["largest_frame"] == 1
        assert stub.coordinator.stats["spares"] == 0

    def test_a_lost_frame_is_requeued_whole_in_order(self, stub):
        stub.table.size = 4
        far, _setup, frame = stub.join()
        assert frame == [0, 1, 2, 3]
        assert stub.pending() == [4, 5, 6, 7]
        stub.hang_up(far)
        assert stub.pending() == list(range(8))
        assert stub.landed == []
        # Each lost unit goes out again alone, in order, so a unit that
        # killed its worker takes no frame-mate with it twice.
        far, _setup, frame = stub.join()
        assert frame == [0]
        stub.say(far, ("results", [0], [], 0.0001))
        assert stub.frame(far) == [1]
        # redispatches counts units, not frames.
        assert stub.coordinator.stats["redispatches"] == 2
        assert stub.coordinator.stats["workers_lost"] == 1

    def test_dispatch_exhaustion_is_per_unit(self):
        stub = helpers.CoordinatorStub(
            units=4, policy=FaultPolicy(on_error="skip", max_dispatches=2)
        )
        try:
            far, _setup, frame = stub.join()
            assert frame == [0]
            stub.hang_up(far)
            stub.table.size = 3
            far, _setup, frame = stub.join()
            assert frame == [0]
            stub.hang_up(far)
            # Unit 0 has now out-lived two workers; 1-3 none.
            assert [index for index, _, _ in stub.landed] == [0]
            failure = stub.landed[0][2]
            assert failure.redispatches == 1 and failure.attempts == 2
            assert failure.worker == "w1" and "dispatch" in failure.error
            assert stub.pending() == [1, 2, 3]
            _far, _setup, frame = stub.join()
            assert frame == [1, 2, 3]
        finally:
            stub.close()


def failure_of(index):
    return UnitFailure(
        index=index, label=f"unit-{index}", error="boom", traceback="",
        attempts=1,
    )


class TestHostileInput:
    """Whatever a worker sends, the plan neither aborts nor lands junk."""

    @pytest.mark.parametrize("message", [
        ("results", [0], []),                      # wrong arity
        ("results", [0], [], 0.0, "extra"),
        ("results", [(0, 0, None)], 0.0),          # the per-unit tuples
        ("results", [0, 2], [], 0.0),              # an output too many
        ("results", [], [], 0.0),                  # a short outputs
        ("results", (0,), [], 0.0),
        ("results", [0], (), 0.0),
        ("results", [0], [], "fast"),
        ("results", [0], [], True),
        ("results", [None], [(0, "failed")], 0.0),
        ("results", [None], [failure_of(0)], 0.0),  # not a (slot, failure)
        ("results", [None], [(1, failure_of(0))], 0.0),  # slot out of range
        ("results", [None], [(-1, failure_of(0))], 0.0),
        ("results", [None], [(True, failure_of(0))], 0.0),
        ("results", [None], [(0, failure_of(0))] * 2, 0.0),  # duplicate slot
        ("results", [0], [(0, failure_of(0))], 0.0),  # an output beside it
        ("result", 0, 0, None),                    # the old protocol
        ("unit", 0, b"", "", None),
        ("no-such-kind",),
        (),
        42,
    ])
    def test_malformed_message_fences_the_worker(self, stub, message):
        far, _setup, frame = stub.join()
        assert frame == [0]
        stub.say(far, message)
        assert stub.landed == []
        assert stub.coordinator._connections == {}
        assert stub.coordinator.stats["workers_lost"] == 1
        # The frame is back at the front for the next worker.
        assert stub.pending() == list(range(8))

    @pytest.mark.parametrize("named", [1, 99, -1, "junk"])
    def test_a_failure_is_the_unit_of_its_slot(self, stub, named):
        # Whatever unit a failure record names -- one not dispatched,
        # one outside the plan, not an index at all -- the coordinator
        # names it from the frame it sent.
        far, _setup, frame = stub.join()
        assert frame == [0]
        stub.say(far, ("results", [None], [(0, failure_of(named))], 0.0))
        ((index, output, failure),) = stub.landed
        assert (index, output) == (0, None)
        assert (failure.index, failure.label) == (0, "unit-0")
        assert (failure.worker, failure.redispatches) == ("w0", 0)
        assert stub.coordinator.stats["workers_lost"] == 0

    def test_a_unit_in_flight_elsewhere_cannot_be_failed(self, stub):
        honest, _setup, honest_frame = stub.join()
        liar, _setup, liar_frame = stub.join()
        assert (honest_frame, liar_frame) == ([0], [1])
        # A failure that names the honest worker's unit lands under the
        # liar's own, and nothing lands for the honest worker's.
        stub.say(liar, ("results", [None], [(0, failure_of(0))], 0.0))
        ((index, _output, failure),) = stub.landed
        assert (index, failure.index, failure.label) == (1, 1, "unit-1")
        assert failure.worker == "w1"
        # The honest worker's frame is still its own to answer.
        stub.say(honest, ("results", [0], [], 0.030))
        assert stub.landed[1:] == [(0, 0, None)]
        assert stub.coordinator.stats["workers_lost"] == 0

    def test_nothing_is_read_from_a_fenced_worker(self, stub):
        far, _setup, _frame = stub.join()
        stub.say(
            far,
            ("no-such-kind",),
            ("results", ["late"], [], 0.0),
            ("fatal", "again"),
        )
        assert stub.landed == []
        assert stub.coordinator.stats["workers_lost"] == 1

    def test_a_bare_fatal_is_a_lost_worker_not_a_crash(self, stub):
        far, _setup, _frame = stub.join()
        stub.say(far, ("fatal",))
        assert stub.coordinator.stats["workers_lost"] == 1
        assert stub.pending() == list(range(8))


# ----------------------------------------------------------------------
# Full cluster runs (real worker processes)
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestClusterRunPlan:
    def test_matches_the_serial_run(self, worker_path):
        values = list(range(6))
        serial = run_plan(plan_of(values))
        clustered = run_plan(
            plan_of(values), workers=3, backend="cluster",
            fault_policy=fast_policy(),
        )
        assert clustered == serial == [v * 2 for v in values]

    def test_units_run_in_worker_processes(self, worker_path):
        results = run_plan(
            plan_of(list(range(4)), runner=helpers.unit_pid),
            workers=2, backend="cluster", fault_policy=fast_policy(),
        )
        assert [value for value, _pid in results] == [0, 1, 2, 3]
        pids = {pid for _value, pid in results}
        assert os.getpid() not in pids

    def test_killed_worker_unit_is_redispatched(self, worker_path):
        chaos = ChaosSchedule(faults={
            0: (WorkerFault(kind="kill", after_units=1),),
        })
        values = list(range(6))
        clustered = run_plan(
            plan_of(values), workers=2, backend="cluster",
            fault_policy=fast_policy(), chaos=chaos,
        )
        assert clustered == [v * 2 for v in values]

    def test_hung_worker_is_fenced_by_heartbeats(self, worker_path):
        chaos = ChaosSchedule(faults={
            0: (WorkerFault(kind="hang", after_units=1),),
        })
        values = list(range(6))
        clustered = run_plan(
            plan_of(values), workers=2, backend="cluster",
            fault_policy=fast_policy(), chaos=chaos,
        )
        assert clustered == [v * 2 for v in values]

    def test_chaos_schedule_is_read_from_the_environment(
        self, worker_path, monkeypatch
    ):
        schedule = ChaosSchedule(faults={
            0: (WorkerFault(kind="kill", after_units=1),),
        })
        monkeypatch.setenv(SCHEDULE_ENV, schedule.to_json())
        values = list(range(4))
        clustered = run_plan(
            plan_of(values), workers=2, backend="cluster",
            fault_policy=fast_policy(),
        )
        assert clustered == [v * 2 for v in values]

    def test_dispatch_exhaustion_fails_the_unit_with_provenance(
        self, worker_path
    ):
        # Every worker that picks up unit 0 dies on it: launches 0 and
        # 1 are both scripted to kill on their first unit.  With
        # max_dispatches=2 the second loss is terminal for the unit;
        # the replacement worker (launch 2, unscripted) finishes the
        # rest of the plan.
        chaos = ChaosSchedule(faults={
            0: (WorkerFault(kind="kill", after_units=1),),
            1: (WorkerFault(kind="kill", after_units=1),),
        })
        failures = []
        values = list(range(3))
        merged = run_plan(
            plan_of(values), workers=1, backend="cluster",
            fault_policy=fast_policy(
                on_error="skip", retries=0, max_dispatches=2
            ),
            on_failure=failures.append, chaos=chaos,
        )
        assert len(failures) == 1
        failure = failures[0]
        assert failure.index == 0
        assert failure.attempts == 2
        assert failure.redispatches == 1
        assert failure.worker == "w1"
        assert "dispatch" in failure.error
        # The failed unit occupies its merge slot as the failure record
        # (the ordinary on_error="skip" contract); survivors are exact.
        assert merged[0] is failure
        assert merged[1:] == [2, 4]

    @pytest.mark.heavy  # five worker interpreters: ~2 s
    def test_a_spent_spawn_budget_stalls_the_plan(self, worker_path):
        # One worker may be started 1 * 3 + 2 = 5 times.  Unit 0 kills
        # launches 0-2 and is exhausted; unit 1 kills launches 3 and 4
        # and still has a dispatch left, but no worker may start.
        failures = []
        with pytest.raises(RuntimeError, match="stalled") as stalled:
            run_plan(
                plan_of([0, 1], runner=helpers.kill_self), workers=1,
                backend="cluster", on_failure=failures.append,
                fault_policy=fast_policy(
                    on_error="skip", retries=0, max_dispatches=3
                ),
            )
        assert "spawn budget (5) spent, 1 unit(s) still pending" in str(
            stalled.value
        )
        assert "raise FaultPolicy.max_dispatches" in str(stalled.value)
        (failure,) = failures
        assert (failure.index, failure.attempts) == (0, 3)

    def test_sigterm_drains_in_flight_units_then_raises(self, worker_path):
        landed = []

        def on_unit(index, output):
            landed.append(index)
            if len(landed) == 1:
                os.kill(os.getpid(), signal.SIGTERM)

        values = [(v, 0.2) for v in range(6)]
        with pytest.raises(ClusterDrained) as info:
            run_plan(
                plan_of(values, runner=helpers.slow_double),
                workers=2, backend="cluster",
                fault_policy=fast_policy(), on_unit=on_unit,
            )
        # Everything in flight at the SIGTERM landed (and fired its
        # on_unit checkpoint) before the drain surfaced; the rest of
        # the plan was never started.
        assert info.value.completed == len(landed)
        assert 1 <= info.value.completed < len(values)

    def test_standalone_worker_joins_a_pinned_port_plan(
        self, worker_path, monkeypatch
    ):
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        monkeypatch.setenv(PORT_ENV, str(port))

        units = [
            WorkUnit(
                runner=helpers.slow_double, payload=(v, 0.25),
                label=f"unit-{v}",
            )
            for v in range(6)
        ]
        plan = ExecutionPlan(units=units, merge=list, label="elastic")
        blobs = _encode_units(plan)
        assert blobs is not None
        coordinator = ClusterCoordinator(
            label="elastic",
            blobs=blobs,
            labels=[unit.label for unit in units],
            policy=fast_policy(),
            workers=1,
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{SRC_DIR}{os.pathsep}{TESTS_DIR}"
        external = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker",
             "--connect", f"127.0.0.1:{port}"],
            env=env, stdin=subprocess.DEVNULL,
        )
        try:
            outputs = {}

            def land(index, output, failure):
                assert failure is None
                outputs[index] = output

            coordinator.run(land)
            assert outputs == {v: v * 2 for v in range(6)}
            # The dial-in worker was adopted mid-plan (it has no launch
            # slot, so it can never be confused with a spawned worker).
            assert coordinator.stats["external_joins"] == 1
            assert coordinator.stats["spawned"] >= 1
            assert external.wait(timeout=10) == 0
        finally:
            if external.poll() is None:
                external.kill()
                external.wait(timeout=10)
