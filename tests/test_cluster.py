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
    encode_message,
    recv_message,
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
            assert recv_message(b) == message
        finally:
            a.close()
            b.close()

    def test_recv_none_on_eof(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_message(b) is None
        finally:
            b.close()

    def test_buffer_reassembles_byte_by_byte(self):
        message = ("frame", [(7, b"payload-blob", "label")])
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


# ----------------------------------------------------------------------
# WorkerSession over a socketpair (no subprocesses)
# ----------------------------------------------------------------------
def boom_runner(payload):
    raise RuntimeError(f"unit {payload} exploded")


def start_session(sock, **kwargs):
    session = WorkerSession(sock, **kwargs)
    box = {}

    def run():
        box["status"] = session.run()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return session, thread, box


def expect(sock, kind, timeout=5.0):
    """Read messages (skipping heartbeats) until ``kind`` arrives."""
    sock.settimeout(timeout)
    while True:
        message = recv_message(sock)
        assert message is not None, f"EOF while waiting for {kind!r}"
        if message[0] == kind:
            return message


def job(index, runner, payload, label="u"):
    return (index, pickle.dumps((runner, payload)), label)


def setup_message(worker_id, policy=None):
    return ("setup", worker_id, policy or FaultPolicy())


def frame_message(*jobs):
    return ("frame", list(jobs))


class TestWorkerSession:
    def test_hello_setup_unit_result_shutdown(self):
        coord, worker = socket.socketpair()
        try:
            session, thread, box = start_session(worker, launch_index=4)
            hello = expect(coord, "hello")
            assert hello[1]["pid"] == os.getpid()
            assert hello[1]["launch"] == 4
            coord.sendall(encode_message(setup_message("w9")))
            coord.sendall(encode_message(
                frame_message(job(0, helpers.double_unit, 21))
            ))
            _, outputs, failures, seconds = expect(coord, "results")
            assert (outputs, failures) == ([42], [])
            assert seconds >= 0.0
            assert session.worker_id == "w9"
            coord.sendall(encode_message(("shutdown",)))
            thread.join(timeout=5)
            assert box["status"] == 0
        finally:
            coord.close()
            worker.close()

    def test_heartbeats_flow_between_units(self):
        coord, worker = socket.socketpair()
        try:
            _, thread, _ = start_session(worker)
            expect(coord, "hello")
            coord.sendall(encode_message(
                setup_message("w0", FaultPolicy(heartbeat_seconds=0.02))
            ))
            assert expect(coord, "heartbeat") == ("heartbeat",)
            coord.sendall(encode_message(("shutdown",)))
            thread.join(timeout=5)
        finally:
            coord.close()
            worker.close()

    def test_unit_failure_respects_the_policy(self):
        coord, worker = socket.socketpair()
        try:
            _, thread, _ = start_session(worker)
            expect(coord, "hello")
            policy = FaultPolicy(on_error="skip", retries=0)
            coord.sendall(encode_message(setup_message("w0", policy)))
            coord.sendall(encode_message(frame_message(
                job(1, helpers.double_unit, 4),
                job(2, boom_runner, 5, label="bad"),
                job(3, helpers.double_unit, 6),
            )))
            _, outputs, failures, _seconds = expect(coord, "results")
            # The failure sits in its own slot; its frame-mates land.
            assert outputs == [8, None, 12]
            ((slot, failure),) = failures
            assert (slot, failure.index) == (1, 2)
            assert isinstance(failure, UnitFailure)
            assert failure.label == "bad"
            assert failure.attempts == 1
            assert "exploded" in failure.error
            coord.sendall(encode_message(("shutdown",)))
            thread.join(timeout=5)
        finally:
            coord.close()
            worker.close()

    def test_unpicklable_output_degrades_to_a_failure(self):
        coord, worker = socket.socketpair()
        try:
            _, thread, _ = start_session(worker)
            expect(coord, "hello")
            coord.sendall(encode_message(setup_message("w3")))
            coord.sendall(encode_message(frame_message(
                job(0, helpers.double_unit, 4),
                job(1, helpers.make_unpicklable, 9, label="lambda-out"),
            )))
            _, outputs, failures, _seconds = expect(coord, "results")
            # Only the unit whose output will not pickle fails.
            assert outputs == [8, None]
            ((slot, failure),) = failures
            assert (slot, failure.index) == (1, 1)
            assert isinstance(failure, UnitFailure)
            assert "pickled" in failure.error
            assert failure.worker == "w3"
            coord.sendall(encode_message(("shutdown",)))
            thread.join(timeout=5)
        finally:
            coord.close()
            worker.close()

    def test_coordinator_eof_ends_the_session_cleanly(self):
        coord, worker = socket.socketpair()
        try:
            _, thread, box = start_session(worker)
            expect(coord, "hello")
            coord.sendall(encode_message(setup_message("w0")))
            coord.close()
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
    def test_setup_carries_the_policy_and_frames_do_not(self, stub):
        _far, setup, frame = stub.join()
        kind, worker_id, policy = setup
        assert (kind, worker_id) == ("setup", "w0")
        assert policy == stub.table.policy
        assert frame == [0]

    def test_results_land_and_the_next_frame_doubles(self, stub):
        far, _setup, frame = stub.join()
        stub.say(far, ("results", [0], [], 0.0001))
        assert stub.landed == [(0, 0, None)]
        assert stub.frame(far) == [1, 2]
        stub.say(far, ("results", [2, 4], [], 0.0001))
        assert stub.frame(far) == [3, 4, 5, 6]
        stats = stub.coordinator.stats
        assert (stats["frames"], stats["largest_frame"]) == (3, 4)
        assert (stats["dispatches"], stats["redispatches"]) == (7, 0)

    def test_slow_units_never_share_a_frame(self, stub):
        far, _setup, frame = stub.join()
        for index in range(4):
            assert frame == [index]
            stub.say(far, ("results", [2 * index], [], 0.030))
            frame = stub.frame(far)
        assert stub.coordinator.stats["largest_frame"] == 1

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
        ("results", [None], [(0, failure_of(1))], 0.0),  # not dispatched
        ("results", [None], [(0, failure_of(99))], 0.0),  # outside the plan
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

    def test_a_unit_in_flight_elsewhere_is_refused(self, stub):
        honest, _setup, honest_frame = stub.join()
        liar, _setup, liar_frame = stub.join()
        assert (honest_frame, liar_frame) == ([0], [1])
        # Outputs name no unit; a failure does, and this one names the
        # honest worker's.
        stub.say(liar, ("results", [None], [(0, failure_of(0))], 0.0))
        assert stub.landed == []
        assert stub.coordinator.stats["workers_lost"] == 1
        # The liar's own unit went straight back out; the honest
        # worker's frame is still its own to answer.
        assert stub.pending() == [1, 2, 3, 4, 5, 6, 7]
        stub.say(honest, ("results", [0], [], 0.030))
        assert stub.landed == [(0, 0, None)]
        assert stub.frame(honest) == [1]

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
