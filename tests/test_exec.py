"""Tests for the unified execution layer (repro.runtime.exec)."""

import os
import pickle
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.runtime.exec as exec_module
from cluster_helpers import (
    contract_unit,
    framing,
    kill_self,
    make_unpicklable,
    mixed_plan,
    mixed_unit,
    unit_pid,
)
from repro.runtime import (
    ExecutionPlan,
    FaultPolicy,
    UnitExecutionError,
    UnitFailure,
    WorkUnit,
    run_plan,
)
from repro.runtime.dispatch import Dispatcher, _next_frame_size
from repro.runtime.exec import (
    UnitTimeout,
    _attempt_deadline,
    _encode_results,
    _encode_units,
    _jitter_fraction,
    _run_frame,
)


REPO_SRC = Path(__file__).resolve().parents[1] / "src"


def double(payload):
    return payload * 2


def boom(payload):
    raise RuntimeError(f"unit {payload} exploded")


def flaky(payload):
    """Fail until a sentinel file has accumulated enough attempts.

    The attempt count lives on disk so the failure is visible across
    processes (pool workers) as well as in-process runs.
    """
    path, fail_attempts, value = payload
    with open(path, "a") as handle:
        handle.write("x")
    attempts_so_far = len(open(path).read())
    if attempts_so_far <= fail_attempts:
        raise RuntimeError(f"transient fault on attempt {attempts_so_far}")
    return value * 2


def sleepy(payload):
    time.sleep(payload)
    return "done"


class CountingPayload:
    """Payload whose pickling is observable (for pickle-once tests)."""

    def __init__(self, value):
        self.value = value
        self.pickled = 0

    def __getstate__(self):
        self.pickled += 1
        return {"value": self.value, "pickled": self.pickled}

    def __setstate__(self, state):
        self.value = state["value"]
        self.pickled = state["pickled"]


def unwrap(payload):
    return payload.value * 2


def plan_of(values, merge=list):
    return ExecutionPlan(
        units=[WorkUnit(runner=double, payload=v) for v in values],
        merge=merge,
    )


class TestRunPlan:
    def test_merge_sees_unit_order(self):
        assert run_plan(plan_of([3, 1, 2])) == [6, 2, 4]

    @pytest.mark.parametrize("workers", [1, 3, 8])
    def test_result_is_worker_independent(self, workers):
        assert run_plan(plan_of(list(range(7))), workers=workers) == [
            2 * v for v in range(7)
        ]

    def test_on_unit_streams_every_unit(self):
        seen = {}
        run_plan(
            plan_of([5, 6, 7]),
            on_unit=lambda index, output: seen.__setitem__(index, output),
        )
        assert seen == {0: 10, 1: 12, 2: 14}

    def test_mergeless_plan_returns_none(self):
        outputs = []
        result = run_plan(
            plan_of([1, 2], merge=None),
            on_unit=lambda index, output: outputs.append((index, output)),
        )
        assert result is None
        assert sorted(outputs) == [(0, 2), (1, 4)]

    def test_single_unit_never_pools(self):
        # One unit with many workers runs in-process (no pool spawn).
        assert run_plan(plan_of([4]), workers=16) == [8]

    def test_workers_validation(self):
        with pytest.raises(ValueError, match="workers"):
            run_plan(plan_of([1]), workers=0)

    def test_unit_errors_propagate(self):
        plan = ExecutionPlan(
            units=[WorkUnit(runner=boom, payload=1)], merge=list
        )
        with pytest.raises(RuntimeError, match="exploded"):
            run_plan(plan)


class TestFaultPolicy:
    def test_defaults_are_single_attempt_raise(self):
        policy = FaultPolicy()
        assert policy.on_error == "raise"
        assert policy.attempts == 1

    def test_retry_and_skip_get_extra_attempts(self):
        assert FaultPolicy(on_error="retry", retries=3).attempts == 4
        assert FaultPolicy(on_error="skip", retries=0).attempts == 1

    def test_backoff_is_capped_exponential(self):
        policy = FaultPolicy(
            on_error="retry", backoff_seconds=0.1, backoff_factor=2.0,
            max_backoff_seconds=0.3,
        )
        assert policy.backoff_for(0) == pytest.approx(0.1)
        assert policy.backoff_for(1) == pytest.approx(0.2)
        assert policy.backoff_for(5) == pytest.approx(0.3)  # capped

    @pytest.mark.parametrize("bad", [
        {"on_error": "explode"},
        {"retries": -1},
        {"backoff_seconds": -0.1},
        {"backoff_factor": 0.5},
        {"timeout_seconds": 0.0},
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            FaultPolicy(**bad)

    def test_unit_failure_round_trips(self):
        failure = UnitFailure(
            index=3, label="shard 3", error="RuntimeError('x')",
            traceback="Traceback ...", attempts=2,
        )
        assert UnitFailure.from_dict(failure.to_dict()) == failure


class TestBackoffJitter:
    def test_no_unit_index_keeps_exact_exponential(self):
        # Callers that don't identify the unit (and older call sites)
        # get the historical exact schedule regardless of jitter.
        policy = FaultPolicy(
            on_error="retry", backoff_seconds=0.1, backoff_factor=2.0,
            max_backoff_seconds=0.3, jitter=0.5,
        )
        assert policy.backoff_for(1) == pytest.approx(0.2)

    def test_jitter_zero_is_exact_for_any_unit(self):
        policy = FaultPolicy(on_error="retry", jitter=0.0)
        for unit in range(5):
            assert policy.backoff_for(1, unit_index=unit) == (
                policy.backoff_for(1)
            )

    def test_jittered_backoff_is_deterministic(self):
        # Seeded from the unit index, not entropy: the same (unit,
        # attempt) always sleeps the same time -- the determinism that
        # keeps retried runs bitwise identical.
        policy = FaultPolicy(on_error="retry", jitter=0.5)
        first = [policy.backoff_for(k, unit_index=7) for k in range(4)]
        second = [policy.backoff_for(k, unit_index=7) for k in range(4)]
        assert first == second

    def test_jitter_stays_within_the_base_window(self):
        policy = FaultPolicy(
            on_error="retry", backoff_seconds=0.1, backoff_factor=2.0,
            max_backoff_seconds=2.0, jitter=0.5,
        )
        for unit in range(20):
            base = policy.backoff_for(1)
            jittered = policy.backoff_for(1, unit_index=unit)
            assert base * 0.5 <= jittered <= base

    def test_units_decorrelate(self):
        # The point of the jitter: a mass retry after a worker death
        # must not stampede -- different units sleep different times.
        policy = FaultPolicy(on_error="retry", jitter=1.0)
        sleeps = {policy.backoff_for(0, unit_index=u) for u in range(16)}
        assert len(sleeps) > 8

    def test_jitter_fraction_is_uniformish(self):
        fractions = [_jitter_fraction(u, 0) for u in range(256)]
        assert all(0.0 <= f < 1.0 for f in fractions)
        assert 0.4 < sum(fractions) / len(fractions) < 0.6

    def test_jitter_validation(self):
        with pytest.raises(ValueError, match="jitter"):
            FaultPolicy(jitter=1.5)
        with pytest.raises(ValueError, match="jitter"):
            FaultPolicy(jitter=-0.1)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_jittered_retries_stay_bitwise_identical(
        self, tmp_path, workers
    ):
        # The determinism test the satellite asks for: a plan whose
        # units fail transiently under a *jittered* retry policy still
        # reproduces the clean run exactly.
        reference = run_plan(plan_of([1, 2, 3]), workers=workers)
        flag = tmp_path / f"attempts-{workers}"
        plan = ExecutionPlan(
            units=[
                WorkUnit(runner=double, payload=1),
                WorkUnit(runner=flaky, payload=(str(flag), 1, 2)),
                WorkUnit(runner=double, payload=3),
            ],
            merge=list,
        )
        policy = FaultPolicy(
            on_error="retry", retries=2, backoff_seconds=0.01,
            jitter=1.0,
        )
        assert run_plan(plan, workers=workers, fault_policy=policy) == (
            reference
        )


def in_thread(target):
    """Run ``target`` on a fresh thread: ``{"result"}`` or ``{"error"}``."""
    box = {}

    def wrapper():
        try:
            box["result"] = target()
        except BaseException as exc:  # noqa: BLE001 - test capture
            box["error"] = exc

    thread = threading.Thread(target=wrapper)
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()
    return box


def mark_ran(path):
    with open(path, "a") as handle:
        handle.write("x")
    return "ran"


class TestOffMainThreadTimeout:
    """`timeout_seconds` is `SIGALRM`, which only a main thread arms.

    Pool children and cluster workers run units on their own main
    threads.  An in-process run from any other thread cannot bound its
    units, so it is refused by name before any of them runs.
    """

    def test_in_process_run_is_refused_before_any_unit(self, tmp_path):
        ran = tmp_path / "ran"
        plan = ExecutionPlan(
            units=[WorkUnit(runner=mark_ran, payload=str(ran))] * 2,
            merge=list, label="threaded",
        )
        box = in_thread(lambda: run_plan(
            plan, fault_policy=FaultPolicy(timeout_seconds=5.0)
        ))
        assert isinstance(box.get("error"), ValueError)
        assert "threaded: timeout_seconds=5 needs SIGALRM" in str(
            box["error"]
        )
        assert not ran.exists()

    def test_without_a_timeout_a_thread_runs_in_process(self):
        box = in_thread(lambda: run_plan(plan_of([1, 2])))
        assert box == {"result": [2, 4]}

    def test_pool_children_keep_the_bound(self):
        plan = ExecutionPlan(
            units=[
                WorkUnit(runner=sleepy, payload=0.0),
                WorkUnit(runner=sleepy, payload=30.0, label="hung"),
            ],
            merge=list,
        )
        policy = FaultPolicy(on_error="skip", retries=0, timeout_seconds=0.2)
        box = in_thread(lambda: run_plan(plan, workers=2, fault_policy=policy))
        outputs = box["result"]
        assert outputs[0] == "done"
        assert "UnitTimeout" in outputs[1].error

    def test_on_the_main_thread_a_blocking_call_is_cut_off(self):
        with _attempt_deadline(0.2):
            with pytest.raises(UnitTimeout):
                time.sleep(30.0)
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


class TestFailureProvenance:
    def test_provenance_round_trips(self):
        failure = UnitFailure(
            index=3, label="shard 3", error="lost", traceback="",
            attempts=2, worker="w1", redispatches=2, heartbeat_misses=4,
        )
        data = failure.to_dict()
        assert data["worker"] == "w1"
        assert data["redispatches"] == 2
        assert data["heartbeat_misses"] == 4
        assert UnitFailure.from_dict(data) == failure

    def test_legacy_dicts_parse_without_provenance(self):
        # Manifests written before the provenance fields existed must
        # keep loading (campaign resume reads them back).
        legacy = {
            "index": 1, "label": "p", "error": "e", "traceback": "t",
            "attempts": 2,
        }
        failure = UnitFailure.from_dict(legacy)
        assert failure.worker == ""
        assert failure.redispatches == 0
        assert failure.heartbeat_misses == 0


def retry_policy(retries=2):
    return FaultPolicy(
        on_error="retry", retries=retries, backoff_seconds=0.0
    )


class TestRetries:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_transient_failure_retries_to_identical_result(
        self, tmp_path, workers
    ):
        # A clean plan's result is the reference ...
        reference = run_plan(plan_of([1, 2, 3]), workers=workers)
        # ... and a plan whose middle unit fails once, then succeeds,
        # must reproduce it exactly: the retry re-runs the same payload
        # into the same merge slot.
        flag = tmp_path / "attempts"
        plan = ExecutionPlan(
            units=[
                WorkUnit(runner=double, payload=1),
                WorkUnit(runner=flaky, payload=(str(flag), 1, 2)),
                WorkUnit(runner=double, payload=3),
            ],
            merge=list,
        )
        assert run_plan(
            plan, workers=workers, fault_policy=retry_policy()
        ) == reference
        assert len(flag.read_text()) == 2  # one failure + one success

    def test_exhausted_retries_raise_with_context(self, tmp_path):
        flag = tmp_path / "attempts"
        plan = ExecutionPlan(
            units=[WorkUnit(
                runner=flaky, payload=(str(flag), 99, 1), label="unit-a"
            )],
            merge=list,
            label="retry-test",
        )
        with pytest.raises(UnitExecutionError) as excinfo:
            run_plan(plan, fault_policy=retry_policy(retries=2))
        failure = excinfo.value.failure
        assert failure.index == 0
        assert failure.label == "unit-a"
        assert failure.attempts == 3
        assert "transient fault" in failure.error
        assert "transient fault" in failure.traceback
        # Every attempt actually ran the unit.
        assert len(flag.read_text()) == 3
        # The message names the plan, the unit and the error.
        message = str(excinfo.value)
        assert "retry-test" in message
        assert "unit-a" in message
        assert "3 attempt(s)" in message

    def test_raise_mode_never_retries(self, tmp_path):
        flag = tmp_path / "attempts"
        plan = ExecutionPlan(
            units=[WorkUnit(runner=flaky, payload=(str(flag), 99, 1))],
            merge=list,
        )
        with pytest.raises(UnitExecutionError):
            run_plan(plan)  # default policy
        assert len(flag.read_text()) == 1


class TestSkip:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_skip_yields_partial_results_and_records_failures(
        self, workers
    ):
        plan = ExecutionPlan(
            units=[
                WorkUnit(runner=double, payload=1),
                WorkUnit(runner=boom, payload=2, label="doomed"),
                WorkUnit(runner=double, payload=3),
            ],
            merge=list,
        )
        failures = []
        outputs = run_plan(
            plan,
            workers=workers,
            fault_policy=FaultPolicy(
                on_error="skip", retries=1, backoff_seconds=0.0
            ),
            on_failure=failures.append,
        )
        # The failed unit occupies its merge slot as a UnitFailure; the
        # survivors are untouched.
        assert outputs[0] == 2 and outputs[2] == 6
        assert isinstance(outputs[1], UnitFailure)
        assert [f.index for f in failures] == [1]
        assert failures[0].label == "doomed"
        assert failures[0].attempts == 2
        assert "exploded" in failures[0].error

    def test_skipped_units_do_not_fire_on_unit(self):
        plan = ExecutionPlan(
            units=[
                WorkUnit(runner=double, payload=1),
                WorkUnit(runner=boom, payload=2),
            ],
            merge=None,
        )
        landed = []
        run_plan(
            plan,
            on_unit=lambda index, output: landed.append(index),
            fault_policy=FaultPolicy(
                on_error="skip", retries=0, backoff_seconds=0.0
            ),
        )
        assert landed == [0]


class TestTimeout:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_timeout_fails_the_unit(self, workers):
        plan = ExecutionPlan(
            units=[
                WorkUnit(runner=sleepy, payload=0.0),
                WorkUnit(runner=sleepy, payload=30.0, label="hung"),
            ],
            merge=list,
        )
        failures = []
        outputs = run_plan(
            plan,
            workers=workers,
            fault_policy=FaultPolicy(
                on_error="skip", retries=0, timeout_seconds=0.2
            ),
            on_failure=failures.append,
        )
        assert outputs[0] == "done"
        assert isinstance(outputs[1], UnitFailure)
        assert [f.label for f in failures] == ["hung"]
        assert "UnitTimeout" in failures[0].error

    def test_fast_units_are_untouched_by_the_deadline(self):
        assert run_plan(
            plan_of([1, 2]),
            fault_policy=FaultPolicy(timeout_seconds=30.0),
        ) == [2, 4]


class TestPickleOnce:
    def test_payloads_are_serialized_exactly_once(self):
        # The cluster's blobs are its probe, its wire format and its
        # re-dispatch format at once: one pickle per unit per plan.
        payloads = [CountingPayload(v) for v in (1, 2, 3)]
        plan = ExecutionPlan(
            units=[WorkUnit(runner=unwrap, payload=p) for p in payloads],
            merge=list,
        )
        blobs = _encode_units(plan)
        assert blobs is not None
        assert [p.pickled for p in payloads] == [1, 1, 1]
        # The blobs really do carry the unit (runner, payload) pairs.
        runner, payload = pickle.loads(blobs[1])
        assert runner is unwrap and payload.value == 2

    def test_a_pooled_payload_is_pickled_for_the_probe_only(self):
        # The pool keeps no blobs: one pass to ask whether, and no
        # more -- a frame is a (start, stop) range of the columns the
        # children inherited at fork.
        payloads = [CountingPayload(v) for v in (1, 2, 3)]
        plan = ExecutionPlan(
            units=[WorkUnit(runner=unwrap, payload=p) for p in payloads],
            merge=list,
        )
        assert run_plan(plan, workers=3) == [2, 4, 6]
        assert [p.pickled for p in payloads] == [1, 1, 1]

    def test_the_parent_pickles_by_the_frame_not_by_the_unit(
        self, monkeypatch
    ):
        # What a pickle costs is the call, not the bytes: the probe is
        # one call and every frame one more, however many units it has.
        class CountingPickle:
            calls = 0
            loads = staticmethod(pickle.loads)

            def dumps(self, obj):
                self.calls += 1
                return pickle.dumps(obj)

            def Pickler(self, file):
                self.calls += 1
                return pickle.Pickler(file)

        counting = CountingPickle()
        monkeypatch.setattr(exec_module, "pickle", counting)
        plan = ExecutionPlan(
            units=[WorkUnit(runner=abs, payload=-v) for v in range(4096)],
            merge=list,
        )
        assert run_plan(plan, workers=2) == list(range(4096))
        # Children are forks: what they count stays with them.
        assert 0 < counting.calls < 100


class TestSerialFallback:
    def test_unpicklable_payload_warns_and_matches_serial(self):
        values = [1, 2, 3, 4]
        serial = run_plan(plan_of(values), workers=1)
        plan = ExecutionPlan(
            units=[
                # A lambda runner cannot cross a process boundary.
                WorkUnit(runner=lambda v: v * 2, payload=v)
                for v in values
            ],
            merge=list,
            label="fallback-test",
        )
        with pytest.warns(RuntimeWarning, match="unpicklable"):
            pooled = run_plan(plan, workers=3)
        assert pooled == serial

    def test_a_late_unpicklable_unit_keeps_every_unit_in_process(self):
        # The probe is all-or-nothing and comes first: no unit may have
        # run in a child by the time the last one turns out unpicklable.
        units = [WorkUnit(runner=unit_pid, payload=v) for v in range(300)]
        units.append(WorkUnit(runner=unit_pid, payload=lambda: None))
        plan = ExecutionPlan(units=units, merge=list)
        with pytest.warns(RuntimeWarning, match="unpicklable"):
            outputs = run_plan(plan, workers=2)
        assert {pid for _payload, pid in outputs} == {os.getpid()}

    def test_fallback_warning_names_the_plan(self):
        plan = ExecutionPlan(
            units=[WorkUnit(runner=lambda v: v, payload=v) for v in (1, 2)],
            merge=list,
            label="my-campaign",
        )
        with pytest.warns(RuntimeWarning, match="my-campaign"):
            run_plan(plan, workers=2)


# ----------------------------------------------------------------------
# Frames: several units per message, sized from what the units take
# ----------------------------------------------------------------------
STARTED = []


def started_so_far(payload):
    return list(STARTED)


@pytest.fixture
def frame_log(caplog):
    caplog.set_level("DEBUG", logger="repro.runtime.exec")
    return caplog


class ReadClock:
    """``time`` for ``exec`` whose clock moves 1 us per read, and no
    other way: the seconds a plan shows are a count of its reads."""

    sleep = staticmethod(time.sleep)

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        self.now += 1e-6
        return self.now


@pytest.fixture
def forks(monkeypatch):
    """The pids of the pool children forked while it is in use."""
    pids = []

    class Counted(exec_module._Child):
        def __init__(self, *args):
            super().__init__(*args)  # a child never returns from it
            pids.append(self.pid)

    monkeypatch.setattr(exec_module, "_Child", Counted)
    return pids


@pytest.fixture
def cuts(monkeypatch):
    """Every frame a dispatcher cuts while it is in use, as ``(spare,
    frame)``: ``spare`` says its worker was running another."""
    seen = []
    cut = Dispatcher.cut

    def spied(table, worker, name):
        spare = worker in table.flight
        frame = cut(table, worker, name)
        if frame is not None:
            seen.append((spare, frame))
        return frame

    monkeypatch.setattr(Dispatcher, "cut", spied)
    return seen


class TestFrameSize:
    def test_a_full_fast_frame_doubles(self):
        assert _next_frame_size(1, 1, 0.0001) == 2
        assert _next_frame_size(64, 64, 0.0019) == 128

    def test_a_short_fast_frame_proves_nothing(self):
        # Sent before the size last grew (or the plan's last few).
        assert _next_frame_size(64, 32, 0.0001) == 64

    def test_between_the_thresholds_the_size_stays(self):
        assert _next_frame_size(64, 64, 0.005) == 64
        assert _next_frame_size(1, 1, 0.005) == 1

    def test_a_slow_frame_halves_what_it_held(self):
        assert _next_frame_size(64, 64, 0.050) == 32
        # ... once: the frame-mates it was sent with change nothing.
        assert _next_frame_size(32, 64, 0.050) == 32
        assert _next_frame_size(8, 64, 0.050) == 8

    def test_never_below_one(self):
        # A 30 ms unit travels alone, forever.
        assert _next_frame_size(1, 1, 0.030) == 1
        assert _next_frame_size(2, 2, 60.0) == 1
        assert _next_frame_size(1, 3, 60.0) == 1


class TestRunFrame:
    """The one attempt loop, in-process: columns in, columns out."""

    def run(self, *units, policy=None, indices=None):
        indices = indices or list(range(len(units)))
        return _run_frame(
            indices, units, [f"job-{index}" for index in indices],
            policy or FaultPolicy(),
        )

    def test_outputs_come_back_in_unit_order_with_the_seconds(self):
        outputs, failures, seconds = self.run(
            (double, 1), (double, 2), (sleepy, 0.01)
        )
        assert (outputs, failures) == ([2, 4, "done"], [])
        assert seconds >= 0.01

    def test_a_failure_lands_in_its_own_slot(self):
        outputs, failures, _ = self.run(
            (double, 1), (boom, 2), (double, 3),
            policy=FaultPolicy(on_error="skip", retries=0),
            indices=[40, 41, 42],
        )
        assert outputs == [2, None, 6]
        ((slot, failure),) = failures
        assert (slot, failure.index, failure.label) == (1, 41, "job-41")
        assert "exploded" in failure.error and failure.attempts == 1

    def test_a_flaky_unit_is_retried_in_place(self, tmp_path):
        flag = tmp_path / "attempts"
        outputs, failures, _ = self.run(
            (double, 1), (flaky, (str(flag), 1, 2)), (double, 3),
            policy=retry_policy(),
        )
        assert (outputs, failures) == ([2, 4, 6], [])
        assert len(flag.read_text()) == 2

    def test_an_exhausted_unit_reports_every_attempt(self):
        outputs, failures, _ = self.run(
            (boom, 1), (double, 2), (boom, 3),
            policy=FaultPolicy(
                on_error="skip", retries=2, backoff_seconds=0.0
            ),
        )
        assert outputs == [None, 4, None]
        assert [(slot, f.index, f.attempts) for slot, f in failures] == [
            (0, 0, 3), (2, 2, 3),
        ]

    def test_the_timeout_is_per_unit_not_per_frame(self):
        # Three 0.06 s units outlast a 0.15 s bound together, never
        # alone; the 30 s one is cut off and its frame-mates are not.
        outputs, failures, seconds = self.run(
            (sleepy, 0.06), (sleepy, 0.06), (sleepy, 30.0), (sleepy, 0.06),
            policy=FaultPolicy(
                on_error="skip", retries=0, timeout_seconds=0.15
            ),
        )
        assert outputs == ["done", "done", None, "done"]
        assert [slot for slot, _ in failures] == [2]
        assert "UnitTimeout" in failures[0][1].error
        assert seconds < 5.0

    def test_units_are_taken_one_at_a_time(self):
        # The cluster worker's chaos triggers count units as they are
        # started, so the loop must not drain the iterable up front.
        STARTED.clear()

        def counted():
            for slot in range(2):
                STARTED.append(slot)
                yield started_so_far, None

        outputs, _, _ = _run_frame([0, 1], counted(), ["a", "b"], FaultPolicy())
        assert outputs == [[0], [0, 1]]


class TestEncodeResults:
    def test_an_unpicklable_output_fails_alone_in_slot_order(self):
        failure = UnitFailure(
            index=7, label="b", error="boom", traceback="", attempts=1
        )
        reply = _encode_results(
            ([1, None, make_unpicklable(3), 4], [(1, failure)], 0.5),
            [6, 7, 8, 9], ["a", "b", "c", "d"], pickle.dumps,
        )
        outputs, failures, seconds = pickle.loads(reply)
        assert seconds == 0.5
        assert outputs == [1, None, None, 4]
        assert [(slot, f.index, f.label) for slot, f in failures] == [
            (1, 7, "b"), (2, 8, "c"),
        ]
        assert "pickled" in failures[1][1].error


class TestPoolFrames:
    def test_mixed_plan_matches_serial_bitwise(self, frame_log):
        serial = run_plan(mixed_plan())
        assert serial == [2 * v for v in range(1000)]
        landed = []
        pooled = run_plan(
            mixed_plan(), workers=2,
            on_unit=lambda index, output: landed.append(index),
        )
        assert pooled == serial
        # Every unit landed exactly once, whatever frame carried it.
        assert sorted(landed) == list(range(1000))
        units, frames, largest = framing(frame_log)
        # Frames of one and of many both occurred.
        assert units == 1000
        assert largest > 1
        assert frames < units

    def test_sleeping_units_never_share_a_frame(
        self, frame_log, forks, cuts
    ):
        plan = ExecutionPlan(
            units=[WorkUnit(runner=mixed_unit, payload=(v, 0.03))
                   for v in range(8)],
            merge=list,
        )
        assert run_plan(plan, workers=2) == [2 * v for v in range(8)]
        assert framing(frame_log) == (8, 8, 1)
        # ... nor wait behind one another: no child held a spare.
        assert [spare for spare, _ in cuts] == [False] * 8
        # Its first unit shows a frame floor of work: a second child.
        assert len(forks) == 2

    def test_trivial_units_travel_by_the_hundred(
        self, frame_log, forks, monkeypatch
    ):
        plan = ExecutionPlan(
            units=[WorkUnit(runner=abs, payload=-v) for v in range(4096)],
            merge=list,
        )
        assert run_plan(plan, workers=2) == list(range(4096))
        units, frames, largest = framing(frame_log)
        assert units == 4096
        assert frames < 4096 // 8
        assert largest >= 64
        # The whole plan shows less than a frame floor of work: a
        # second child would not get its fork back.  Read on a clock
        # that only the pool's own reads move, so that a busy host,
        # which stalls a child for milliseconds, shows no work either.
        forks.clear()
        monkeypatch.setattr(exec_module, "time", ReadClock())
        assert run_plan(plan, workers=2) == list(range(4096))
        assert len(forks) == 1

    def test_no_runt_frame_ends_a_plan(self, forks, cuts, monkeypatch):
        # The doubling ramp of 1, 2, 4, ... would leave one unit of a
        # power-of-two plan behind, to cost a round trip of its own.
        monkeypatch.setattr(exec_module, "time", ReadClock())
        plan = ExecutionPlan(
            units=[WorkUnit(runner=abs, payload=-v) for v in range(8192)],
            merge=list,
        )
        assert run_plan(plan, workers=2) == list(range(8192))
        sizes = [len(frame) for _, frame in cuts]
        assert sum(sizes) == 8192 and 1 not in sizes[1:]
        # Cheap frames went down behind the ones running.
        assert any(spare for spare, _ in cuts)
        assert len(forks) == 1

    def test_serial_runs_log_no_framing(self, frame_log):
        run_plan(plan_of([1, 2, 3]))
        assert frame_log.records == []

    def test_skip_inside_a_frame_isolates_the_unit(self):
        units = [WorkUnit(runner=double, payload=v) for v in range(600)]
        units[300] = WorkUnit(runner=boom, payload=300, label="doomed")
        failures = []
        outputs = run_plan(
            ExecutionPlan(units=units, merge=list), workers=2,
            fault_policy=FaultPolicy(
                on_error="skip", retries=1, backoff_seconds=0.0
            ),
            on_failure=failures.append,
        )
        assert isinstance(outputs[300], UnitFailure)
        assert outputs[:300] == [2 * v for v in range(300)]
        assert outputs[301:] == [2 * v for v in range(301, 600)]
        assert [(f.index, f.label, f.attempts) for f in failures] == [
            (300, "doomed", 2)
        ]

    def test_raise_inside_a_frame_aborts_the_plan(self):
        units = [WorkUnit(runner=double, payload=v) for v in range(600)]
        units[300] = WorkUnit(runner=boom, payload=300, label="doomed")
        with pytest.raises(UnitExecutionError) as excinfo:
            run_plan(
                ExecutionPlan(units=units, merge=list, label="framed"),
                workers=2,
            )
        assert excinfo.value.failure.index == 300
        assert "framed" in str(excinfo.value)

    def test_retry_inside_a_frame_is_bitwise_the_clean_run(self, tmp_path):
        flag = tmp_path / "attempts"
        units = [WorkUnit(runner=double, payload=v) for v in range(600)]
        units[300] = WorkUnit(runner=flaky, payload=(str(flag), 1, 300))
        assert run_plan(
            ExecutionPlan(units=units, merge=list), workers=2,
            fault_policy=retry_policy(),
        ) == [2 * v for v in range(600)]
        assert len(flag.read_text()) == 2

    def test_timeout_inside_a_frame_fails_only_its_unit(self):
        units = [WorkUnit(runner=sleepy, payload=0.0) for _ in range(400)]
        units[350] = WorkUnit(runner=sleepy, payload=30.0, label="hung")
        failures = []
        outputs = run_plan(
            ExecutionPlan(units=units, merge=list), workers=2,
            fault_policy=FaultPolicy(
                on_error="skip", retries=0, timeout_seconds=0.2
            ),
            on_failure=failures.append,
        )
        assert [f.label for f in failures] == ["hung"]
        assert "UnitTimeout" in failures[0].error
        assert outputs[:350] + outputs[351:] == ["done"] * 399

    def test_a_frame_that_cannot_come_back_raises(self):
        # An output that will not pickle fails its own unit, as on the
        # cluster: the policy decides what that means for the plan.
        plan = ExecutionPlan(
            units=[WorkUnit(runner=unpicklable_at_300, payload=v)
                   for v in range(600)],
            merge=list,
        )
        with pytest.raises(UnitExecutionError, match="pickled") as excinfo:
            run_plan(plan, workers=2)
        assert excinfo.value.failure.index == 300
        failures = []
        outputs = run_plan(
            plan, workers=2, fault_policy=FaultPolicy(on_error="skip"),
            on_failure=failures.append,
        )
        assert [f.index for f in failures] == [300]
        assert "pickled" in failures[0].error
        # Its frame-mates landed.
        assert outputs[:300] + outputs[301:] == [
            v for v in range(600) if v != 300
        ]

    def test_the_debug_line_says_what_starting_cost(self, frame_log, forks):
        run_plan(plan_of(list(range(64))), workers=2)
        (record,) = frame_log.records
        *_, seconds, start_ms, started = record.args
        assert 0.0 < start_ms <= seconds * 1e3
        assert started == len(forks) >= 1
        assert "start" in record.getMessage()
        assert f"started {started}" in record.getMessage()


def unpicklable_at_300(payload):
    return make_unpicklable(payload) if payload == 300 else payload


def echo(payload):
    return bytes(payload)


def die_at_5(payload):
    if payload == 5:
        os.kill(os.getpid(), signal.SIGKILL)
    return payload


#: A pooled plan in a fresh interpreter whose stdout is a pipe, so
#: block-buffered: the parent's line is still in its buffer at the fork.
#: It has no stdin, as when its fd 0 is closed.
STDIO_SCRIPT = """
import sys
from repro.runtime import ExecutionPlan, WorkUnit, run_plan

sys.stdin = None

def shout(value):
    if value == 3:
        print("unit 3 prints in its child")
    return value

print("the parent's unflushed line")
plan = ExecutionPlan(units=[WorkUnit(shout, v) for v in range(8)], merge=list)
print(run_plan(plan, workers=2))
"""


@pytest.fixture(scope="module")
def pooled_stdout():
    env = dict(os.environ, PYTHONPATH=str(REPO_SRC))
    env.pop("PYTHONUNBUFFERED", None)  # stdout must buffer for the test
    done = subprocess.run(
        [sys.executable, "-c", STDIO_SCRIPT], env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestPoolTransport:
    """The pipes can neither perturb results nor leak.

    That no child outlives its plan -- after success, an abort, a lost
    worker, an exception out of ``on_unit`` -- is asserted after every
    test of this module by ``conftest.no_child_outlives_its_plan``.
    """

    def test_a_line_buffered_before_the_fork_is_printed_once(
        self, pooled_stdout
    ):
        # A fork copies the parent's stdout buffer: unflushed, it would
        # be written again by every child as it exits.
        assert pooled_stdout.count("the parent's unflushed line") == 1
        assert pooled_stdout.splitlines()[-1] == str(list(range(8)))

    def test_a_units_print_reaches_the_parents_stdout(self, pooled_stdout):
        assert pooled_stdout.count("unit 3 prints in its child") == 1

    def test_results_larger_than_a_pipe_buffer_come_back(self):
        # 1 MB up per unit (its 1 MB payload was inherited at fork), 8
        # units, 2 workers, and no thread in the parent to drain one
        # pipe while it reads another.
        payloads = [bytes([v]) * (1 << 20) for v in range(8)]
        plan = ExecutionPlan(
            units=[WorkUnit(runner=echo, payload=p) for p in payloads],
            merge=list,
        )
        assert run_plan(plan, workers=2) == run_plan(plan) == payloads

    def test_spares_go_down_while_a_child_writes_a_large_reply(self, cuts):
        # 256 KB up per unit and frames under the floor: a child writes
        # one reply into a full pipe while its next frames come down.
        payloads = [bytes([v]) * (1 << 18) for v in range(64)]
        plan = ExecutionPlan(
            units=[WorkUnit(runner=echo, payload=p) for p in payloads],
            merge=list,
        )
        assert run_plan(plan, workers=2) == run_plan(plan) == payloads
        assert any(spare for spare, _ in cuts)

    def test_the_parent_starts_no_thread(self):
        before = threading.active_count()
        during = []
        run_plan(
            plan_of(list(range(500))), workers=2,
            on_unit=lambda index, output: during.append(
                threading.active_count()
            ),
        )
        assert set(during) == {before}

    def test_an_exception_from_on_unit_reaches_the_caller(self):
        def on_unit(index, output):
            raise KeyError("the caller's own bug")

        with pytest.raises(KeyError, match="own bug"):
            run_plan(mixed_plan(), workers=2, on_unit=on_unit)


def kill_once(payload):
    """``(value, marker)``: unit 40 SIGKILLs its process on its first
    attempt only -- the marker file remembers across processes."""
    value, marker = payload
    if value == 40 and not os.path.exists(marker):
        open(marker, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return value * 2


def kill_once_where(payload):
    """:func:`kill_once`, and the pid of the process the unit ran in."""
    return kill_once(payload), os.getpid()


class TestWorkerLost:
    """Clause 5 on the pool: a lost child's frame is re-dispatched."""

    def test_a_child_killed_mid_frame_is_named_and_lands_elsewhere(
        self, tmp_path, frame_log
    ):
        marker = str(tmp_path / "killed")
        plan = ExecutionPlan(
            units=[WorkUnit(kill_once_where, (v, marker), f"u{v}")
                   for v in range(200)],
            merge=list, label="killed",
        )
        pooled = run_plan(plan, workers=2)
        (lost,) = [r for r in frame_log.records if r.levelname == "WARNING"]
        _label, worker, reason, first, last, _requeued = lost.args
        assert reason == "signal 9, Killed"
        dead = int(worker.removeprefix("pid "))
        # The lost frame landed, bit for bit, on a child that lived.
        assert first <= 40 <= last
        assert all(pid != dead for _, pid in pooled[first:last + 1])
        undisturbed = run_plan(plan)  # the marker is there: nobody dies
        assert [v for v, _ in pooled] == [v for v, _ in undisturbed]

    def test_a_child_killed_once_mid_frame_changes_no_bit(
        self, tmp_path, frame_log
    ):
        marker = str(tmp_path / "killed")
        plan = ExecutionPlan(
            units=[WorkUnit(kill_once, (v, marker), f"u{v}")
                   for v in range(200)],
            merge=list, label="transient",
        )
        assert run_plan(plan, workers=2) == [2 * v for v in range(200)]
        assert os.path.exists(marker)
        (lost,) = [r for r in frame_log.records if r.levelname == "WARNING"]
        assert "transient" in lost.getMessage()
        assert "signal 9" in lost.getMessage()
        debug = [r for r in frame_log.records if r.levelname == "DEBUG"]
        units, _frames, _largest, _workers, redispatched = debug[0].args[1:6]
        # The whole frame around unit 40 went out again, unit by unit.
        assert units == 200 and redispatched >= 1

    @pytest.mark.parametrize("on_error", ["raise", "skip"])
    def test_a_unit_that_kills_every_child_fails_by_name(
        self, on_error, caplog
    ):
        plan = ExecutionPlan(
            units=[WorkUnit(runner=die_at_5, payload=v, label=f"u{v}")
                   for v in range(16)],
            merge=list, label="doomed-plan",
        )
        failures = []
        started = time.perf_counter()
        try:
            merged = run_plan(
                plan, workers=2, on_failure=failures.append,
                fault_policy=FaultPolicy(on_error=on_error, retries=0),
            )
        except UnitExecutionError as error:
            assert on_error == "raise" and "doomed-plan" in str(error)
            failures.append(error.failure)
        else:
            assert merged[:5] + merged[6:] == [v for v in range(16) if v != 5]
            assert merged[5] is failures[0]
        assert time.perf_counter() - started < 5.0
        (failure,) = failures
        assert (failure.index, failure.label) == (5, "u5")
        # Three children died on it, and it went out alone after the
        # first: its frame-mates landed.
        assert failure.attempts == 3 and failure.redispatches == 2
        assert failure.worker and failure.worker in failure.error
        assert "signal 9" in failure.error and "dispatch" in failure.error
        lost = [r for r in caplog.records if r.levelname == "WARNING"]
        assert len(lost) == 3
        assert all(r.name == "repro.runtime.exec" for r in lost)

    def test_a_spent_spawn_budget_stalls_the_plan(self, caplog):
        # Two workers may start 2 * 3 + 2 = 8 children, and three units
        # that kill every child they reach take 9 to exhaust: the eighth
        # dies holding a unit with a dispatch left, and no child may
        # start to take it.  (The pool fans out from two workers on.)
        plan = ExecutionPlan(
            units=[WorkUnit(runner=kill_self, payload=v, label=f"u{v}")
                   for v in range(3)],
            merge=list, label="stalled-plan",
        )
        failures = []
        with pytest.raises(RuntimeError, match="stalled") as stalled:
            run_plan(
                plan, workers=2, on_failure=failures.append,
                fault_policy=FaultPolicy(
                    on_error="skip", retries=0, max_dispatches=3
                ),
            )
        assert str(stalled.value).startswith("stalled-plan: stalled")
        assert "spawn budget (8) spent, 1 unit(s) still pending" in str(
            stalled.value
        )
        assert "raise FaultPolicy.max_dispatches" in str(stalled.value)
        assert len(failures) == 2
        assert all(f.attempts == 3 for f in failures)
        lost = [r for r in caplog.records if r.levelname == "WARNING"]
        assert len(lost) == 8


# ----------------------------------------------------------------------
# The frame contract, one property over all three places a unit runs
# ----------------------------------------------------------------------
@st.composite
def contract_plans(draw):
    """``(kinds, workers, policy)``: 1-300 units, some raising, at most
    one returning what will not pickle."""
    count = draw(st.integers(1, 300))
    slots = st.integers(0, count - 1)
    kinds = ["ok"] * count
    for slot in draw(st.lists(slots, max_size=3)):
        kinds[slot] = "raise"
    unpicklable = draw(st.none() | slots)
    if unpicklable is not None:
        kinds[unpicklable] = "unpicklable"
    on_error = draw(st.sampled_from(["raise", "retry", "skip"]))
    policy = FaultPolicy(on_error=on_error, retries=1, backoff_seconds=0.0)
    return kinds, draw(st.integers(1, 3)), policy


def run_contract(kinds, policy, workers, backend):
    """What one run shows: merged outputs (None when the plan raised),
    ``on_unit`` indices, and ``(index, label, attempts, error)`` per
    failure, landed or raised."""
    plan = ExecutionPlan(
        units=[
            WorkUnit(runner=contract_unit, payload=(slot, kind),
                     label=f"u{slot}")
            for slot, kind in enumerate(kinds)
        ],
        merge=list,
    )
    landed, failures = set(), []
    try:
        outputs = run_plan(
            plan, workers=workers, fault_policy=policy, backend=backend,
            on_unit=lambda index, output: landed.add(index),
            on_failure=failures.append,
        )
    except UnitExecutionError as error:
        outputs, failures = None, [error.failure]
    return outputs, landed, {
        f.index: (f.label, f.attempts, re.sub(r" at 0x\w+", "", f.error))
        for f in failures
    }


@settings(
    max_examples=5,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(contract_plans())
def test_every_backend_keeps_the_frame_contract(worker_path, case):
    """In-process, pool and cluster land the same units the same way.

    The one difference is the contract's own: an output that will not
    pickle lands in-process, where it never travels, and fails its unit
    wherever it must come back over a wire.
    """
    kinds, workers, policy = case
    raising = {slot for slot, kind in enumerate(kinds) if kind == "raise"}
    pooled = workers > 1 and len(kinds) > 1  # else the pool runs in-process
    runs = {
        backend: run_contract(kinds, policy, *placement)
        for backend, placement in {
            "in-process": (1, "pool"),
            "pool": (workers, "pool"),
            "cluster": (workers, "cluster"),
        }.items()
    }
    for backend, (outputs, landed, failures) in runs.items():
        travels = backend == "cluster" or (backend == "pool" and pooled)
        failed = raising | {
            slot for slot, kind in enumerate(kinds)
            if kind == "unpicklable" and travels
        }
        for slot, (label, attempts, error) in failures.items():
            assert label == f"u{slot}", backend
            if slot in raising:
                assert (attempts, error) == (
                    policy.attempts, f"RuntimeError('unit {slot} exploded')"
                ), backend
            else:
                assert attempts == 1, backend
                assert error.startswith("unit output could not be pickled")
        if policy.on_error != "skip" and failed:
            # The first failure to land ends the plan, whichever it is.
            assert outputs is None and set(failures) <= failed, backend
            assert not landed & failed, backend
            continue
        assert set(failures) == failed, backend
        assert landed == set(range(len(kinds))) - failed, backend
        for slot, kind in enumerate(kinds):
            if slot in failed:
                assert isinstance(outputs[slot], UnitFailure), backend
            elif kind == "unpicklable":
                assert outputs[slot]() == slot, backend
            else:
                assert outputs[slot] == 2 * slot, backend
    # Under skip, where every failure lands, places that run alike agree.
    if policy.on_error == "skip":
        same = runs["cluster"] if pooled else runs["in-process"]
        assert runs["pool"][1:] == same[1:]
