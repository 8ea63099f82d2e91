"""Tests for the DES kernel (repro.runtime.des)."""

import pytest

from repro.runtime.des import Environment


class TestSchedule:
    def test_orders_by_time(self):
        env = Environment()
        out = []
        for time in (3.0, 1.0, 2.0):
            env.schedule(time, lambda t=time: out.append((env.now, t)))
        env.run()
        assert out == [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]

    def test_same_time_fifo(self):
        env = Environment()
        out = []
        for tag in ("first", "second", "third"):
            env.schedule(1.0, lambda t=tag: out.append(t))
        env.run()
        assert out == ["first", "second", "third"]

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(ValueError, match="negative delay"):
            env.schedule(-1.0, lambda: None)

        def proc(env):
            yield -1.0

        env.spawn(proc(env))
        with pytest.raises(ValueError, match="negative delay"):
            env.run()

    def test_run_until_stops_clock(self):
        env = Environment()

        def ticker(env):
            while True:
                yield 1.0

        env.spawn(ticker(env))
        assert env.run(until=5.5) == 5.5
        assert env.now == 5.5
        # An idle heap still advances the clock to ``until``.
        assert Environment().run(until=2.0) == 2.0


class TestProcesses:
    def test_sleep_advances_clock(self):
        env = Environment()
        log = []

        def proc(env):
            yield 2.5
            log.append(env.now)

        env.spawn(proc(env))
        env.run()
        assert log == [2.5]

    def test_interleaving(self):
        env = Environment()
        log = []

        def proc(env, name, period):
            for _ in range(3):
                yield period
                log.append((env.now, name))

        env.spawn(proc(env, "fast", 1.0))
        env.spawn(proc(env, "slow", 1.5))
        env.run()
        # At the t=3.0 tie, "slow" scheduled its wake-up first (at
        # t=1.5 vs t=2.0), so FIFO ordering runs it first.
        assert log == [
            (1.0, "fast"), (1.5, "slow"), (2.0, "fast"),
            (3.0, "slow"), (3.0, "fast"), (4.5, "slow"),
        ]

    def test_yielded_callable_receives_resume(self):
        env = Environment()
        resumes = []
        log = []

        def waiter(env):
            value = yield resumes.append
            log.append((env.now, value))

        env.spawn(waiter(env))
        env.schedule(3.0, lambda: resumes[0]("open"))
        env.run()
        assert log == [(3.0, "open")]

    def test_failure_thrown_into_process(self):
        env = Environment()
        resumes = []
        caught = []

        def waiter(env):
            try:
                yield resumes.append
            except RuntimeError as exc:
                caught.append((env.now, str(exc)))

        env.spawn(waiter(env))
        env.schedule(1.0, lambda: resumes[0](error=RuntimeError("nope")))
        env.run()
        assert caught == [(1.0, "nope")]

    def test_wakeup_on_closed_process_does_nothing(self):
        env = Environment()
        resumes = []
        steps = []

        def sleeper(env):
            yield 2.0
            steps.append("timer")
            yield resumes.append
            steps.append("reply")

        process = env.spawn(sleeper(env))
        env.schedule(1.0, process.close)
        env.run()
        assert steps == []

        process = env.spawn(sleeper(env))
        env.run()
        process.close()
        resumes[0]("late reply")
        resumes[0](error=RuntimeError("late failure"))
        assert steps == ["timer"]

    def test_invalid_yield_type(self):
        env = Environment()

        def proc(env):
            yield "soon"

        env.spawn(proc(env))
        with pytest.raises(TypeError):
            env.run()

    def test_schedule_bare_callback(self):
        env = Environment()
        hits = []
        env.schedule(2.0, lambda: hits.append(env.now))
        env.run()
        assert hits == [2.0]


class TestRunawayGuard:
    def test_max_events(self):
        env = Environment()

        def spinner(env):
            while True:
                yield 0.0

        env.spawn(spinner(env))
        with pytest.raises(RuntimeError, match="runaway"):
            env.run(max_events=1000)
