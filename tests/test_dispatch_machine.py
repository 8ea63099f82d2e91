"""The dispatcher against the contract's I/O automaton.

:class:`World` is :class:`~repro.runtime.dispatch.Dispatcher` inside a
model transport: workers are plain ints, a reply is computed by the
real attempt loop (``exec._run_frame``) in-process, and every input is
also applied to the abstract automaton of ``dispatch_automaton``.
After each step the simulation relation is checked:

* the concrete table maps onto the abstract state reached by the same
  action prefix (so the step was one the contract allows);
* no slot lands twice, and every landed slot equals the serial run's;
* a fenced or gone worker's late reply changes nothing;
* no unit is dispatched more than ``max_dispatches`` times;
* a drain lets no frame out, and once nothing is in flight it leaves
  only whole landed units behind.

A hypothesis state machine samples interleavings in tier-1, beside
two small enumerations (the second the smallest with a spare); the
``heavy`` job enumerates every reachable state of 3 units x 3 workers.
"""

import copy
from collections import deque

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

import dispatch_automaton as spec
from cluster_helpers import contract_unit
from repro.runtime.dispatch import Dispatcher
from repro.runtime.exec import (
    ExecutionPlan,
    FaultPolicy,
    WorkUnit,
    _run_frame,
    run_plan,
)

#: Seconds a reply reports: under the frame floor, or over the ceiling.
FAST, SLOW = 0.0001, 0.05


def failure_key(failure):
    return failure.index, failure.label, failure.error, failure.attempts


class World:
    """A dispatcher, a model transport around it, and the automaton."""

    def __init__(self, kinds, max_dispatches, workers=3):
        self.kinds = list(kinds)
        self.labels = [f"u{index}" for index in range(len(kinds))]
        self.policy = FaultPolicy(
            on_error="skip", retries=0, max_dispatches=max_dispatches
        )
        self.table = Dispatcher(
            "machine", self.labels, self.policy, workers, self.land
        )
        self.spec = spec.initial(len(kinds), max_dispatches)
        self.raising = frozenset(
            index for index, kind in enumerate(kinds) if kind == "raise"
        )
        self.serial = run_plan(ExecutionPlan(
            units=[WorkUnit(contract_unit, (index, kind), label)
                   for index, (kind, label)
                   in enumerate(zip(kinds, self.labels))],
            merge=list,
        ), fault_policy=self.policy)
        self.status = []  # per worker: idle, fenced or gone (busy: in flight)
        self.landings = {}
        self.step = []  # what the step in progress landed, in order

    # -- the output actions --------------------------------------------

    def land(self, start, outputs, failures):
        failed = dict(failures)
        for slot, output in enumerate(outputs):
            index, failure = start + slot, failed.get(slot)
            assert index not in self.landings, f"unit {index} landed twice"
            self.landings[index] = (output, failure)
            self.step.append(("fail" if failure is not None and "dispatch(es)"
                              in failure.error else "land", index))

    # -- the input actions ---------------------------------------------

    def join(self):
        self.status.append(spec.IDLE)
        self.spec = spec.join(self.spec)

    def dispatch(self, worker):
        frame = self.table.cut(worker, f"w{worker}")
        if frame is None:
            assert not spec.can_dispatch(self.spec, worker), (
                f"worker {worker} left idle with work to do"
            )
            return
        self.spec = spec.dispatch(self.spec, worker, tuple(frame))

    def result(self, worker, seconds):
        busy = worker in self.busy()
        frame = self.table.result(worker, seconds)
        assert (frame is not None) == busy, worker
        if frame is not None:
            jobs = [(contract_unit, (i, self.kinds[i])) for i in frame]
            labels = [self.labels[i] for i in frame]
            outputs, failures, _ = _run_frame(
                list(frame), jobs, labels, self.policy
            )
            self.table.land_frame(frame, outputs, failures)
        self.spec, expected = spec.result(self.spec, worker, self.raising)
        self.outputs(expected)

    def late(self, worker, seconds):
        """A fenced or gone worker's reply: it must change nothing."""
        before = self.snapshot()
        assert self.table.result(worker, seconds) is None
        assert self.snapshot() == before
        self.spec, expected = spec.result(self.spec, worker, self.raising)
        assert expected == []

    def lose(self, worker, to):
        if self.status[worker] != spec.FENCED:
            self.table.lose(
                worker, f"worker {to}", misses=int(to == spec.FENCED)
            )
        self.status[worker] = to
        self.spec, expected = spec.lose(self.spec, worker, to)
        self.outputs(expected)

    def drain(self):
        self.table.draining = True
        self.spec = spec.drain(self.spec)

    def outputs(self, expected):
        step, self.step = self.step, []
        assert step == expected, (step, expected)

    # -- the relation --------------------------------------------------

    def busy(self):
        return set(self.table.flight)

    def held(self, worker):
        """The frames ``worker`` holds, oldest first."""
        table = self.table
        return tuple(
            tuple(frames[worker]) for frames in (table.flight, table.spare)
            if worker in frames
        )

    def abstraction(self):
        """The abstract state the concrete table stands for."""
        table = self.table
        flying = [
            i for frames in (table.flight, table.spare)
            for frame in frames.values() for i in frame
        ]
        queued = list(table.lost) + list(range(table.cursor, table.total))
        units = []
        for index in range(table.total):
            # Exactly one place holds each unit: the queue, a worker's
            # frame, or the landings.
            where = [
                status for status, found in (
                    (spec.PENDING, queued.count(index)),
                    (spec.IN_FLIGHT, flying.count(index)),
                    (spec.FAILED if self.landings.get(index, (0, None))[1]
                     is not None else spec.LANDED, index in self.landings),
                ) for _ in range(found)
            ]
            assert len(where) == 1, f"unit {index} is in {where or 'no place'}"
            units.append((where[0], table.dispatches(index)))
        assert set(table.spare) <= set(table.flight)
        workers = tuple(
            (spec.BUSY, self.held(worker))
            if worker in table.flight else (status, ())
            for worker, status in enumerate(self.status)
        )
        return spec.State(
            tuple(units), workers, self.policy.max_dispatches,
            self.table.draining,
        )

    def snapshot(self):
        table = self.table
        return (
            self.abstraction(), list(table.lost), table.cursor, table.size,
            table.quick, table.landed, dict(table.sends),
            dict(table.silences), dict(table.flight), dict(table.spare),
            dict(table.names), table.redispatches, table.spares,
        )

    def check(self):
        table = self.table
        assert self.abstraction() == self.spec
        assert all(
            table.dispatches(index) <= self.policy.max_dispatches
            for index in range(table.total)
        )
        assert table.finished() == self.spec.finished()
        assert table.landed == len(self.landings)
        for index, (output, failure) in self.landings.items():
            serial = self.serial[index]
            if failure is None:
                assert output == serial, index
            elif "dispatch(es)" in failure.error:
                # Clause 5: the unit out-lived max_dispatches workers.
                assert failure.attempts == self.policy.max_dispatches
                assert failure.index == index and failure.worker
            else:
                assert failure_key(failure) == failure_key(serial), index
        if table.draining and not table.flight:
            # Whole landed units, the rest never started or back in line.
            assert table.finished()
            assert all(
                status in (spec.PENDING, spec.LANDED, spec.FAILED)
                for status, _ in self.spec.units
            )

    # -- every enabled input, for the enumeration ----------------------

    def enabled(self, max_workers):
        actions = []
        if len(self.status) < max_workers:
            actions.append(("join",))
        if not self.spec.draining:
            actions.append(("drain",))
        busy = self.busy()
        for worker, status in enumerate(self.status):
            if status == spec.IDLE and worker not in self.table.spare:
                actions.append(("dispatch", worker))
            if worker in busy:
                actions += [("result", worker, FAST), ("result", worker, SLOW)]
            if status in (spec.FENCED, spec.GONE):
                actions.append(("late", worker, FAST))
            if status == spec.IDLE:
                actions.append(("lose", worker, spec.FENCED))
            if status != spec.GONE:
                actions.append(("lose", worker, spec.GONE))
        return actions

    def apply(self, action):
        getattr(self, action[0])(*action[1:])
        self.check()

    def key(self):
        """This state up to a renaming of workers."""
        table = self.table
        return (
            spec.canonical(self.spec), tuple(table.lost), table.cursor,
            table.size, table.quick, tuple(sorted(table.silences.items())),
        )


# ----------------------------------------------------------------------
# Sampled interleavings (tier-1)
# ----------------------------------------------------------------------
class DispatchMachine(RuleBasedStateMachine):
    """Hypothesis drives a :class:`World` through interleavings of the
    automaton's inputs -- any input enabled in the state reached, at
    every step -- and :meth:`World.check` runs after each one."""

    MAX_WORKERS = 4
    #: Input kinds, most productive first: draws lean to the front.
    KINDS = ("result", "dispatch", "lose", "join", "late", "drain")

    @initialize(
        kinds=st.lists(st.sampled_from(["ok", "ok", "raise"]),
                       min_size=1, max_size=6),
        max_dispatches=st.integers(1, 3),
        workers=st.integers(1, 3),
    )
    def start(self, kinds, max_dispatches, workers):
        self.world = World(kinds, max_dispatches, workers)
        for _ in range(workers):
            self.world.apply(("join",))

    @rule(data=st.data())
    def step(self, data):
        if self.world.table.finished():
            return  # nothing left that could move
        enabled = self.world.enabled(self.MAX_WORKERS)
        kinds = [kind for kind in self.KINDS
                 if any(action[0] == kind for action in enabled)]
        kind = data.draw(st.sampled_from(kinds), label="input")
        self.world.apply(data.draw(st.sampled_from(
            [action for action in enabled if action[0] == kind]
        ), label="action"))

    @invariant()
    def relation_holds(self):
        if hasattr(self, "world"):
            self.world.check()


DispatchMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=50, deadline=None,
)
test_dispatch_machine = DispatchMachine.TestCase


# ----------------------------------------------------------------------
# Every reachable state: 2 x 2 in tier-1, 3 units x 3 workers in the
# heavy job
# ----------------------------------------------------------------------
def reachable(kinds, max_dispatches, max_workers):
    """Breadth-first over every interleaving, states up to symmetry."""
    start = World(kinds, max_dispatches, max_workers)
    seen = {start.key()}
    frontier = deque([start])
    while frontier:
        world = frontier.popleft()
        for action in world.enabled(max_workers):
            after = copy.deepcopy(world)
            after.apply(action)
            if after.key() not in seen:
                seen.add(after.key())
                frontier.append(after)
    return seen


def test_every_interleaving_of_2_units_on_2_workers():
    # One of them raises; each may be lost twice.
    assert len(reachable(("ok", "raise"), 2, 2)) > 100


def test_every_interleaving_of_3_units_on_2_workers_with_a_spare():
    # The smallest plan in which a worker holds a spare: one worker
    # replies fast while the other still runs unit 1, so unit 2 may
    # queue behind it.  Each unit has one dispatch, so a lost spare
    # fails at once.
    seen = reachable(("ok", "raise", "ok"), 1, 2)
    assert any(
        len(frames) == 2
        for (_units, workers, _draining), *_ in seen
        for _status, frames in workers
    )


def test_a_redispatched_unit_runs_with_no_spare_behind_it():
    # A lost unit travels alone so that, if it kills its worker again,
    # it takes no frame-mate down with it: nor a spare.
    world = World(["ok"] * 4, max_dispatches=2, workers=2)
    for action in [("join",), ("join",), ("dispatch", 0), ("dispatch", 1),
                   ("lose", 0, spec.GONE), ("result", 1, FAST),
                   ("dispatch", 1), ("dispatch", 1)]:
        world.apply(action)
    assert (world.table.flight, world.table.spare) == ({1: range(0, 1)}, {})


@pytest.mark.heavy
@pytest.mark.parametrize("kinds", [
    ("ok", "ok", "ok"), ("ok", "raise", "ok"),
])
def test_every_interleaving_of_3_units_on_3_workers(kinds):
    assert len(reachable(kinds, max_dispatches=2, max_workers=3)) > 1000
