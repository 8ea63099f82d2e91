"""The one dispatcher: the unit table both fan-out backends drive.

:func:`~repro.runtime.exec.run_plan` fans out over two thin
transports, forked children on pipes (``exec._run_pool``) and worker
processes on sockets (:mod:`repro.runtime.cluster`).  Each waits on
its workers -- any hashable key it picks -- and tells this table what
happened: a worker is idle (:meth:`Dispatcher.cut`), replied
(:meth:`~Dispatcher.result`, :meth:`~Dispatcher.land_frame`) or is
lost (:meth:`~Dispatcher.lose`); and it starts the workers
:meth:`~Dispatcher.spawns` asks for.  A reply lands whole, through the
one landing callback ``land(start, outputs, failures)``.  The table
does no I/O and reads no clock, so every interleaving of those inputs
can be driven in-process against the contract's I/O automaton
(``tests/dispatch_automaton.py``).
"""

from __future__ import annotations

import itertools
import logging
from collections import deque
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence

from repro.runtime.exec import Failures, FaultPolicy, UnitFailure

__all__ = ["Dispatcher"]

#: ``run_plan``'s logger: one debug line per fanned-out plan, one
#: warning per lost worker, whichever transport ran it.
_log = logging.getLogger("repro.runtime.exec")

#: Units travel to workers in *frames*: one message carries a run of
#: units and one message brings their outputs back, both as columns.
#: Sending a frame costs some 40 us on the pool and 100 us on the
#: cluster whatever it holds, so a frame should run for at least ~2 ms
#: (dispatch <= ~2 % of it) -- and for at most ~20 ms, which is
#: what a lost frame costs to redo, how long a unit's result can wait
#: on its frame-mates before it is checkpointed, and how unevenly the
#: last frames of a plan can split between workers.  Units that take
#: longer than the floor on their own therefore travel alone, forever.
#: A worker is given a spare frame behind the one it runs only while
#: the last reply came back under the floor: a spare queued behind a
#: 40 ms unit would wait while another worker idles, so units over the
#: floor keep one frame in flight per worker.
#: The floor is also the work a pool plan must show before a second
#: child is forked: a plan done sooner would not get the fork back.
_FRAME_FLOOR_SECONDS = 0.002
_FRAME_CEILING_SECONDS = 0.020


def _next_frame_size(size: int, units: int, seconds: float) -> int:
    """The frame-size rule: how many units the next frame carries.

    ``size`` is the current size and ``(units, seconds)`` what a frame
    that just came back held and took in its worker.  A *full* frame
    under the floor doubles the size, any frame over the ceiling halves
    what it held, and the size never drops below 1.  Frames sent before
    the last change still report in; a short one proves nothing about
    the current size and a long one cannot halve twice.
    """
    if seconds > _FRAME_CEILING_SECONDS:
        return max(1, min(size, units // 2))
    if units >= size and seconds < _FRAME_FLOOR_SECONDS:
        return size * 2
    return size


class Dispatcher:
    """The unit table of one fanned-out plan.

    Pending units are the ``lost`` ones, in order, then every unit from
    ``cursor`` on.  A frame is a ``range``: fresh units go out ``size``
    at a time (a cut that would leave fewer than ``size`` behind takes
    them too, so no runt frame costs a round trip), a lost unit alone
    -- so a unit that kills its worker takes no frame-mate down with it
    twice.  ``flight`` maps each busy worker to the frame it runs,
    ``spare`` to the frame queued behind that one, if any, and
    ``names`` to what the worker is called.  A unit below ``cursor``
    went to one worker unless it was lost, so only a re-dispatched
    unit has an entry in ``sends`` (the workers it went to), and only
    a unit held by a fenced worker one in ``silences`` (the heartbeat
    intervals it was silent for): :meth:`dispatches` and
    :meth:`misses` read them.  ``land(start, outputs, failures)`` lands
    a frame: ``outputs`` lines up with its units from ``start`` on, and
    ``failures`` holds ``(slot, UnitFailure)`` in slot order.
    """

    def __init__(
        self,
        label: str,
        labels: Sequence[str],
        policy: FaultPolicy,
        workers: int,
        land: Callable[[int, List[Any], Failures], None],
    ):
        self.label, self.labels, self.policy = label, labels, policy
        self.land = land
        self.total = total = len(labels)
        self.workers = max(1, min(workers, total))
        #: Workers one plan may start: the first ones, every re-dispatch
        #: a unit is allowed, and headroom for slow starters -- a unit
        #: that kills every worker cannot fork replacements forever.
        self.spawn_budget = self.workers * max(2, policy.max_dispatches) + 2
        self.sends: Dict[int, int] = {}
        self.silences: Dict[int, int] = {}
        self.lost: deque = deque()
        self.cursor = 0
        self.flight: Dict[Hashable, range] = {}
        self.spare: Dict[Hashable, range] = {}
        self.names: Dict[Hashable, str] = {}
        self.size = 1
        #: The last reply came back under the floor: a busy worker may
        #: hold a spare frame.
        self.quick = False
        self.landed = self.frames = self.largest = self.redispatches = 0
        self.spares = 0
        self.draining = False

    def dispatches(self, index: int) -> int:
        """How many workers unit ``index`` was sent to."""
        return self.sends.get(index, int(index < self.cursor))

    def misses(self, index: int) -> int:
        """How many heartbeat intervals the workers unit ``index`` was
        lost with were silent for."""
        return self.silences.get(index, 0)

    def pending(self) -> int:
        return len(self.lost) + self.total - self.cursor

    def spawns(self, live: int, spawned: int) -> int:
        """How many workers to start now, with ``live`` ones running or
        starting and ``spawned`` started so far: as many as the plan can
        still keep busy, within the spawn budget."""
        if self.draining:
            return 0
        busy = min(self.workers, self.pending() + len(self.flight))
        return max(0, min(busy - live, self.spawn_budget - spawned))

    def finished(self) -> bool:
        """Every unit landed, or a drain has nothing left in flight."""
        return self.landed == self.total or (
            self.draining and not self.flight
        )

    def cut(self, worker: Hashable, name: str) -> Optional[range]:
        """The frame ``worker`` (called ``name``) takes next, or None.

        An idle worker takes the next pending frame.  A busy one takes
        a spare of fresh units behind a fresh frame, while it holds no
        spare yet, no lost unit waits and the last reply came back
        under the floor -- so a unit over the floor never waits behind
        another.  None: the plan is draining, nothing is pending, or
        the worker holds all it may.
        """
        if self.draining:
            return None
        running = self.flight.get(worker)
        if running is not None and (
            worker in self.spare or self.lost or not self.quick
            or running.start in self.sends
        ):
            return None
        if self.lost:
            index = self.lost.popleft()
            frame = range(index, index + 1)
            self.sends[index] = self.dispatches(index) + 1
            self.redispatches += 1
        elif self.cursor < self.total:
            stop = self.cursor + self.size
            if self.total - stop < self.size:
                stop = self.total
            frame = range(self.cursor, stop)
            self.cursor = stop
        else:
            return None
        if running is None:
            self.flight[worker] = frame
            self.names[worker] = name
        else:
            self.spare[worker] = frame
            self.spares += 1
        self.frames += 1
        self.largest = max(self.largest, len(frame))
        return frame

    def result(self, worker: Hashable, seconds: float) -> Optional[range]:
        """Take ``worker``'s reply to its oldest frame, which took
        ``seconds``: the frame, to land, or None if it holds none -- a
        fenced worker's late reply changes nothing.  Its spare, if it
        holds one, is the frame it runs now."""
        frame = self.flight.pop(worker, None)
        if frame is None:
            return None
        self.size = _next_frame_size(self.size, len(frame), seconds)
        self.quick = seconds < _FRAME_FLOOR_SECONDS
        spare = self.spare.pop(worker, None)
        if spare is None:
            del self.names[worker]
        else:
            self.flight[worker] = spare
        return frame

    def land_frame(
        self, frame: range, outputs: List[Any], failures: Failures
    ) -> None:
        """Land a reply whole."""
        self.landed += len(frame)
        self.land(frame.start, outputs, failures)

    def lose(self, worker: Hashable, reason: str, misses: int = 0) -> None:
        """The lost-worker rule: ``worker`` is fenced or gone.

        Each unit of the frames it held, the one it ran and then its
        spare, goes back to the front of the queue, in order -- the
        same unit, so the same bits wherever it lands (clause 5) --
        unless it has been dispatched ``FaultPolicy.max_dispatches``
        times: then its loss is its own fault, and it lands, as a frame
        of one, as a :class:`UnitFailure` carrying its provenance,
        which follows ``on_error`` like any other.
        """
        frame = self.flight.pop(worker, None)
        if frame is None:
            return
        spare = self.spare.pop(worker, None)
        held = [frame] if spare is None else [frame, spare]
        name = self.names.pop(worker)
        limit = self.policy.max_dispatches
        requeue, exhausted = [], []
        for index in itertools.chain(*held):
            if misses:
                self.silences[index] = self.misses(index) + misses
            if self.dispatches(index) < limit:
                requeue.append(index)
            else:
                exhausted.append(index)
        self.lost.extendleft(reversed(requeue))
        _log.warning(
            "%s: worker %r lost (%s) holding units %d-%d"
            + "".join(f" and {f.start}-{f.stop - 1}" for f in held[1:])
            + "; %d requeued",
            self.label, name, reason, frame.start, frame.stop - 1,
            len(requeue),
        )
        for index in exhausted:
            sent = self.dispatches(index)
            failure = UnitFailure(
                index=index, label=self.labels[index],
                error=(
                    f"worker {name!r} lost ({reason}) and unit exhausted "
                    f"its {limit} dispatch(es)"
                ),
                traceback="", attempts=sent, worker=name,
                redispatches=sent - 1,
                heartbeat_misses=self.misses(index),
            )
            self.landed += 1
            self.land(index, [None], [(0, failure)])

    def stalled(self, hint: str) -> RuntimeError:
        """The error of a plan whose workers are all gone for good."""
        return RuntimeError(
            f"{self.label}: stalled -- no worker left, spawn budget "
            f"({self.spawn_budget}) spent, {self.pending()} unit(s) still "
            f"pending; {hint}"
        )

    def log(self, seconds: float, start_seconds: float, started: int) -> None:
        """One debug line per fanned-out plan: how its units were
        framed, how long it took to its first frame sent, and how many
        workers it started."""
        _log.debug(
            "%s: %d units in %d frames (largest %d) on %d workers, %d "
            "re-dispatched, %d spare(s), %.3fs (start %.1f ms), "
            "started %d",
            self.label, self.landed, self.frames, self.largest,
            self.workers, self.redispatches, self.spares, seconds,
            start_seconds * 1e3, started,
        )
