"""The discrete-event kernel of the agent tier.

One heap of ``(time, seq, callback)`` entries and a clock.  Callbacks
due at the same time run in the order they were scheduled (``seq``
breaks ties), so a run is a pure function of its seeds.

A process is a generator, in the sense of an I/O automaton: a sequence
of steps, each taken on one input.  Each step ends by yielding either

* a number -- sleep that long, then take the next step; or
* a callable, such as what :meth:`Network.contact
  <repro.runtime.network.Network.contact>` returns -- the kernel calls
  it with the process's ``resume(value=None, error=None)``, and
  whoever holds ``resume`` takes the next step: ``resume(value)`` sends
  ``value`` into the generator, ``resume(error=exc)`` throws ``exc``.

A wake-up for a generator that has finished or was closed does
nothing, so a process is stopped by closing its generator.

Example::

    env = Environment()

    def ticker(env, period):
        while True:
            yield period
            print("tick at", env.now)

    env.spawn(ticker(env, 1.0))
    env.run(until=5.0)
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Generator, List, Optional, Tuple


class Environment:
    """The simulation clock, its event heap and the process driver."""

    def __init__(self):
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback()`` ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        heapq.heappush(self._heap, (self.now + delay, next(self._seq), callback))

    def spawn(self, generator: Generator) -> Generator:
        """Start a process: its first step runs at the current time.

        Returns the generator, which the caller closes to stop it.
        """

        def resume(value=None, error: Optional[BaseException] = None) -> None:
            if generator.gi_frame is None:  # finished or closed
                return
            try:
                if error is not None:
                    target = generator.throw(error)
                else:
                    target = generator.send(value)
            except StopIteration:
                return
            if callable(target):
                target(resume)
            else:
                self.schedule(target, resume)

        self.schedule(0.0, resume)
        return generator

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> float:
        """Execute callbacks until the heap drains or ``until`` is reached.

        Returns the simulation time at exit.  ``max_events`` guards
        against runaway loops in buggy protocols.
        """
        heap = self._heap
        executed = 0
        while heap:
            if until is not None and heap[0][0] > until:
                break
            self.now, _, callback = heapq.heappop(heap)
            callback()
            executed += 1
            if executed >= max_events:
                raise RuntimeError(
                    f"run loop exceeded {max_events} events (runaway simulation?)"
                )
        if until is not None:
            self.now = until
        return self.now
