"""The ``run_plan`` contract as an I/O automaton (clauses 4 and 5).

This is the specification the dispatcher
(:class:`repro.runtime.dispatch.Dispatcher`) is checked against, in the
simulation-relation style of Lynch's I/O automata: every step the
implementation takes must be a step this automaton allows, and the
implementation's state must map onto the automaton's after it.  It
says *what* may happen, never how a frame is chosen or sized.

State
    per unit: ``pending | in flight | landed | failed`` and how many
    workers it was dispatched to; per worker: ``idle | busy | fenced |
    gone`` and the frame a busy one holds; whether a drain began.

Inputs (what a transport observes)
    ``join``, ``dispatch(w, frame)``, ``result(w)``, a heartbeat
    ``miss(w)`` (the worker is fenced), ``death(w)`` (it is gone) and
    ``drain``.

Outputs
    ``land(i)`` -- unit ``i`` lands with its serial output, or with its
    own failure (clause 4); ``fail(i)`` -- unit ``i`` out-lived
    ``max_dispatches`` workers (clause 5).

Workers are symmetric (Alur et al.): :func:`canonical` forgets which
worker is which and keeps only how many are in each state, which is
what makes 3 units x 3 workers small enough to enumerate.
"""

from dataclasses import dataclass, replace
from typing import FrozenSet, List, Tuple

PENDING, IN_FLIGHT, LANDED, FAILED = "pending", "in flight", "landed", "failed"
IDLE, BUSY, FENCED, GONE = "idle", "busy", "fenced", "gone"

#: ``(status, dispatches)`` per unit; ``(status, frame)`` per worker.
Unit = Tuple[str, int]
Worker = Tuple[str, Tuple[int, ...]]
#: What a step emits: ``("land", i)`` or ``("fail", i)``, in order.
Outputs = List[Tuple[str, int]]


class Disabled(AssertionError):
    """The implementation took a step the contract does not allow."""


@dataclass(frozen=True)
class State:
    units: Tuple[Unit, ...]
    workers: Tuple[Worker, ...]
    max_dispatches: int
    draining: bool = False

    def finished(self) -> bool:
        """Every unit landed or failed, or a drain has none in flight."""
        if self.draining:
            return all(status != IN_FLIGHT for status, _ in self.units)
        return all(status in (LANDED, FAILED) for status, _ in self.units)


def initial(units: int, max_dispatches: int) -> State:
    return State(((PENDING, 0),) * units, (), max_dispatches)


def _require(condition: bool, why: str) -> None:
    if not condition:
        raise Disabled(why)


def _set(items: tuple, index: int, value) -> tuple:
    return items[:index] + (value,) + items[index + 1:]


def join(state: State) -> State:
    return replace(state, workers=state.workers + ((IDLE, ()),))


def can_dispatch(state: State, worker: int) -> bool:
    """Whether *some* frame may go to ``worker`` now (progress)."""
    return (
        not state.draining and state.workers[worker][0] == IDLE
        and any(
            status == PENDING and sent < state.max_dispatches
            for status, sent in state.units
        )
    )


def dispatch(state: State, worker: int, frame: Tuple[int, ...]) -> State:
    _require(not state.draining, "a frame went out during a drain")
    _require(state.workers[worker][0] == IDLE, f"worker {worker} is not idle")
    _require(len(frame) > 0, "an empty frame")
    units = state.units
    for index in frame:
        status, sent = units[index]
        _require(status == PENDING, f"unit {index} is {status}, not pending")
        _require(
            sent < state.max_dispatches,
            f"unit {index} dispatched past max_dispatches",
        )
        units = _set(units, index, (IN_FLIGHT, sent + 1))
    return replace(
        state, units=units,
        workers=_set(state.workers, worker, (BUSY, tuple(frame))),
    )


def result(
    state: State, worker: int, raising: FrozenSet[int]
) -> Tuple[State, Outputs]:
    """``worker`` replies.  A busy one's frame lands whole, each unit
    with its own outcome; anyone else's reply is late and changes
    nothing."""
    status, frame = state.workers[worker]
    if status != BUSY:
        return state, []
    units = state.units
    outputs: Outputs = []
    for index in frame:
        units = _set(units, index, (
            FAILED if index in raising else LANDED, units[index][1]
        ))
        outputs.append(("land", index))
    return replace(
        state, units=units, workers=_set(state.workers, worker, (IDLE, ())),
    ), outputs


def lose(state: State, worker: int, to: str) -> Tuple[State, Outputs]:
    """``worker`` is fenced (``to=FENCED``) or gone (``to=GONE``).  Its
    frame's units are pending again, but for those that have used up
    ``max_dispatches``: they fail."""
    status, frame = state.workers[worker]
    _require(status != GONE, f"worker {worker} is already gone")
    _require(
        to == GONE or status in (IDLE, BUSY),
        f"worker {worker} is {status}",
    )
    units = state.units
    outputs: Outputs = []
    for index in frame:
        sent = units[index][1]
        if sent < state.max_dispatches:
            units = _set(units, index, (PENDING, sent))
        else:
            units = _set(units, index, (FAILED, sent))
            outputs.append(("fail", index))
    return replace(
        state, units=units, workers=_set(state.workers, worker, (to, ())),
    ), outputs


def drain(state: State) -> State:
    return replace(state, draining=True)


def canonical(state: State) -> tuple:
    """The state up to a renaming of workers: units as they are,
    workers counted per ``(status, frame)``."""
    return state.units, tuple(sorted(state.workers)), state.draining
