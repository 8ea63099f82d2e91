"""Runners and a coordinator stub for cluster-backend tests.

Cluster workers are *fresh* OS processes (not forks), so any runner a
test ships to them must be importable by name on the worker's
``sys.path``.  Functions defined inside a pytest module are only
importable when the tests directory itself is on ``PYTHONPATH`` --
the ``worker_path`` fixture in ``conftest.py`` arranges exactly
that, and this module keeps the runners in one predictable place.
"""

import os
import pickle
import selectors
import socket
import time

from repro.runtime.cluster import (
    ClusterCoordinator,
    _Connection,
    encode_message,
    recv_message,
)
from repro.runtime.exec import ExecutionPlan, FaultPolicy, WorkUnit


def double_unit(payload):
    return payload * 2


def slow_double(payload):
    value, seconds = payload
    time.sleep(seconds)
    return value * 2


def unit_pid(payload):
    """Report which OS process ran the unit."""
    return (payload, os.getpid())


def mixed_unit(payload):
    """``(value, seconds)``: sleep (possibly not at all), then double."""
    value, seconds = payload
    if seconds:
        time.sleep(seconds)
    return value * 2


def make_unpicklable(payload):
    return lambda: payload  # a lambda output is deliberately unpicklable


def contract_unit(payload):
    """``(value, kind)``: double it, raise, or return what will not pickle."""
    value, kind = payload
    if kind == "raise":
        raise RuntimeError(f"unit {value} exploded")
    if kind == "unpicklable":
        return make_unpicklable(value)
    return value * 2


def mixed_plan(count=1000, slow_every=250):
    """~1,000 do-nothing units with a 30 ms one every ``slow_every``.

    Small and large units in one plan, so frames of many and (around
    the slow units) of few both occur.
    """
    return ExecutionPlan(
        units=[
            WorkUnit(
                runner=mixed_unit,
                payload=(v, 0.03 if v % slow_every == 7 else 0.0),
                label=f"u{v}",
            )
            for v in range(count)
        ],
        merge=list,
        label="mixed",
    )


def framing(caplog):
    """``(units, frames, largest)`` from a plan's one debug line.

    Needs ``caplog.set_level("DEBUG", logger="repro.runtime.exec")``.
    """
    (record,) = [
        r for r in caplog.records
        if r.name == "repro.runtime.exec" and r.levelname == "DEBUG"
    ]
    _label, units, frames, largest, _workers, _redispatched, *_ = record.args
    return units, frames, largest


class CoordinatorStub:
    """A real :class:`ClusterCoordinator` with scripted workers.

    No process is spawned and no port is bound: each "worker" is the
    far end of a ``socket.socketpair`` whose near end is registered
    with the coordinator exactly as ``_accept`` would, and ``say``
    hands the coordinator whatever bytes a test wants it to read --
    which is how the hostile-input tests speak for a worker that lies.
    """

    def __init__(self, units=8, policy=None):
        self.coordinator = ClusterCoordinator(
            label="stub",
            blobs=[pickle.dumps((double_unit, v)) for v in range(units)],
            labels=[f"unit-{v}" for v in range(units)],
            policy=policy or FaultPolicy(on_error="skip"),
            workers=1,
        )
        self.coordinator._selector = selectors.DefaultSelector()
        self.coordinator._table.land = self.land
        self.landed = []
        self._conns = {}

    def land(self, index, output, failure):
        self.landed.append((index, output, failure))

    @property
    def table(self):
        return self.coordinator._table

    def pending(self):
        """The units not yet out, in the order they will go."""
        return list(self.table.lost) + list(
            range(self.table.cursor, self.table.total)
        )

    def join(self):
        """Connect one worker, say hello: ``(far socket, setup, frame)``.

        ``frame`` is the list of unit indices the coordinator sent.
        """
        near, far = socket.socketpair()
        near.setblocking(False)
        far.settimeout(5.0)
        conn = _Connection(sock=near, last_seen=time.monotonic())
        self.coordinator._connections[near.fileno()] = conn
        self.coordinator._selector.register(near, selectors.EVENT_READ, conn)
        self._conns[far] = conn
        self.say(far, ("hello", {"launch": None}))
        setup = recv_message(far)
        return far, setup, self.frame(far)

    def frame(self, far):
        """The unit indices of the next ``frame`` message sent to ``far``."""
        kind, jobs = recv_message(far)
        assert kind == "frame"
        return [index for index, _blob, _label in jobs]

    def say(self, far, *messages):
        """Send ``messages`` as the worker and let the coordinator read."""
        far.sendall(b"".join(encode_message(m) for m in messages))
        self.coordinator._read(self._conns[far])

    def hang_up(self, far):
        far.close()
        self.coordinator._read(self._conns[far])

    def close(self):
        self.coordinator._selector.close()
        for far, conn in self._conns.items():
            far.close()
            conn.sock.close()
