"""The unified execution layer: work-unit plans with pluggable executors.

Every ensemble runs on it -- a single experiment's, of any engine tier,
and every point of a campaign, all through
:class:`~repro.runtime.parallel.EnsembleExecutor` units -- and each
reduces to the same shape: a deterministic list of independent
**work units**, executed anywhere, whose outputs are combined by an
order-dependent, schedule-independent **merge**.  This module is that
shape, extracted once:

* a :class:`WorkUnit` is a picklable ``(runner, payload)`` pair whose
  ``runner`` must be a module-level function (the only kind a spawned
  worker process can import);
* an :class:`ExecutionPlan` is the ordered unit list plus the merge
  contract;
* :func:`run_plan` executes a plan on 1..K local processes under a
  :class:`FaultPolicy` (per-unit capture, retries, timeout).

The reproducibility contract, shared by every caller:

1. **Unit identity is part of the experiment's identity.**  A plan's
   decomposition (how many units, which seeds they carry) must depend
   only on declared inputs -- root seed, trial count, shard count --
   never on ``workers``.  Unit seeds come from domain-separated spawns
   (:func:`repro.runtime.rng.spawn_seeds` over ``(seed, DOMAIN)``
   entropy), so unit streams cannot collide with protocol streams.
2. **Merges are integer-exact and ordered.**  ``merge`` receives unit
   outputs in *unit order* regardless of completion order, and must
   combine them with order-preserving, exact operations (concatenation,
   integer sums) -- never means of means.  Together with (1) this makes
   a plan's result bitwise identical however it is scheduled: one
   process, K workers, or a later replay.
3. **Serial execution is always a correct fallback.**  When the units
   do not survive :mod:`pickle` (closure or lambda hooks or scenario
   builders), :func:`run_plan` warns and runs them in-process --
   same bits, no pool.  The probe is one :mod:`pickle` pass over the
   whole plan before any unit runs, and the pool's only one: its
   forked children inherit the plan, and a frame names a range of it.
   A cluster worker gets the probe's blobs once, when it joins, and
   its frames name ranges the same way.
4. **Failure handling cannot perturb results.**  A unit fails as a
   whole or not at all: an exception (or timeout) anywhere in a unit
   discards that attempt's entire output, and a retry re-runs the
   *same* payload from scratch -- same seeds, same decomposition, same
   merge slot -- so a run that needed three attempts on one unit is
   bitwise identical to a run that needed one.  Failures surface as
   :class:`UnitFailure` records carrying the unit's index, label and
   traceback instead of an opaque pool blow-up -- an output that will
   not pickle for the trip back included, on both backends.
5. **Worker loss cannot perturb results.**  On both fan-out backends
   a worker that dies (or, on the ``cluster`` backend, stops
   heartbeating) mid-frame is fenced, and each unit of its frames (the
   one it ran and any spare behind it) is re-dispatched alone -- a
   range of one of the *same* plan, so the same unit into the same
   merge slot -- and a run that lost two
   workers is bitwise identical to one that lost none.  Units that
   out-live ``FaultPolicy.max_dispatches`` workers flow into clause
   4's :class:`UnitFailure` machinery.  Both
   backends drive one table for this,
   :class:`~repro.runtime.dispatch.Dispatcher`.

``workers`` is therefore pure *scheduling budget*: callers that nest
(a campaign point expanding into trial shards) flatten their levels
into one unit list and hand the whole budget to a single pool, which
is what lets one huge point and many small points share workers
without either level re-deciding the decomposition.
"""

from __future__ import annotations

import multiprocessing.connection
import os
import pickle
import re
import select
import signal
import struct
import sys
import threading
import time
import traceback as traceback_module
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path, PurePath
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "BACKENDS",
    "ExecutionPlan",
    "FaultPolicy",
    "UnitExecutionError",
    "UnitFailure",
    "UnitTimeout",
    "WorkUnit",
    "run_plan",
]

#: The ``on_error`` modes a :class:`FaultPolicy` accepts.
ON_ERROR_MODES = ("raise", "skip", "retry")

#: The executor backends :func:`run_plan` accepts.  ``"pool"`` is local
#: forked children, a pipe each; ``"cluster"`` is the socket-based
#: process-isolated coordinator/worker backend
#: (:mod:`repro.runtime.cluster`) with heartbeats, dead-worker
#: re-dispatch and elastic worker counts.
BACKENDS = ("pool", "cluster")

#: A pool frame on the pipe: its ``(start, stop)`` range, packed.
_POOL_FRAME = struct.Struct("<qq")


@dataclass(frozen=True)
class WorkUnit:
    """One independently executable unit of a plan.

    ``runner`` must be a module-level function so it can cross a
    process boundary; ``payload`` is its single argument and should be
    a plain-data job description (dataclasses of primitives pickle
    fine; closures do not and will trigger the serial fallback).
    """

    runner: Callable[[Any], Any]
    payload: Any
    label: str = ""


@dataclass(frozen=True)
class FaultPolicy:
    """How :func:`run_plan` treats a unit that raises (or times out).

    ``on_error`` selects the terminal behavior once a unit's attempts
    are exhausted:

    * ``"raise"`` -- the pre-fault default: a unit gets exactly one
      attempt, and its failure aborts the plan with a
      :class:`UnitExecutionError` (the failing unit's index, label and
      traceback attached -- never an opaque pool blow-up).
    * ``"retry"`` -- transient faults are retried: each unit gets
      ``1 + retries`` attempts with capped exponential backoff between
      them; exhausting them raises like ``"raise"``.  A retry re-runs
      the *same* unit payload, so seeds, decomposition and merge order
      are untouched and a retried run is bitwise identical to a clean
      one.
    * ``"skip"`` -- failure isolation: units retry exactly as under
      ``"retry"``, but an exhausted unit is recorded as a
      :class:`UnitFailure` (its slot in the merge input, and the
      ``on_failure`` stream) instead of aborting the plan, yielding
      partial results.

    ``timeout_seconds`` bounds each *attempt* wall-clock; an expired
    attempt fails with :class:`UnitTimeout` and follows the same
    retry/skip/raise path as any other exception.  The bound is an
    interval timer + ``SIGALRM``, which only a POSIX main thread can
    arm: pool children and cluster workers run units on their own main
    threads, and an in-process run from any other thread is refused
    with :class:`ValueError` before any unit runs.

    The heartbeat fields only matter to the ``cluster`` backend: a
    worker that sends no message for ``heartbeat_seconds *
    heartbeat_misses`` is declared dead.  On both fan-out backends a
    unit that out-lives ``max_dispatches`` workers is treated as the
    unit's own fault and follows ``on_error`` (clause 5).
    """

    on_error: str = "raise"
    #: Extra attempts per unit after the first (``on_error != "raise"``).
    retries: int = 2
    #: Backoff before retry k (0-based) is
    #: ``min(backoff_seconds * backoff_factor**k, max_backoff_seconds)``,
    #: shrunk by up to ``jitter`` of itself when a unit index is known.
    backoff_seconds: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_seconds: float = 2.0
    #: Fraction of each backoff randomized away (0 = exact exponential,
    #: 1 = anywhere in (0, backoff]).  Deterministic per (unit, attempt):
    #: the jitter is hashed from the unit index, not drawn from entropy,
    #: so retried runs stay bitwise reproducible while a mass retry
    #: after a worker death decorrelates instead of stampeding.
    jitter: float = 0.5
    #: Wall-clock bound per attempt (None = unbounded).
    timeout_seconds: Optional[float] = None
    #: Cluster backend: expected interval between worker heartbeats.
    heartbeat_seconds: float = 0.5
    #: Cluster backend: silent intervals before a worker is declared dead.
    heartbeat_misses: int = 4
    #: Total workers a unit may be dispatched to before its loss is
    #: treated as the unit's own terminal failure.
    max_dispatches: int = 3

    def __post_init__(self):
        if self.on_error not in ON_ERROR_MODES:
            raise ValueError(
                f"on_error must be one of {ON_ERROR_MODES}, "
                f"got {self.on_error!r}"
            )
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.backoff_seconds < 0 or self.max_backoff_seconds < 0:
            raise ValueError("backoff durations must be >= 0")
        if self.backoff_factor < 1:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(
                f"jitter must be within [0, 1], got {self.jitter}"
            )
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError(
                f"timeout_seconds must be > 0, got {self.timeout_seconds}"
            )
        if self.heartbeat_seconds <= 0:
            raise ValueError(
                f"heartbeat_seconds must be > 0, got {self.heartbeat_seconds}"
            )
        if self.heartbeat_misses < 1:
            raise ValueError(
                f"heartbeat_misses must be >= 1, got {self.heartbeat_misses}"
            )
        if self.max_dispatches < 1:
            raise ValueError(
                f"max_dispatches must be >= 1, got {self.max_dispatches}"
            )

    @property
    def attempts(self) -> int:
        """Total attempts per unit (1 under ``on_error="raise"``)."""
        return 1 if self.on_error == "raise" else 1 + self.retries

    @property
    def heartbeat_deadline(self) -> float:
        """Silence (seconds) after which a cluster worker is dead."""
        return self.heartbeat_seconds * self.heartbeat_misses

    def backoff_for(
        self, failed_attempts: int, unit_index: Optional[int] = None
    ) -> float:
        """Seconds to wait before the next attempt.

        With a ``unit_index``, the capped exponential base is shrunk by
        a deterministic per-(unit, attempt) jitter fraction so that
        many units retrying at once (e.g. after a worker death)
        decorrelate their sleeps.  Without one -- or with ``jitter=0``
        -- the exact capped exponential is returned.
        """
        base = min(
            self.backoff_seconds * self.backoff_factor ** failed_attempts,
            self.max_backoff_seconds,
        )
        if unit_index is None or self.jitter == 0.0 or base == 0.0:
            return base
        fraction = _jitter_fraction(unit_index, failed_attempts)
        return base * (1.0 - self.jitter * fraction)


def _jitter_fraction(unit_index: int, attempt: int) -> float:
    """A reproducible uniform-ish fraction in [0, 1) for backoff jitter.

    A splitmix64 finalizer over ``(unit_index, attempt)`` -- pure
    integer arithmetic, no RNG object and no entropy, so the jittered
    backoff schedule is a function of the unit alone and retried runs
    stay bitwise identical wherever the unit executes.
    """
    mask = (1 << 64) - 1
    z = (unit_index * 0x9E3779B97F4A7C15 + attempt + 0x1D8E4E27C47D124F) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    z ^= z >> 31
    return (z >> 11) / float(1 << 53)


@dataclass(frozen=True)
class UnitFailure:
    """One unit's terminal failure, with enough context to act on it.

    Under ``on_error="skip"`` these appear in the merge input (in the
    failed unit's slot) and in the ``on_failure`` stream; under
    ``"raise"``/``"retry"`` the first one aborts the plan wrapped in a
    :class:`UnitExecutionError`.

    The provenance fields say which worker a unit was last dispatched
    to (``worker``), how many dispatches beyond the first it had
    (``redispatches``: worker deaths it survived) and how many
    heartbeat intervals its dead workers were silent for in total
    (``heartbeat_misses``), so a skipped campaign point says *which*
    worker died.  Both fan-out backends fill them when a unit's workers
    all died, the cluster on any failure; pool and serial failures of
    the unit's own leave them empty.
    """

    index: int
    label: str
    error: str
    traceback: str
    attempts: int
    worker: str = ""
    redispatches: int = 0
    heartbeat_misses: int = 0

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "UnitFailure":
        return cls(
            index=int(data["index"]),
            label=str(data["label"]),
            error=str(data["error"]),
            traceback=str(data["traceback"]),
            attempts=int(data["attempts"]),
            worker=str(data.get("worker", "")),
            redispatches=int(data.get("redispatches", 0)),
            heartbeat_misses=int(data.get("heartbeat_misses", 0)),
        )


class UnitExecutionError(RuntimeError):
    """A work unit failed terminally under a raising fault policy."""

    def __init__(self, failure: UnitFailure, plan_label: str = "plan"):
        self.failure = failure
        label = failure.label or f"unit {failure.index}"
        super().__init__(
            f"{plan_label}: {label} (unit {failure.index}) failed after "
            f"{failure.attempts} attempt(s): {failure.error}\n"
            f"{failure.traceback}"
        )


class UnitTimeout(Exception):
    """An attempt exceeded the fault policy's per-unit timeout."""


def _refuse_unarmable_deadline(policy: FaultPolicy, label: str) -> None:
    """Refuse a per-attempt timeout the calling thread cannot enforce.

    Only a POSIX main thread can arm ``SIGALRM``.  Pool children and
    cluster workers run their units on their own main threads, so only
    an in-process run can land elsewhere; it is refused before any unit
    runs rather than run unbounded.
    """
    if policy.timeout_seconds is None or (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    ):
        return
    raise ValueError(
        f"{label}: timeout_seconds={policy.timeout_seconds:g} needs "
        f"SIGALRM, which only the main thread can arm, and this plan would "
        f"run in-process on thread {threading.current_thread().name!r}: "
        f"run it from the main thread, or fan it out to workers (pool "
        f"children and cluster workers arm it on their own main threads)"
    )


@contextmanager
def _attempt_deadline(seconds: float):
    """Bound one attempt's wall clock with an interval timer + ``SIGALRM``.

    The handler raises :class:`UnitTimeout` *inside* the unit, joining
    the ordinary exception path; a signal interrupts anything,
    blocking C calls included.  Main thread only
    (:func:`_refuse_unarmable_deadline`).
    """
    def expire(signum, frame):
        raise UnitTimeout(f"attempt exceeded the {seconds:g}s unit timeout")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


#: Longest traceback text a UnitFailure will carry.  Failures under
#: ``on_error="skip"`` are persisted verbatim into campaign manifests,
#: and a runaway recursion trace would bloat every later manifest diff.
_TRACEBACK_LIMIT = 8000

_TRACEBACK_FILE_RE = re.compile(r'(File ")([^"]+)(")')


def _normalize_traceback(text: str) -> str:
    """Make a captured traceback checkout-location-independent.

    Campaign manifests persist these strings, and the resume test
    compares manifests produced by *different* runs of the same spec --
    which may live in different checkouts or virtualenvs.  Absolute
    ``File "..."`` paths are rewritten to be stable: paths under the
    current working directory become relative to it, any other absolute
    path keeps only its last three components.  Long traces are
    truncated head-first (the raising frame is at the tail).
    """
    cwd = Path.cwd()

    def rewrite(match: "re.Match") -> str:
        raw = match.group(2)
        path = PurePath(raw)
        if not path.is_absolute():
            return match.group(0)
        try:
            stable = PurePath(raw).relative_to(cwd)
        except ValueError:
            stable = PurePath(*path.parts[-3:])
        return f'{match.group(1)}{stable.as_posix()}{match.group(3)}'

    text = _TRACEBACK_FILE_RE.sub(rewrite, text)
    if len(text) > _TRACEBACK_LIMIT:
        text = (
            f"... ({len(text) - _TRACEBACK_LIMIT} chars truncated)\n"
            + text[-_TRACEBACK_LIMIT:]
        )
    return text


#: ``(slot, failure)`` for each failed unit of a frame, in slot order.
Failures = List[Tuple[int, UnitFailure]]


def _run_frame(
    indices: Sequence[int],
    units: Iterable[Tuple[Callable[[Any], Any], Any]],
    labels: Sequence[str],
    policy: FaultPolicy,
) -> Tuple[List[Any], Failures, float]:
    """Run a frame's units in order: the one attempt loop.

    Every unit runs here, wherever it runs: a pool child or a cluster
    worker (through :func:`_serve_frame`), or in-process as a frame of
    one.  ``units`` are ``(runner, payload)`` pairs, taken one at a
    time as each is started (the cluster worker decodes and counts
    units for its chaos triggers so); ``indices`` and ``labels`` line
    up with them.  The policy is read
    once, and each unit gets its attempts, timeout and backoff exactly
    as if it had travelled alone; a unit that fails leaves its
    frame-mates untouched.  Returns ``(outputs, failures, seconds)``:
    ``outputs`` lines up with the units, None in a failed slot, and
    ``failures`` holds ``(slot, UnitFailure)`` for the failed ones only.
    """
    started = time.perf_counter()
    attempts, timeout = policy.attempts, policy.timeout_seconds
    outputs: List[Any] = []
    failures: Failures = []
    append = outputs.append
    for runner, payload in units:
        failed = 0
        while True:
            try:
                if timeout is None:
                    append(runner(payload))
                else:
                    with _attempt_deadline(timeout):
                        append(runner(payload))
                break
            except Exception as exc:
                slot, failed = len(outputs), failed + 1
                if failed < attempts:
                    time.sleep(policy.backoff_for(failed - 1, indices[slot]))
                    continue
                failures.append((slot, _unit_failure(
                    indices[slot], labels[slot], repr(exc), attempts
                )))
                append(None)
                break
    return outputs, failures, time.perf_counter() - started


def _encode_results(
    reply: Tuple[List[Any], Failures, float],
    indices: Sequence[int],
    labels: Sequence[str],
    encode: Callable[[Tuple], bytes],
) -> bytes:
    """``encode(reply)``, an output that will not pickle failing alone.

    The trip back of a :func:`_run_frame` reply, on both backends: when
    it will not encode, each output is tried on its own and the
    offender becomes a :class:`UnitFailure` naming the pickling error,
    which follows ``on_error`` like any other; its frame-mates land
    untouched.
    """
    try:
        return encode(reply)
    except Exception:
        outputs, failures, seconds = reply
        outputs, failed = list(outputs), dict(failures)
    for slot, output in enumerate(outputs):
        try:
            if slot not in failed:
                pickle.dumps(output)
        except Exception as exc:
            outputs[slot] = None
            failed[slot] = _unit_failure(
                indices[slot], labels[slot],
                f"unit output could not be pickled: {exc!r}", 1,
            )
    return encode((outputs, sorted(failed.items()), seconds))


def _serve_frame(
    frame: range, units: Iterable, labels: Sequence[str],
    policy: FaultPolicy, encode: Callable[[Tuple], bytes],
) -> bytes:
    """A worker's one job on either transport: run ``frame``, a range of
    the plan (``units`` its ``(runner, payload)`` pairs, ``labels`` the
    plan's), and encode the reply."""
    names = labels[frame.start:frame.stop]
    reply = _run_frame(frame, units, names, policy)
    return _encode_results(reply, frame, names, encode)


def _unit_failure(
    index: int, label: str, error: str, attempts: int
) -> UnitFailure:
    """The record of a unit whose exception is being handled."""
    return UnitFailure(
        index=index, label=label, error=error,
        traceback=_normalize_traceback(traceback_module.format_exc()),
        attempts=attempts,
    )


@dataclass
class ExecutionPlan:
    """An ordered list of work units plus their merge contract.

    Parameters
    ----------
    units:
        The work, in the order ``merge`` expects the outputs.
    merge:
        Combines the ordered output list into the plan's result.  May
        be ``None`` for streaming consumers that assemble results in
        the ``on_unit`` callback instead -- outputs are then *not*
        retained (important when units return large tensors).  Under a
        skipping fault policy, a failed unit's slot holds its
        :class:`UnitFailure` record.
    label:
        Used in failure and fallback messages so the caller is
        identifiable.

    A unit carries everything it needs: a worker process runs it with
    no setup of its own, whatever was registered in the parent.
    """

    units: Sequence[WorkUnit]
    merge: Optional[Callable[[List[Any]], Any]] = None
    label: str = "plan"


def _encode_units(plan: ExecutionPlan) -> Optional[List[bytes]]:
    """Serialize every unit once for the cluster, or None if it can't.

    The blobs are the cluster's picklability probe, its wire format
    *and* what makes a re-dispatched unit the same unit: it goes out
    again as the very bytes it went out as the first time.
    """
    try:
        return [
            pickle.dumps((unit.runner, unit.payload)) for unit in plan.units
        ]
    except Exception:
        return None


class _Discard:
    """A file that keeps nothing: the pool's probe only asks whether."""

    def write(self, data: bytes) -> int:
        return len(data)


def _plan_pickles(plan: ExecutionPlan, runners: list, payloads: list) -> bool:
    """The pool's probe: one pass over all a child may be sent (what a
    pickle costs is the call, not the bytes), before any unit runs."""
    try:
        pickle.Pickler(_Discard()).dump((runners, payloads))
    except Exception:
        return False
    return True


def _pool_worker(
    pipe: Any,
    inherited: Sequence[Any],
    columns: Tuple[List[Any], List[Any], List[str]],
    policy: FaultPolicy,
) -> None:
    """A pool child: say it is up, then run the frames its pipe names
    until it closes.

    A frame is ``(start, stop)``, a range of the plan's ``columns``,
    which the child inherited at fork: no unit crosses the pipe going
    down, and a replacement forked mid-plan holds the very same units.
    """
    for parent_end in inherited:
        # A forked copy of the parent's ends (this child's included)
        # would hold the pipes open after the parent closed or died.
        parent_end.close()
    runners, payloads, labels = columns
    try:
        pipe.send_bytes(b"")  # up: from now on, a frame out shows work
    except OSError:  # the plan ended while this child started
        return
    while True:
        try:
            a, b = _POOL_FRAME.unpack(pipe.recv_bytes())
        except (EOFError, OSError):  # closed; reset if with a reply unread
            return
        units = zip(runners[a:b], payloads[a:b])
        pipe.send_bytes(_serve_frame(
            range(a, b), units, labels, policy, pickle.dumps
        ))


def _flush_std_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError):  # None, or closed
            pass


class _Child:
    """A bare forked pool child, as the parent holds it.

    The std streams are flushed before the fork, so a line the parent
    had buffered is not printed again by the child.  The child reads
    no stdin, runs ``target(*args)``, flushes, and leaves by
    ``os._exit`` whatever happens: code 0, or 1 on an exception.  The
    parent holds a pidfd on it, so :meth:`join` waits in ``poll``, not
    in a sleep loop, and :meth:`kill` can never signal a recycled pid.
    """

    def __init__(self, target: Callable[..., None], *args: Any):
        _flush_std_streams()
        self.pid = os.fork()
        if self.pid == 0:  # the child: never returns
            code = 1
            try:
                if sys.stdin is not None:  # None: the parent has no fd 0
                    sys.stdin.close()
                sys.stdin = open(os.devnull)
                target(*args)
                code = 0
            except BaseException:
                traceback_module.print_exc()
            finally:
                try:
                    _flush_std_streams()
                finally:
                    os._exit(code)
        self._pidfd = os.pidfd_open(self.pid)
        #: ``os.waitstatus_to_exitcode`` once reaped (negative: the
        #: signal that ended it), None before.
        self.exitcode: Optional[int] = None

    def kill(self) -> None:
        if self.exitcode is None:
            signal.pidfd_send_signal(self._pidfd, signal.SIGKILL)

    def join(self, timeout: Optional[float] = None) -> None:
        """Reap the child once it exits, waiting at most ``timeout``
        seconds (None: as long as it takes)."""
        if self.exitcode is not None:
            return
        if timeout is not None:
            poller = select.poll()
            poller.register(self._pidfd, select.POLLIN)
            if not poller.poll(timeout * 1e3):
                return
        _, status = os.waitpid(self.pid, 0)
        self.exitcode = os.waitstatus_to_exitcode(status)
        os.close(self._pidfd)


def _run_pool(
    plan: ExecutionPlan,
    columns: Tuple[List[Any], List[Any], List[str]],
    policy: FaultPolicy,
    workers: int,
    land: Callable[[int, List[Any], Failures], None],
) -> None:
    """Run the plan's columns on forked children, one pipe each.

    The pipe transport of :class:`~repro.runtime.dispatch.Dispatcher`.
    Each child is a bare fork (:class:`_Child`) that inherits
    ``columns``, so a frame is only its ``(start, stop)`` range;
    replies land here, in the calling thread, each answering its
    child's oldest frame.  Going down, a pipe never holds more than a
    child's two 16-byte frames, far under the pipe buffer, so a send
    never blocks while the child writes a large reply up, and no helper
    thread is needed to move results of any size without deadlock.  A
    child that hangs up is a lost worker.  The first child is forked at
    once, and the others :meth:`~repro.runtime.dispatch.Dispatcher.spawns`
    asks for once the plan has shown a frame floor of work: the seconds its
    replies reported, plus how long the frames running have been
    running.  A frame runs from when it was sent to an idle child, or
    from its child's first (empty) message if that came later, or, as
    a spare, from the reply before it, so a child's own start shows
    none.  No child outlives the plan, however it ends: the
    ``finally`` reaps every one.
    """
    from repro.runtime.dispatch import _FRAME_FLOOR_SECONDS, Dispatcher

    table = Dispatcher(plan.label, columns[2], policy, workers, land)
    started = time.perf_counter()
    children: dict = {}  # the parent's end of each pipe -> its child
    gone: list = []  # children lost mid-plan
    since: dict = {}  # per child up: when its running frame began
    worked = 0.0  # the seconds the replies reported

    def fork() -> None:
        pipe, child_end = multiprocessing.connection.Pipe()
        children[pipe] = _Child(
            _pool_worker, child_end, (*children, pipe), columns, policy
        )
        child_end.close()

    def shown() -> float:
        now = time.perf_counter()
        return worked + sum(
            now - since[pipe] for pipe in table.flight if pipe in since
        )

    def feed() -> None:
        """Send every child the frames it may take: an idle one its
        next frame, a busy one a spare."""
        now = time.perf_counter()
        for pipe, child in children.items():
            if pipe in since and pipe not in table.flight:
                since[pipe] = now  # what it is sent now runs from now
            while (frame := table.cut(pipe, f"pid {child.pid}")) is not None:
                try:
                    pipe.send_bytes(_POOL_FRAME.pack(frame.start, frame.stop))
                except OSError:
                    pass  # already dead: the wait below reads its EOF

    try:
        fork()  # the first child always starts
        start_seconds = time.perf_counter() - started
        landing: list = []  # (frame, outputs, failures) per reply
        while True:
            feed()
            spawning = table.spawns(len(children), len(children) + len(gone))
            if spawning and shown() < _FRAME_FLOOR_SECONDS:
                spawning = max(0, 1 - len(children))  # the first alone
            if spawning:
                for _ in range(spawning):
                    fork()
                feed()
            for reply in landing:  # the children are busy again by now
                table.land_frame(*reply)
            if table.finished():
                break
            if not table.flight:
                raise table.stalled("raise FaultPolicy.max_dispatches")
            timeout = None
            if since and table.spawns(
                len(children), len(children) + len(gone)
            ):  # one more starts once the plan shows a floor of work
                timeout = max(0.0, _FRAME_FLOOR_SECONDS - shown())
            landing = []
            for pipe in multiprocessing.connection.wait(
                list(table.flight), timeout
            ):
                try:
                    message = pipe.recv_bytes()
                except (EOFError, OSError):  # it hung up: a lost worker
                    message = None
                if message == b"":  # the child is up
                    since[pipe] = time.perf_counter()
                    continue
                if message is None:
                    child = children.pop(pipe)
                    since.pop(pipe, None)
                    pipe.close()
                    gone.append(child)
                    child.join(1.0)  # it is dying: wait for its exit code
                    table.lose(pipe, _died(child))
                    continue
                outputs, failures, seconds = pickle.loads(message)
                worked += seconds
                landing.append((table.result(pipe, seconds), outputs, failures))
                if pipe in table.flight:  # its spare runs from now
                    since[pipe] = time.perf_counter()
    finally:
        for pipe, child in children.items():
            pipe.close()
            if pipe in table.flight:
                child.kill()  # mid-frame, and nobody is listening
        for child in [*children.values(), *gone]:
            child.join(5.0)  # its pipe closed, so its loop has ended
            if child.exitcode is None:
                child.kill()
                child.join()
    table.log(
        time.perf_counter() - started, start_seconds,
        len(children) + len(gone),
    )


def _died(child: _Child) -> str:
    """How a lost pool child ended: its exit code, or the signal."""
    code = child.exitcode
    if code is not None and code < 0:  # -9: the OOM killer's
        return f"signal {-code}, {signal.strsignal(-code)}"
    return f"exit code {code}"


def run_plan(
    plan: ExecutionPlan,
    workers: int = 1,
    on_unit: Optional[Callable[[int, Any], None]] = None,
    fault_policy: Optional[FaultPolicy] = None,
    on_failure: Optional[Callable[[UnitFailure], None]] = None,
    backend: str = "pool",
    chaos: Any = None,
) -> Any:
    """Execute every unit of ``plan`` and return its merged result.

    ``workers > 1`` fans the units across at most that many processes
    (never more than the units), several to a message when they are
    small (see :mod:`repro.runtime.dispatch`): ``workers`` is an upper
    bound, and a pool plan that shows less than a frame floor of work
    runs on one child.  ``on_unit(index, output)`` fires as each unit lands, in
    *completion* order -- streaming consumers use it to free outputs
    early.  ``merge`` (when set) always receives outputs in
    unit order.  Unpicklable plans degrade to a serial in-process run
    with a :class:`RuntimeWarning`; the results are bitwise identical
    either way, which is exactly the plan contract.

    ``fault_policy`` (default: raise on first failure) governs unit
    faults -- see :class:`FaultPolicy`.  Under ``on_error="skip"``,
    failed units fire ``on_failure(failure)`` instead of ``on_unit``
    and occupy their merge slot as :class:`UnitFailure` records;
    otherwise a terminal failure aborts the plan with
    :class:`UnitExecutionError`.  A plan that would run in-process off
    the main thread with a ``timeout_seconds`` raises
    :class:`ValueError` before any unit runs.

    ``backend`` selects the executor (:data:`BACKENDS`).  ``"pool"``
    (default) is forked children on pipes; ``"cluster"`` runs a socket
    coordinator that spawns up to ``workers`` worker *processes* which
    dial in, heartbeat, and can join/leave mid-plan.  On both, a dead (or,
    on the cluster, hung) worker's in-flight frames are re-dispatched to
    a survivor or a replacement, so results remain bitwise identical to
    an undisturbed run -- the plan contract, clause 5.  ``chaos``
    (cluster only) is a :class:`~repro.runtime.chaos.ChaosSchedule` of
    scripted worker faults for testing that claim.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if backend not in BACKENDS:
        raise ValueError(
            f"backend must be one of {BACKENDS}, got {backend!r}"
        )
    policy = fault_policy if fault_policy is not None else FaultPolicy()
    units = list(plan.units)
    runners = [unit.runner for unit in units]
    payloads = [unit.payload for unit in units]
    labels = [unit.label for unit in units]
    cluster = backend == "cluster" and len(units) > 0
    fan_out = cluster or (workers > 1 and len(units) > 1)
    blobs = _encode_units(plan) if cluster else None
    if fan_out and (
        blobs is None if cluster else not _plan_pickles(plan, runners, payloads)
    ):
        warnings.warn(
            f"{plan.label}: work units are unpicklable (closure or "
            f"lambda hooks, runtime registrations?); running the "
            f"{len(units)} units serially in-process instead of on "
            f"{workers} workers (results are bitwise identical either "
            f"way)",
            RuntimeWarning,
            stacklevel=2,
        )
        fan_out = False
        cluster = False

    outputs: Optional[List[Any]] = (
        [None] * len(units) if plan.merge is not None else None
    )

    skip = policy.on_error == "skip"

    def land(start: int, frame: List[Any], failures: Failures) -> None:
        """Land a frame: its outputs go into the merge list as one
        slice, and the callbacks (if any) fire unit by unit, in slot
        order, up to the first failure if that raises."""
        if outputs is not None:
            outputs[start:start + len(frame)] = frame
        if failures:
            failed = dict(failures)
            for slot, output in enumerate(frame):
                failure = failed.get(slot)
                if failure is None:
                    if on_unit is not None:
                        on_unit(start + slot, output)
                    continue
                if not skip:
                    raise UnitExecutionError(failure, plan.label)
                if on_failure is not None:
                    on_failure(failure)
                if outputs is not None:
                    outputs[start + slot] = failure
        elif on_unit is not None:
            for slot, output in enumerate(frame):
                on_unit(start + slot, output)

    if cluster:
        from repro.runtime.cluster import ClusterCoordinator

        ClusterCoordinator(
            label=plan.label, blobs=blobs, labels=labels, policy=policy,
            workers=workers, chaos=chaos,
        ).run_frames(land)
    elif fan_out:
        _run_pool(plan, (runners, payloads, labels), policy, workers, land)
    else:
        _refuse_unarmable_deadline(policy, plan.label)
        for index, unit in enumerate(zip(runners, payloads)):
            # A frame of one: each unit lands (and checkpoints) alone.
            frame, failed, _ = _run_frame(
                (index,), (unit,), (labels[index],), policy
            )
            land(index, frame, failed)
    if plan.merge is None:
        return None
    return plan.merge(outputs)
