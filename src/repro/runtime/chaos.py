"""Deterministic fault injection for the cluster backend.

The cluster backend's robustness claims -- dead workers are detected
and their units re-dispatched bitwise-identically, hung workers are
fenced by heartbeat misses, late workers join mid-plan -- are only
worth anything if they are *tested* against real process-level faults.
This module is the harness that injects them, deterministically:

* a :class:`WorkerFault` is one scripted fault (``kill``, ``hang``,
  ``delay`` or ``slow-start``) with an explicit trigger point -- the
  n-th unit the worker *starts*, wherever in a frame it sits (so a
  kill/hang loses that unit's whole frame and forces its re-dispatch),
  or process start for ``slow-start``;
* a :class:`ChaosSchedule` maps worker *launch indices* to fault lists.
  Launch indices are assigned in spawn order by the coordinator, and a
  replacement worker spawned after a death gets a fresh index, so a
  scheduled kill fires exactly once instead of re-killing every
  respawn.

Faults ride into worker processes through the environment:
the coordinator exports each worker's own fault list as
:data:`FAULTS_ENV` (JSON) in the child's environment, and reads a
whole schedule from :data:`SCHEDULE_ENV` when no explicit ``chaos``
argument was passed to :func:`~repro.runtime.exec.run_plan` -- which is
how the CI chaos job injects kills and hangs into a plain
``python -m repro campaign --backend cluster`` invocation.

Triggers are deterministic (a fixed unit ordinal per worker), but
*which* units a given worker receives depends on scheduling -- the
point of the harness is that results are bitwise identical anyway,
because re-dispatch re-runs the same pre-pickled payload.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "FAULTS_ENV",
    "SCHEDULE_ENV",
    "ChaosSchedule",
    "WorkerFault",
]

#: The fault kinds a worker knows how to inflict on itself.
FAULT_KINDS = ("kill", "hang", "delay", "slow-start")

#: Environment variable carrying one worker's own fault list (JSON
#: list of :meth:`WorkerFault.to_dict` records); set per-child by the
#: coordinator at spawn time.
FAULTS_ENV = "REPRO_CHAOS_FAULTS"

#: Environment variable carrying a whole schedule (JSON mapping of
#: worker launch index to fault lists); read by the coordinator when
#: no explicit schedule was passed, so CLI runs can be chaos-tested
#: without new flags.
SCHEDULE_ENV = "REPRO_CHAOS"


@dataclass(frozen=True)
class WorkerFault:
    """One scripted fault a worker inflicts on itself.

    ``kind``:

    * ``"kill"`` -- ``SIGKILL`` the worker process the moment it
      starts its ``after_units``-th unit (before running it): the
      unit is lost, with the rest of its frame, and must be
      re-dispatched.
    * ``"hang"`` -- ``SIGSTOP`` the whole process at the same trigger
      point (heartbeats stop too, exactly like a truly wedged
      process); the coordinator must detect it by heartbeat misses.
    * ``"delay"`` -- sleep ``seconds`` before running the triggering
      unit (heartbeats continue; must *not* cause a re-dispatch).
    * ``"slow-start"`` -- sleep ``seconds`` before dialing in, so the
      worker joins a plan that is already running (elastic join).

    ``after_units`` is 1-based: ``after_units=2`` fires on the second
    unit the worker starts.  It is ignored by ``slow-start``.
    """

    kind: str
    after_units: int = 1
    seconds: float = 0.25

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if self.after_units < 1:
            raise ValueError(
                f"after_units must be >= 1, got {self.after_units}"
            )
        if self.seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {self.seconds}")

    def to_dict(self) -> Dict:
        return {
            "kind": self.kind,
            "after_units": self.after_units,
            "seconds": self.seconds,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "WorkerFault":
        return cls(
            kind=str(data["kind"]),
            after_units=int(data.get("after_units", 1)),
            seconds=float(data.get("seconds", 0.25)),
        )


def _parse_fault_list(payload) -> Tuple[WorkerFault, ...]:
    if not isinstance(payload, list):
        raise ValueError(
            f"fault list must be a JSON list, got {type(payload).__name__}"
        )
    return tuple(WorkerFault.from_dict(entry) for entry in payload)


@dataclass
class ChaosSchedule:
    """Scripted faults for a cluster run, keyed by worker launch index.

    ``faults[k]`` is the fault list for the ``k``-th worker the
    coordinator launches (0-based, replacements included -- a
    respawned worker takes the next fresh index, so it only faults if
    the schedule says so explicitly).  Externally joined workers
    (``python -m repro worker``) are never matched by the schedule;
    inject their faults via :data:`FAULTS_ENV` in their own
    environment instead.
    """

    faults: Dict[int, Tuple[WorkerFault, ...]] = field(default_factory=dict)

    def __post_init__(self):
        normalized: Dict[int, Tuple[WorkerFault, ...]] = {}
        for index, fault_list in self.faults.items():
            key = int(index)
            if key < 0:
                raise ValueError(
                    f"worker launch index must be >= 0, got {key}"
                )
            normalized[key] = tuple(fault_list)
        self.faults = normalized

    def for_worker(self, launch_index: Optional[int]) -> Tuple[WorkerFault, ...]:
        """The fault list for one launched worker (empty for externals)."""
        if launch_index is None:
            return ()
        return self.faults.get(launch_index, ())

    def to_json(self) -> str:
        return json.dumps({
            str(index): [fault.to_dict() for fault in fault_list]
            for index, fault_list in sorted(self.faults.items())
        })

    @classmethod
    def from_json(cls, text: str) -> "ChaosSchedule":
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError(
                f"chaos schedule must be a JSON object mapping worker "
                f"launch index to fault lists, got "
                f"{type(payload).__name__}"
            )
        return cls(faults={
            int(index): _parse_fault_list(fault_list)
            for index, fault_list in payload.items()
        })

    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None
                 ) -> Optional["ChaosSchedule"]:
        """The :data:`SCHEDULE_ENV` schedule, or None when unset."""
        text = (environ if environ is not None else os.environ).get(
            SCHEDULE_ENV
        )
        if not text:
            return None
        return cls.from_json(text)


def faults_from_env(
    environ: Optional[Mapping[str, str]] = None,
) -> Tuple[WorkerFault, ...]:
    """One worker's own :data:`FAULTS_ENV` fault list (empty if unset)."""
    text = (environ if environ is not None else os.environ).get(FAULTS_ENV)
    if not text:
        return ()
    return _parse_fault_list(json.loads(text))


def faults_env_value(faults: Sequence[WorkerFault]) -> str:
    """The :data:`FAULTS_ENV` encoding of a worker's fault list."""
    return json.dumps([fault.to_dict() for fault in faults])
