"""A repeated majority-polling service on the LV protocol.

The paper motivates probabilistic majority selection with applications
"where the decision value is allowed to be set multiple times", naming
the LOCKSS digital-preservation system: peers repeatedly poll each
other about the correct version of a document and repair from the
majority.  :class:`MajorityService` packages that pattern: processes
each hold one of two versions of an object, a poll runs the LV protocol
to settle on the majority version, divergent processes repair to the
winner, and the service can be re-polled after further corruption.

Majority selection is impossible to solve exactly in an asynchronous
system (it would solve consensus), so the service is explicitly
probabilistic: :meth:`poll` reports the winner, whether it matched the
pre-poll majority, and the convergence time.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from numbers import Real
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..protocols.lv import ONE, ZERO, LVMajority
from ..runtime.rng import make_generator
from ..service.core import Application
from ..service.live import number_of

__all__ = ["MajorityService", "PollRecord"]


@dataclass
class PollRecord:
    """One completed poll."""

    started_period: int
    winner: Optional[str]
    matched_majority: Optional[bool]
    convergence_periods: Optional[int]
    pre_poll_split: Tuple[int, int]


class MajorityService(Application):
    """Repeated LV majority polling over a replicated object.

    A client of a :class:`~repro.service.core.ServiceCore`: corruptions
    and polls are logged events, and the version tags are its state
    (it has no protocol population between polls).

    Parameters
    ----------
    n:
        Number of participating processes.
    initial_versions:
        Array of 0/1 version tags, one per process (length ``n``).
    p:
        LV normalizing constant (coin bias ``3p`` per action).
    directory:
        Where the event log and snapshots go, as for ``repro serve``;
        without one no record is kept.
    """

    KIND = "majority"
    EVENTS = ("corrupt", "poll")

    def __init__(
        self,
        n: int,
        initial_versions: np.ndarray,
        *,
        p: float = 0.01,
        seed: Optional[int] = None,
        directory: Optional[os.PathLike] = None,
    ):
        versions = np.asarray(initial_versions, dtype=np.int8)
        if versions.shape != (n,):
            raise ValueError(f"initial_versions must have shape ({n},)")
        if not np.isin(versions, (0, 1)).all():
            raise ValueError("versions must be 0 or 1")
        self.n = n
        self.p = p
        self._seed = seed if seed is not None else 0
        self._initial = versions.tolist()
        self.versions = versions.copy()
        self.polls: List[PollRecord] = []
        self.clock_periods = 0
        self.rng = make_generator(self._seed ^ 0xFACE)
        self._start(directory)

    # ------------------------------------------------------------------
    # What ServiceCore asks of an application
    # ------------------------------------------------------------------
    @property
    def period(self) -> int:
        return self.clock_periods

    def recipe(self) -> Dict[str, Any]:
        return {
            "kind": self.KIND, "n": self.n, "initial_versions": self._initial,
            "p": self.p, "seed": self._seed,
        }

    def state(self) -> Dict[str, Any]:
        return {
            "versions": self.versions.tolist(),
            "clock_periods": self.clock_periods,
            "polls": [asdict(record) for record in self.polls],
        }

    def counts(self) -> Dict[str, int]:
        return dict(zip(("version 0", "version 1"), self.split()))

    def restore_state(self, state: Mapping[str, Any]) -> None:
        self.versions = np.asarray(state["versions"], dtype=np.int8)
        self.clock_periods = state["clock_periods"]
        self.polls = [_record(entry) for entry in state["polls"]]

    def _corrupt(self, data: Mapping[str, Any]) -> Dict[str, Any]:
        fraction = number_of(data, "fraction", 0, 1, kind=Real)
        to_version = number_of(data, "to_version", 0, 1)
        victims = self.rng.choice(
            self.n, size=int(round(fraction * self.n)), replace=False
        )
        changed = np.count_nonzero(self.versions[victims] != to_version)
        self.versions[victims] = to_version
        return {"changed": int(changed)}

    def _poll(self, data: Mapping[str, Any]) -> Dict[str, Any]:
        max_periods = number_of(data, "max_periods", 1)
        zeros, ones = self.split()
        outcome = LVMajority(
            self.n, zeros=zeros, ones=ones, p=self.p,
            seed=self._seed + 31 * len(self.polls) + 1,
        ).run(max_periods)
        record = PollRecord(
            started_period=self.clock_periods,
            winner=outcome.winner,
            matched_majority=outcome.correct,  # None on a tie
            convergence_periods=outcome.convergence_period,
            pre_poll_split=(zeros, ones),
        )
        self.polls.append(record)
        self.clock_periods += (
            max_periods if outcome.convergence_period is None
            else outcome.convergence_period
        )
        if outcome.winner is not None:
            # Repair divergent copies.
            self.versions[:] = (ZERO, ONE).index(outcome.winner)
        return {**asdict(record), "pre_poll_split": [zeros, ones]}

    # ------------------------------------------------------------------
    # Corruption model
    # ------------------------------------------------------------------
    def corrupt(self, fraction: float, to_version: int = 1) -> int:
        """Flip a random fraction of processes to ``to_version``.

        Models at-rest corruption or an attacker planting bad copies
        between polls (the LOCKSS threat model).  Returns the number of
        processes changed.
        """
        event = self.core.apply_event(
            "corrupt", {"fraction": fraction, "to_version": to_version}
        )
        return event.data["effect"]["changed"]

    def split(self) -> Tuple[int, int]:
        """Current (zeros, ones) version counts."""
        ones = int(self.versions.sum())
        return self.n - ones, ones

    def true_majority(self) -> Optional[int]:
        zeros, ones = self.split()
        if zeros == ones:
            return None
        return 0 if zeros > ones else 1

    # ------------------------------------------------------------------
    # Polling
    # ------------------------------------------------------------------
    def poll(self, max_periods: int = 5000) -> PollRecord:
        """Run one LV majority selection over the current versions.

        The poll is a fresh :class:`~repro.protocols.lv.LVMajority` from
        the current split.  On convergence, every process repairs its
        copy to the winning version (the LOCKSS repair step).  If the
        poll does not converge within ``max_periods`` the versions are
        left untouched.
        """
        event = self.core.apply_event("poll", {"max_periods": max_periods})
        return _record(event.data["effect"])

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def accuracy(self) -> float:
        """Fraction of completed polls that selected the true majority."""
        judged = [p for p in self.polls if p.matched_majority is not None]
        if not judged:
            return float("nan")
        return sum(p.matched_majority for p in judged) / len(judged)

    def summary(self) -> Dict[str, float]:
        converged = [p for p in self.polls if p.convergence_periods is not None]
        return {
            "polls": len(self.polls),
            "converged": len(converged),
            "accuracy": self.accuracy(),
            "mean_convergence_periods": (
                float(np.mean([p.convergence_periods for p in converged]))
                if converged
                else float("nan")
            ),
        }


def _record(entry: Mapping[str, Any]) -> PollRecord:
    split = tuple(entry["pre_poll_split"])
    return PollRecord(**{**entry, "pre_poll_split": split})
