"""A repeated majority-polling service on the LV protocol.

The paper motivates probabilistic majority selection with applications
"where the decision value is allowed to be set multiple times", naming
the LOCKSS digital-preservation system: peers repeatedly poll each
other about the correct version of a document and repair from the
majority.  :class:`MajorityService` packages that pattern: a population
of processes, each holding one of two versions of an object, runs the
LV protocol to settle on the majority version; divergent processes then
repair to the winning version, and the service can be re-polled after
further corruption events.

Because majority selection is impossible to solve exactly in an
asynchronous system (it would solve consensus), the service is
explicitly probabilistic: :meth:`poll` reports the winner, whether it
matched the pre-poll majority, and the convergence time.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..protocols.lv import ONE, ZERO, LVMajority
from ..runtime.rng import generator_from_state, generator_state, make_generator
from .snapshots import load_snapshot, require_kind, save_snapshot


@dataclass
class PollRecord:
    """One completed poll."""

    started_period: int
    winner: Optional[str]
    matched_majority: Optional[bool]
    convergence_periods: Optional[int]
    pre_poll_split: Tuple[int, int]


class MajorityService:
    """Repeated LV majority polling over a replicated object.

    Parameters
    ----------
    n:
        Number of participating processes.
    initial_versions:
        Array of 0/1 version tags, one per process (length ``n``).
    p:
        LV normalizing constant (coin bias ``3p`` per action).
    """

    def __init__(
        self,
        n: int,
        initial_versions: np.ndarray,
        *,
        p: float = 0.01,
        seed: Optional[int] = None,
    ):
        versions = np.asarray(initial_versions, dtype=np.int8)
        if versions.shape != (n,):
            raise ValueError(f"initial_versions must have shape ({n},)")
        if not np.isin(versions, (0, 1)).all():
            raise ValueError("versions must be 0 or 1")
        self.n = n
        self.p = p
        self._seed = seed if seed is not None else 0
        self.versions = versions.copy()
        self.polls: List[PollRecord] = []
        self.clock_periods = 0
        self._rng = make_generator(self._seed ^ 0xFACE)

    # ------------------------------------------------------------------
    # Corruption model
    # ------------------------------------------------------------------
    def corrupt(self, fraction: float, to_version: int = 1) -> int:
        """Flip a random fraction of processes to ``to_version``.

        Models at-rest corruption or an attacker planting bad copies
        between polls (the LOCKSS threat model).  Returns the number of
        processes changed.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must lie in [0, 1]")
        count = int(round(fraction * self.n))
        victims = self._rng.choice(self.n, size=count, replace=False)
        changed = int(np.count_nonzero(self.versions[victims] != to_version))
        self.versions[victims] = to_version
        return changed

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

        On convergence, every process repairs its copy to the winning
        version (the LOCKSS repair step).  If the poll does not converge
        within ``max_periods`` the versions are left untouched.
        """
        zeros, ones = self.split()
        instance = LVMajority(
            self.n,
            zeros=zeros,
            ones=ones,
            p=self.p,
            seed=self._seed + 31 * len(self.polls) + 1,
        )
        outcome = instance.run(max_periods)
        winner_version: Optional[int] = None
        if outcome.winner == ZERO:
            winner_version = 0
        elif outcome.winner == ONE:
            winner_version = 1
        matched = None
        majority = self.true_majority()
        if winner_version is not None and majority is not None:
            matched = winner_version == majority
        record = PollRecord(
            started_period=self.clock_periods,
            winner=outcome.winner,
            matched_majority=matched,
            convergence_periods=outcome.convergence_period,
            pre_poll_split=(zeros, ones),
        )
        self.polls.append(record)
        if outcome.convergence_period is not None:
            self.clock_periods += outcome.convergence_period
        else:
            self.clock_periods += max_periods
        if winner_version is not None:
            self.versions[:] = winner_version  # repair divergent copies
        return record

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    SNAPSHOT_KIND = "majority-service"

    def save(self, path: os.PathLike) -> Path:
        """Checkpoint the full service state to a snapshot file.

        Everything that affects future behaviour is captured: version
        tags, the corruption RNG (its MT19937 state), the poll
        history (it seeds the next poll via ``len(self.polls)``) and the
        logical clock.  ``load`` restores a service whose subsequent
        ``corrupt``/``poll`` calls are bit-identical to the original's.
        """
        meta = {
            "kind": self.SNAPSHOT_KIND,
            "n": self.n,
            "p": self.p,
            "seed": self._seed,
            "clock_periods": self.clock_periods,
            "polls": [asdict(record) for record in self.polls],
            "rng": generator_state(self._rng),
        }
        return save_snapshot(path, {"versions": self.versions}, meta)

    @classmethod
    def load(cls, path: os.PathLike) -> "MajorityService":
        arrays, meta = load_snapshot(path)
        require_kind(arrays, meta, cls.SNAPSHOT_KIND)
        service = cls(
            int(meta["n"]),
            arrays["versions"],
            p=float(meta["p"]),
            seed=int(meta["seed"]),
        )
        service.clock_periods = int(meta["clock_periods"])
        service.polls = [
            PollRecord(
                started_period=record["started_period"],
                winner=record["winner"],
                matched_majority=record["matched_majority"],
                convergence_periods=record["convergence_periods"],
                pre_poll_split=tuple(record["pre_poll_split"]),
            )
            for record in meta["polls"]
        ]
        service._rng = generator_from_state(meta.get("rng"))
        return service

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
