"""The LV protocol: probabilistic majority selection (Section 4.2).

Derived from a Lotka-Volterra competition system ("two species
competing for the same limited resource typically cannot coexist"):
states ``x`` and ``y`` are the two proposal camps and ``z`` the
undecided processes.  Equation (7) maps through the Section 3 rules to
the Figure 3 state machine: every process samples one random peer per
period and, with coin bias ``3p``, moves as follows --

* ``x`` meeting a ``y`` -> ``z``         (the camps erode each other)
* ``y`` meeting an ``x`` -> ``z``
* ``z`` meeting an ``x`` -> ``x``        (undecideds join a camp)
* ``z`` meeting a ``y`` -> ``y``

Theorem 4: ``(1,0)`` and ``(0,1)`` are stable, ``(0,0)`` unstable,
``(1/3,1/3)`` a saddle; trajectories starting with ``x0 > y0`` converge
to ``(1,0)`` (and symmetrically), so w.h.p. the group agrees on the
initial majority.  Majority selection *cannot* be solved exactly in an
asynchronous system (it would solve consensus), hence the probabilistic
specification: the running decision variable eventually agrees
everywhere and w.h.p. equals the initial majority.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

import numpy as np

from ..odes import library
from ..runtime import BatchMetricsRecorder, BatchRoundEngine, RoundEngine
from ..runtime.batch_engine import HookFactory
from ..synthesis import ProtocolSpec, synthesize

#: Decision values.
ZERO, ONE, UNDECIDED = "x", "y", "z"


def lv_protocol(p: float = 0.01, rate: float = 3.0) -> ProtocolSpec:
    """The Figure 3 LV protocol (coin bias ``rate * p`` per action).

    ``p = 0.01`` is the paper's experimental setting; one protocol
    period then corresponds to ``p`` time units of equations (6)/(7).
    """
    return synthesize(library.lv(rate), p=p, name="lv-majority")


@dataclass
class MajorityOutcome:
    """Result of one majority-selection run."""

    n: int
    initial_zero: int
    initial_one: int
    winner: Optional[str]
    correct: Optional[bool]
    convergence_period: Optional[int]
    recorder: BatchMetricsRecorder

    @property
    def converged(self) -> bool:
        return self.winner is not None


class LVMajority:
    """A majority-selection instance over a process group.

    Each process proposes 0 or 1 (states ``x`` / ``y``).  The protocol
    runs forever; :meth:`run` advances it and detects *convergence* --
    the period when every alive process sits in a single camp.  The
    running decision variable of a process is its camp (``b`` /
    undecided while in state ``z``).
    """

    def __init__(
        self,
        n: int,
        zeros: int,
        ones: int,
        *,
        p: float = 0.01,
        seed: Optional[int] = None,
        undecided: int = 0,
    ):
        if zeros + ones + undecided != n:
            raise ValueError(
                f"zeros+ones+undecided = {zeros + ones + undecided} != n = {n}"
            )
        self.n = n
        self.initial_zero = zeros
        self.initial_one = ones
        self.spec = lv_protocol(p=p)
        self.engine = RoundEngine(
            self.spec,
            n=n,
            initial={ZERO: zeros, ONE: ones, UNDECIDED: undecided},
            seed=seed,
        )

    def decisions(self) -> Dict[str, int]:
        """Current decision variables: counts of 0 / 1 / undecided."""
        counts = self.engine.counts()
        return {"0": counts[ZERO], "1": counts[ONE], "b": counts[UNDECIDED]}

    def converged_winner(self) -> Optional[str]:
        """The winning camp if all alive processes agree, else None."""
        counts = self.engine.counts()
        alive = self.engine.alive_count()
        if alive == 0:
            return None
        if counts[ZERO] == alive:
            return ZERO
        if counts[ONE] == alive:
            return ONE
        return None

    def run(
        self,
        max_periods: int,
        hooks: tuple = (),
        recorder: Optional[BatchMetricsRecorder] = None,
        stop_on_convergence: bool = True,
    ) -> MajorityOutcome:
        """Advance up to ``max_periods``, recording counts per period."""
        convergence_period = None

        def note_convergence(engine: RoundEngine) -> bool:
            nonlocal convergence_period
            if (convergence_period is None
                    and self.converged_winner() is not None):
                convergence_period = engine.period
                return stop_on_convergence
            return False

        result = self.engine.run(
            max_periods, recorder=recorder, hooks=hooks,
            stop=note_convergence,
        )
        winner = self.converged_winner()
        correct = None
        if winner is not None and self.initial_zero != self.initial_one:
            majority = ZERO if self.initial_zero > self.initial_one else ONE
            correct = winner == majority
        return MajorityOutcome(
            n=self.n,
            initial_zero=self.initial_zero,
            initial_one=self.initial_one,
            winner=winner,
            correct=correct,
            convergence_period=convergence_period,
            recorder=result.recorder,
        )


@dataclass
class MajorityEnsembleOutcome:
    """Per-trial decision tensors of an :class:`LVEnsemble` run.

    All arrays have shape ``(M,)`` and line up with
    :attr:`LVEnsemble.trial_seeds`.
    """

    n: int
    trials: int
    initial_zero: int
    initial_one: int
    #: Winning camp per trial: ``"x"``, ``"y"`` or ``""`` (undecided).
    winners: np.ndarray
    #: First period at which a trial's alive processes all agreed
    #: (-1 if it never converged within the horizon).
    convergence_periods: np.ndarray
    recorder: BatchMetricsRecorder = field(repr=False)

    @property
    def converged(self) -> np.ndarray:
        """Boolean mask of trials whose alive processes all agree."""
        return self.winners != ""

    @property
    def correct(self) -> np.ndarray:
        """Per-trial correctness mask (meaningless where undecided).

        Combine with :attr:`decided`: a trial counts as decided when it
        converged and the initial split was not a tie.
        """
        if self.initial_zero == self.initial_one:
            return np.zeros(self.trials, dtype=bool)
        majority = ZERO if self.initial_zero > self.initial_one else ONE
        return self.winners == majority

    @property
    def decided(self) -> np.ndarray:
        """Trials that produced a gradable decision."""
        if self.initial_zero == self.initial_one:
            return np.zeros(self.trials, dtype=bool)
        return self.converged

    def accuracy(self) -> float:
        """Fraction of decided trials won by the initial majority."""
        decided = self.decided
        if not decided.any():
            return float("nan")
        return float(self.correct[decided].sum() / decided.sum())


class LVEnsemble:
    """M majority-selection trials in one batched engine.

    The ensemble sibling of :class:`LVMajority`: the accuracy and
    untraceability claims of the paper's Section 4.2 experiments are
    ensemble frequencies, so the M trials run as one
    :class:`~repro.runtime.batch_engine.BatchRoundEngine` tensor
    instead of a Python loop over seeded engines.  The vectorized path
    is anchored in distribution against a loop over seeded
    :class:`LVMajority` runs (see ``tests/test_lv.py``).
    """

    def __init__(
        self,
        n: int,
        zeros: int,
        ones: int,
        *,
        trials: int,
        p: float = 0.01,
        seed: Optional[int] = None,
        undecided: int = 0,
    ):
        if zeros + ones + undecided != n:
            raise ValueError(
                f"zeros+ones+undecided = {zeros + ones + undecided} != n = {n}"
            )
        self.n = n
        self.trials = trials
        self.initial_zero = zeros
        self.initial_one = ones
        self.spec = lv_protocol(p=p)
        self.engine = BatchRoundEngine(
            self.spec,
            n=n,
            trials=trials,
            initial={ZERO: zeros, ONE: ones, UNDECIDED: undecided},
            seed=seed,
        )
        self.trial_seeds = self.engine.trial_seeds

    def converged_winners(self) -> np.ndarray:
        """Per-trial winning camp (``""`` where camps still disagree)."""
        counts = self.engine.counts_matrix()
        alive = self.engine.alive_counts()
        winners = np.full(self.trials, "", dtype="<U1")
        live = alive > 0
        winners[live & (counts[:, self.engine.state_id(ZERO)] == alive)] = ZERO
        winners[live & (counts[:, self.engine.state_id(ONE)] == alive)] = ONE
        return winners

    def run(
        self,
        max_periods: int,
        recorder: Optional[BatchMetricsRecorder] = None,
        hook_factories: Iterable[HookFactory] = (),
        stop_when_all_converged: bool = True,
    ) -> MajorityEnsembleOutcome:
        """Advance up to ``max_periods``, tracking per-trial convergence.

        Convergence is absorbing (an unanimous group has nobody left to
        meet a dissenter), so a converged trial rides along while
        stragglers finish: its thinning probability is 0, so it moves
        nobody and no host of it is ever selected -- but its unanimous
        state still draws its heads ``Binomial(n, p)`` every period
        (its actors sample, and are charged for it), which is why the
        stream cannot skip it: only its thinning is free.  With
        ``stop_when_all_converged`` the run ends as soon as every trial
        has converged.
        """
        engine = self.engine
        if recorder is None:
            recorder = BatchMetricsRecorder(
                self.spec.states, self.trials, track_transitions=False
            )
        # The per-period test reads the live census as integers (the
        # engine never rebinds its count arrays, so views stay live): a
        # trial has converged when one camp holds all of its alive
        # processes -- converged_winners() without building strings.
        zero = engine._counts[:, engine.state_id(ZERO)]
        one = engine._counts[:, engine.state_id(ONE)]
        alive = engine._alive_counts

        def agreed() -> np.ndarray:
            return ((zero == alive) | (one == alive)) & (alive > 0)

        convergence = np.full(self.trials, -1, dtype=np.int64)
        done = agreed()
        convergence[done] = engine.period

        def note_convergence(running: BatchRoundEngine) -> bool:
            newly = agreed() & ~done
            convergence[newly] = running.period
            done[newly] = True
            return stop_when_all_converged and bool(done.all())

        if stop_when_all_converged and done.all():
            engine.run(0, recorder=recorder)  # record the initial state
        else:
            engine.run(
                max_periods,
                recorder=recorder,
                hook_factories=hook_factories,
                stop=note_convergence,
            )
        winners = self.converged_winners()
        # A trial that decayed out of unanimity (e.g. a recovery hook
        # reviving hosts into camp x) reports its current state, exactly
        # like LVMajority's end-of-run winner check.
        convergence[winners == ""] = -1
        return MajorityEnsembleOutcome(
            n=self.n,
            trials=self.trials,
            initial_zero=self.initial_zero,
            initial_one=self.initial_one,
            winners=winners,
            convergence_periods=convergence,
            recorder=recorder,
        )


def expected_convergence_periods(n: int, p: float = 0.01, u0: float = 0.25) -> float:
    """Mean-field periods until the minority camp is O(1) in size.

    Near the stable point the minority decays as ``u0 * e^{-3t}``
    (Section 4.2.2), so reaching ``1/n`` takes ``t = ln(u0*n)/3`` time
    units = ``ln(u0*n)/(3p)`` protocol periods -- O(log N) periods.
    """
    if n < 2:
        return 0.0
    return math.log(max(math.e, u0 * n)) / (3.0 * p)
