"""Tests for the LV majority protocol (repro.protocols.lv)."""

import numpy as np
import pytest

from repro.protocols.lv import (
    ONE,
    UNDECIDED,
    ZERO,
    LVEnsemble,
    LVMajority,
    expected_convergence_periods,
    lv_protocol,
)
from repro.runtime import MassiveFailure


class TestProtocolShape:
    def test_figure3_biases(self):
        spec = lv_protocol(p=0.01)
        assert all(a.probability == pytest.approx(0.03) for a in spec.actions)

    def test_exact_mean_field(self):
        assert lv_protocol(p=0.01).verify_equivalence()

    def test_state_count(self):
        assert lv_protocol().states == (ZERO, ONE, UNDECIDED)


class TestMajoritySelection:
    def test_clear_majority_wins(self):
        outcome = LVMajority(4000, zeros=2600, ones=1400, seed=0).run(3000)
        assert outcome.converged
        assert outcome.winner == ZERO
        assert outcome.correct

    def test_symmetric_case_one_wins(self):
        outcome = LVMajority(4000, zeros=1400, ones=2600, seed=1).run(3000)
        assert outcome.winner == ONE
        assert outcome.correct

    def test_initial_undecided_supported(self):
        outcome = LVMajority(
            3000, zeros=1500, ones=900, undecided=600, seed=2
        ).run(3000)
        assert outcome.winner == ZERO

    def test_invalid_split_rejected(self):
        with pytest.raises(ValueError):
            LVMajority(100, zeros=60, ones=60)

    def test_decisions_view(self):
        instance = LVMajority(100, zeros=60, ones=40, seed=3)
        decisions = instance.decisions()
        assert decisions == {"0": 60, "1": 40, "b": 0}

    def test_convergence_recorded(self):
        outcome = LVMajority(2000, zeros=1400, ones=600, seed=4).run(3000)
        assert outcome.convergence_period is not None
        assert outcome.convergence_period > 0
        recorder = outcome.recorder
        assert recorder.counts(ZERO)[0, -1] == 2000

    def test_no_convergence_within_budget(self):
        outcome = LVMajority(2000, zeros=1001, ones=999, seed=5).run(3)
        assert not outcome.converged
        assert outcome.correct is None


class TestFailures:
    def test_massive_failure_still_converges(self):
        # Figure 12 in miniature: 50% crash early on.
        instance = LVMajority(4000, zeros=2400, ones=1600, seed=6)
        outcome = instance.run(
            4000, hooks=(MassiveFailure(at_period=20, fraction=0.5),)
        )
        assert outcome.converged
        assert outcome.winner == ZERO

    def test_winner_counts_alive_only(self):
        instance = LVMajority(1000, zeros=700, ones=300, seed=7)
        instance.engine.crash(instance.engine.members_in(ONE))
        outcome = instance.run(2000)
        assert outcome.winner == ZERO


def majority_accuracy(n, zeros, trials, *, max_periods, seed=0):
    """Empirical probability that the initial majority wins, batched."""
    return LVEnsemble(
        n, zeros, n - zeros, trials=trials, seed=seed
    ).run(max_periods).accuracy()


def majority_accuracy_serial(n, zeros, trials, *, max_periods, seed=0):
    """The same over a Python loop of seeded serial runs: the baseline
    the batched ensemble is anchored against."""
    decided = [
        outcome.correct for outcome in (
            LVMajority(n, zeros, n - zeros, seed=seed + trial).run(max_periods)
            for trial in range(trials)
        ) if outcome.correct is not None
    ]
    return sum(decided) / len(decided) if decided else float("nan")


class TestAccuracy:
    def test_lopsided_split_always_correct(self):
        accuracy = majority_accuracy(
            600, zeros=450, trials=6, max_periods=3000, seed=0
        )
        assert accuracy == 1.0

    def test_near_tie_less_reliable(self):
        lopsided = majority_accuracy(
            400, zeros=300, trials=6, max_periods=4000, seed=10
        )
        close = majority_accuracy(
            400, zeros=204, trials=6, max_periods=4000, seed=10
        )
        assert close <= lopsided


class TestEnsemble:
    def test_batch_accuracy_matches_serial_loop(self):
        # Distributional equivalence of the two implementations on a
        # lopsided split where both must be exact.
        batched = majority_accuracy(600, zeros=450, trials=6, max_periods=3000)
        serial = majority_accuracy_serial(
            600, zeros=450, trials=6, max_periods=3000
        )
        assert batched == serial == 1.0

    def test_decision_tensors(self):
        outcome = LVEnsemble(
            400, zeros=280, ones=120, trials=8, seed=3
        ).run(2500)
        assert outcome.winners.shape == (8,)
        assert outcome.convergence_periods.shape == (8,)
        assert outcome.converged.all()
        assert (outcome.convergence_periods > 0).all()
        assert outcome.decided.all()
        assert outcome.accuracy() == 1.0
        # The recorder holds the full (M, periods, S) ensemble tensor.
        tensor = outcome.recorder.count_tensor()
        assert tensor.shape[0] == 8
        assert tensor.shape[2] == 3
        assert np.all(tensor.sum(axis=2) == 400)

    def test_convergence_is_read_off_the_counts(self):
        """The per-period integer test marks the first recorded period
        in which one camp holds every host, and the winner is that
        camp (a close split: both camps win somewhere)."""
        outcome = LVEnsemble(
            400, zeros=205, ones=195, trials=8, seed=4
        ).run(2500)
        tensor = outcome.recorder.count_tensor()  # (M, periods, [x y z])
        unanimous = (tensor[:, :, :2] == 400).any(axis=2)
        assert unanimous[:, -1].all()
        assert np.array_equal(
            outcome.convergence_periods, unanimous.argmax(axis=1)
        )
        assert outcome.winners.tolist() == [
            (ZERO, ONE)[int(last[1] == 400)] for last in tensor[:, -1]
        ]
        assert set(outcome.winners.tolist()) == {ZERO, ONE}

    def test_tie_split_is_undecidable(self):
        outcome = LVEnsemble(200, zeros=100, ones=100, trials=4, seed=7).run(5)
        assert not outcome.decided.any()
        assert outcome.accuracy() != outcome.accuracy()  # NaN

    def test_unconverged_within_budget(self):
        outcome = LVEnsemble(
            2000, zeros=1001, ones=999, trials=3, seed=5
        ).run(3)
        assert not outcome.converged.any()
        assert (outcome.convergence_periods == -1).all()

    def test_hooks_run_per_trial(self):
        outcome = LVEnsemble(
            2000, zeros=1200, ones=800, trials=4, seed=11
        ).run(
            3000,
            hook_factories=[
                lambda m: MassiveFailure(at_period=20, fraction=0.5)
            ],
        )
        assert outcome.converged.all()
        assert outcome.accuracy() == 1.0

    def test_rejects_bad_split(self):
        with pytest.raises(ValueError):
            LVEnsemble(100, zeros=60, ones=60, trials=2)

    def test_stop_when_all_converged_stops_early(self):
        ensemble = LVEnsemble(400, zeros=300, ones=100, trials=4, seed=1)
        outcome = ensemble.run(100_000)
        assert ensemble.engine.period < 100_000
        assert outcome.converged.all()


class TestTheory:
    def test_expected_convergence_logarithmic(self):
        small = expected_convergence_periods(1_000)
        large = expected_convergence_periods(1_000_000)
        assert large - small == pytest.approx(
            (3 * 2.302585) / 0.03, rel=0.05
        )  # ln(1000)/(3p)

    def test_fig11_prediction_under_500(self):
        # Paper: 100,000 processes converge in < 500 periods.
        assert expected_convergence_periods(100_000, u0=0.4) < 500
