"""Tests for trial-sharded execution (repro.runtime.parallel)."""

import numpy as np
import pytest

from repro.experiment import Experiment, Protocol
from repro.protocols.lv import lv_protocol
from repro.runtime import (
    BatchMetricsRecorder,
    BatchRoundEngine,
    FaultPolicy,
    MassiveFailure,
    ShardedBatchExecutor,
    UnitExecutionError,
    shard_layout,
)


SPEC = lv_protocol(p=0.01)
INITIAL = {"x": 120, "y": 80, "z": 0}


def _noop_hook(engine):
    return None


class SabotageAboveTrial:
    """Hook factory that raises for global trials >= ``threshold``.

    Fails exactly the shards owning those trials while leaving every
    other shard untouched; module-level so jobs stay picklable.
    """

    def __init__(self, threshold):
        self.threshold = threshold

    def __call__(self, trial):
        if trial >= self.threshold:
            raise RuntimeError(f"trial {trial} sabotaged")
        return _noop_hook


def run_sharded(trials, shards, workers, seed=42, periods=25, **kwargs):
    executor = ShardedBatchExecutor(
        SPEC, n=200, trials=trials, initial=INITIAL, seed=seed,
        shards=shards, workers=workers,
    )
    return executor.run(periods, **kwargs)


class TestShardLayout:
    def test_single_shard_keeps_root_seed(self):
        assert shard_layout(7, 10, 1) == [(10, 7)]

    def test_split_is_even_and_deterministic(self):
        layout = shard_layout(7, 10, 3)
        assert [size for size, _ in layout] == [4, 3, 3]
        assert layout == shard_layout(7, 10, 3)
        # Shard seeds are domain-spawned: none equals the root.
        assert all(seed != 7 for _, seed in layout)

    def test_matches_campaign_discipline(self):
        """Executor shards and campaign shards share one seed family."""
        from repro.campaign.grid import CampaignPoint
        from repro.campaign.runner import _shard_points

        point = CampaignPoint(
            protocol="lv", n=200, loss_rate=0.0, scenario="none",
            trials=10, periods=5, seed=7, shards=3,
        )
        campaign_shards = _shard_points(point)
        layout = shard_layout(7, 10, 3)
        assert [(p.trials, p.seed) for p in campaign_shards] == layout

    def test_validation(self):
        with pytest.raises(ValueError):
            shard_layout(0, 5, 6)
        with pytest.raises(ValueError):
            shard_layout(0, 5, 0)
        with pytest.raises(ValueError):
            shard_layout(0, 0, 1)

    def test_layout_drift_aborts_instead_of_dropping_shards(
        self, monkeypatch
    ):
        """Regression: a short seed family used to silently shorten the
        layout via zip, dropping shards (and their trials) without a
        trace; the invariant check must abort loudly instead."""
        import repro.runtime.parallel as parallel_module

        monkeypatch.setattr(
            parallel_module, "spawn_seeds",
            lambda entropy, count: [1, 2],  # too few for 3 shards
        )
        with pytest.raises(AssertionError, match="invariant"):
            shard_layout(7, 10, 3)


class TestBitwiseEquality:
    @pytest.mark.parametrize("trials", [1, 7, 64])
    def test_pooled_equals_serial(self, trials):
        """Worker count never changes the merged tensors."""
        shards = min(3, trials)
        serial = run_sharded(trials, shards, workers=1)
        pooled = run_sharded(trials, shards, workers=3)
        assert serial.trial_seeds == pooled.trial_seeds
        assert np.array_equal(
            serial.recorder.count_tensor(), pooled.recorder.count_tensor()
        )
        assert np.array_equal(
            serial.final_counts_matrix, pooled.final_counts_matrix
        )
        assert np.array_equal(
            serial.total_messages, pooled.total_messages
        )

    def test_single_shard_equals_plain_engine(self):
        outcome = run_sharded(7, shards=1, workers=4)
        engine = BatchRoundEngine(
            SPEC, n=200, trials=7, initial=INITIAL, seed=42
        )
        recorder = BatchMetricsRecorder(SPEC.states, 7)
        engine.run(25, recorder=recorder)
        assert outcome.trial_seeds == list(engine.trial_seeds)
        assert np.array_equal(
            outcome.recorder.count_tensor(), recorder.count_tensor()
        )

    def test_workers_exceeding_trials(self):
        executor = ShardedBatchExecutor(
            SPEC, n=200, trials=2, initial=INITIAL, seed=1, workers=8
        )
        assert executor.shards == 2
        outcome = executor.run(10)
        assert outcome.recorder.count_tensor().shape[0] == 2


class TestHooksAcrossShards:
    def test_global_trial_indexing(self):
        """A factory keyed on the global trial index sees 0..M-1."""
        trials = 6

        def factory(trial):
            # Crash a trial-dependent fraction so shards are
            # distinguishable: trial m loses m/10 of its hosts.
            return MassiveFailure(at_period=2, fraction=trial / 10.0)

        outcome = run_sharded(
            trials, shards=3, workers=1, hook_factories=[factory],
        )
        alive = outcome.recorder.alive_tensor()[:, -1]
        expected = [round(200 * (1 - m / 10.0)) for m in range(trials)]
        assert list(alive) == expected

    def test_unpicklable_hooks_fall_back_serially(self):
        factory = lambda trial: MassiveFailure(at_period=2, fraction=0.5)
        with pytest.warns(RuntimeWarning, match="unpicklable"):
            pooled = run_sharded(
                6, shards=3, workers=3, hook_factories=[factory],
            )
        serial = run_sharded(
            6, shards=3, workers=1, hook_factories=[factory],
        )
        assert np.array_equal(
            serial.recorder.count_tensor(), pooled.recorder.count_tensor()
        )


class TestMergedRecorder:
    def test_transitions_and_members_merge(self):
        outcome = run_sharded(
            5, shards=2, workers=1, track_transitions=True,
            member_log_state="y",
        )
        recorder = outcome.recorder
        assert recorder.trials == 5
        # Transition tensors exist for the eroding edges and line up
        # with the count deltas per trial.
        edges = recorder.edges_seen()
        assert ("x", "z") in edges
        tensor = recorder.transition_tensor(("x", "z"))
        assert tensor.shape[0] == 5
        # Member logs concatenate in trial order.
        period, members = recorder.member_log[0]
        assert len(members) == 5
        log0 = recorder.trial_member_log(0)
        assert log0[0][0] == period

    def test_merge_rejects_mismatched_parts(self):
        a = BatchMetricsRecorder(("x", "y"), 2)
        b = BatchMetricsRecorder(("x", "z"), 2)
        with pytest.raises(ValueError, match="states"):
            BatchMetricsRecorder.merge([a, b])
        with pytest.raises(ValueError, match="zero"):
            BatchMetricsRecorder.merge([])


class TestExperimentWorkers:
    def test_reproducible_and_annotated(self):
        protocol = Protocol.named("lv")
        first = Experiment(
            protocol, n=200, trials=6, periods=15, seed=9, workers=3
        ).run()
        second = Experiment(
            protocol, n=200, trials=6, periods=15, seed=9, workers=3
        ).run()
        assert first.shards == 3
        assert np.array_equal(first.count_tensor(), second.count_tensor())
        assert first.trial_seeds == second.trial_seeds

    def test_scenario_seeds_are_shard_invariant(self):
        """A named scenario injects identical faults however sharded."""
        protocol = Protocol.named("lv")
        sharded = Experiment(
            protocol, n=200, trials=6, periods=12, seed=9, workers=3,
            scenario="massive-failure",
        ).run()
        # massive-failure crashes half the hosts at periods // 2 in
        # every trial; the alive tensor must show it in all 6 trials.
        alive = sharded.alive_tensor()
        assert np.all(alive[:, -1] == 100)

    def test_serial_tier_ignores_workers(self):
        protocol = Protocol.named("lv")
        result = Experiment(
            protocol, n=200, trials=1, periods=10, seed=4, workers=8
        ).run()
        assert result.engine == "serial"
        assert result.shards == 1


class TestFaultIsolation:
    SKIP = FaultPolicy(on_error="skip", retries=0, backoff_seconds=0.0)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_skip_drops_failed_shards_without_perturbing_survivors(
        self, workers
    ):
        # trials=6 over 3 shards -> shard 2 owns global trials 4, 5;
        # sabotaging those fails exactly that shard.
        clean = run_sharded(
            6, shards=3, workers=workers, hook_factories=[_noop_hook_factory]
        )
        partial = run_sharded(
            6, shards=3, workers=workers,
            hook_factories=[SabotageAboveTrial(4)],
            fault_policy=self.SKIP,
        )
        assert [f.label for f in partial.failures] == ["shard 2"]
        assert "sabotaged" in partial.failures[0].error
        # The surviving shards' streams are bitwise untouched: they
        # equal the first 4 trials of the clean run.
        assert partial.trial_seeds == clean.trial_seeds[:4]
        assert np.array_equal(
            partial.recorder.count_tensor(),
            clean.recorder.count_tensor()[:4],
        )
        assert np.array_equal(
            partial.final_counts_matrix, clean.final_counts_matrix[:4]
        )
        # The full layout stays recorded, so the lost shard's seed is
        # recoverable for a standalone re-run.
        assert partial.shard_sizes == [2, 2, 2]
        assert len(partial.shard_seeds) == 3

    def test_all_shards_failing_raises_even_under_skip(self):
        with pytest.raises(UnitExecutionError, match="all 3 shards"):
            run_sharded(
                6, shards=3, workers=1,
                hook_factories=[SabotageAboveTrial(0)],
                fault_policy=self.SKIP,
            )

    def test_default_policy_raises_with_shard_context(self):
        with pytest.raises(UnitExecutionError, match="shard 2"):
            run_sharded(
                6, shards=3, workers=1,
                hook_factories=[SabotageAboveTrial(4)],
            )

    def test_clean_runs_ignore_the_policy(self):
        reference = run_sharded(6, shards=3, workers=1)
        guarded = run_sharded(
            6, shards=3, workers=1,
            fault_policy=FaultPolicy(on_error="retry", retries=2),
        )
        assert guarded.failures == []
        assert guarded.trial_seeds == reference.trial_seeds
        assert np.array_equal(
            guarded.recorder.count_tensor(),
            reference.recorder.count_tensor(),
        )


def _noop_hook_factory(trial):
    return _noop_hook


class TestUnseededLayout:
    def test_unseeded_sharded_layout_works(self):
        layout = shard_layout(None, 6, 3)
        assert [size for size, _ in layout] == [2, 2, 2]
        assert all(isinstance(seed, int) for _, seed in layout)

    def test_unseeded_executor_runs(self):
        outcome = ShardedBatchExecutor(
            SPEC, n=200, trials=4, initial=INITIAL, workers=2
        ).run(5)
        assert outcome.recorder.count_tensor().shape == (4, 6, 3)
