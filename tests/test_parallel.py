"""Tests for the one ensemble executor (repro.runtime.parallel).

Every engine tier runs its ensembles through
:class:`~repro.runtime.parallel.EnsembleExecutor`, so the contract is
tested once per tier: a deterministic unit layout (batch shards, or
one unit per serial/agent trial), bitwise equality however the units
are scheduled, hooks indexed by global trial, unpicklable hooks
degrading to an in-process run, and failure isolation that leaves the
surviving units untouched.
"""

import numpy as np
import pytest

from repro.experiment import Experiment, Protocol
from repro.protocols.lv import lv_protocol
from repro.runtime import (
    TIERS,
    AgentSimulation,
    BatchMetricsRecorder,
    BatchRoundEngine,
    EnsembleExecutor,
    FaultPolicy,
    MassiveFailure,
    RoundEngine,
    UnitExecutionError,
    shard_layout,
    spawn_seeds,
)


SPEC = lv_protocol(p=0.01)
INITIAL = {"x": 120, "y": 80, "z": 0}
N = 200


def _noop_hook(engine):
    return None


def _noop_hook_factory(trial):
    return _noop_hook


class SabotageAboveTrial:
    """Hook factory that raises for global trials >= ``threshold``.

    Fails exactly the units owning those trials while leaving every
    other unit untouched; module-level so jobs stay picklable.
    """

    def __init__(self, threshold):
        self.threshold = threshold

    def __call__(self, trial):
        if trial >= self.threshold:
            raise RuntimeError(f"trial {trial} sabotaged")
        return _noop_hook


class SabotageTrial:
    """Hook factory that raises for one global trial (picklable)."""

    def __init__(self, victim):
        self.victim = victim

    def __call__(self, trial):
        if trial == self.victim:
            raise RuntimeError(f"trial {trial} sabotaged")
        return _noop_hook


def run_ensemble(engine, trials, workers, seed=42, periods=10,
                 shards=None, loss=0.0, **kwargs):
    executor = EnsembleExecutor(
        SPEC, n=N, trials=trials, initial=INITIAL, seed=seed,
        connection_failure_rate=loss, shards=shards, workers=workers,
        engine=engine,
    )
    return executor.run(periods, **kwargs)


def run_sharded(trials, shards, workers, seed=42, periods=25, **kwargs):
    return run_ensemble(
        "batch", trials, workers, seed=seed, periods=periods,
        shards=shards, **kwargs,
    )


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
        """A campaign point's units are the executor's shards."""
        from repro.experiment import RunPoint

        point = RunPoint(
            protocol="lv", n=200, loss_rate=0.0, scenario="none",
            trials=10, periods=5, seed=7, shards=3,
        )
        assert point.ensemble()[0].layout == shard_layout(7, 10, 3)

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


class TestUnitLayout:
    def test_batch_units_are_the_shard_layout(self):
        executor = EnsembleExecutor(
            SPEC, n=N, trials=10, initial=INITIAL, seed=7, shards=3,
        )
        assert executor.engine == "batch"
        assert executor.shards == 3
        assert executor.layout == shard_layout(7, 10, 3)

    @pytest.mark.parametrize("engine", ["serial", "agent"])
    def test_trial_tiers_run_one_unit_per_spawned_seed(self, engine):
        executor = EnsembleExecutor(
            SPEC, n=N, trials=5, initial=INITIAL, seed=7, workers=3,
            engine=engine,
        )
        assert executor.shards == 1
        assert executor.layout == [(1, s) for s in spawn_seeds(7, 5)]

    @pytest.mark.parametrize("engine", ["serial", "agent"])
    def test_trial_tiers_refuse_shards(self, engine):
        with pytest.raises(ValueError, match="batch tier only"):
            EnsembleExecutor(
                SPEC, n=N, trials=4, initial=INITIAL, shards=2,
                engine=engine,
            )

    @pytest.mark.parametrize("engine", TIERS)
    def test_bad_arguments(self, engine):
        with pytest.raises(ValueError, match="trials"):
            EnsembleExecutor(
                SPEC, n=N, trials=0, initial=INITIAL, engine=engine
            )
        with pytest.raises(ValueError, match="workers"):
            EnsembleExecutor(
                SPEC, n=N, trials=2, initial=INITIAL, workers=0,
                engine=engine,
            )
        with pytest.raises(ValueError, match="backend"):
            EnsembleExecutor(
                SPEC, n=N, trials=2, initial=INITIAL, backend="grid",
                engine=engine,
            )

    def test_unknown_engine_is_refused(self):
        with pytest.raises(ValueError, match="engine must be one of"):
            EnsembleExecutor(
                SPEC, n=N, trials=2, initial=INITIAL, engine="lockstep"
            )


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
            serial.recorder.alive_tensor(), pooled.recorder.alive_tensor()
        )

    @pytest.mark.parametrize("trials", [1, 4])
    @pytest.mark.parametrize("engine", ["serial", "agent"])
    def test_trial_tiers_pooled_equals_in_process(self, engine, trials):
        in_process = run_ensemble(engine, trials, workers=1)
        pooled = run_ensemble(engine, trials, workers=3)
        assert in_process.trial_seeds == pooled.trial_seeds
        assert in_process.trial_seeds == list(spawn_seeds(42, trials))
        assert np.array_equal(
            in_process.recorder.count_tensor(),
            pooled.recorder.count_tensor(),
        )

    def test_single_shard_equals_plain_engine(self):
        outcome = run_sharded(7, shards=1, workers=4)
        engine = BatchRoundEngine(
            SPEC, n=N, trials=7, initial=INITIAL, seed=42
        )
        recorder = BatchMetricsRecorder(SPEC.states, 7)
        engine.run(25, recorder=recorder)
        assert outcome.trial_seeds == list(engine.trial_seeds)
        assert np.array_equal(
            outcome.recorder.count_tensor(), recorder.count_tensor()
        )
        assert np.array_equal(outcome.final_counts, engine.counts_matrix())
        assert np.array_equal(outcome.total_messages, engine.total_messages)

    @pytest.mark.parametrize(
        "engine,build",
        [
            ("serial", lambda seed: RoundEngine(
                SPEC, n=N, initial=INITIAL, seed=seed,
                connection_failure_rate=0.2)),
            ("agent", lambda seed: AgentSimulation(
                SPEC, N, INITIAL, seed=seed, loss_rate=0.2)),
        ],
    )
    def test_each_trial_reruns_alone_bitwise(self, engine, build):
        """Any member reproduces as a standalone engine on its seed."""
        outcome = run_ensemble(engine, trials=3, workers=2, seed=9, loss=0.2)
        for trial, trial_seed in enumerate(outcome.trial_seeds):
            recorder = BatchMetricsRecorder(SPEC.states, 1)
            alone = build(trial_seed)
            alone.run(10, recorder=recorder)
            census = alone.counts()
            assert outcome.final_counts[trial].tolist() == [
                census[s] for s in SPEC.states
            ]
            assert np.array_equal(
                outcome.recorder.count_tensor()[trial],
                recorder.count_tensor()[0],
            )
            assert np.array_equal(
                outcome.recorder.alive_tensor()[trial],
                recorder.alive_tensor()[0],
            )

    @pytest.mark.parametrize("engine", TIERS)
    def test_workers_exceeding_trials(self, engine):
        executor = EnsembleExecutor(
            SPEC, n=N, trials=2, initial=INITIAL, seed=1, workers=8,
            engine=engine,
        )
        assert len(executor.layout) == 2
        outcome = executor.run(10)
        assert outcome.trials == 2
        assert outcome.recorder.count_tensor().shape[0] == 2


class TestEndState:
    @pytest.mark.parametrize("engine", TIERS)
    def test_final_counts_are_the_last_period_not_the_last_row(
        self, engine
    ):
        """A stride that skips the last period still reports its state."""
        strided = run_ensemble(engine, 3, workers=1, periods=25, stride=10)
        dense = run_ensemble(engine, 3, workers=1, periods=25)
        assert strided.recorder.times.tolist() == [0, 10, 20]
        assert np.array_equal(
            strided.final_counts, dense.recorder.count_tensor()[:, -1, :]
        )
        assert np.array_equal(strided.total_messages, dense.total_messages)
        assert strided.total_messages.shape == (3,)
        assert (strided.total_messages > 0).all()

    def test_units_and_merge_are_run(self):
        """``run`` is the two public steps around one plan."""
        from repro.runtime.exec import ExecutionPlan, run_plan

        executor = EnsembleExecutor(
            SPEC, n=N, trials=5, initial=INITIAL, seed=3, shards=2,
        )
        units = executor.units(12, stride=5)
        assert [u.label for u in units] == ["shard 0", "shard 1"]
        stepped = run_plan(
            ExecutionPlan(units=units, merge=executor.merge), workers=2
        )
        ran = executor.run(12, stride=5)
        assert stepped.trial_seeds == ran.trial_seeds
        assert np.array_equal(
            stepped.recorder.count_tensor(), ran.recorder.count_tensor()
        )
        assert np.array_equal(stepped.final_counts, ran.final_counts)


class TestHooks:
    @pytest.mark.parametrize(
        "engine,shards", [("batch", 3), ("serial", None), ("agent", None)]
    )
    def test_global_trial_indexing(self, engine, shards):
        """A factory keyed on the global trial index sees 0..M-1."""
        trials = 6

        def factory(trial):
            # Crash a trial-dependent fraction so units are
            # distinguishable: trial m loses m/10 of its hosts.
            return MassiveFailure(at_period=2, fraction=trial / 10.0)

        outcome = run_ensemble(
            engine, trials, workers=1, shards=shards,
            hook_factories=[factory],
        )
        alive = outcome.recorder.alive_tensor()[:, -1]
        expected = [round(N * (1 - m / 10.0)) for m in range(trials)]
        assert list(alive) == expected

    @pytest.mark.parametrize("engine", TIERS)
    def test_unpicklable_hooks_fall_back_serially(self, engine):
        factory = lambda trial: MassiveFailure(at_period=2, fraction=0.5)
        shards = 3 if engine == "batch" else None
        with pytest.warns(RuntimeWarning, match="unpicklable"):
            pooled = run_ensemble(
                engine, 6, workers=3, shards=shards, hook_factories=[factory],
            )
        serial = run_ensemble(
            engine, 6, workers=1, shards=shards, hook_factories=[factory],
        )
        assert np.array_equal(
            serial.recorder.count_tensor(), pooled.recorder.count_tensor()
        )

    def test_agent_period_property_matches_round_convention(self):
        simulation = AgentSimulation(SPEC, N, INITIAL, seed=3)
        seen = []
        simulation.run(3, hooks=[lambda sim: seen.append(sim.period)])
        assert seen == [0, 1, 2]


class TestMergedRecorder:
    def test_transitions_merge(self):
        outcome = run_sharded(5, shards=2, workers=1, track_transitions=True)
        recorder = outcome.recorder
        assert recorder.trials == 5
        # Transition tensors exist for the eroding edges and line up
        # with the count deltas per trial.
        edges = recorder.edges_seen()
        assert ("x", "z") in edges
        tensor = recorder.transition_tensor(("x", "z"))
        assert tensor.shape[0] == 5

    def test_batch_tier_refuses_a_member_log(self):
        with pytest.raises(ValueError, match='member_log_state.*"serial"'):
            run_sharded(5, shards=2, workers=1, member_log_state="y")

    def test_serial_member_logs_merge_in_trial_order(self):
        outcome = run_ensemble(
            "serial", 3, workers=2, member_log_state="y",
        )
        recorder = outcome.recorder
        for trial, trial_seed in enumerate(outcome.trial_seeds):
            engine = RoundEngine(SPEC, n=N, initial=INITIAL, seed=trial_seed)
            alone = BatchMetricsRecorder(SPEC.states, 1, member_log_state="y")
            engine.run(10, recorder=alone)
            for (period, ids), (expected_period, expected) in zip(
                recorder.trial_member_log(trial), alone.trial_member_log(0)
            ):
                assert period == expected_period
                assert np.array_equal(ids, expected)

    def test_agent_tier_refuses_a_member_log(self):
        with pytest.raises(ValueError, match="member_log_state"):
            run_ensemble("agent", 2, workers=1, member_log_state="x")

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

    def test_single_serial_trial_is_unsharded(self):
        protocol = Protocol.named("lv")
        result = Experiment(
            protocol, n=200, trials=1, periods=10, seed=4, workers=8
        ).run()
        assert result.engine == "serial"
        assert result.shards == 1

    @pytest.mark.parametrize("engine", ["serial", "agent"])
    def test_trial_tiers_are_reproducible_across_workers(self, engine):
        protocol = Protocol.named("lv")
        first = Experiment(
            protocol, n=150, trials=3, periods=8, seed=9, engine=engine
        ).run()
        second = Experiment(
            protocol, n=150, trials=3, periods=8, seed=9, engine=engine,
            workers=3,
        ).run()
        assert first.engine == second.engine == engine
        assert second.shards == 1
        assert first.trial_seeds == second.trial_seeds
        assert np.array_equal(first.count_tensor(), second.count_tensor())

    def test_agent_shares_serial_tier_seed_family(self):
        """Agent trials reuse the serial tier's spawned trial seeds."""
        protocol = Protocol.named("lv")
        agent = Experiment(
            protocol, n=150, trials=3, periods=5, seed=4, engine="agent"
        ).run()
        serial = Experiment(
            protocol, n=150, trials=3, periods=5, seed=4, engine="serial"
        ).run()
        assert agent.trial_seeds == serial.trial_seeds
        # Cross-tier alignment: same recording schedule (period 0
        # included), so batch-vs-agent tensors subtract elementwise.
        assert agent.count_tensor().shape == serial.count_tensor().shape
        assert np.array_equal(agent.times, serial.times)

    @pytest.mark.parametrize("engine", ["serial", "agent"])
    def test_trial_tier_scenario_hooks_apply(self, engine):
        protocol = Protocol.named("lv")
        result = Experiment(
            protocol, n=150, trials=2, periods=8, seed=5, engine=engine,
            scenario="massive-failure", workers=2,
        ).run()
        # massive-failure crashes half the hosts at periods // 2.
        assert np.all(result.alive_tensor()[:, -1] == 75)

    def test_agent_array_surface_scenarios_apply(self):
        """Hooks reading alive/states snapshots work on this tier too."""
        protocol = Protocol.named("lv")
        result = Experiment(
            protocol, n=150, trials=2, periods=8, seed=6, engine="agent",
            scenario="crash-recovery", workers=2,
        ).run()
        # CrashRecoveryNoise picks hosts off engine.alive every period; the run
        # completing (pooled!) with a live population is the assertion.
        assert np.all(result.alive_tensor()[:, -1] > 0)

    def test_auto_never_selects_agent(self):
        protocol = Protocol.named("lv")
        experiment = Experiment(protocol, n=150, trials=4, periods=5)
        assert experiment.chosen_engine == "batch"

    def test_agent_member_log_unsupported(self):
        protocol = Protocol.named("lv")
        with pytest.raises(ValueError, match="member_log_state"):
            Experiment(
                protocol, n=150, trials=2, periods=5, engine="agent",
                member_log_state="x",
            ).run()

    def test_agent_equilibrium_check_runs(self):
        result = Experiment(
            Protocol.named("endemic"), n=200, trials=2, periods=10,
            seed=2, engine="agent",
        ).run()
        check = result.equilibrium_check()
        assert check.status in ("PASS", "WARN", "FAIL", "SKIP")


class TestCLI:
    @pytest.mark.parametrize("engine", ["serial", "agent"])
    def test_run_trial_tier_on_workers(self, engine, capsys):
        from repro.__main__ import main

        code = main([
            "run", "lv", "--engine", engine, "--n", "150",
            "--trials", "2", "--periods", "6", "--seed", "3",
            "--workers", "2",
        ])
        out = capsys.readouterr().out
        assert f"engine: {engine}" in out
        assert "workers=2" in out and "shards=" not in out
        assert "ensemble trajectory summary" in out
        # LV has no stable closed-form equilibrium at this horizon;
        # whatever the verdict, the command must not crash.
        assert code in (0, 1)


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
        # The full layout stays recorded, so the lost shard's seed is
        # recoverable for a standalone re-run.
        assert [size for size, _ in partial.layout] == [2, 2, 2]
        assert partial.layout == clean.layout

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("engine", ["serial", "agent"])
    def test_skip_drops_failed_trials_without_perturbing_survivors(
        self, engine, workers
    ):
        clean = run_ensemble(
            engine, 3, workers=workers, seed=9,
            hook_factories=[_noop_hook_factory],
        )
        partial = run_ensemble(
            engine, 3, workers=workers, seed=9,
            hook_factories=[SabotageTrial(1)],
            fault_policy=self.SKIP,
        )
        # Trial 1 is gone; the recorder's trial axis and the seeds stay
        # aligned and the survivors are bitwise identical to the clean
        # run's.
        assert [f.index for f in partial.failures] == [1]
        assert partial.failures[0].label == "trial 1"
        assert partial.trials == 2
        assert partial.trial_seeds == [
            clean.trial_seeds[0], clean.trial_seeds[2]
        ]
        assert partial.layout[1] == (1, clean.trial_seeds[1])
        assert np.array_equal(
            partial.recorder.count_tensor(),
            clean.recorder.count_tensor()[[0, 2]],
        )

    def test_all_shards_failing_raises_even_under_skip(self):
        with pytest.raises(UnitExecutionError, match="all 3 shards"):
            run_sharded(
                6, shards=3, workers=1,
                hook_factories=[SabotageAboveTrial(0)],
                fault_policy=self.SKIP,
            )

    @pytest.mark.parametrize("engine", ["serial", "agent"])
    def test_all_trials_failing_raises_even_under_skip(self, engine):
        with pytest.raises(UnitExecutionError, match="all 2 trials"):
            run_ensemble(
                engine, 2, workers=1, seed=9,
                hook_factories=[SabotageAboveTrial(0)],
                fault_policy=self.SKIP,
            )

    def test_default_policy_raises_with_shard_context(self):
        with pytest.raises(UnitExecutionError, match="shard 2"):
            run_sharded(
                6, shards=3, workers=1,
                hook_factories=[SabotageAboveTrial(4)],
            )

    def test_default_policy_raises_with_trial_context(self):
        with pytest.raises(UnitExecutionError, match="trial 1"):
            run_ensemble(
                "serial", 3, workers=1, hook_factories=[SabotageTrial(1)],
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


class TestUnseededLayout:
    def test_unseeded_sharded_layout_works(self):
        layout = shard_layout(None, 6, 3)
        assert [size for size, _ in layout] == [2, 2, 2]
        assert all(isinstance(seed, int) for _, seed in layout)

    def test_unseeded_executor_runs(self):
        outcome = EnsembleExecutor(
            SPEC, n=N, trials=4, initial=INITIAL, workers=2
        ).run(5)
        assert outcome.recorder.count_tensor().shape == (4, 6, 3)
