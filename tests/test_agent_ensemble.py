"""Tests for agent-tier (DES) ensembles (repro.runtime.parallel.AgentEnsemble).

Mirrors ``tests/test_parallel.py``: the agent tier's ensemble driver
must share the repository-wide trial-seed discipline, be bitwise
identical however its trials are scheduled, clamp ``workers`` to the
trial count, and degrade unpicklable hooks to a serial in-process run.
"""

import numpy as np
import pytest

from repro.experiment import Experiment, Protocol
from repro.protocols.lv import lv_protocol
from repro.runtime import (
    AgentEnsemble,
    AgentSimulation,
    BatchMetricsRecorder,
    FaultPolicy,
    MassiveFailure,
    UnitExecutionError,
    spawn_seeds,
)


SPEC = lv_protocol(p=0.01)
INITIAL = {"x": 90, "y": 60, "z": 0}


def run_ensemble(trials, workers, seed=42, periods=10, **kwargs):
    ensemble = AgentEnsemble(
        SPEC, n=150, trials=trials, initial=INITIAL, seed=seed,
        workers=workers,
    )
    return ensemble.run(periods, **kwargs)


class TestSeedDiscipline:
    def test_trial_seeds_are_the_spawned_family(self):
        ensemble = AgentEnsemble(
            SPEC, n=150, trials=5, initial=INITIAL, seed=7
        )
        assert list(ensemble.trial_seeds) == list(spawn_seeds(7, 5))

    def test_single_trial_reruns_bitwise(self):
        """Any ensemble member reproduces as a standalone simulation."""
        outcome = run_ensemble(trials=3, workers=1, seed=9)
        trial = 1
        simulation = AgentSimulation(
            SPEC, 150, INITIAL, seed=outcome.trial_seeds[trial]
        )
        recorder = BatchMetricsRecorder(SPEC.states, 1)
        simulation.run(10, recorder=recorder)
        merged = outcome.recorder
        for state in SPEC.states:
            assert np.array_equal(
                merged.counts(state)[trial], recorder.counts(state)[0]
            )
        assert np.array_equal(
            merged.alive_tensor()[trial], recorder.alive_tensor()[0]
        )


class TestBitwiseEquality:
    @pytest.mark.parametrize("trials", [1, 4])
    def test_pooled_equals_serial(self, trials):
        """Worker count never changes any trial's outcome."""
        serial = run_ensemble(trials, workers=1)
        pooled = run_ensemble(trials, workers=3)
        assert serial.trial_seeds == pooled.trial_seeds
        assert np.array_equal(
            serial.recorder.count_tensor(), pooled.recorder.count_tensor()
        )

    def test_workers_exceeding_trials_clamp(self):
        ensemble = AgentEnsemble(
            SPEC, n=150, trials=2, initial=INITIAL, seed=1, workers=8
        )
        assert ensemble.workers == 2
        outcome = ensemble.run(5)
        assert outcome.trials == 2


class TestHooks:
    def test_global_trial_indexing(self):
        """A factory keyed on the trial index sees 0..M-1."""
        trials = 4

        def factory(trial):
            return MassiveFailure(at_period=2, fraction=trial / 10.0)

        outcome = run_ensemble(
            trials, workers=1, hook_factories=[factory],
        )
        alive = outcome.recorder.alive_tensor()[:, -1].tolist()
        expected = [round(150 * (1 - m / 10.0)) for m in range(trials)]
        assert alive == expected

    def test_unpicklable_hooks_fall_back_serially(self):
        factory = lambda trial: MassiveFailure(at_period=2, fraction=0.5)
        with pytest.warns(RuntimeWarning, match="unpicklable"):
            pooled = run_ensemble(
                4, workers=3, hook_factories=[factory],
            )
        serial = run_ensemble(
            4, workers=1, hook_factories=[factory],
        )
        assert np.array_equal(
            serial.recorder.count_tensor(), pooled.recorder.count_tensor()
        )

    def test_period_property_matches_round_convention(self):
        simulation = AgentSimulation(SPEC, 150, INITIAL, seed=3)
        seen = []
        simulation.run(3, hooks=[lambda sim: seen.append(sim.period)])
        assert seen == [0, 1, 2]


class TestValidation:
    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="trials"):
            AgentEnsemble(SPEC, n=150, trials=0, initial=INITIAL)
        with pytest.raises(ValueError, match="workers"):
            AgentEnsemble(SPEC, n=150, trials=2, initial=INITIAL, workers=0)


class TestExperimentAgentTier:
    def test_reproducible_across_workers(self):
        protocol = Protocol.named("lv")
        first = Experiment(
            protocol, n=150, trials=3, periods=8, seed=9, engine="agent"
        ).run()
        second = Experiment(
            protocol, n=150, trials=3, periods=8, seed=9, engine="agent",
            workers=3,
        ).run()
        assert first.engine == second.engine == "agent"
        assert first.trial_seeds == second.trial_seeds
        assert np.array_equal(first.count_tensor(), second.count_tensor())

    def test_shares_serial_tier_seed_family(self):
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

    def test_scenario_hooks_apply(self):
        protocol = Protocol.named("lv")
        result = Experiment(
            protocol, n=150, trials=2, periods=8, seed=5, engine="agent",
            scenario="massive-failure",
        ).run()
        # massive-failure crashes half the hosts at periods // 2.
        assert np.all(result.alive_tensor()[:, -1] == 75)

    def test_array_surface_scenarios_apply(self):
        """Hooks reading alive/states snapshots work on this tier too."""
        protocol = Protocol.named("lv")
        result = Experiment(
            protocol, n=150, trials=2, periods=8, seed=6, engine="agent",
            scenario="crash-recovery", workers=2,
        ).run()
        # CrashRecoveryNoise indexes engine.alive every period; the run
        # completing (pooled!) with a live population is the assertion.
        assert np.all(result.alive_tensor()[:, -1] > 0)

    def test_auto_never_selects_agent(self):
        protocol = Protocol.named("lv")
        experiment = Experiment(protocol, n=150, trials=4, periods=5)
        assert experiment.chosen_engine == "batch"

    def test_member_log_unsupported(self):
        protocol = Protocol.named("lv")
        with pytest.raises(ValueError, match="member_log_state"):
            Experiment(
                protocol, n=150, trials=2, periods=5, engine="agent",
                member_log_state="x",
            ).run()

    def test_equilibrium_check_runs(self):
        result = Experiment(
            Protocol.named("endemic"), n=200, trials=2, periods=10,
            seed=2, engine="agent",
        ).run()
        check = result.equilibrium_check()
        assert check.status in ("PASS", "WARN", "FAIL", "SKIP")


class TestCLI:
    def test_run_engine_agent(self, capsys):
        from repro.__main__ import main

        code = main([
            "run", "lv", "--engine", "agent", "--n", "150",
            "--trials", "2", "--periods", "6", "--seed", "3",
            "--workers", "2",
        ])
        out = capsys.readouterr().out
        assert "engine: agent" in out
        assert "ensemble trajectory summary" in out
        # LV has no stable closed-form equilibrium at this horizon;
        # whatever the verdict, the command must not crash.
        assert code in (0, 1)


def _noop_agent_hook(simulation):
    return None


class SabotageTrial:
    """Hook factory that raises for one global trial (picklable)."""

    def __init__(self, victim):
        self.victim = victim

    def __call__(self, trial):
        if trial == self.victim:
            raise RuntimeError(f"trial {trial} sabotaged")
        return _noop_agent_hook


class TestFaultIsolation:
    SKIP = FaultPolicy(on_error="skip", retries=0, backoff_seconds=0.0)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_skip_drops_failed_trials_without_perturbing_survivors(
        self, workers
    ):
        clean = run_ensemble(
            trials=3, workers=workers, seed=9,
            hook_factories=[_noop_factory],
        )
        partial = run_ensemble(
            trials=3, workers=workers, seed=9,
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
        for state in SPEC.states:
            assert np.array_equal(
                partial.recorder.counts(state),
                clean.recorder.counts(state)[[0, 2]],
            )

    def test_all_trials_failing_raises_even_under_skip(self):
        with pytest.raises(UnitExecutionError, match="all 2 trials"):
            run_ensemble(
                trials=2, workers=1, seed=9,
                hook_factories=[SabotageAllTrials()],
                fault_policy=self.SKIP,
            )


class SabotageAllTrials:
    def __call__(self, trial):
        raise RuntimeError(f"trial {trial} sabotaged")


def _noop_factory(trial):
    return _noop_agent_hook
