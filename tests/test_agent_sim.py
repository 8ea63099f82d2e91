"""Tests for the asynchronous agent simulator (repro.runtime.agent_sim)."""

from collections import Counter

import pytest

from repro.odes import library
from repro.protocols.endemic import EndemicParams, figure1_protocol
from repro.runtime import AgentSimulation
from repro.synthesis import ProtocolSpec, SampleAction, synthesize


class TestBasicRuns:
    def test_epidemic_spreads_asynchronously(self):
        sim = AgentSimulation(
            synthesize(library.epidemic()), n=300,
            initial={"x": 299, "y": 1}, seed=0,
        )
        sim.run(40)
        assert sim.counts()["y"] == 300

    def test_counts_sum_to_alive(self):
        sim = AgentSimulation(
            synthesize(library.epidemic()), n=100,
            initial={"x": 60, "y": 40}, seed=1,
        )
        sim.run(5)
        assert sum(sim.counts().values()) == sim.alive_count() == 100

    def test_recorder_series(self):
        sim = AgentSimulation(
            synthesize(library.epidemic()), n=100,
            initial={"x": 99, "y": 1}, seed=2,
        )
        recorder = sim.run(10)
        # Period 0 is recorded up front (the round engines' convention),
        # so 10 periods yield 11 samples aligned with the other tiers.
        assert len(recorder.times) == 11
        assert recorder.times[0] == 0
        series = recorder.counts("y")[0]
        assert series[-1] >= series[0]

    def test_initial_fractions(self):
        sim = AgentSimulation(
            synthesize(library.epidemic()), n=200,
            initial={"x": 0.5, "y": 0.5}, seed=3,
        )
        assert sim.counts() == {"x": 100, "y": 100}

    def test_transition_counting(self):
        sim = AgentSimulation(
            synthesize(library.epidemic()), n=100,
            initial={"x": 50, "y": 50}, seed=4,
        )
        sim.run(10)
        assert sim.transition_counts.get(("x", "y"), 0) > 0


class TestAsynchronyRobustness:
    def test_clock_drift_tolerated(self):
        # Paper: the analysis holds for the average clock speed.
        sim = AgentSimulation(
            synthesize(library.epidemic()), n=300,
            initial={"x": 299, "y": 1}, seed=5, clock_drift_std=0.1,
        )
        sim.run(50)
        assert sim.counts()["y"] == 300

    def test_message_loss_slows_but_not_stops(self):
        lossy = AgentSimulation(
            synthesize(library.epidemic()), n=200,
            initial={"x": 150, "y": 50}, seed=6, loss_rate=0.5,
        )
        clean = AgentSimulation(
            synthesize(library.epidemic()), n=200,
            initial={"x": 150, "y": 50}, seed=6, loss_rate=0.0,
        )
        lossy_rec = lossy.run(6)
        clean_rec = clean.run(6)
        assert clean.counts()["y"] >= lossy.counts()["y"]
        assert lossy.counts()["y"] > 50  # still progressing

    def test_endemic_variant_runs(self, fig8_params):
        sim = AgentSimulation(
            figure1_protocol(fig8_params), n=400,
            initial=fig8_params.equilibrium_counts(400), seed=7,
        )
        sim.run(100)
        counts = sim.counts()
        assert counts["y"] > 0  # replicas survive
        assert sum(counts.values()) == 400

    def test_matches_round_engine_equilibrium(self, fig8_params):
        # Asynchrony should not shift the endemic operating point.
        from repro.runtime import RoundEngine

        n = 500
        spec = figure1_protocol(fig8_params)
        async_sim = AgentSimulation(
            spec, n=n, initial=fig8_params.equilibrium_counts(n), seed=8
        )
        async_rec = async_sim.run(220)
        sync_engine = RoundEngine(
            spec, n=n, initial=fig8_params.equilibrium_counts(n), seed=8
        )
        sync_rec = sync_engine.run(220).recorder
        async_stash = async_rec.window("y", start_period=60).mean
        sync_stash = sync_rec.window("y", start_period=60).mean
        assert async_stash == pytest.approx(sync_stash, rel=0.3)


class TestFaultInjection:
    def test_crash_silences_agents(self):
        sim = AgentSimulation(
            synthesize(library.epidemic()), n=100,
            initial={"x": 50, "y": 50}, seed=9,
        )
        victims = sim.crash_fraction(0.5)
        assert len(victims) == 50
        assert sim.alive_count() == 50

    def test_recovery_restarts_agents(self):
        sim = AgentSimulation(
            synthesize(library.epidemic()), n=100,
            initial={"x": 99, "y": 1}, seed=10,
        )
        victims = sim.crash_fraction(0.3)
        sim.recover(victims)
        assert sim.alive_count() == 100
        sim.run(40)
        assert sim.counts()["y"] == 100

    def test_revived_agent_runs_one_loop(self):
        # Every x samples one peer each tick and never matches (nobody
        # is y), so each tick is exactly one peer draw by its caller.
        spec = ProtocolSpec(
            name="idle", states=("x", "y"),
            actions=(SampleAction("x", 1.0, "y", required_states=("y",)),),
        )
        sim = AgentSimulation(spec, n=20, initial={"x": 20}, seed=12)
        ticks = Counter()
        draw = sim.sample_peer
        sim.sample_peer = lambda caller: ticks.update([caller]) or draw(caller)
        sim.run(1)
        # Crash and recover within one hook, as CrashRecoveryNoise and
        # apply_churn do: the crashed loop has not ticked since.
        sim.crash([0])
        sim.recover([0])
        ticks.clear()
        sim.run(20)
        others = [ticks[agent] for agent in range(1, 20)]
        assert ticks[0] <= max(others)

    def test_a_crash_stops_the_action_in_flight(self):
        # Pull epidemic: every x is waiting on a state query at some
        # point of its period.  Crash them all mid-period: a reply that
        # lands afterwards must move nobody, and nobody alive is left
        # in x to move.
        sim = AgentSimulation(
            synthesize(library.epidemic()), n=300,
            initial={"x": 150, "y": 150}, seed=3,
        )
        sim.env.run(until=2.5)
        victims = [a.id for a in sim.agents if a.state == "x"]
        assert victims
        sim.crash(victims)
        before = dict(sim.transition_counts)
        sim.env.run(until=10.0)
        assert [sim.agents[i].state for i in victims] == ["x"] * len(victims)
        assert sim.transition_counts == before

    def test_crashed_majority_blocks_epidemic(self):
        sim = AgentSimulation(
            synthesize(library.epidemic()), n=50,
            initial={"x": 49, "y": 1}, seed=11,
        )
        infected = [a.id for a in sim.agents if a.state == "y"]
        sim.crash(infected)
        sim.run(20)
        assert sim.counts()["y"] == 0
