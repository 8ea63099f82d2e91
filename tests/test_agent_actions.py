"""Action-level coverage of the asynchronous agent engine.

The round-engine tests cover every action kind vectorized; these tests
exercise the same semantics through the DES agent runtime -- push
conversion messages, token routing (oracle and TTL random walk), any-of
pull -- where messages have latency and state is read at delivery time.
"""

import numpy as np
import pytest

from repro.odes.system import build_system
from repro.runtime import AgentSimulation
from repro.synthesis import (
    AnyOfSampleAction,
    FlipAction,
    ProtocolSpec,
    PushAction,
    SampleAction,
    TokenizeAction,
    synthesize,
)


class TestPushInAgents:
    def test_push_converts_over_network(self):
        spec = ProtocolSpec(
            name="push", states=("x", "y"),
            actions=(PushAction("y", 1.0, "y", match_state="x", fanout=2),),
        )
        sim = AgentSimulation(spec, n=200, initial={"x": 150, "y": 50}, seed=0)
        sim.run(30)
        assert sim.counts() == {"x": 0, "y": 200}

    def test_push_lost_messages_slow_conversion(self):
        spec = ProtocolSpec(
            name="push", states=("x", "y"),
            actions=(PushAction("y", 1.0, "y", match_state="x", fanout=1),),
        )
        lossy = AgentSimulation(
            spec, n=150, initial={"x": 100, "y": 50}, seed=1, loss_rate=0.8
        )
        clean = AgentSimulation(
            spec, n=150, initial={"x": 100, "y": 50}, seed=1, loss_rate=0.0
        )
        lossy.run(4)
        clean.run(4)
        assert clean.counts()["y"] > lossy.counts()["y"]


class TestAnyOfInAgents:
    def test_anyof_pull(self):
        spec = ProtocolSpec(
            name="pull", states=("x", "y"),
            actions=(
                AnyOfSampleAction(
                    "x", 1.0, "y", match_state="y", fanout=3
                ),
            ),
        )
        sim = AgentSimulation(spec, n=200, initial={"x": 150, "y": 50}, seed=2)
        sim.run(25)
        assert sim.counts()["y"] == 200


class TestTokensInAgents:
    def token_spec(self, ttl=None):
        # w emits a token every period; a z process becomes u.
        return ProtocolSpec(
            name="token", states=("w", "z", "u"),
            actions=(
                TokenizeAction(
                    actor_state="w", probability=1.0, target_state="u",
                    required_states=(), token_state="z", ttl=ttl,
                ),
            ),
        )

    def test_oracle_tokens_move_processes(self):
        sim = AgentSimulation(
            self.token_spec(), n=100,
            initial={"w": 10, "z": 80, "u": 10}, seed=3,
        )
        sim.run(5)
        counts = sim.counts()
        assert counts["u"] > 10
        assert counts["w"] == 10  # hosts never move themselves

    def test_oracle_tokens_dropped_without_targets(self):
        sim = AgentSimulation(
            self.token_spec(), n=50,
            initial={"w": 25, "z": 0, "u": 25}, seed=4,
        )
        sim.run(5)
        assert sim.counts() == {"w": 25, "z": 0, "u": 25}

    def test_ttl_walk_reaches_targets(self):
        sim = AgentSimulation(
            self.token_spec(ttl=8), n=100,
            initial={"w": 10, "z": 80, "u": 10}, seed=5,
        )
        sim.run(10)
        assert sim.counts()["u"] > 10

    def test_short_ttl_slower_than_oracle(self):
        def converted(ttl, seed=6):
            sim = AgentSimulation(
                self.token_spec(ttl=ttl), n=200,
                initial={"w": 20, "z": 40, "u": 140}, seed=seed,
            )
            sim.run(10)
            return sim.counts()["u"] - 140

        # z is only 20% of the population: a 1-hop walk often misses.
        assert converted(ttl=1) < converted(ttl=None)


class TestMixedProtocol:
    def test_synthesized_sirs_runs_in_agents(self):
        system = build_system(
            "sirs", ["s", "i", "r"],
            {
                "s": [(-0.8, {"s": 1, "i": 1}), (0.1, {"r": 1})],
                "i": [(0.8, {"s": 1, "i": 1}), (-0.3, {"i": 1})],
                "r": [(0.3, {"i": 1}), (-0.1, {"r": 1})],
            },
        )
        spec = synthesize(system)
        sim = AgentSimulation(spec, n=400, initial={"s": 360, "i": 40, "r": 0},
                              seed=7)
        recorder = sim.run(150)
        # Endemic SIS-like equilibrium: infection persists.
        assert recorder.counts("i")[0, -1] > 0
        assert sum(sim.counts().values()) == 400

    def test_action_order_respected_single_transition_per_period(self):
        # A state with two always-firing flip actions: only the first
        # can ever fire (one transition per period per process).
        spec = ProtocolSpec(
            name="race", states=("a", "b", "c"),
            actions=(
                FlipAction("a", 1.0, "b"),
                FlipAction("a", 1.0, "c"),
            ),
        )
        sim = AgentSimulation(spec, n=60, initial={"a": 60}, seed=8)
        sim.run(2)
        assert sim.counts()["c"] == 0
        assert sim.counts()["b"] == 60