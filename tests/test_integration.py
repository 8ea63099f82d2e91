"""End-to-end integration tests: text -> taxonomy -> rewrite ->
protocol -> simulation -> analysis, across engines."""

import numpy as np
import pytest

from repro.analysis import compare_trajectory
from repro.odes import (
    auto_rewrite,
    classify,
    classify_point,
    find_equilibria,
    parse_system,
)
from repro.protocols.endemic import EndemicParams, figure1_protocol
from repro.runtime import AgentSimulation, MassiveFailure, RoundEngine
from repro.synthesis import synthesize


class TestFullPipeline:
    def test_text_to_protocol_to_simulation(self):
        """A user writes SIS equations as text and gets a running
        protocol whose equilibrium matches the ODE prediction."""
        system = parse_system(
            """
            s' = -beta*s*i + gamma*i
            i' =  beta*s*i - gamma*i
            """,
            parameters={"beta": 0.8, "gamma": 0.2},
            name="sis",
        )
        report = classify(system)
        assert report.mappable

        spec = synthesize(system)
        equilibria = find_equilibria(system)
        endemic_point = [e for e in equilibria if e.point["i"] > 0.1][0]
        # SIS endemic equilibrium: i* = 1 - gamma/beta = 0.75.
        assert endemic_point.point["i"] == pytest.approx(0.75, abs=1e-6)

        n = 5000
        engine = RoundEngine(spec, n=n, initial={"s": n - 50, "i": 50}, seed=0)
        result = engine.run(periods=spec.periods_for_time(80.0))
        assert result.final_counts()["i"] == pytest.approx(0.75 * n, rel=0.1)

    def test_raw_equations_through_rewrite_pipeline(self):
        """The paper's own showcase: raw LV -> rewrite -> protocol ->
        bistable majority dynamics."""
        raw = parse_system(
            "x' = 3*x - 3*x^2 - 6*x*y\n"
            "y' = 3*y - 3*y^2 - 6*x*y",
            name="lv-user",
        )
        assert not classify(raw).mappable
        mappable = auto_rewrite(raw)
        assert classify(mappable).mappable

        spec = synthesize(mappable, p=0.01)
        n = 4000
        engine = RoundEngine(
            spec, n=n, initial={"x": 2500, "y": 1500, "z": 0}, seed=1
        )
        engine.run(periods=1500)
        assert engine.counts()["x"] == n  # initial majority won

    def test_engines_agree_on_dynamics(self):
        """Synchronous round engine vs asynchronous DES agents on the
        same protocol: same trajectory shape."""
        params = EndemicParams(alpha=0.05, gamma=0.2, b=2)
        spec = figure1_protocol(params)
        n = 400
        initial = params.equilibrium_counts(n)

        round_engine = RoundEngine(spec, n=n, initial=initial, seed=2)
        round_rec = round_engine.run(150).recorder

        agent_sim = AgentSimulation(spec, n=n, initial=initial, seed=2)
        agent_rec = agent_sim.run(150)

        sync_mean = round_rec.window("y", start_period=50).mean
        async_mean = agent_rec.window("y", start_period=50).mean
        assert async_mean == pytest.approx(sync_mean, rel=0.35)

    def test_theorem_statements_executable(self):
        """Classify every named equilibrium of both case studies and
        check the Theorem 3 / Theorem 4 verdicts in one sweep."""
        from repro.odes import library

        endemic = library.endemic(alpha=0.01, gamma=1.0, b=2)
        params = EndemicParams(alpha=0.01, gamma=1.0, b=2)
        assert classify_point(endemic, params.equilibrium()).stable
        assert (
            classify_point(
                endemic, {"x": 1.0, "y": 0.0, "z": 0.0}
            ).classification
            == "saddle point"
        )

        lv = library.lv()
        assert classify_point(lv, {"x": 1, "y": 0, "z": 0}).stable
        assert classify_point(lv, {"x": 0, "y": 1, "z": 0}).stable
        assert not classify_point(lv, {"x": 0, "y": 0, "z": 1}).stable

    def test_equivalence_with_failures_end_to_end(self):
        """Parse -> synthesize with failure compensation -> simulate on
        a lossy network -> trajectories track the original ODE."""
        system = parse_system(
            "a' = -2*a*b + 0.5*c\nb' = 2*a*b - 0.7*b\nc' = 0.7*b - 0.5*c",
            name="abc",
        )
        f = 0.25
        spec = synthesize(system, failure_rate=f)
        comparison = compare_trajectory(
            spec, n=20000,
            initial_counts={"a": 12000, "b": 6000, "c": 2000},
            periods=300, seed=3, connection_failure_rate=f,
            reference="discrete",
        )
        assert comparison.worst_rms_fraction_error() < 0.02

    def test_massive_failure_recovery_cycle(self):
        """Crash half the group, then recover: the endemic protocol
        re-absorbs the returning hosts and settles back to the
        original equilibrium."""
        from repro.runtime import ScheduledRecovery

        params = EndemicParams(alpha=0.05, gamma=0.2, b=2)
        spec = figure1_protocol(params)
        n = 2000
        engine = RoundEngine(spec, n=n, initial=params.equilibrium_counts(n), seed=4)
        hooks = [
            MassiveFailure(at_period=100, fraction=0.5),
            ScheduledRecovery(at_period=300, fraction=1.0, seed=5),
        ]
        result = engine.run(periods=700, hooks=hooks)
        assert engine.alive_count() == n
        expected = params.equilibrium_counts(n)
        assert result.recorder.window("y", 550).mean == pytest.approx(
            expected["y"], rel=0.3
        )
