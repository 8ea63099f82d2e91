"""Edge cases and defensive behaviour across modules."""

import numpy as np
import pytest

from repro.__main__ import main
from repro.odes import (
    classify,
    find_equilibria,
    integrate,
    library,
    make_complete,
    parse_system,
)
from repro.odes.system import EquationSystem, build_system
from repro.odes.term import Term
from repro.runtime import BatchMetricsRecorder, BatchRoundEngine, RoundEngine
from repro.synthesis import FlipAction, ProtocolSpec, synthesize


class TestDegenerateSystems:
    def test_zero_dynamics_system(self):
        system = EquationSystem(["x", "y"], {"x": [], "y": []}, name="still")
        report = classify(system)
        assert report.complete and report.mappable
        spec = synthesize(system)
        assert spec.actions == ()
        engine = RoundEngine(spec, n=10, initial={"x": 5, "y": 5}, seed=0)
        engine.run(5)
        assert engine.counts() == {"x": 5, "y": 5}

    def test_single_variable_complete_system(self):
        system = EquationSystem(["x"], {"x": []}, name="singleton")
        assert classify(system).complete
        spec = synthesize(system)
        assert spec.states == ("x",)

    def test_two_state_cycle(self):
        # x -> y -> x flipping loop; mass oscillates but conserves.
        system = build_system(
            "cycle", ["x", "y"],
            {"x": [(-0.5, {"x": 1}), (0.25, {"y": 1})],
             "y": [(0.5, {"x": 1}), (-0.25, {"y": 1})]},
        )
        spec = synthesize(system)
        engine = RoundEngine(spec, n=3000, initial={"x": 3000}, seed=1)
        engine.run(300)
        counts = engine.counts()
        # Equilibrium x/y = 0.25/0.5 -> x = 1000.
        assert counts["x"] == pytest.approx(1000, rel=0.15)

    def test_high_degree_term(self):
        # x' = -x^4 needs 3 samples of x itself.
        system = build_system(
            "quartic", ["x", "y"],
            {"x": [(-1.0, {"x": 4})], "y": [(1.0, {"x": 4})]},
        )
        spec = synthesize(system)
        action = spec.actions[0]
        assert action.required_states == ("x", "x", "x")
        engine = RoundEngine(spec, n=1000, initial={"x": 1000}, seed=2)
        engine.step()
        # All-x population: every sampled triple matches -> mass flows.
        assert engine.counts()["y"] > 500


class TestNumericRobustness:
    def test_tiny_rates_do_not_underflow(self):
        system = library.endemic(alpha=1e-6, gamma=1e-3, b=2)
        trajectory = integrate(
            system, {"x": 0.9, "y": 0.1, "z": 0.0}, t_end=100.0
        )
        assert np.isfinite(trajectory.states).all()

    def test_parse_very_small_coefficients(self):
        system = parse_system("x' = -1e-9*x\ny' = 1e-9*x")
        assert system.terms_of("x")[0].coefficient == pytest.approx(-1e-9)

    def test_equilibria_of_flat_system(self):
        system = EquationSystem(["x", "y"], {"x": [], "y": []}, name="flat")
        # Every point is an equilibrium: solver should not crash and
        # should report non-hyperbolic points.
        points = find_equilibria(system)
        assert all(p.classification == "non-hyperbolic" for p in points)

    def test_make_complete_of_conserved_pair_is_noop(self):
        system = library.sis(beta=0.5, gamma=0.1)
        assert make_complete(system).dimension == 2


class TestEngineBoundaries:
    def idle(self):
        return ProtocolSpec(
            name="idle", states=("a", "b"),
            actions=(FlipAction("a", 0.0, "b"),),
        )

    def test_minimum_group_size(self):
        engine = RoundEngine(self.idle(), n=2, initial={"a": 2}, seed=0)
        engine.run(3)
        assert engine.alive_count() == 2

    def test_everyone_crashed(self):
        engine = RoundEngine(self.idle(), n=10, initial={"a": 10}, seed=0)
        engine.crash(np.arange(10))
        engine.run(3)  # must not crash
        assert engine.alive_count() == 0
        assert engine.fractions() == {"a": 0.0, "b": 0.0}

    def test_zero_period_run(self):
        engine = RoundEngine(self.idle(), n=10, initial={"a": 10}, seed=0)
        result = engine.run(0)
        assert len(result.recorder.times) == 1  # just the initial record

    def test_rerun_continues_period_counter(self):
        engine = RoundEngine(self.idle(), n=10, initial={"a": 10}, seed=0)
        engine.run(5)
        engine.run(5)
        assert engine.period == 10

    def test_recorder_stride_with_member_log(self):
        engine = RoundEngine(self.idle(), n=10, initial={"a": 10}, seed=0)
        recorder = BatchMetricsRecorder(
            ("a", "b"), 1, member_log_state="a", stride=2
        )
        engine.run(6, recorder=recorder)
        # Records at periods 0 (initial), 2, 4, 6.
        assert [p for p, _ in recorder.member_log] == [0, 2, 4, 6]

    def ring(self, k):
        states = tuple(f"s{i}" for i in range(k))
        return ProtocolSpec(
            name=f"ring-{k}", states=states, actions=tuple(
                FlipAction(states[i], 0.5, states[(i + 1) % k])
                for i in range(k)
            ),
        )

    @pytest.mark.parametrize("engine", ["serial", "batch"])
    def test_state_ids_must_fit_int8(self, engine):
        # Host arrays hold state ids as int8: 128 states run, and 130
        # used to construct with ids wrapped to -128..127 and die in a
        # later bincount.
        def build(k):
            kwargs = dict(n=260, initial={"s0": 130, f"s{k - 1}": 130}, seed=0)
            if engine == "serial":
                return RoundEngine(self.ring(k), **kwargs)
            return BatchRoundEngine(self.ring(k), trials=2, **kwargs)

        widest = build(128)
        for _ in range(3):
            widest.step()
        assert widest.states.min() >= 0 and widest.states.max() == 127
        with pytest.raises(ValueError, match="'ring-130' has 130 states.*128"):
            build(130)

    def test_check_spec_reports_the_state_limit(self, tmp_path, capsys):
        path = tmp_path / "ring.txt"
        path.write_text("\n".join(
            f"x{i}' = -0.5*x{i} + 0.5*x{(i - 1) % 130}" for i in range(130)
        ))
        assert main(["check", "spec", str(path)]) == 1
        assert "130 states" in capsys.readouterr().out


class TestProtocolSpecBoundaries:
    def test_action_probability_epsilon(self):
        spec = ProtocolSpec(
            name="eps", states=("a", "b"),
            actions=(FlipAction("a", 1e-12, "b"),),
        )
        engine = RoundEngine(spec, n=100, initial={"a": 100}, seed=0)
        engine.run(10)
        assert engine.counts()["a"] >= 99  # essentially nothing moves

    def test_states_without_actions_are_absorbing(self):
        spec = ProtocolSpec(
            name="sink", states=("a", "b"),
            actions=(FlipAction("a", 1.0, "b"),),
        )
        engine = RoundEngine(spec, n=50, initial={"a": 50}, seed=0)
        engine.run(3)
        assert engine.counts()["b"] == 50
        engine.run(3)
        assert engine.counts()["b"] == 50  # b never leaks

    def test_render_empty_protocol(self):
        spec = ProtocolSpec(name="empty", states=("a",), actions=())
        assert "empty" in spec.render()