"""Tests for the vectorized round engine (repro.runtime.round_engine)."""

import numpy as np
import pytest

import statutil

from repro.odes import library
from repro.protocols.endemic import EndemicParams, figure1_protocol
from repro.synthesis import (
    FlipAction,
    ProtocolSpec,
    PushAction,
    SampleAction,
    TokenizeAction,
    synthesize,
)
from repro.runtime import RoundEngine


def flip_spec(probability=0.5):
    return ProtocolSpec(
        name="flip", states=("a", "b"),
        actions=(FlipAction("a", probability, "b"),),
    )


class TestSetup:
    def test_initial_counts(self):
        engine = RoundEngine(flip_spec(), n=100, initial={"a": 60, "b": 40}, seed=0)
        assert engine.counts() == {"a": 60, "b": 40}

    def test_initial_fractions(self):
        engine = RoundEngine(flip_spec(), n=200, initial={"a": 0.25, "b": 0.75}, seed=0)
        assert engine.counts() == {"a": 50, "b": 150}

    def test_largest_remainder_rounding(self):
        engine = RoundEngine(
            flip_spec(), n=3, initial={"a": 1 / 3, "b": 2 / 3}, seed=0
        )
        counts = engine.counts()
        assert counts["a"] + counts["b"] == 3
        assert counts["b"] == 2

    def test_missing_states_default_zero(self):
        engine = RoundEngine(flip_spec(), n=10, initial={"a": 10}, seed=0)
        assert engine.counts() == {"a": 10, "b": 0}

    def test_unknown_state_rejected(self):
        with pytest.raises(ValueError):
            RoundEngine(flip_spec(), n=10, initial={"q": 10}, seed=0)

    def test_bad_total_rejected(self):
        with pytest.raises(ValueError):
            RoundEngine(flip_spec(), n=10, initial={"a": 3, "b": 3}, seed=0)

    def test_tiny_group_rejected(self):
        with pytest.raises(ValueError):
            RoundEngine(flip_spec(), n=1, initial={"a": 1}, seed=0)

    def test_shuffle_spreads_states(self):
        engine = RoundEngine(
            flip_spec(), n=1000, initial={"a": 500, "b": 500}, seed=1
        )
        # With shuffling, the first half should not be all state a.
        first_half = engine.states[:500]
        assert 0 < int((first_half == 0).sum()) < 500


class TestFlipDynamics:
    def test_flip_rate_statistical(self):
        engine = RoundEngine(flip_spec(0.3), n=10000, initial={"a": 10000}, seed=2)
        transitions = engine.step()
        moved = transitions[("a", "b")]
        # Null: each of the 10,000 processes flips a 0.3 coin.
        statutil.assert_binomial_count(moved, 10000, 0.3, context="flip movers")

    def test_probability_zero_never_fires(self):
        engine = RoundEngine(flip_spec(0.0) if False else ProtocolSpec(
            name="never", states=("a", "b"),
            actions=(FlipAction("a", 0.0, "b"),),
        ), n=100, initial={"a": 100}, seed=0)
        engine.step()
        assert engine.counts() == {"a": 100, "b": 0}

    def test_probability_one_moves_everyone(self):
        spec = ProtocolSpec(
            name="always", states=("a", "b"),
            actions=(FlipAction("a", 1.0, "b"),),
        )
        engine = RoundEngine(spec, n=50, initial={"a": 50}, seed=0)
        engine.step()
        assert engine.counts() == {"a": 0, "b": 50}

    def test_mass_conserved(self):
        engine = RoundEngine(flip_spec(0.2), n=500, initial={"a": 300, "b": 200}, seed=3)
        for _ in range(20):
            engine.step()
        counts = engine.counts()
        assert counts["a"] + counts["b"] == 500

    def test_determinism(self):
        a = RoundEngine(flip_spec(0.3), n=1000, initial={"a": 1000}, seed=7)
        b = RoundEngine(flip_spec(0.3), n=1000, initial={"a": 1000}, seed=7)
        for _ in range(5):
            a.step()
            b.step()
        assert np.array_equal(a.states, b.states)


class TestSampling:
    def test_epidemic_grows(self):
        spec = synthesize(library.epidemic())
        engine = RoundEngine(spec, n=5000, initial={"x": 4999, "y": 1}, seed=4)
        result = engine.run(periods=40)
        assert result.final_counts()["y"] == 5000

    def test_no_infectives_no_spread(self):
        spec = synthesize(library.epidemic())
        engine = RoundEngine(spec, n=100, initial={"x": 100, "y": 0}, seed=4)
        engine.run(periods=10)
        assert engine.counts()["y"] == 0

    def test_self_sampling_excluded(self):
        # A single infective among n=2: the susceptible must find it.
        spec = synthesize(library.epidemic())
        engine = RoundEngine(spec, n=2, initial={"x": 1, "y": 1}, seed=0)
        engine.step()
        assert engine.counts() == {"x": 0, "y": 2}

    def test_crashed_targets_fail_contact(self):
        spec = synthesize(library.epidemic())
        engine = RoundEngine(spec, n=100, initial={"x": 50, "y": 50}, seed=5)
        engine.crash(engine.members_in("y"))
        engine.step()
        # All infectives crashed: no contact can succeed.
        assert engine.counts()["y"] == 0
        assert engine.counts()["x"] == 50

    def test_connection_failures_slow_spread(self):
        spec = synthesize(library.epidemic())
        runs = {}
        for f in (0.0, 0.8):
            engine = RoundEngine(
                spec, n=2000, initial={"x": 1900, "y": 100}, seed=6,
                connection_failure_rate=f,
            )
            engine.step()
            runs[f] = engine.last_transitions.get(("x", "y"), 0)
        assert runs[0.8] < runs[0.0] * 0.5


class TestPushAndAnyOf:
    def test_push_converts_targets(self):
        spec = ProtocolSpec(
            name="push", states=("x", "y"),
            actions=(PushAction("y", 1.0, "y", match_state="x", fanout=2),),
        )
        engine = RoundEngine(spec, n=1000, initial={"x": 900, "y": 100}, seed=7)
        transitions = engine.step()
        # ~100 pushers x 2 contacts x 0.9 hit rate, minus collisions.
        assert transitions[("x", "y")] == pytest.approx(180, rel=0.25)

    def test_anyof_fires_on_any_match(self, fig2_params):
        spec = figure1_protocol(fig2_params)
        engine = RoundEngine(spec, n=1000, initial={"x": 500, "y": 500}, seed=8)
        transitions = engine.step()
        # Pull: each receptive samples b=2 of a half-stash population:
        # hit probability 1 - 0.5^2 = 0.75.
        assert transitions[("x", "y")] >= 300

    def test_endemic_figure1_reaches_equilibrium(self, fig8_params):
        spec = figure1_protocol(fig8_params)
        engine = RoundEngine(
            spec, n=1000, initial={"x": 999, "y": 1, "z": 0}, seed=9
        )
        engine.run(periods=800)
        expected = fig8_params.equilibrium_counts(1000)
        counts = engine.counts()
        assert counts["y"] == pytest.approx(expected["y"], rel=0.35)
        assert counts["x"] == pytest.approx(expected["x"], rel=0.35)


class TestTokenize:
    def make_token_spec(self, ttl=None):
        # w fires a token each period; a process in z moves to u.
        return ProtocolSpec(
            name="token", states=("w", "z", "u"),
            actions=(
                TokenizeAction(
                    actor_state="w", probability=1.0, target_state="u",
                    required_states=(), token_state="z", ttl=ttl,
                ),
            ),
        )

    def test_oracle_moves_one_per_token(self):
        engine = RoundEngine(
            self.make_token_spec(), n=100,
            initial={"w": 10, "z": 80, "u": 10}, seed=10,
        )
        transitions = engine.step()
        assert transitions[("z", "u")] == 10

    def test_tokens_dropped_when_no_targets(self):
        engine = RoundEngine(
            self.make_token_spec(), n=100,
            initial={"w": 10, "z": 0, "u": 90}, seed=10,
        )
        transitions = engine.step()
        assert transitions == {}

    def test_excess_tokens_dropped(self):
        engine = RoundEngine(
            self.make_token_spec(), n=100,
            initial={"w": 50, "z": 5, "u": 45}, seed=10,
        )
        transitions = engine.step()
        assert transitions[("z", "u")] == 5

    def test_ttl_reduces_delivery(self):
        oracle = RoundEngine(
            self.make_token_spec(), n=1000,
            initial={"w": 200, "z": 100, "u": 700}, seed=11,
        )
        walk = RoundEngine(
            self.make_token_spec(ttl=1), n=1000,
            initial={"w": 200, "z": 100, "u": 700}, seed=11,
        )
        oracle_moves = oracle.step().get(("z", "u"), 0)
        walk_moves = walk.step().get(("z", "u"), 0)
        assert walk_moves < oracle_moves


class TestFaultInjection:
    def test_crash_and_recover(self):
        engine = RoundEngine(flip_spec(), n=100, initial={"a": 100}, seed=12)
        engine.crash(np.arange(30))
        assert engine.alive_count() == 70
        engine.recover(np.arange(30))
        assert engine.alive_count() == 100
        # Recovered hosts land in the first (recovery) state.
        assert engine.counts()["a"] == pytest.approx(100, abs=30)

    def test_crash_fraction(self):
        engine = RoundEngine(flip_spec(), n=1000, initial={"a": 1000}, seed=13)
        victims = engine.crash_fraction(0.25)
        assert len(victims) == 250
        assert engine.alive_count() == 750

    def test_recovery_state_override(self):
        engine = RoundEngine(flip_spec(), n=10, initial={"a": 10}, seed=14)
        engine.crash(np.array([0]))
        engine.recover(np.array([0]), state="b")
        assert engine.counts()["b"] == 1

    def test_set_states(self):
        engine = RoundEngine(flip_spec(), n=10, initial={"a": 10}, seed=15)
        engine.set_states(np.array([0, 1]), "b")
        assert engine.counts()["b"] == 2


class TestCounting:
    """One idiom for every count; ``bincount`` through the mask is the
    reference it replaced (``step`` took its period-start counts so)."""

    def reference(self, engine):
        per_state = np.bincount(
            engine.states[engine.alive], minlength=len(engine.state_names)
        )
        return dict(zip(engine.state_names, per_state.tolist()))

    def test_counts_equal_bincount_through_the_mask(self, fig8_params):
        spec = figure1_protocol(fig8_params)
        engine = RoundEngine(
            spec, n=400, initial={"x": 300, "y": 60, "z": 40}, seed=21
        )
        for crashed in (0, 1, 137, 400):
            engine.alive[:] = True
            engine.crash(np.arange(crashed))
            for _ in range(3):
                counts = engine.counts()
                assert counts == self.reference(engine)
                assert all(type(c) is int for c in counts.values())
                alive = engine.alive_count()
                assert type(alive) is int and alive == 400 - crashed
                assert sum(counts.values()) == alive
                engine.step()

    def test_step_counts_privately(self, monkeypatch):
        # The live service counts calls of the two public counters
        # (one recount per tick); a period must not add to them.
        def forbidden(engine):
            raise AssertionError("step() called a public counter")

        engine = RoundEngine(flip_spec(), n=100, initial={"a": 100}, seed=22)
        engine.crash(np.arange(10))
        monkeypatch.setattr(RoundEngine, "counts", forbidden)
        monkeypatch.setattr(RoundEngine, "alive_count", forbidden)
        assert engine.step()[("a", "b")] > 0


class TestRunLoop:
    def test_run_records_series(self):
        engine = RoundEngine(flip_spec(0.1), n=100, initial={"a": 100}, seed=16)
        result = engine.run(periods=10)
        assert len(result.recorder.times) == 11  # initial + 10
        assert result.recorder.counts("a")[0, 0] == 100

    def test_hooks_called_each_period(self):
        engine = RoundEngine(flip_spec(0.0), n=10, initial={"a": 10}, seed=17)
        calls = []
        engine.run(periods=5, hooks=[lambda e: calls.append(e.period)])
        assert calls == [0, 1, 2, 3, 4]

    def test_elapsed_time_uses_normalizer(self):
        spec = synthesize(library.endemic(alpha=0.01, gamma=1.0, b=2))
        engine = RoundEngine(spec, n=100, initial={"x": 100}, seed=18)
        engine.run(periods=8)
        assert engine.elapsed_time() == pytest.approx(2.0)

    def test_message_accounting(self):
        spec = synthesize(library.epidemic())
        engine = RoundEngine(spec, n=100, initial={"x": 90, "y": 10}, seed=19)
        engine.step()
        assert engine.total_messages == 90  # every susceptible samples once
