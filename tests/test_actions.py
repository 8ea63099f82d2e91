"""Tests for protocol actions (repro.synthesis.actions)."""

import math

import pytest

from repro.analysis.mean_field import discrete_mean_field
from repro.synthesis import ProtocolSpec
from repro.synthesis.actions import (
    AnyOfSampleAction,
    FlipAction,
    PushAction,
    SampleAction,
    TokenizeAction,
    transition_edges,
)


class TestValidation:
    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            FlipAction("x", 1.5, "y")
        with pytest.raises(ValueError):
            FlipAction("x", -0.1, "y")

    def test_anyof_requires_match_state(self):
        with pytest.raises(ValueError):
            AnyOfSampleAction("x", 0.5, "y", match_state="", fanout=2)

    def test_anyof_fanout_positive(self):
        with pytest.raises(ValueError):
            AnyOfSampleAction("x", 0.5, "y", match_state="y", fanout=0)

    def test_push_fanout_positive(self):
        with pytest.raises(ValueError):
            PushAction("y", 0.5, "y", match_state="x", fanout=0)

    def test_tokenize_requires_token_state(self):
        with pytest.raises(ValueError):
            TokenizeAction("w", 0.5, "u", token_state="")

    def test_tokenize_ttl_positive_or_none(self):
        with pytest.raises(ValueError):
            TokenizeAction("w", 0.5, "u", token_state="z", ttl=0)
        TokenizeAction("w", 0.5, "u", token_state="z", ttl=None)


def movers(action, fractions):
    """The round map's movers of ``action`` alone at ``fractions``: one
    period's loss of its source state."""
    spec = ProtocolSpec(
        name="one-action", states=tuple(fractions), actions=(action,)
    )
    series = discrete_mean_field(spec, fractions, periods=1)
    (source, _), = transition_edges(action)
    return series[source][0] - series[source][1]


class TestRoundMapMovers:
    def test_flip_rate(self):
        action = FlipAction("x", 0.25, "y")
        assert movers(action, {"x": 0.4, "y": 0.6}) == pytest.approx(0.1)

    def test_sample_rate_multiplies_required(self):
        action = SampleAction(
            "x", 0.5, "y", required_states=("x", "y", "y")
        )
        rate = movers(action, {"x": 0.5, "y": 0.2})
        assert rate == pytest.approx(0.5 * 0.5 * 0.5 * 0.2 * 0.2)

    def test_anyof_rate_small_match(self):
        action = AnyOfSampleAction("x", 1.0, "y", match_state="y", fanout=2)
        # 1 - (1-y)^2 with y = 0.01: ~ 2y.
        rate = movers(action, {"x": 1.0, "y": 0.01})
        assert rate == pytest.approx(1 - 0.99**2)

    def test_push_rate_distinct_targets(self):
        # 3y contacts per receptive host land Poisson: x (1 - e^-3y),
        # not the first-order 3xy = 0.06.
        action = PushAction("y", 1.0, "y", match_state="x", fanout=3)
        assert movers(action, {"x": 0.2, "y": 0.1}) == pytest.approx(
            0.2 * (1 - math.exp(-0.3))
        )

    def test_tokenize_oracle_rate(self):
        action = TokenizeAction(
            "w", 0.5, "u", required_states=(), token_state="z"
        )
        assert movers(action, {"w": 0.4, "z": 0.2, "u": 0.4}) == pytest.approx(
            0.2
        )

    def test_tokenize_ttl_discount(self):
        oracle = TokenizeAction("w", 0.5, "u", token_state="z", ttl=None)
        walk = TokenizeAction("w", 0.5, "u", token_state="z", ttl=2)
        fractions = {"w": 0.4, "z": 0.3, "u": 0.3}
        assert movers(walk, fractions) < movers(oracle, fractions)
        assert movers(walk, fractions) == pytest.approx(
            movers(oracle, fractions) * (1 - 0.7**2)
        )


class TestMessageCounts:
    def test_flip_sends_nothing(self):
        assert FlipAction("x", 0.5, "y").messages_per_period == 0

    def test_sample_counts_required(self):
        action = SampleAction("x", 0.5, "y", required_states=("y", "y"))
        assert action.messages_per_period == 2

    def test_fanout_actions_count_fanout(self):
        assert AnyOfSampleAction(
            "x", 1.0, "y", match_state="y", fanout=4
        ).messages_per_period == 4
        assert PushAction(
            "y", 1.0, "y", match_state="x", fanout=4
        ).messages_per_period == 4


class TestEdges:
    def test_self_moving_edge(self):
        action = FlipAction("x", 0.5, "y")
        assert transition_edges(action) == (("x", "y"),)

    def test_push_edge_moves_target(self):
        action = PushAction("y", 1.0, "y", match_state="x", fanout=1)
        assert transition_edges(action) == (("x", "y"),)

    def test_tokenize_edge_moves_token_state(self):
        action = TokenizeAction("w", 0.5, "u", token_state="z")
        assert transition_edges(action) == (("z", "u"),)


class TestDescriptions:
    def test_describe_nonempty(self):
        actions = [
            FlipAction("x", 0.5, "y"),
            SampleAction("x", 0.5, "y", required_states=("y",)),
            AnyOfSampleAction("x", 1.0, "y", match_state="y", fanout=2),
            PushAction("y", 1.0, "y", match_state="x", fanout=2),
            TokenizeAction("w", 0.5, "u", token_state="z", ttl=3),
        ]
        for action in actions:
            text = action.describe()
            assert action.actor_state in text
            assert text
