"""The census is the state: contract and laws of the count-only batch engine.

``BatchRoundEngine`` advances an ``(M, S)`` census with count laws and
places hosts under it only when something asks *which* hosts.  Three
things are pinned here:

1. **Observation cannot perturb the census** -- bitwise, for every
   registry protocol and the token spec.
2. **The laws that replaced identity bookkeeping** -- the distinct-bin
   push law, the hypergeometric collision, the token cap -- against
   closed forms and the serial engine (z-tests per ``statutil``).
3. **Laziness, by observation** (as ``test_import_contract`` does for
   imports): which runs ever build an ``(M, N)`` array, and when.
"""

import numpy as np
import pytest

from statutil import assert_mean_close, assert_means_agree

from test_batch_engine import token_spec
from test_planner import push_spec

from repro.campaign import CampaignPoint, run_point
from repro.campaign.registry import available_protocols
from repro.experiment import Experiment, Protocol
from repro.protocols.endemic import EndemicParams, figure1_protocol
from repro.protocols.lv import LVEnsemble
from repro.runtime import BatchRoundEngine, RoundEngine
from repro.runtime.failures import MassiveFailure
from repro.synthesis import (
    FlipAction,
    ProtocolSpec,
    PushAction,
    TokenizeAction,
)


def cases():
    """name -> (spec, n, initial) for every registry protocol + tokens."""
    out = {}
    for name in available_protocols():
        resolved = Protocol.named(name).resolve(600)
        out[name] = (resolved.spec, 600, resolved.initial)
    out["token"] = (token_spec(), 300, {"x": 150, "y": 75, "z": 75})
    return out


CASES = cases()
PERIODS, READ_AT = 40, 13


# ----------------------------------------------------------------------
# 1. Observation cannot perturb the census
# ----------------------------------------------------------------------
def run_observed(spec, n, initial, mode, hooks=()):
    """One seeded run; ``mode`` says when (if ever) hosts are read.

    Once hosts exist, the census is cross-checked against them before
    every period and after the last.
    """
    engine = BatchRoundEngine(spec, n=n, trials=5, initial=initial, seed=77)
    if mode == "before":
        assert engine.states.shape == (5, n)
    validated = []

    def reader(trial):
        def hook(view):
            if mode == "mid" and view.period == READ_AT:
                assert view.alive.shape == (n,)
            if trial == 0 and engine._pools is not None:
                engine._validate_consistency()
                validated.append(view.period)
        return hook

    recorder = engine.run(PERIODS, hook_factories=[reader, *hooks]).recorder
    if engine._pools is not None:
        engine._validate_consistency()
    return engine, recorder, len(validated)


class TestObservationCannotPerturbTheCensus:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_counts_transitions_messages_are_bitwise_equal(self, name):
        spec, n, initial = CASES[name]
        never, reference, validated = run_observed(spec, n, initial, "never")
        assert validated == 0 and never._states_arr is None
        edges = reference.edges_seen()
        assert edges, "the case must move somebody"
        for mode, expected in (
            ("before", PERIODS), ("mid", PERIODS - READ_AT),
        ):
            engine, recorder, validated = run_observed(spec, n, initial, mode)
            assert validated == expected
            assert np.array_equal(
                recorder.count_tensor(), reference.count_tensor()
            )
            assert recorder.edges_seen() == edges
            for edge in edges:
                assert np.array_equal(
                    recorder.transition_tensor(edge),
                    reference.transition_tensor(edge),
                )
            assert np.array_equal(
                engine.total_messages, never.total_messages
            )

    def test_a_read_before_a_massive_failure_changes_nothing(self):
        """``crash_fraction`` draws how many of each state, then who."""
        spec, n, initial = CASES["endemic"]
        hooks = [lambda m: MassiveFailure(at_period=20, fraction=0.5)]
        tensors = [
            run_observed(spec, n, initial, mode, hooks)[1].count_tensor()
            for mode in ("never", "before", "mid")
        ]
        assert np.array_equal(tensors[0], tensors[1])
        assert np.array_equal(tensors[0], tensors[2])
        assert (tensors[0][:, -1].sum(axis=1) == n // 2).all()

    @pytest.mark.parametrize("name", ["endemic", "lv", "token"])
    def test_the_two_passes_agree_through_crash_and_recover(self, name):
        spec, n, initial = CASES[name]
        engine = BatchRoundEngine(
            spec, n=n, trials=4, initial=initial, seed=78,
            connection_failure_rate=0.1,
        )
        engine.run(5)
        assert engine._pools is None
        victims = [v.crash_fraction(0.4) for v in engine.trial_views()]
        engine._validate_consistency()
        for _ in range(5):
            engine.step()
            engine._validate_consistency()
        for view, dead in zip(engine.trial_views(), victims):
            view.recover(dead[::2])
        for _ in range(5):
            engine.step()
            engine._validate_consistency()
        assert (engine.alive_counts() == n - len(victims[0]) // 2).all()


# ----------------------------------------------------------------------
# 2. The laws
# ----------------------------------------------------------------------
class TestDistinctTargetLaw:
    def test_occupancy_mean_and_variance(self):
        """K balls into c bins: D has the occupancy closed forms.

        One actor with ``fanout = K`` facing ``c = n - 1`` match
        members: every contact hits (``q = 1``), so the converted
        count is exactly the number of distinct bins.
        """
        c, balls, trials = 60, 45, 4000
        engine = BatchRoundEngine(
            push_spec(probability=1.0, fanout=balls), n=c + 1,
            trials=trials, initial={"a": 1, "m": c}, seed=81,
        )
        distinct = engine.step()[("m", "t")]
        assert engine._pools is None
        miss = (1.0 - 1.0 / c) ** balls
        mean = c * (1.0 - miss)
        variance = (
            c * (c - 1) * (1.0 - 2.0 / c) ** balls + c * miss
            - (c * miss) ** 2
        )
        assert_mean_close(
            distinct, mean, comparisons=2, context="occupancy mean"
        )
        assert_mean_close(
            (distinct - mean) ** 2, variance, comparisons=2,
            context="occupancy variance",
        )
        assert np.array_equal(
            engine.total_messages, np.full(trials, balls)
        )

    def test_self_match_push_agrees_with_the_serial_engine(self):
        """The one push whose contacts are drawn one by one."""
        spec = ProtocolSpec(
            name="self-push", states=("a", "t"),
            actions=(PushAction(
                actor_state="a", probability=1.0, target_state="t",
                match_state="a", fanout=1,
            ),),
        )
        n, initial, trials = 40, {"a": 12, "t": 28}, 3000
        batch = BatchRoundEngine(
            spec, n=n, trials=trials, initial=initial, seed=82
        ).step()[("a", "t")]
        serial = [
            RoundEngine(spec, n=n, initial=initial, seed=s).step()
            .get(("a", "t"), 0) for s in range(trials)
        ]
        assert_means_agree(batch, serial, context="self-push conversions")


class TestHypergeometricCollision:
    """Endemic: the anyof and the push both take hosts out of ``x``."""

    PARAMS = EndemicParams(alpha=0.01, gamma=0.1, b=2)
    N, INITIAL, TRIALS = 200, {"x": 80, "y": 100, "z": 20}, 3000

    def one_period(self):
        spec = figure1_protocol(self.PARAMS)
        batch = BatchRoundEngine(
            spec, n=self.N, trials=self.TRIALS, initial=self.INITIAL,
            seed=83,
        )
        moved = batch.step()[("x", "y")]
        assert batch._pools is None
        serial_moved, serial_messages = [], []
        for seed in range(self.TRIALS):
            engine = RoundEngine(
                spec, n=self.N, initial=self.INITIAL, seed=seed
            )
            serial_moved.append(engine.step().get(("x", "y"), 0))
            serial_messages.append(engine.total_messages)
        return batch, moved, np.array(serial_moved), serial_messages

    def test_one_period_movers_match_the_serial_engine(self):
        batch, moved, serial, messages = self.one_period()
        # Without the at-most-one-move rule the two actions would move
        # ~60 + ~52 hosts; the overlap is a fifth of that.
        assert moved.mean() < 100
        assert_means_agree(
            moved, serial, comparisons=2, context="x->y movers"
        )
        pooled = np.concatenate([moved, serial]).mean()
        assert_means_agree(
            (moved - pooled) ** 2, (serial - pooled) ** 2, comparisons=2,
            context="x->y mover variance",
        )
        # Messages are untouched by any of it: every x pulls twice and
        # every y pushes twice, in both engines.
        assert set(messages) == {2 * 80 + 2 * 100}
        assert np.array_equal(
            batch.total_messages, np.full(self.TRIALS, 2 * 80 + 2 * 100)
        )


class TestTokenCap:
    def test_delivery_is_capped_by_the_unmoved_pool(self):
        """Tokens route to token-state members that have not moved."""
        spec = ProtocolSpec(
            name="capped", states=("w", "z", "u", "v"),
            actions=(
                FlipAction(actor_state="z", probability=0.5,
                           target_state="v"),
                TokenizeAction(
                    actor_state="w", probability=1.0, target_state="u",
                    required_states=(), token_state="z", ttl=None,
                ),
            ),
        )
        engine = BatchRoundEngine(
            spec, n=100, trials=200, initial={"w": 50, "z": 30, "u": 20},
            seed=84,
        )
        transitions = engine.step()
        flipped = transitions[("z", "v")]
        assert 0 < flipped.min() < flipped.max() < 30
        # 50 tokens, 30 - flipped members left to take them.
        assert np.array_equal(transitions[("z", "u")], 30 - flipped)
        assert not engine.counts("z").any()
        engine._validate_consistency()


# ----------------------------------------------------------------------
# 3. Laziness, by observation
# ----------------------------------------------------------------------
@pytest.fixture
def engines(monkeypatch):
    """Every engine built in the test: ``[engine, period placed or None]``."""
    seen = []
    init, place = BatchRoundEngine.__init__, BatchRoundEngine._materialise

    def recording_init(self, *args, **kwargs):
        seen.append([self, None])
        init(self, *args, **kwargs)

    def recording_place(self):
        next(entry for entry in seen if entry[0] is self)[1] = self.period
        place(self)

    monkeypatch.setattr(BatchRoundEngine, "__init__", recording_init)
    monkeypatch.setattr(BatchRoundEngine, "_materialise", recording_place)
    return seen


def holds_no_identities(engine) -> bool:
    return (
        engine._states_arr is None and engine._alive_arr is None
        and engine._pools is None
    )


class TestIdentitiesOnDemand:
    def test_experiment_run_is_count_only(self, engines):
        result = Experiment("endemic", n=2000, trials=4, periods=30,
                            seed=91).run()
        assert result.recorder.count_tensor().shape == (4, 31, 3)
        ((engine, placed),) = engines
        assert placed is None and holds_no_identities(engine)

    def test_lv_ensemble_is_count_only(self, engines):
        ensemble = LVEnsemble(1000, zeros=600, ones=400, trials=6, seed=92)
        assert ensemble.run(3000).accuracy() == 1.0
        assert engines[0][1] is None
        assert holds_no_identities(ensemble.engine)

    def point(self, scenario):
        return CampaignPoint(
            protocol="endemic", n=500, loss_rate=0.0, scenario=scenario,
            trials=4, periods=20, seed=93,
        )

    def test_campaign_point_without_faults_is_count_only(self, engines):
        """The scenario factory is passed, but its hooks ask nothing."""
        run_point(self.point("none"))
        ((engine, placed),) = engines
        assert placed is None and holds_no_identities(engine)

    def test_massive_failure_places_hosts_at_its_period(self, engines):
        run_point(self.point("massive-failure"))
        ((engine, placed),) = engines
        assert placed == 10 and not holds_no_identities(engine)
        engine._validate_consistency()

    def test_member_log_places_hosts_at_period_zero(self, engines):
        result = Experiment(
            "endemic", n=500, trials=3, periods=10, seed=94,
            member_log_state="y",
        ).run()
        assert len(result.recorder.member_log) == 11
        assert engines[0][1] == 0

    def test_unshuffled_start_places_hosts_at_construction(self, engines):
        spec, n, initial = CASES["lv"]
        engine = BatchRoundEngine(
            spec, n=n, trials=2, initial=initial, seed=95, shuffle=False
        )
        assert engines[0][1] == 0 and not holds_no_identities(engine)
        assert (np.diff(engine.states, axis=1) >= 0).all()

    def test_census_reads_do_not_place_hosts(self, engines):
        spec, n, initial = CASES["endemic"]
        engine = BatchRoundEngine(spec, n=n, trials=3, initial=initial, seed=96)
        seen = []

        def watcher(trial):
            def hook(view):
                seen.append((view.period, view.counts(), view.alive_count()))
            return hook

        engine.run(5, hook_factories=[watcher])
        engine.counts("x"), engine.counts_matrix(), engine.mean_counts()
        assert len(seen) == 15 and seen[-1][2] == n
        assert sum(seen[-1][1].values()) == n
        assert holds_no_identities(engine)
