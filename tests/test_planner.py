"""Tests for the fused multinomial action planner (repro.runtime.planner).

The planner's contract is distributional: per-action marginals must
match the serial engine's independent-coin law -- ``Binomial(count,
p)`` actors for unconditioned flips, ``Binomial(count, p * q)`` movers
for condition-thinned kinds (``q`` the exact peer-match probability) --
while actors of one state fire at most one action per period (the
multinomial split).  All stochastic assertions are z-tests per
``tests/statutil.py``.
"""

import numpy as np
import pytest

from statutil import assert_binomial_count, assert_binomial_law

from repro.campaign.registry import available_protocols
from repro.experiment import Protocol
from repro.odes.system import build_system
from repro.protocols.lv import lv_protocol
from repro.runtime import BatchRoundEngine, RoundEngine
from repro.runtime.planner import TrialMemberPools
from repro.runtime.failures import MassiveFailure
from repro.runtime.planner import ActionPlanner, CensusError, census_refusal
from repro.runtime.round_engine import _compile
from repro.runtime.sampling import distinct_per_segment
from repro.synthesis.actions import (
    AnyOfSampleAction,
    FlipAction,
    PushAction,
    SampleAction,
    TokenizeAction,
)
from repro.synthesis import synthesize
from repro.synthesis.protocol import ProtocolSpec


def flip_spec(probabilities=(0.1, 0.2, 0.3)):
    """One state with several unconditioned flips to distinct targets."""
    states = ["a"] + [f"t{i}" for i in range(len(probabilities))]
    actions = [
        FlipAction(
            actor_state="a", probability=p, target_state=f"t{i}"
        )
        for i, p in enumerate(probabilities)
    ]
    return ProtocolSpec(
        name="flip-split", states=tuple(states), actions=tuple(actions),
    )


def reset_all(engine, counts):
    """Force every trial's census back to a per-state layout of ``n``,
    scaled down to the trial's alive hosts (the rest to the first)."""
    layout = np.zeros(len(engine.state_names), dtype=np.int64)
    for state, count in counts:
        layout[engine.state_id(state)] = count
    alive = engine.alive_counts()
    engine._counts[:] = layout * alive[:, None] // engine.n
    engine._counts[:, engine.state_id(counts[0][0])] += (
        alive - engine._counts.sum(axis=1)
    )


class TestMultinomialSplit:
    def test_marginals_match_per_action_binomials(self):
        """Each flip's movers are Binomial(count, p) marginally."""
        probabilities = (0.1, 0.2, 0.3)
        spec = flip_spec(probabilities)
        n, trials, periods = 1_000, 4, 150
        engine = BatchRoundEngine(
            spec, n=n, trials=trials, initial={"a": n}, seed=11
        )
        totals = np.zeros(len(probabilities))
        layout = [("a", n)]
        for _ in range(periods):
            reset_all(engine, layout)
            transitions = engine.step()
            for i in range(len(probabilities)):
                edge = ("a", f"t{i}")
                if edge in transitions:
                    totals[i] += transitions[edge].sum()
        draws = n * trials * periods
        for i, p in enumerate(probabilities):
            assert_binomial_count(
                totals[i], draws, p,
                comparisons=len(probabilities),
                context=f"flip {i} marginal",
            )

    def test_split_is_exclusive(self):
        """Movers of one period never exceed the state's occupancy."""
        spec = flip_spec((0.4, 0.4))
        n, trials = 500, 3
        engine = BatchRoundEngine(
            spec, n=n, trials=trials, initial={"a": n}, seed=5
        )
        for _ in range(30):
            reset_all(engine, [("a", n)])
            transitions = engine.step()
            per_trial = sum(transitions.values())
            assert np.all(per_trial <= n)

    def test_one_multinomial_never_draws_a_collision(self):
        """A coin group's own picks are disjoint: no overlap to draw.

        The collision law excludes a multinomial's own earlier picks
        from its population, so protocols whose movers are all actors
        (flips, LV) never reach the hypergeometric -- the successor of
        the old ``disjoint_movers`` flag, now a property of the law.
        """
        class Spy:
            def __init__(self, rng):
                self.rng, self.collisions = rng, 0

            def __getattr__(self, name):
                return getattr(self.rng, name)

            def hypergeometric(self, *args):
                self.collisions += 1
                return self.rng.hypergeometric(*args)

        for spec, initial in (
            (flip_spec((0.4, 0.4)), {"a": 100}),
            (lv_protocol(p=0.1), {"x": 40, "y": 30, "z": 30}),
        ):
            engine = BatchRoundEngine(
                spec, n=100, trials=2, initial=initial, seed=0
            )
            engine._rng = spy = Spy(engine._rng)
            engine.run(20)
            assert spy.collisions == 0


class TestConditionThinning:
    def test_lv_mover_marginals_match_analytic_law(self):
        """Batch x->z movers are Binomial(c_x, 3p * c_y/(n-1))."""
        n, trials, periods = 2_000, 4, 120
        zeros, ones = 1_200, 800
        spec = lv_protocol(p=0.01)
        engine = BatchRoundEngine(
            spec, n=n, trials=trials,
            initial={"x": zeros, "y": ones, "z": 0}, seed=21,
        )
        total = 0
        layout = [("x", zeros), ("y", ones), ("z", 0)]
        for _ in range(periods):
            reset_all(engine, layout)
            transitions = engine.step()
            total += int(transitions.get(("x", "z"),
                                         np.zeros(trials)).sum())
        q = ones / (n - 1)
        assert_binomial_count(
            total, zeros * trials * periods, 0.03 * q,
            context="thinned x->z movers",
        )

    def test_serial_engine_shares_the_same_law(self):
        """The analytic law is the serial engine's, not a new one."""
        n, periods = 2_000, 250
        zeros, ones = 1_200, 800
        spec = lv_protocol(p=0.01)
        engine = RoundEngine(
            spec, n=n, initial={"x": zeros, "y": ones, "z": 0}, seed=22
        )
        hosts = np.arange(n)
        total = 0
        for _ in range(periods):
            engine.set_states(hosts[:zeros], "x")
            engine.set_states(hosts[zeros:], "y")
            transitions = engine.step()
            total += transitions.get(("x", "z"), 0)
        q = ones / (n - 1)
        assert_binomial_count(
            total, zeros * periods, 0.03 * q,
            context="serial x->z movers",
        )

    def test_loss_rate_folds_into_thinning(self):
        """A lossy network scales the mover law by (1 - f)."""
        n, trials, periods = 2_000, 4, 150
        zeros, ones = 1_200, 800
        loss = 0.5
        spec = lv_protocol(p=0.01)
        engine = BatchRoundEngine(
            spec, n=n, trials=trials,
            initial={"x": zeros, "y": ones, "z": 0}, seed=23,
            connection_failure_rate=loss,
        )
        total = 0
        layout = [("x", zeros), ("y", ones), ("z", 0)]
        for _ in range(periods):
            reset_all(engine, layout)
            transitions = engine.step()
            total += int(transitions.get(("x", "z"),
                                         np.zeros(trials)).sum())
        q = (1.0 - loss) * ones / (n - 1)
        assert_binomial_count(
            total, zeros * trials * periods, 0.03 * q,
            context="lossy thinned x->z movers",
        )

    def test_empty_condition_state_short_circuits(self):
        """Trials whose condition state is extinct produce no movers."""
        spec = lv_protocol(p=0.01)
        n, trials = 400, 3
        engine = BatchRoundEngine(
            spec, n=n, trials=trials, initial={"x": n, "y": 0, "z": 0},
            seed=7,
        )
        for _ in range(20):
            assert engine.step() == {}
        assert np.array_equal(engine.counts("x"), np.full(trials, n))

    def test_messages_charge_unthinned_heads(self):
        """Senders pay for contacts even when nobody can convert."""
        spec = lv_protocol(p=0.01)
        n, trials, periods = 1_000, 4, 200
        engine = BatchRoundEngine(
            spec, n=n, trials=trials, initial={"x": n, "y": 0, "z": 0},
            seed=8,
        )
        for _ in range(periods):
            engine.step()
        # Every x actor flips a 3% coin and samples one peer on heads.
        total = int(np.asarray(engine.total_messages).sum())
        assert_binomial_count(
            total, n * trials * periods, 0.03,
            context="messages from unfireable trials",
        )


class TestTrialMemberPools:
    def make(self, trials=3, n=50, seed=0):
        rng = np.random.Generator(np.random.MT19937(seed))
        states = rng.integers(0, 3, size=trials * n).astype(np.int8)
        pools = TrialMemberPools([0, 1, 2], trials, n, states)
        return pools, states, rng

    def check(self, pools, states, trials=3, n=50):
        for sid in (0, 1, 2):
            grouped, bounds = pools.grouped(sid)
            expected = np.flatnonzero(states == sid)
            assert np.array_equal(np.sort(grouped), expected)
            for trial in range(trials):
                members = grouped[bounds[trial]:bounds[trial + 1]]
                inside = expected[(expected >= trial * n)
                                  & (expected < (trial + 1) * n)]
                assert np.array_equal(np.sort(members), inside)

    def test_build_matches_scan(self):
        pools, states, _ = self.make()
        self.check(pools, states)

    def test_remove_add_roundtrip(self):
        pools, states, rng = self.make()
        for step in range(30):
            sid = int(rng.integers(0, 3))
            members = np.flatnonzero(states == sid)
            if members.size == 0:
                continue
            count = int(rng.integers(1, min(6, members.size) + 1))
            gone = rng.choice(members, size=count, replace=False)
            target = (sid + 1) % 3
            pools.remove_many([(sid, [np.sort(gone)])])
            pools.add_many([(target, [np.sort(gone)])])
            states[gone] = target
            self.check(pools, states)

    def test_bulk_deltas_match_singles(self):
        pools, states, rng = self.make(seed=4)
        movers0 = np.sort(rng.choice(
            np.flatnonzero(states == 0), size=8, replace=False
        ))
        movers1 = np.sort(rng.choice(
            np.flatnonzero(states == 1), size=6, replace=False
        ))
        pools.remove_many([(0, [movers0]), (1, [movers1])])
        pools.add_many([(1, [movers0]), (2, [movers1])])
        states[movers0] = 1
        states[movers1] = 2
        self.check(pools, states)

    def test_tiny_deltas_use_scalar_path(self):
        pools, states, rng = self.make(seed=5)
        mover = np.flatnonzero(states == 0)[:1]
        pools.remove_many([(0, [mover])])
        pools.add_many([(2, [mover])])
        states[mover] = 2
        self.check(pools, states)

    def test_grouped_cache_invalidation(self):
        # grouped() gathers afresh on every call: nothing to go stale.
        pools, states, _ = self.make(seed=6)
        before, _ = pools.grouped(0)
        mover = np.flatnonzero(states == 0)[:1]
        pools.remove_many([(0, [mover])])
        states[mover] = 1
        pools.add_many([(1, [mover])])
        after, _ = pools.grouped(0)
        assert after.size == before.size - 1
        self.check(pools, states)


def push_spec(probability=1.0, fanout=2, match_state="m", extra=()):
    """One push action from actor state ``a`` converting ``m`` -> ``t``."""
    actions = (
        PushAction(
            actor_state="a", probability=probability, target_state="t",
            match_state=match_state, fanout=fanout,
        ),
    ) + tuple(extra)
    return ProtocolSpec(
        name="push-law", states=("a", "m", "t"), actions=actions,
    )


class TestAnalyticPushLaw:
    """The batched push conversion law (movers are *targets*).

    Each firing actor's ``fanout`` contacts are iid uniform non-self
    peers, so with the match state disjoint from the actor state a
    match member is converted with probability
    ``1 - (1 - (1 - f)/(n - 1))**contacts`` -- the serial engine's own
    law.  The batch planner must reproduce it without drawing per-actor
    targets.
    """

    def expected_conversions(self, contacts, c_match, n, f=0.0):
        per_contact = (1.0 - f) / (n - 1)
        return c_match * (1.0 - (1.0 - per_contact) ** contacts)

    def accumulate(self, engine, layout, periods, edge=("m", "t")):
        total = 0
        for _ in range(periods):
            reset_all(engine, layout)
            transitions = engine.step()
            count = transitions.get(edge, 0)
            total += int(np.sum(count))
        return total

    def test_full_push_matches_analytic_mean(self):
        """probability >= 1: every actor fires, conversions exact."""
        n, trials, periods = 1_000, 4, 120
        a, m = 300, 500
        spec = push_spec(probability=1.0, fanout=2)
        engine = BatchRoundEngine(
            spec, n=n, trials=trials,
            initial={"a": a, "m": m, "t": n - a - m}, seed=31,
        )
        layout = [("a", a), ("m", m), ("t", n - a - m)]
        total = self.accumulate(engine, layout, periods)
        expected = self.expected_conversions(a * 2, m, n)
        # Conversions of different members share contacts, so the count
        # is not exactly binomial; the dependence is O(contacts/n) and
        # well inside the z bound at these sizes.
        assert_binomial_count(
            total, trials * periods * m, expected / m,
            context="full-probability push conversions",
        )

    def test_serial_engine_shares_the_same_law(self):
        n, periods = 1_000, 400
        a, m = 300, 500
        spec = push_spec(probability=1.0, fanout=2)
        engine = RoundEngine(
            spec, n=n, initial={"a": a, "m": m, "t": n - a - m}, seed=32
        )
        hosts = np.arange(n)
        total = 0
        for _ in range(periods):
            engine.set_states(hosts[:a], "a")
            engine.set_states(hosts[a:a + m], "m")
            engine.set_states(hosts[a + m:], "t")
            total += engine.step().get(("m", "t"), 0)
        expected = self.expected_conversions(a * 2, m, n)
        assert_binomial_count(
            total, periods * m, expected / m,
            context="serial push conversions",
        )

    def test_loss_rate_folds_into_the_law(self):
        n, trials, periods = 1_000, 4, 120
        a, m = 300, 500
        spec = push_spec(probability=1.0, fanout=2)
        engine = BatchRoundEngine(
            spec, n=n, trials=trials,
            initial={"a": a, "m": m, "t": n - a - m}, seed=33,
            connection_failure_rate=0.4,
        )
        layout = [("a", a), ("m", m), ("t", n - a - m)]
        total = self.accumulate(engine, layout, periods)
        expected = self.expected_conversions(a * 2, m, n, f=0.4)
        assert_binomial_count(
            total, trials * periods * m, expected / m,
            context="lossy push conversions",
        )

    def test_coin_push_matches_compound_law(self):
        """0 < probability < 1: heads are multinomial-split actors."""
        n, trials, periods = 1_000, 4, 150
        a, m = 300, 500
        probability, fanout = 0.3, 2
        spec = push_spec(probability=probability, fanout=fanout)
        engine = BatchRoundEngine(
            spec, n=n, trials=trials,
            initial={"a": a, "m": m, "t": n - a - m}, seed=34,
        )
        compiled_kinds = [
            (g.sid, [x.kind for x in g.actions])
            for g in engine._planner.coin_groups
        ]
        assert compiled_kinds, "coin push must form a coin group"
        layout = [("a", a), ("m", m), ("t", n - a - m)]
        total = self.accumulate(engine, layout, periods)
        # E[conversions] = c_m * (1 - E[(1 - s)**(H*fanout)]) with
        # H ~ Binomial(a, p): the inner expectation is the binomial
        # generating function at (1 - s)**fanout.
        per_contact = 1.0 / (n - 1)
        miss = (1.0 - per_contact) ** fanout
        gen = (1.0 - probability + probability * miss) ** a
        expected = m * (1.0 - gen)
        assert_binomial_count(
            total, trials * periods * m, expected / m,
            context="coin push conversions",
        )

    def test_empty_match_state_draws_nothing(self):
        """A trial with no match members plans no push work at all."""
        n, trials = 400, 3
        spec = push_spec(probability=1.0, fanout=2)
        engine = BatchRoundEngine(
            spec, n=n, trials=trials, initial={"a": n}, seed=35
        )
        transitions = engine.step()
        assert ("m", "t") not in transitions
        # Messages still charge every actor's contacts.
        assert np.array_equal(
            engine.total_messages, np.full(trials, 2 * n, dtype=np.int64)
        )

    def test_serial_push_is_bit_identical_to_round_engine(self):
        """The analytic law is batch-only; the serial tier must not move."""
        from repro.experiment import Experiment, Protocol
        from repro.protocols.epidemic import push_protocol
        from repro.runtime import BatchMetricsRecorder, RoundEngine, spawn_seeds

        spec = push_protocol()
        initial = {"x": 380, "y": 20}
        seeds = spawn_seeds(38, 3)
        result = Experiment(
            Protocol.from_spec(spec, initial), 400, trials=3, periods=15,
            seed=38, engine="serial", check="off",
        ).run()
        assert result.trial_seeds == list(seeds)
        for m, trial_seed in enumerate(seeds):
            engine = RoundEngine(spec, n=400, initial=initial, seed=trial_seed)
            recorder = BatchMetricsRecorder(spec.states, 1)
            engine.run(15, recorder=recorder)
            for state in spec.states:
                assert np.array_equal(
                    result.counts(state)[m], recorder.counts(state)[0]
                )


class TestLazyPoolRows:
    def test_construction_allocates_only_occupied_states(self):
        trials, n = 3, 50
        states = np.zeros(trials * n, dtype=np.int8)  # everyone in 0
        pools = TrialMemberPools([0, 1, 2], trials, n, states)
        assert set(pools.slots) == {0}
        assert pools.tracked == frozenset({0, 1, 2})
        assert pools.pool.shape[0] >= 1

    def test_read_of_empty_state_allocates_empty_row(self):
        trials, n = 3, 50
        states = np.zeros(trials * n, dtype=np.int8)
        pools = TrialMemberPools([0, 1, 2], trials, n, states)
        grouped, bounds = pools.grouped(2)
        assert grouped.size == 0
        assert 2 in pools.slots
        assert np.array_equal(bounds, np.zeros(trials + 1, dtype=np.int64))

    def test_add_allocates_and_appends(self):
        trials, n = 3, 50
        states = np.zeros(trials * n, dtype=np.int8)
        pools = TrialMemberPools([0, 1, 2], trials, n, states)
        movers = np.array([3, 60, 110], dtype=np.int64)
        pools.remove_many([(0, [movers])])
        pools.add_many([(1, [movers])])
        states[movers] = 1
        assert 1 in pools.slots
        grouped, _ = pools.grouped(1)
        assert np.array_equal(np.sort(grouped), movers)

    def test_untracked_state_rejected(self):
        pools = TrialMemberPools([0], 2, 10, np.zeros(20, dtype=np.int8))
        with pytest.raises(KeyError, match="not tracked"):
            pools.slot(5)

    def test_growth_preserves_existing_rows(self):
        trials, n = 2, 40
        rng = np.random.Generator(np.random.MT19937(3))
        states = rng.integers(0, 2, size=trials * n).astype(np.int8)
        sids = list(range(6))
        pools = TrialMemberPools(sids, trials, n, states)
        before = {
            sid: np.sort(pools.grouped(sid)[0]).copy() for sid in (0, 1)
        }
        # Touch the empty states one by one, forcing repeated growth.
        for sid in (2, 3, 4, 5):
            assert pools.grouped(sid)[0].size == 0
        for sid in (0, 1):
            assert np.array_equal(np.sort(pools.grouped(sid)[0]), before[sid])


class TestPlannerStatics:
    def test_lv_groups(self):
        planner = ActionPlanner(_compile(lv_protocol()), trials=4, n=100)
        # x and y carry one coin action each, z two (the fused pair).
        widths = sorted(g.width for g in planner.coin_groups)
        assert widths == [1, 1, 2]
        assert planner._thinning

    def test_flip_protocol_skips_thinning(self):
        planner = ActionPlanner(_compile(flip_spec()), trials=4, n=100)
        assert not planner._thinning

    def test_sample_action_match_probability(self):
        spec = ProtocolSpec(
            name="pair", states=("a", "b"),
            actions=(
                SampleAction(
                    actor_state="a", probability=0.5, target_state="b",
                    required_states=("b",),
                ),
            ),
        )
        compiled = _compile(spec)
        planner = ActionPlanner(compiled, trials=2, n=101)
        counts0 = np.array([[60, 41], [101, 0]], dtype=np.int64)
        # The program keeps each conditioned action's q where the
        # thinning draw reads it; a census writes it from the counts.
        planner.census(
            np.random.default_rng(0), counts0, counts0.sum(axis=1)
        )
        (step,) = planner._steps
        q, _, _ = step.term
        assert q == pytest.approx([41 / 100, 0.0])


# ----------------------------------------------------------------------
# Probability-1 sample / anyof / tokenize: thinned by the count law
# ----------------------------------------------------------------------
#: name -> (spec, layout, mover edge, law); ``law(c, others, survive)``
#: maps a trial's alive counts by state name to ``(heads, q)``: movers
#: over one period are exactly ``Binomial(heads, q)``.  Shared with the
#: serial-trajectory comparisons in tests/test_batch_engine.py.
FULL_PROBABILITY_CASES = {
    "pull": (
        ProtocolSpec(
            name="full-pull", states=("x", "y"),
            actions=(SampleAction(
                probability=1.0, actor_state="x", target_state="y",
                required_states=("y",),
            ),),
        ),
        [("x", 950), ("y", 50)], ("x", "y"),
        lambda c, others, survive: (c["x"], survive * c["y"] / others),
    ),
    "self-required": (
        ProtocolSpec(
            name="full-self", states=("a", "t"),
            actions=(SampleAction(
                probability=1.0, actor_state="a", target_state="t",
                required_states=("a",),
            ),),
        ),
        # A tiny group: the actor's absence from its own peers moves q
        # by 1/(n - 1), which only a small n makes visible.
        [("a", 12), ("t", 8)], ("a", "t"),
        lambda c, others, survive: (c["a"], survive * (c["a"] - 1) / others),
    ),
    "anyof": (
        ProtocolSpec(
            name="full-anyof", states=("x", "y"),
            actions=(AnyOfSampleAction(
                probability=1.0, actor_state="x", target_state="y",
                match_state="y", fanout=2,
            ),),
        ),
        [("x", 960), ("y", 40)], ("x", "y"),
        lambda c, others, survive: (
            c["x"], 1.0 - (1.0 - survive * c["y"] / others) ** 2
        ),
    ),
    "tokenize": (
        # The token pool always outnumbers the tokens, so every fired
        # token moves one pool member: movers == fired tokens.
        ProtocolSpec(
            name="full-token", states=("w", "y", "x", "t"),
            actions=(TokenizeAction(
                probability=1.0, actor_state="w", target_state="t",
                required_states=("y",), token_state="x",
            ),),
        ),
        [("w", 200), ("y", 300), ("x", 500), ("t", 0)], ("x", "t"),
        lambda c, others, survive: (c["w"], survive * c["y"] / others),
    ),
}

#: condition -> (connection failure rate, kill half the hosts first)
CONDITIONS = {"clean": (0.0, False), "lossy": (0.2, False),
              "killed": (0.0, True)}


class TestFullProbabilityThinning:
    @pytest.mark.parametrize("condition", sorted(CONDITIONS))
    @pytest.mark.parametrize("name", sorted(FULL_PROBABILITY_CASES))
    def test_one_period_movers_are_exactly_binomial(self, name, condition):
        """Mean *and* variance of Binomial(c, q), per trial and period."""
        spec, layout, edge, law = FULL_PROBABILITY_CASES[name]
        loss, kill = CONDITIONS[condition]
        n, trials, periods = sum(c for _, c in layout), 6, 60
        engine = BatchRoundEngine(
            spec, n=n, trials=trials, initial=dict(layout), seed=61,
            connection_failure_rate=loss,
        )
        if kill:
            for view in engine.trial_views():
                MassiveFailure(at_period=0, fraction=0.5)(view)
        observed, heads, q = [], [], []
        for _ in range(periods):
            reset_all(engine, layout)
            # Dead hosts keep their slot: the law runs on alive counts
            # over all n - 1 peers.
            matrix = engine.counts_matrix()
            transitions = engine.step()
            observed.append(transitions.get(edge, np.zeros(trials)))
            for row in matrix:
                c = dict(zip(spec.states, row.tolist()))
                cell_heads, cell_q = law(c, n - 1, 1.0 - loss)
                heads.append(cell_heads)
                q.append(cell_q)
        assert_binomial_law(
            np.concatenate(observed), heads, q,
            context=f"{name} movers ({condition})",
        )

    @pytest.mark.parametrize("name", sorted(FULL_PROBABILITY_CASES))
    def test_no_action_stays_on_the_flip_all_path(self, name):
        planner = ActionPlanner(
            _compile(FULL_PROBABILITY_CASES[name][0]), trials=2, n=50
        )
        assert not planner.full_actions
        (group,) = planner.coin_groups
        assert group.psum == 1.0
        assert planner._thinning


class TestOutsideTheCensusIsRefused:
    """One coin per state: what does not fit is refused by name when
    the planner is built, and the serial tier runs it."""

    @pytest.mark.parametrize("extra, reason", [
        (FlipAction(actor_state="x", probability=0.1, target_state="y"),
         "state x's coin mass 1.1 > 1"),
        (PushAction(actor_state="x", probability=1.0, target_state="y",
                    match_state="x", fanout=2),
         "a push of state x looks for its own state"),
    ], ids=["coin-mass", "self-push"])
    def test_by_the_planner(self, extra, reason):
        spec, _, _, _ = FULL_PROBABILITY_CASES["pull"]
        outside = ProtocolSpec(
            name="outside", states=spec.states,
            actions=spec.actions + (extra,),
        )
        with pytest.raises(CensusError) as refused:
            BatchRoundEngine(outside, n=50, trials=2, initial={"x": 50})
        assert str(refused.value).startswith(reason)
        assert 'engine="serial"' in str(refused.value)
        assert census_refusal(_compile(spec), spec.states) is None

    def test_a_state_mass_rounded_above_one_is_one_coin(self):
        """The normalizer makes z's three flips sum to 1 in exact
        arithmetic and to 1 + 2**-52 in floating point: still one coin."""
        rates = (4.6, 0.938, 4.3)
        spec = synthesize(build_system("rounded", ["x", "y", "w", "z"], {
            "x": [(rates[0], {"z": 1})],
            "y": [(rates[1], {"z": 1})],
            "w": [(rates[2], {"z": 1})],
            "z": [(-rate, {"z": 1}) for rate in rates],
        }))
        assert sum(a.probability for a in spec.actions_of("z")) > 1.0
        engine = BatchRoundEngine(
            spec, n=100, trials=3, initial={"z": 100}, seed=64
        )
        engine.run(3)
        assert (engine.counts_matrix().sum(axis=1) == 100).all()


class TestRegistryProtocolsFitTheCensus:
    @pytest.mark.parametrize("name", available_protocols())
    def test_registry_protocols_are_never_refused(self, name):
        """Every registry protocol is one coin per state with no
        self-match push, and runs on the census through a massive
        failure and lossy contacts."""
        resolved = Protocol.named(name).resolve(600)
        spec = resolved.spec
        assert census_refusal(_compile(spec), spec.states) is None
        engine = BatchRoundEngine(
            spec, n=600, trials=3, initial=resolved.initial,
            seed=63, connection_failure_rate=0.1,
        )
        engine.run(
            12, hook_factories=[
                lambda m: MassiveFailure(at_period=6, fraction=0.3)
            ],
        )
        assert np.array_equal(
            engine.counts_matrix().sum(axis=1), engine.alive_counts()
        )
        assert (engine.alive_counts() < 600).all()


class TestPushDedupe:
    def test_distinct_counts_match_unique_in_both_branches(self):
        """Sorting few balls and masking many count the same bins."""
        rng = np.random.Generator(np.random.MT19937(9))
        segments, width = 5, 200
        for balls in (3, 40, 5_000):  # sort branch ... mask branch
            segment = np.sort(rng.integers(0, segments, size=balls))
            bins = rng.integers(0, width, size=balls)
            expected = np.array([
                np.unique(bins[segment == s]).size for s in range(segments)
            ])
            assert np.array_equal(
                distinct_per_segment(segment, bins, segments, width),
                expected,
            )
        empty = np.empty(0, dtype=np.int64)
        assert not distinct_per_segment(empty, empty, segments, width).any()
