"""The census is the state: contract and laws of the count-only batch engine.

``BatchRoundEngine`` advances an ``(M, S)`` census with count laws, and
a batch trial's hosts have no identities.  Three things are pinned here:

1. **Faults are census operations** -- the registry's ``crash-recovery``
   and ``churn`` scenarios crash, recover and move the census in the law
   of the host-level tier (the serial engine picks hosts exactly as the
   batch tier once did), by ``statutil`` z-tests: a slice in tier-1 and
   rows of 10^4 trials under ``heavy``.  No run builds an ``N``-sized
   array.  Both engines check the count vocabulary's arguments alike.
2. **Observation cannot perturb the census** -- bitwise, for every
   registry protocol and the token spec: reads draw nothing, and
   neither does a refused identity question.
3. **Identity questions are refused by name**, and ``engine="auto"``
   runs them on the serial tier, bitwise equal to ``engine="serial"``.
4. **The laws that replaced identity bookkeeping** -- the distinct-bin
   push law, the hypergeometric collision, the token cap -- against
   closed forms and the serial engine.
"""

import numpy as np
import pytest

from statutil import assert_mean_close, assert_means_agree

from test_batch_engine import token_spec
from test_planner import push_spec

from repro.campaign.registry import available_protocols, available_scenarios
from repro.experiment import Experiment, Protocol, RunPoint, Scenario
from repro.protocols.baselines import StaticReplication
from repro.protocols.endemic import EndemicParams, figure1_protocol
from repro.runtime import (
    AgentSimulation,
    BatchMetricsRecorder,
    BatchRoundEngine,
    CensusError,
    ChurnReplayer,
    ChurnTrace,
    DirectedAttack,
    GeneratedTrace,
    MassiveFailure,
    OpenGroupJoins,
    RoundEngine,
    UnitExecutionError,
    generate_trace,
)
from repro.synthesis import (
    FlipAction,
    ProtocolSpec,
    PushAction,
    TokenizeAction,
)


# ----------------------------------------------------------------------
# 1. Faults are census operations
# ----------------------------------------------------------------------
#: A protocol that never moves anybody: only faults change its census.
IDLE = ProtocolSpec(
    name="idle", states=("r", "s", "t"),
    actions=(FlipAction(actor_state="r", probability=0.0, target_state="s"),),
)
N, INITIAL = 200, {"r": 100, "s": 60, "t": 40}


class Tally:
    """A hook's engine, counting the hosts its faults crash and recover.

    A churn step counts what it did to the alive count: its ``ups``
    recover, and a host that left, or left and came back, within the
    step is one crash.
    """

    def __init__(self, engine, row):
        self._engine, self._row = engine, row

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def crash_uniform(self, rng, count):
        self._row[0] += count
        return self._engine.crash_uniform(rng, count)

    def recover_uniform(self, rng, count, state=None):
        self._row[1] += count
        return self._engine.recover_uniform(rng, count, state)

    def apply_churn(self, step):
        before = self._engine.alive_count()
        self._engine.apply_churn(step)
        self._row[0] += before + len(step.ups) - self._engine.alive_count()
        self._row[1] += len(step.ups)


def run_tier(tier, scenario, trials, periods, seed):
    """A registry scenario on ``IDLE``: ``(tallies, counts, alive)``.

    ``tallies[m, p]`` is (crashed, recovered) by trial ``m``'s hooks
    before period ``p``.  Both tiers get the same scenario hooks (the
    same traces, for churn) whatever the engines' ``seed``; the serial
    tier picks hosts.
    """
    context = RunPoint("idle", N, 0.0, scenario, trials, periods, 5)
    factory = Scenario.named(scenario).hook_factory(context)
    tallies = np.zeros((trials, periods, 2), dtype=np.int64)

    def tallied(m):
        hook = factory(m)
        return lambda engine: hook(Tally(engine, tallies[m, engine.period]))

    if tier == "batch":
        recorder = BatchRoundEngine(
            IDLE, n=N, trials=trials, initial=INITIAL, seed=seed
        ).run(periods, hook_factories=[tallied]).recorder
    else:
        recorder = BatchMetricsRecorder.merge([
            RoundEngine(IDLE, n=N, initial=INITIAL, seed=seed + m).run(
                periods, hooks=[tallied(m)]
            ).recorder
            for m in range(trials)
        ])
    return tallies, recorder.count_tensor(), recorder.alive_tensor()


def assert_same_law(scenario, trials, periods):
    """Per period: the crashes, the recoveries and every state's count
    agree between the tiers, in mean and in spread."""
    batch = run_tier("batch", scenario, trials, periods, seed=5)
    serial = run_tier("serial", scenario, trials, periods, seed=6)
    samples = []
    for tier in (batch, serial):
        tallies, counts, _ = tier
        rows = {}
        for period in range(periods):
            rows[f"crashes at {period}"] = tallies[:, period, 0]
            rows[f"recoveries at {period}"] = tallies[:, period, 1]
            for i, state in enumerate(IDLE.states):
                rows[f"{state} at {period + 1}"] = counts[:, period + 1, i]
        samples.append(rows)
    first, second = samples
    for name in first:
        # Means, and the spread about the pooled mean.
        pooled = np.concatenate([first[name], second[name]]).mean()
        for moment, f in (
            ("mean", lambda x: x), ("spread", lambda x: (x - pooled) ** 2),
        ):
            assert_means_agree(
                f(first[name]), f(second[name]),
                comparisons=2 * len(first),
                context=f"{scenario}: {name} {moment}, batch vs serial",
            )
    for tallies in (batch[0], serial[0]):
        # Both kinds of fault happen, on both tiers.
        assert (tallies.sum(axis=(0, 1)) > 0).all()
    return batch, serial


class TestFaultsAreCensusOperations:
    def test_crash_recovery_matches_the_host_level_law(self):
        assert_same_law("crash-recovery", trials=300, periods=30)

    def test_churn_matches_the_host_level_law(self):
        batch, serial = assert_same_law("churn", trials=300, periods=30)
        # The trace decides how many go and come back: both tiers
        # replay the same traces, so their tallies and alive tensors
        # are equal outright, and only the census moves in law.
        assert np.array_equal(batch[0], serial[0])
        assert np.array_equal(batch[2], serial[2])
        assert (batch[2][:, 1] < N).all()

    @pytest.mark.heavy
    @pytest.mark.parametrize("scenario", ["crash-recovery", "churn"])
    def test_full_size_rows(self, scenario):
        assert_same_law(scenario, trials=10_000, periods=30)

    @pytest.mark.parametrize("scenario", available_scenarios())
    def test_no_run_builds_a_host_array(self, scenario):
        """Every array the engine holds is per trial, per state or per
        action: none has an axis of ``n`` hosts."""
        n, trials = 500, 4
        resolved = Protocol.named("endemic").resolve(n)
        context = RunPoint("endemic", n, 0.0, scenario, trials, 40, 93)
        engine = BatchRoundEngine(
            resolved.spec, n=n, trials=trials, initial=resolved.initial,
            seed=93,
        )
        engine.run(40, hook_factories=[
            Scenario.named(scenario).hook_factory(context)
        ])
        assert (engine.counts_matrix().sum(axis=1) == engine.alive_counts()).all()
        for owner in (engine, engine._planner):
            for name, value in vars(owner).items():
                if isinstance(value, np.ndarray):
                    assert n not in value.shape, name
        assert Experiment(
            "endemic", n=n, trials=trials, scenario=scenario
        ).chosen_engine == "batch"


def fault_target(tier):
    """What a hook gets on ``tier``: a batch trial's view, or a
    host-level engine itself.  All of them speak the count vocabulary."""
    if tier == "batch":
        return BatchRoundEngine(
            IDLE, n=N, trials=2, initial=INITIAL, seed=9
        ).trial_views()[1]
    if tier == "agent":
        return AgentSimulation(IDLE, n=N, initial=INITIAL, seed=9)
    if tier == "baseline":
        return StaticReplication(N, k=40, seed=9)
    return RoundEngine(IDLE, n=N, initial=INITIAL, seed=9)


TIERS = ["batch", "serial", "agent", "baseline"]


class TestTheCountVocabulary:
    """Every engine checks a fault's arguments before it moves anybody."""

    @pytest.mark.parametrize("tier", TIERS)
    def test_crash_fraction_must_lie_in_the_unit_interval(self, tier):
        target = fault_target(tier)
        before = target.counts()
        for fraction in (-0.1, 1.5):
            with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
                target.crash_fraction(fraction)
        assert target.counts() == before and target.alive_count() == N

    @pytest.mark.parametrize("tier", TIERS)
    def test_recovery_into_an_unknown_state_is_refused(self, tier):
        target, rng = fault_target(tier), np.random.default_rng(1)
        target.crash_uniform(rng, 10)
        before = target.counts()
        with pytest.raises(ValueError, match="unknown recovery state 'q'"):
            target.recover_uniform(rng, 5, "q")
        assert target.counts() == before and target.alive_count() == N - 10

    @pytest.mark.parametrize("tier", TIERS)
    def test_recovering_more_than_the_dead_is_refused(self, tier):
        target, rng = fault_target(tier), np.random.default_rng(2)
        target.crash_uniform(rng, 10)
        before = target.counts()
        with pytest.raises(ValueError):
            target.recover_uniform(rng, 11)
        assert target.counts() == before and target.alive_count() == N - 10

    @pytest.mark.parametrize("tier", TIERS)
    def test_recovery_lands_in_the_named_state(self, tier):
        target, rng = fault_target(tier), np.random.default_rng(3)
        target.crash_uniform(rng, 30)
        after_crash = target.counts()
        assert sum(after_crash.values()) == N - 30
        last = list(after_crash)[-1]
        target.recover_uniform(rng, 20, last)
        after_crash[last] += 20
        assert target.counts() == after_crash
        assert target.alive_count() == N - 10


# ----------------------------------------------------------------------
# 2. Observation cannot perturb the census
# ----------------------------------------------------------------------
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


def run_observed(spec, n, initial, mode, hooks=()):
    """One seeded run; ``mode`` says when (if ever) a hook reads.

    A reading hook reads the census through every read the view and the
    engine offer, and asks one identity question, which is refused.
    """
    engine = BatchRoundEngine(spec, n=n, trials=5, initial=initial, seed=77)
    reads = []

    def reader(trial):
        def hook(view):
            if mode == "mid" and view.period < READ_AT:
                return
            counts = view.counts()
            assert sum(counts.values()) == view.alive_count()
            with pytest.raises(CensusError):
                view.members_in(spec.states[0])
            if trial == 0:
                engine.counts_matrix(), engine.mean_counts()
                engine.alive_counts(), engine.total_messages
                reads.append(view.period)
        return hook

    readers = [] if mode == "never" else [reader]
    recorder = engine.run(
        PERIODS, hook_factories=[*readers, *hooks]
    ).recorder
    return engine, recorder, len(reads)


class TestObservationCannotPerturbTheCensus:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_counts_transitions_messages_are_bitwise_equal(self, name):
        spec, n, initial = CASES[name]
        never, reference, reads = run_observed(spec, n, initial, "never")
        assert reads == 0
        edges = reference.edges_seen()
        assert edges, "the case must move somebody"
        for mode, expected in (
            ("every", PERIODS), ("mid", PERIODS - READ_AT),
        ):
            engine, recorder, reads = run_observed(spec, n, initial, mode)
            assert reads == expected
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
        """``crash_fraction`` draws how many of each state on the fault
        stream; the reads draw nothing."""
        spec, n, initial = CASES["endemic"]
        hooks = [lambda m: MassiveFailure(at_period=20, fraction=0.5)]
        tensors = [
            run_observed(spec, n, initial, mode, hooks)[1].count_tensor()
            for mode in ("never", "every", "mid")
        ]
        assert np.array_equal(tensors[0], tensors[1])
        assert np.array_equal(tensors[0], tensors[2])
        assert (tensors[0][:, -1].sum(axis=1) == n // 2).all()

    @pytest.mark.parametrize("name", ["endemic", "lv", "token"])
    def test_census_and_alive_counts_agree_through_crash_and_recover(
        self, name
    ):
        spec, n, initial = CASES[name]
        engine = BatchRoundEngine(
            spec, n=n, trials=4, initial=initial, seed=78,
            connection_failure_rate=0.1,
        )
        engine.run(5)
        views = engine.trial_views()
        crashed = [int(v.crash_fraction(0.4).sum()) for v in views]
        assert crashed == [round(0.4 * n)] * 4

        def steps():
            for _ in range(5):
                engine.step()
                census = engine.counts_matrix()
                assert (census >= 0).all()
                assert (census.sum(axis=1) == engine.alive_counts()).all()

        steps()
        for view, dead in zip(views, crashed):
            view.recover_uniform(None, dead // 2)
        steps()
        assert (engine.alive_counts() == n - crashed[0] + crashed[0] // 2).all()


# ----------------------------------------------------------------------
# 3. Identity questions are refused by name
# ----------------------------------------------------------------------
def attack(m):
    return DirectedAttack(target_state="y", snapshot_interval=5, strike_delay=2)


def measured_trace():
    """A generated trace's events, taken as a measured one: it is not a
    :class:`GeneratedTrace`, so replaying it asks which hosts."""
    real = generate_trace(300, duration_hours=3.0, seed=8)
    measured = ChurnTrace(
        real.n_hosts, real.duration_hours, real.events, real.initially_online,
    )
    assert not isinstance(measured, GeneratedTrace)
    return measured


def outside_the_census(extra):
    """Registry endemic plus one hand-built action the census refuses."""
    resolved = Protocol.named("endemic").resolve(300)
    spec = resolved.spec
    return Protocol.from_spec(
        ProtocolSpec(
            name=f"endemic+{extra.kind}", states=spec.states,
            actions=spec.actions + (extra,),
        ),
        resolved.initial,
    )


class TestIdentityQuestionsAreRefused:
    @pytest.mark.parametrize("call, ask", [
        ("members_in", lambda view: view.members_in("x")),
        ("crash(hosts)", lambda view: view.crash(np.arange(3))),
        ("recover(hosts)", lambda view: view.recover(np.arange(3))),
        ("set_states", lambda view: view.set_states(np.arange(3), "y")),
        ("BatchTrialView.alive", lambda view: view.alive),
        ("BatchTrialView.states", lambda view: view.states),
    ])
    def test_by_the_view(self, call, ask):
        resolved = Protocol.named("endemic").resolve(600)
        engine = BatchRoundEngine(
            resolved.spec, n=600, trials=2, initial=resolved.initial, seed=1
        )
        before = engine.counts_matrix()
        with pytest.raises(CensusError) as refused:
            ask(engine.trial_views()[1])
        assert str(refused.value).startswith(call)
        assert 'engine="serial"' in str(refused.value)
        assert np.array_equal(engine.counts_matrix(), before)

    def test_an_identity_hook_on_the_batch_tier(self):
        experiment = Experiment(
            "endemic", n=300, trials=3, periods=20, seed=7,
            scenario=attack, engine="batch",
        )
        with pytest.raises(
            UnitExecutionError, match='members_in asks which hosts.*"serial"'
        ):
            experiment.run()

    def test_a_member_log_on_the_batch_tier(self):
        experiment = Experiment(
            "endemic", n=300, trials=3, periods=20, seed=7,
            member_log_state="y", engine="batch",
        )
        with pytest.raises(ValueError, match='member_log_state.*"serial"'):
            experiment.run()

    @pytest.mark.parametrize("trace, refusal", [
        (measured_trace(), "ChurnReplayer on a trace not made by generate_trace"),
        (generate_trace(200, duration_hours=3.0, seed=8),
         r"ChurnReplayer on a trace of 200 hosts \(n=300\)"),
    ], ids=["measured", "another-size"])
    def test_a_trace_on_the_batch_tier(self, trace, refusal):
        engine = BatchRoundEngine(
            IDLE, n=300, trials=1, initial={"r": 300}, seed=1
        )
        with pytest.raises(CensusError, match=refusal + " asks which"):
            engine.run(2, hook_factories=[
                lambda m: ChurnReplayer(trace, periods_per_hour=10.0)
            ])
        assert engine.alive_counts().tolist() == [300]

    @pytest.mark.parametrize("first", ["churn", "failure"])
    def test_churn_beside_another_fault_on_the_batch_tier(self, first):
        """Beside a massive failure, the replay would need to know which
        of the hosts the trace has up are still alive: refused, in
        either order, before the census moves."""
        def hooks(m):
            churn = ChurnReplayer(
                generate_trace(300, duration_hours=3.0, seed=m),
                periods_per_hour=10.0,
            )
            failure = MassiveFailure(at_period=5, fraction=0.5)
            return [churn, failure] if first == "churn" else [failure, churn]

        experiment = Experiment(
            "endemic", n=300, trials=3, periods=20, seed=7,
            scenario=hooks, engine="batch",
        )
        with pytest.raises(
            UnitExecutionError,
            match='ChurnReplayer beside another fault asks which hosts.*"serial"',
        ):
            experiment.run()

    @pytest.mark.parametrize("options", [
        dict(scenario=attack),
        dict(member_log_state="y"),
        dict(scenario=lambda m: OpenGroupJoins(
            reserve=np.arange(250, 300), join_rate=0.1, seed=m,
        )),
        dict(scenario=lambda m: ChurnReplayer(
            measured_trace(), periods_per_hour=10.0,
        )),
        dict(scenario=lambda m: [
            MassiveFailure(at_period=5, fraction=0.5),
            ChurnReplayer(
                generate_trace(300, duration_hours=3.0, seed=m),
                periods_per_hour=10.0,
            ),
        ]),
        # x's any-of is a coin of mass 1, and a coin push beside it
        # takes x's coin mass to 1.5.
        dict(protocol=outside_the_census(PushAction(
            actor_state="x", probability=0.5, target_state="x",
            match_state="z", fanout=1,
        )), refusal="state x's coin mass 1.5 > 1"),
        dict(protocol=outside_the_census(PushAction(
            actor_state="y", probability=1.0, target_state="z",
            match_state="y", fanout=1,
        )), refusal="a push of state y looks for its own state"),
    ], ids=[
        "directed-attack", "member-log", "open-group", "measured-trace",
        "churn-beside-a-failure", "coin-mass", "self-push",
    ])
    def test_auto_runs_them_on_the_serial_tier(self, options):
        options = dict(options)
        protocol = options.pop("protocol", "endemic")
        refusal = options.pop("refusal", None)
        common = dict(n=300, trials=3, periods=20, seed=7, **options)
        if refusal is not None:
            with pytest.raises(CensusError) as refused:
                Experiment(protocol, engine="batch", **common).run()
            assert str(refused.value).startswith(refusal)
            assert 'engine="serial"' in str(refused.value)
        auto = Experiment(protocol, **common)
        assert auto.chosen_engine == "serial"
        got = auto.run()
        want = Experiment(protocol, engine="serial", **common).run()
        assert got.engine == "serial"
        assert np.array_equal(got.count_tensor(), want.count_tensor())
        assert np.array_equal(got.alive_tensor(), want.alive_tensor())

    def test_auto_builds_each_trials_hooks_once(self):
        """``chosen_engine`` judges trial 0's hooks, and trial 0 runs
        them: nothing is built twice."""
        built = []

        def builder(context, trial, seed):
            built.append(trial)
            return [MassiveFailure(at_period=5, fraction=0.5)]

        experiment = Experiment(
            "endemic", n=300, trials=3, periods=10, seed=7,
            scenario=Scenario("counted", builder),
        )
        assert experiment.chosen_engine == "batch"
        assert built == [0]
        result = experiment.run()
        assert result.engine == "batch"
        assert built == [0, 1, 2]
        assert (result.alive_tensor()[:, -1] == 150).all()


# ----------------------------------------------------------------------
# 4. The laws
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
