"""The period program against the census it replaced.

``ActionPlanner`` lowers a protocol once to a period program and
``census`` runs that table (docs/architecture.md).  The property the
lowering rests on is that nothing about the draws changed: the same
bits in the same order, whichever generator call consumes them (a
two-sided split is one ``binomial``, a riding push's contacts join the
thinning call; ``tests/test_sampling.py`` pins why that is the same
draw).  The census
the program replaced lives here verbatim as the oracle -- dicts, a sort,
``np.clip`` and all, the way hybr lives in
``tests/test_equilibria_solver.py`` -- and every period of every case
below is drawn by both from equal generator states and must return
equal ``(action, new)`` lists, equal ``messages`` and leave equal
``bit_generator.state``.

The second half pins what a period *costs* in a unit that does not
depend on the host: the number of calls ``cProfile`` counts in a
count-only period repeats exactly.
"""

import copy
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from test_batch_engine import token_spec
from test_planner import (
    FULL_PROBABILITY_CASES,
    TestIndependentCoinFallback,
    flip_spec,
    push_spec,
)
from test_properties import pair_systems

from repro.campaign.registry import available_protocols
from repro.experiment import Protocol
from repro.protocols.endemic import EndemicParams, figure1_protocol
from repro.runtime import BatchRoundEngine
from repro.runtime.failures import MassiveFailure
from repro.runtime.sampling import distinct_throws
from repro.synthesis import (
    FlipAction,
    ProtocolSpec,
    PushAction,
    SampleAction,
    synthesize,
)

ROOT = Path(__file__).resolve().parents[1]
#: Read at collection, before tests/test_campaign.py registers its own.
REGISTRY = available_protocols()


# ----------------------------------------------------------------------
# The oracle: ActionPlanner.census as it stood before the lowering
# ----------------------------------------------------------------------
def oracle_match_probability(planner, counts0, action) -> Optional[np.ndarray]:
    others = planner.n - 1
    survive = 1.0 - planner._failure
    if action.kind in ("sample", "tokenize"):
        if len(action.required) == 0:
            return None
        q: Optional[np.ndarray] = None
        for required in action.required:
            required = int(required)
            matching = counts0[:, required] - (
                1 if required == action.actor else 0
            )
            term = np.clip(matching * (survive / others), 0.0, 1.0)
            q = term if q is None else q * term
        return q
    if action.kind == "anyof":
        match = int(action.match)
        matching = counts0[:, match] - (
            1 if match == action.actor else 0
        )
        per_contact = np.clip(matching * (survive / others), 0.0, 1.0)
        return 1.0 - (1.0 - per_contact) ** action.fanout
    return None


def oracle_q_tensor(planner, counts0) -> np.ndarray:
    q = np.ones(
        (len(planner.coin_groups), planner.trials,
         planner._pvals.shape[2] - 1)
    )
    for g, group in enumerate(planner.coin_groups):
        for a, action in enumerate(group.actions):
            probability = oracle_match_probability(planner, counts0, action)
            if probability is not None:
                q[g, :, a] = probability
    return q


def oracle_push_targets(planner, rng, action, heads, members) -> np.ndarray:
    if action.match == action.actor:
        return planner._self_push_targets(rng, action, heads, members)
    q = np.clip(
        members * ((1.0 - planner._failure) / (planner.n - 1)), 0.0, 1.0
    )
    hits = rng.binomial(heads * action.fanout, q)
    if not hits.any():
        return hits
    return distinct_throws(rng, members, hits)


def oracle_census(planner, rng, counts0, alive_counts):
    group_widths = [
        np.array([planner._msg_width[i] for i in g.indices], dtype=np.int64)
        for g in planner.coin_groups
    ]
    messages = np.zeros(planner.trials, dtype=np.int64)
    proposals: Dict[int, np.ndarray] = {}
    own: Dict[int, np.ndarray] = {}
    for index, action in planner.full_actions:
        proposals[index] = counts0[:, action.actor].copy()
        if planner._msg_width[index]:
            messages += planner._msg_width[index] * proposals[index]
    if planner.coin_groups:
        occupancy = counts0[:, planner._group_sids].T  # (G, M)
        heads = rng.multinomial(occupancy, planner._pvals)[:, :, :-1]
        thinned = (
            rng.binomial(heads, oracle_q_tensor(planner, counts0))
            if planner._thinning else heads
        )
        for g, group in enumerate(planner.coin_groups):
            if group_widths[g].any():
                messages += (
                    heads[g][:, :group.width] @ group_widths[g]
                )
            picked = None  # this multinomial's actor picks so far
            for a, (index, action) in enumerate(
                zip(group.indices, group.actions)
            ):
                proposals[index] = thinned[g, :, a]
                if action.kind in ("flip", "sample", "anyof"):
                    if picked is None:
                        picked = proposals[index]
                    else:
                        own[index] = picked
                        picked = picked + proposals[index]
    for group in planner.fallback_groups:
        for index, action in zip(group.indices, group.actions):
            coins = rng.binomial(
                counts0[:, group.sid], action.probability
            )
            messages += planner._msg_width[index] * coins
            q = oracle_match_probability(planner, counts0, action)
            proposals[index] = (
                coins if q is None else rng.binomial(coins, q)
            )

    moves = []
    left: Dict[int, np.ndarray] = {}  # source state -> moved so far
    for index in sorted(proposals):
        take = proposals[index]
        if not take.any():
            continue
        action = planner._compiled[index]
        source = action.edge_from
        members = counts0[:, source]
        gone = left.get(source)
        if action.kind == "push":
            take = oracle_push_targets(planner, rng, action, take, members)
        if action.kind == "tokenize":
            unmoved = members if gone is None else members - gone
            if action.ttl is not None:
                fraction = np.divide(
                    unmoved, alive_counts,
                    out=np.zeros(planner.trials), where=alive_counts > 0,
                )
                take = rng.binomial(
                    take, 1.0 - (1.0 - fraction) ** action.ttl
                )
            # Tokens route to unmoved members only; excess drops.
            new = np.minimum(take, unmoved)
        else:
            new = take
            if gone is not None:
                # Earlier movers this pick could land on.
                taken = gone - own[index] if index in own else gone
                if taken.any():
                    new = take - rng.hypergeometric(
                        taken, members - gone, take
                    )
        if new.any():
            left[source] = new if gone is None else gone + new
            moves.append((action, new))
    return moves, messages


# ----------------------------------------------------------------------
# Lockstep: every census of a run is drawn by both
# ----------------------------------------------------------------------
def same_state(a, b) -> bool:
    """``bit_generator.state`` dicts hold arrays: compare them by value."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(
            same_state(a[k], b[k]) for k in a
        )
    return bool(np.array_equal(a, b))


def shadow(engine: BatchRoundEngine) -> List[int]:
    """Make every census of ``engine`` also run the oracle, and compare.

    The oracle draws from a copy of the generator and reads a copy of
    the counts, so the run itself is the program's.  Returns the list
    the per-period mover totals are appended to.
    """
    planner = engine._planner
    program = planner.census
    moved: List[int] = []

    def census(rng, counts0, alive_counts):
        twin = copy.deepcopy(rng)
        assert same_state(rng.bit_generator.state, twin.bit_generator.state)
        expected, expected_messages = oracle_census(
            planner, twin, counts0.copy(), alive_counts.copy()
        )
        before = counts0.copy()
        moves, messages = program(rng, counts0, alive_counts)
        assert np.array_equal(counts0, before), "census wrote the counts"
        assert [a.index for a, _ in moves] == [
            a.index for a, _ in expected
        ]
        for (action, new), (other, want) in zip(moves, expected):
            assert action is other
            assert new.dtype == want.dtype and np.array_equal(new, want)
        assert messages.dtype == expected_messages.dtype
        assert np.array_equal(messages, expected_messages)
        assert same_state(
            rng.bit_generator.state, twin.bit_generator.state
        ), "the program and the oracle left different generator states"
        moved.append(sum(int(new.sum()) for _, new in moves))
        return moves, messages

    planner.census = census
    return moved


def lockstep(spec, n, initial, periods=25, trials=4, seed=5, loss=0.0,
             hooks=(), read_hosts_at=None):
    engine = BatchRoundEngine(
        spec, n=n, trials=trials, initial=initial, seed=seed,
        connection_failure_rate=loss,
    )
    moved = shadow(engine)
    for period in range(periods):
        if period == read_hosts_at:
            assert engine.states.shape == (trials, n)
        engine.run(1, hook_factories=hooks)
    assert len(moved) == periods
    if engine._pools is not None:
        engine._validate_consistency()
    return engine, moved


def figure1_sparse():
    params = EndemicParams(alpha=1e-6, gamma=1e-3, b=2)
    return figure1_protocol(params), params


def self_push_spec():
    return ProtocolSpec(
        name="self-push", states=("a", "t"),
        actions=(PushAction(
            actor_state="a", probability=1.0, target_state="t",
            match_state="a", fanout=2,
        ),),
    )


def crowded_spec():
    """Every way two draws can leave one state, in one protocol.

    State ``a`` is left by a full push (declared first), by its own
    coin group of two flips (the second with an ``own`` pick to
    exclude) and by a full flip of ``a`` itself; state ``m`` by its
    own flip and then a coin push into it.
    """
    return ProtocolSpec(
        name="crowded", states=("a", "m", "t"),
        actions=(
            PushAction(actor_state="m", probability=1.0, target_state="t",
                       match_state="a", fanout=2),
            FlipAction(actor_state="a", probability=0.2, target_state="m"),
            FlipAction(actor_state="a", probability=0.3, target_state="t"),
            FlipAction(actor_state="m", probability=0.25, target_state="t"),
            PushAction(actor_state="a", probability=0.5, target_state="t",
                       match_state="m", fanout=3),
            FlipAction(actor_state="t", probability=1.0, target_state="a"),
            FlipAction(actor_state="t", probability=0.0, target_state="m"),
        ),
    )


def ride_spec(after_overlap=False):
    """Two full pushes after a coin group of two, one of it conditioned.

    The first push's contacts ride in the thinning call (after a
    multinomial split) and the second's do not; with ``after_overlap`` a
    full flip of ``m`` comes first, the group's picks can land on its
    movers, and neither push rides.
    """
    first = (FlipAction(actor_state="m", probability=1.0, target_state="t"),)
    return ProtocolSpec(
        name="ride", states=("a", "m", "t"),
        actions=(first if after_overlap else ()) + (
            SampleAction(actor_state="m", probability=0.2, target_state="t",
                         required_states=("a",)),
            FlipAction(actor_state="m", probability=0.3, target_state="a"),
            PushAction(actor_state="a", probability=1.0, target_state="t",
                       match_state="m", fanout=2),
            PushAction(actor_state="t", probability=1.0, target_state="m",
                       match_state="a", fanout=1),
        ),
    )


def named(name, n=600):
    resolved = Protocol.named(name).resolve(n)
    return resolved.spec, n, resolved.initial


class TestProgramDrawsWhatTheCensusDrew:
    @pytest.mark.parametrize("loss", [0.0, 0.1, 0.9])
    @pytest.mark.parametrize("name", REGISTRY)
    def test_registry_protocols(self, name, loss):
        spec, n, initial = named(name)
        _, moved = lockstep(spec, n, initial, loss=loss)
        assert sum(moved) > 0 or loss == 0.9

    def test_examples_endemic(self):
        resolved = Protocol.from_equations(
            ROOT / "examples" / "endemic.txt"
        ).resolve(2000)
        _, moved = lockstep(resolved.spec, 2000, resolved.initial, periods=60)
        assert min(moved) > 0  # the dense case: every period moves hosts

    def test_figure1_at_the_sparse_rates(self):
        spec, params = figure1_sparse()
        n = 10_000
        _, moved = lockstep(
            spec, n, params.equilibrium_counts(n), periods=150, trials=8
        )
        assert 0 in moved and sum(moved) > 0

    def test_figure1_at_the_registry_rates(self):
        """Few throws and few overlapping trials a period: the laws'
        elements drawn one scalar call each, against the array calls."""
        lockstep(*named("endemic", n=10_000), periods=100, trials=16)

    @pytest.mark.parametrize("name", ["endemic", "lv", "epidemic-push-pull"])
    def test_one_trial(self, name):
        lockstep(*named(name), trials=1)

    @pytest.mark.parametrize("name", REGISTRY)
    def test_two_hosts(self, name):
        spec = Protocol.named(name).resolve(600).spec
        first, second = spec.states[0], spec.states[1]
        lockstep(spec, 2, {first: 1, second: 1}, periods=10)
        lockstep(spec, 2, {first: 2}, periods=10)

    def test_absorbed_lv_start(self):
        spec, n, _ = named("lv")
        engine, moved = lockstep(spec, n, {"x": n, "y": 0, "z": 0})
        assert sum(moved) == 0
        assert (engine.total_messages > 0).all()  # actors still sample

    def test_hooks_and_the_who_pass(self):
        """Identities placed mid-run, a massive failure, then the who
        pass after every census: none of it is the census's business."""
        for name in ("endemic", "lv"):
            spec, n, initial = named(name)
            engine, _ = lockstep(
                spec, n, initial, periods=30, read_hosts_at=7,
                hooks=[lambda m: MassiveFailure(at_period=12, fraction=0.4)],
            )
            assert engine._pools is not None

    @pytest.mark.parametrize("case", [
        "flips", "fallback", "fallback-push", "coin-push", "self-push",
        "crowded", "token", "ride", "no-ride",
    ])
    def test_hand_built_corners(self, case):
        n = 400
        spec, initial = {
            "flips": (flip_spec((0.1, 0.2, 0.3)), {"a": n}),
            "fallback": (TestIndependentCoinFallback().spec(), {"a": n}),
            "fallback-push": (
                push_spec(probability=0.6, fanout=2, extra=(FlipAction(
                    actor_state="a", probability=0.6, target_state="t",
                ),)),
                {"a": 120, "m": 200, "t": 80},
            ),
            "coin-push": (
                push_spec(probability=0.3, fanout=2, extra=(FlipAction(
                    actor_state="m", probability=0.2, target_state="a",
                ),)),
                {"a": 120, "m": 200, "t": 80},
            ),
            "self-push": (self_push_spec(), {"a": 300, "t": 100}),
            "crowded": (crowded_spec(), {"a": 200, "m": 150, "t": 50}),
            "token": (token_spec(), {"x": 200, "y": 100, "z": 100}),
            "ride": (ride_spec(), {"a": 150, "m": 200, "t": 50}),
            "no-ride": (
                ride_spec(after_overlap=True), {"a": 150, "m": 200, "t": 50}
            ),
        }[case]
        for loss in (0.0, 0.1):
            _, moved = lockstep(spec, n, initial, loss=loss)
            assert sum(moved) > 0

    @pytest.mark.parametrize("name", sorted(FULL_PROBABILITY_CASES))
    def test_full_probability_rows(self, name):
        spec, layout, _, _ = FULL_PROBABILITY_CASES[name]
        n = sum(c for _, c in layout)
        for loss in (0.0, 0.2):
            lockstep(spec, n, dict(layout), loss=loss)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        system=pair_systems(restricted=False),
        ttl=st.sampled_from([None, 1, 3]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_synthesized_systems(self, system, ttl, seed):
        """Tokenize with and without ttl, multi-``required`` samples."""
        spec = synthesize(system, tokenize=True, token_ttl=ttl)
        n = 90
        share = n // len(spec.states)
        initial = {state: share for state in spec.states}
        initial[spec.states[0]] += n - share * len(spec.states)
        lockstep(spec, n, initial, periods=6, trials=3, seed=seed, loss=0.1)


# ----------------------------------------------------------------------
# The program is data
# ----------------------------------------------------------------------
SPLIT, BINOMIAL = "multinomial split", "binomial split"
THIN, PUSH = "binomial thinning", "distinct-bin push"
RIDE = "distinct-bin push (contacts in the thinning call)"


class TestProgramIsData:
    def rows(self, spec, n=600):
        engine = BatchRoundEngine(
            spec, n=n, trials=2, initial={spec.states[0]: n}, seed=0
        )
        rows = engine._planner.describe()
        assert [row["index"] for row in rows] == list(range(len(spec.actions)))
        return [
            (row["kind"], row["edge"], row["laws"], row["overlap"])
            for row in rows
        ]

    @pytest.mark.parametrize("name", ["lv", "lv-close"])
    def test_lv_never_overlaps(self, name):
        assert self.rows(named(name)[0]) == [
            ("sample", (0, 2), (SPLIT, THIN), ()),
            ("sample", (1, 2), (SPLIT, THIN), ()),
            ("sample", (2, 0), (SPLIT, THIN), ()),
            ("sample", (2, 1), (SPLIT, THIN), ()),
        ]

    def test_examples_endemic_never_overlaps(self):
        spec = Protocol.from_equations(
            ROOT / "examples" / "endemic.txt"
        ).resolve(600).spec
        assert self.rows(spec) == [
            ("sample", (0, 1), (BINOMIAL, THIN), ()),
            ("flip", (1, 2), (BINOMIAL,), ()),
            ("flip", (2, 0), (BINOMIAL,), ()),
        ]

    @pytest.mark.parametrize("spec", [
        named("endemic")[0], figure1_sparse()[0],
    ], ids=["registry", "figure1-sparse"])
    def test_endemic_push_can_land_on_the_any_of(self, spec):
        assert self.rows(spec) == [
            ("flip", (1, 2), (BINOMIAL,), ()),
            ("flip", (2, 0), (BINOMIAL,), ()),
            ("anyof", (0, 1), (BINOMIAL, THIN), ()),
            ("push", (0, 1), (RIDE,), (2,)),
        ]

    def test_epidemics(self):
        pull = ("sample", (0, 1), (BINOMIAL, THIN), ())
        assert self.rows(named("epidemic-pull")[0]) == [pull]
        assert self.rows(named("epidemic-push")[0]) == [
            ("push", (0, 1), (PUSH,), ()),  # no thinning call to ride
        ]
        assert self.rows(named("epidemic-push-pull")[0]) == [
            pull, ("push", (0, 1), (RIDE,), (0,)),
        ]

    def test_every_registry_protocol_is_pinned_here(self):
        assert set(REGISTRY) == {
            "endemic", "epidemic-pull", "epidemic-push",
            "epidemic-push-pull", "lv", "lv-close",
        }

    def test_corners(self):
        fallback = "independent-coin fallback"
        assert self.rows(TestIndependentCoinFallback().spec()) == [
            ("flip", (0, 1), (fallback,), ()),
            ("flip", (0, 2), (fallback,), (0,)),
        ]
        assert self.rows(crowded_spec()) == [
            ("push", (0, 2), (PUSH,), ()),  # no thinning call to ride
            ("flip", (0, 1), (SPLIT,), (0,)),
            ("flip", (0, 2), (SPLIT,), (0,)),  # not its own group's pick
            ("flip", (1, 2), (SPLIT,), ()),
            ("push", (1, 2), (SPLIT, PUSH), (3,)),
            ("flip", (2, 0), (), ()),
            ("flip", (2, 1), (), ()),  # probability 0: never planned
        ]
        assert self.rows(ride_spec()) == [
            ("sample", (1, 2), (SPLIT, THIN), ()),
            ("flip", (1, 0), (SPLIT,), ()),
            ("push", (1, 2), (RIDE,), (0, 1)),
            ("push", (0, 1), (PUSH,), ()),  # only the first rides
        ]
        assert self.rows(ride_spec(after_overlap=True)) == [
            ("flip", (1, 2), (), ()),
            ("sample", (1, 2), (SPLIT, THIN), (0,)),  # can draw: no ride
            ("flip", (1, 0), (SPLIT,), (0,)),
            ("push", (1, 2), (PUSH,), (0, 1, 2)),
            ("push", (0, 1), (PUSH,), ()),
        ]
        assert self.rows(token_spec())[-1] == (
            "tokenize", (2, 0), (SPLIT, THIN, "token cap"), ()
        )
        spec, _, _, _ = FULL_PROBABILITY_CASES["tokenize"]
        (action,) = spec.actions
        walked = ProtocolSpec(
            name="ttl", states=spec.states,
            actions=(dataclasses.replace(action, ttl=3),),
        )
        assert self.rows(walked) == [(
            "tokenize", (2, 3), (BINOMIAL, THIN, "ttl binomial", "token cap"),
            (),
        )]

    def test_never_means_the_hypergeometric_is_never_reached(self):
        """docs/architecture.md: "protocols whose movers are all actors
        never draw it" -- for the protocols the table says so about --
        and every call that is made, over an array or one element, has
        an element that can draw."""
        class Spy:
            def __init__(self, rng):
                self.rng, self.calls = rng, {"array": 0, "element": 0}

            def __getattr__(self, name):
                return getattr(self.rng, name)

            def hypergeometric(self, ngood, nbad, nsample):
                # An array call, or one element drawn alone (ints).
                self.calls["element" if isinstance(ngood, int) else "array"] += 1
                good, sample = np.asarray(ngood), np.asarray(nsample)
                assert ((good > 0) & (sample > 0)).any() or (
                    sample >= 10
                ).any(), "an overlap call that cannot draw was made"
                return self.rng.hypergeometric(ngood, nbad, nsample)

        def overlaps(spec, n, initial):
            engine = BatchRoundEngine(
                spec, n=n, trials=3, initial=initial, seed=1
            )
            engine._rng = spy = Spy(engine._rng)
            engine.run(40)
            never = not any(
                row["overlap"] for row in engine._planner.describe()
            )
            return never, spy.calls

        for name in REGISTRY:
            never, calls = overlaps(*named(name))
            assert not (never and any(calls.values())), name
        # The table's "with" is reachable: registry endemic at its
        # equilibrium, where a few trials overlap and draw alone, and
        # from a start where half the hosts push, so the push's takes
        # reach ten and the array call is made.
        never, calls = overlaps(*named("endemic", n=10_000))
        assert not never and calls["element"] > 0, calls
        spec, n, _ = named("endemic")
        never, calls = overlaps(spec, n, {"x": n // 2, "y": n // 2})
        assert not never and calls["array"] > 0, calls

    def test_check_complexity_renders_it(self, capsys):
        from repro.__main__ import main

        assert main(["check", "complexity", "endemic", "--n", "1000"]) == 0
        out = capsys.readouterr().out
        assert "batch period program" in out
        lines = out[out.index("batch period program"):].splitlines()
        assert lines[1].split() == ["action", "kind", "edge", "laws", "overlap"]
        assert lines[-1].split(None, 3)[:3] == ["3", "push", "x->y"]
        assert lines[-1].rstrip().endswith("with 2 (anyof x->y)")
        assert all(line.rstrip().endswith("never") for line in lines[3:-1])


# ----------------------------------------------------------------------
# What a period costs, counted in calls
# ----------------------------------------------------------------------
PROFILE = """
import cProfile, json, pstats, sys

from repro.experiment import Protocol
from repro.protocols.endemic import EndemicParams, figure1_protocol
from repro.runtime import BatchRoundEngine

N, TRIALS, PERIODS = 10_000, 32, 200
sparse = EndemicParams(alpha=1e-6, gamma=1e-3, b=2)
registry = EndemicParams(alpha=1e-4, gamma=1e-2, b=2)
cases = {
    "dense": Protocol.from_equations(sys.argv[1]),
    "sparse": Protocol.from_spec(
        figure1_protocol(sparse), sparse.equilibrium_counts(N)
    ),
    "lv": Protocol.named("lv"),
    "figure1-equilibrium": Protocol.from_spec(
        figure1_protocol(registry), registry.equilibrium_counts(N)
    ),
}
calls = {}
for name, protocol in cases.items():
    resolved = protocol.resolve(N)
    engine = BatchRoundEngine(
        resolved.spec, n=N, trials=TRIALS, initial=resolved.initial, seed=3
    )
    profile = cProfile.Profile()
    profile.enable()
    engine.run(PERIODS)
    profile.disable()
    assert engine._pools is None  # never left the census
    calls[name] = pstats.Stats(profile).total_calls / PERIODS
print(json.dumps(calls))
"""


@pytest.fixture(scope="module")
def profiled_calls() -> Dict[str, float]:
    """Profiled calls per period of a count-only ``engine.run``.

    In a fresh interpreter, so the count is the engine's alone: no
    profiler, thread or patch another test left in this one can add to
    it or change which numpy paths are warm.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", PROFILE,
         str(ROOT / "examples" / "endemic.txt")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


class TestPeriodCallBudget:
    """A per-period tax fails here by name, on any machine.

    The counts repeat exactly for a seed (the parent of the lowering
    made 78.1 / 98.9 / 115.9 calls a period on the first three at M =
    32; the program 29.4 / 54.5 / 29.8, and 27.3 / 48.4 / 28.3 once the
    engine wrote its own record rows and the sparse push rode in the
    thinning call; sparse 43.5 once an overlap call that cannot draw
    was no longer made, and 41.0 once a few throws or overlap elements
    were drawn one scalar call each, which took Figure 1 at the
    registry's rates from 122.3 to 85.5; 10 to 20 of them inside
    numpy's generators validating their arguments); the bounds leave
    room for a numpy that validates with a call or two more, and none
    for a per-period hook, counter or copy added to ``step``,
    ``census`` or ``_record``.
    """

    @pytest.mark.parametrize("case, bound", [
        ("dense", 30), ("sparse", 43), ("lv", 31),
        ("figure1-equilibrium", 87),
    ])
    def test_calls_per_period(self, profiled_calls, case, bound):
        assert profiled_calls[case] <= bound, profiled_calls
