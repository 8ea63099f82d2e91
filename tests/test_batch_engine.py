"""Tests for the batched multi-trial engine (repro.runtime.batch_engine).

The two pillars:

* **Exactness** -- the serial tier is the bit-identity anchor: trial
  ``m`` of ``Experiment(engine="serial")`` must equal a hand loop over
  ``RoundEngine(seed=spawn_seeds(seed, M)[m])`` bit for bit (count
  tensors equal elementwise, hence per-period means equal exactly).
* **Distributional equivalence** -- the batch engine draws differently
  but must agree with the serial ensemble in distribution, checked
  against serial means (z-tests, see statutil) and against the
  mean-field ``integrate`` trajectories at N = 2000.
"""

import zlib

import numpy as np
import pytest

import statutil
from test_planner import CONDITIONS, FULL_PROBABILITY_CASES

from repro.experiment import Experiment, Protocol
from repro.odes import library
from repro.odes.integrate import integrate
from repro.protocols.endemic import EndemicParams, figure1_protocol
from repro.protocols.epidemic import pull_protocol
from repro.protocols.lv import lv_protocol
from repro.runtime import (
    BatchMetricsRecorder,
    BatchRoundEngine,
    CensusError,
    RoundEngine,
    spawn_seeds,
)
from repro.runtime.failures import CrashRecoveryNoise, MassiveFailure
from repro.runtime.rng import make_generator
from repro.synthesis import FlipAction, ProtocolSpec, TokenizeAction, synthesize


def token_spec():
    """A synthesized protocol with a tokenized term (-0.4xy in z')."""
    from repro.odes.system import build_system

    return synthesize(build_system(
        "token-demo",
        ["x", "y", "z"],
        {
            "x": [(-0.3, {"x": 1}), (0.4, {"x": 1, "y": 1})],
            "y": [(0.3, {"x": 1}), (-0.5, {"y": 1})],
            "z": [(0.5, {"y": 1}), (-0.4, {"x": 1, "y": 1})],
        },
    ))


def serial_reference(spec, n, trials, initial, periods, seed,
                     connection_failure_rate=0.0):
    """M hand-built RoundEngine runs on the spawned trial seeds.

    The serial tier's independent oracle: one engine and one one-trial
    recorder per trial, merged in trial order -- no executor, no plan.
    """
    seeds = spawn_seeds(seed, trials)
    recorders = []
    for trial_seed in seeds:
        engine = RoundEngine(
            spec, n=n, initial=initial, seed=trial_seed,
            connection_failure_rate=connection_failure_rate,
        )
        recorder = BatchMetricsRecorder(spec.states, 1)
        engine.run(periods, recorder=recorder)
        recorders.append(recorder)
    return BatchMetricsRecorder.merge(recorders), list(seeds)


def serial_tensor(spec, n, trials, initial, periods, seed, **kwargs):
    """Count tensor of :func:`serial_reference`, and its trial seeds."""
    recorder, seeds = serial_reference(
        spec, n, trials, initial, periods, seed, **kwargs
    )
    return recorder.count_tensor(), seeds


def serial_facade(spec, n, trials, initial, periods, seed, **kwargs):
    """The same ensemble through ``Experiment(engine="serial")``."""
    return Experiment(
        Protocol.from_spec(spec, initial), n, trials=trials,
        periods=periods, seed=seed, engine="serial", check="off", **kwargs,
    ).run()


# ----------------------------------------------------------------------
# Exact seed-for-seed agreement (the serial tier)
# ----------------------------------------------------------------------
class TestSerialExactness:
    CASES = [
        # (spec factory, n, initial factory, periods) for three protocol
        # families covering flip, sample, anyof and push actions.
        (
            "endemic",
            lambda: figure1_protocol(EndemicParams(alpha=0.01, gamma=0.1, b=2)),
            400,
            lambda n: EndemicParams(alpha=0.01, gamma=0.1, b=2).equilibrium_counts(n),
            40,
        ),
        (
            "epidemic-pull",
            pull_protocol,
            300,
            lambda n: {"x": n - 10, "y": 10},
            25,
        ),
        (
            "lv",
            lambda: lv_protocol(p=0.05),
            200,
            lambda n: {"x": int(0.6 * n), "y": n - int(0.6 * n), "z": 0},
            30,
        ),
        (
            # Token routing: the delivery path (exact per-trial draw
            # counts) must stay bit-identical across the serial
            # entry points as well.
            "token",
            token_spec,
            300,
            lambda n: {"x": n // 2, "y": n // 4, "z": n - n // 2 - n // 4},
            25,
        ),
    ]

    @pytest.mark.parametrize(
        "name,spec_factory,n,initial_factory,periods",
        CASES, ids=[c[0] for c in CASES],
    )
    def test_count_tensors_match_serial_exactly(
        self, name, spec_factory, n, initial_factory, periods
    ):
        spec = spec_factory()
        initial = initial_factory(n)
        # crc32, not hash(): str hashes are randomized per process, and
        # a seed-dependent failure must be reproducible on rerun.
        trials, seed = 6, 20240 + zlib.crc32(name.encode()) % 1000
        result = serial_facade(spec, n, trials, initial, periods, seed)
        reference, seeds = serial_tensor(
            spec, n, trials, initial, periods, seed
        )
        assert result.trial_seeds == seeds
        assert np.array_equal(result.count_tensor(), reference)
        # Per-period means therefore agree exactly, not just within
        # tolerance.
        assert np.array_equal(
            result.mean_counts(spec.states[0]),
            reference[:, :, 0].mean(axis=0),
        )

    def test_exact_with_connection_failures(self):
        spec = pull_protocol()
        initial = {"x": 280, "y": 20}
        result = serial_facade(spec, 300, 4, initial, 20, 77, loss_rate=0.3)
        reference, _ = serial_tensor(
            spec, 300, 4, initial, 20, 77, connection_failure_rate=0.3
        )
        assert np.array_equal(result.count_tensor(), reference)

    def test_exact_with_hooks(self):
        spec = pull_protocol()
        initial = {"x": 480, "y": 20}
        make_failure = lambda m: MassiveFailure(at_period=8, fraction=0.5)
        result = serial_facade(
            spec, 500, 4, initial, 20, 11, scenario=make_failure
        )
        for m, trial_seed in enumerate(spawn_seeds(11, 4)):
            engine = RoundEngine(spec, n=500, initial=initial, seed=trial_seed)
            serial = BatchMetricsRecorder(spec.states, 1)
            engine.run(20, recorder=serial, hooks=[make_failure(m)])
            expected = np.stack(
                [serial.counts(s)[0] for s in spec.states], axis=1
            )
            assert np.array_equal(result.count_tensor()[m], expected)

    def test_total_messages_exact_in_both_engines(self):
        # The pull epidemic fires every susceptible once per period
        # with one peer contact, so both engines' message counters are
        # an exact function of their own recorded trajectories.
        spec = pull_protocol()
        initial = {"x": 280, "y": 20}
        for trial_seed in spawn_seeds(21, 3):
            engine = RoundEngine(spec, n=300, initial=initial, seed=trial_seed)
            serial = BatchMetricsRecorder(spec.states, 1)
            engine.run(15, recorder=serial)
            assert engine.total_messages == serial.counts("x")[0, :-1].sum()

        vectorized = BatchRoundEngine(
            spec, n=300, trials=3, initial=initial, seed=21, mode="batch",
        )
        susceptible = vectorized.run(15).recorder.counts("x")
        assert vectorized.total_messages.shape == (3,)
        assert np.all(vectorized.total_messages > 0)
        assert np.array_equal(
            vectorized.total_messages, susceptible[:, :-1].sum(axis=1)
        )

    def test_removed_mode_is_rejected_by_name(self):
        # The keyword survives with one legal value; the error tells
        # callers of the old mode where its guarantee lives now.
        with pytest.raises(ValueError, match='engine="serial"'):
            BatchRoundEngine(
                pull_protocol(), n=300, trials=3,
                initial={"x": 280, "y": 20}, seed=21, mode="lockstep",
            )

    def test_transition_tensor_matches_serial(self):
        spec = figure1_protocol(EndemicParams(alpha=0.01, gamma=0.1, b=2))
        initial = {"x": 350, "y": 50, "z": 0}
        result = serial_facade(spec, 400, 3, initial, 30, 5)
        recorder, _ = serial_reference(spec, 400, 3, initial, 30, 5)
        edges = result.edges_seen()
        assert edges
        for edge in edges:
            expected = recorder.transition_tensor(edge)
            assert np.array_equal(result.transition_tensor(edge), expected)


# ----------------------------------------------------------------------
# The one sampler of "who": uniform subsets of pool positions
# ----------------------------------------------------------------------
class TestDenseActorSampling:
    def test_dense_transitions_match_binomial(self):
        # One dense sub-1.0-probability action: movers per trial are
        # Binomial(count, p) and the dense rejection sampler must not
        # bias them.
        spec = ProtocolSpec(
            name="dense-flip", states=("a", "b"),
            actions=(FlipAction("a", 0.12, "b"),),
        )
        trials, n = 24, 2000
        batch = BatchRoundEngine(
            spec, n=n, trials=trials, initial={"a": n}, seed=77
        )
        transitions = batch.step()
        statutil.assert_binomial_cells(
            transitions[("a", "b")], n, np.full(trials, 0.12),
            context="dense flip movers",
        )

    def test_dense_lv_consistency_through_run(self):
        # The LV regime: every action is sub-1.0-probability on a dense
        # state; counts/members must stay consistent under the dense
        # rejection sampler over a long run.
        spec = synthesize(library.lv(), p=0.02)
        batch = BatchRoundEngine(
            spec, n=2000, trials=12,
            initial={"x": 1200, "y": 800, "z": 0}, seed=9,
        )
        for _ in range(30):
            batch.step()
        assert np.all(batch.counts_matrix().sum(axis=1) == 2000)


# ----------------------------------------------------------------------
# Batch mode: internal consistency
# ----------------------------------------------------------------------
class TestBatchModeConsistency:
    def test_invariants_through_dynamics_and_faults(self):
        spec = figure1_protocol(EndemicParams(alpha=0.01, gamma=0.1, b=2))
        n = 600
        batch = BatchRoundEngine(
            spec, n=n, trials=5,
            initial=EndemicParams(alpha=0.01, gamma=0.1, b=2).equilibrium_counts(n),
            seed=31,
        )
        views = batch.trial_views()
        rng = make_generator(32)
        for period in range(40):
            if period == 10:
                for view in views:
                    gone = view.crash_fraction(0.3)
                    assert gone.sum() == 180 == n - view.alive_count()
            if period == 25:
                for view in views:
                    view.recover_uniform(rng, (n - view.alive_count()) // 2)
            batch.step()
            assert np.array_equal(
                batch.counts_matrix().sum(axis=1), batch.alive_counts()
            )
            assert (batch.counts_matrix() >= 0).all()
        assert (batch.alive_counts() == n - 90).all()

    def test_counts_conserved_without_faults(self):
        spec = synthesize(library.lv(), p=0.02)
        batch = BatchRoundEngine(
            spec, n=300, trials=8,
            initial={"x": 150, "y": 100, "z": 50}, seed=3,
        )
        batch.run(50)
        assert np.all(batch.counts_matrix().sum(axis=1) == 300)
        assert np.all(batch.alive_counts() == 300)

    def test_trial_views_are_isolated(self):
        spec = pull_protocol()
        batch = BatchRoundEngine(
            spec, n=200, trials=3, initial={"x": 190, "y": 10}, seed=1
        )
        views = batch.trial_views()
        views[1].crash_uniform(make_generator(0), 100)
        assert views[0].alive_count() == 200
        assert views[1].alive_count() == 100
        assert sum(views[1].counts().values()) == 100
        assert views[2].alive_count() == 200

    def test_tokenize_semantics(self):
        # Oracle token delivery: one mover per fired token while the
        # token-state pool lasts, exactly as in the serial engine.
        spec = ProtocolSpec(
            name="token", states=("w", "z", "u"),
            actions=(
                TokenizeAction(
                    actor_state="w", probability=1.0, target_state="u",
                    required_states=(), token_state="z", ttl=None,
                ),
            ),
        )
        batch = BatchRoundEngine(
            spec, n=100, trials=4, initial={"w": 50, "z": 5, "u": 45}, seed=6
        )
        transitions = batch.step()
        assert np.all(transitions[("z", "u")] == 5)

    def test_rejects_bad_arguments(self):
        spec = pull_protocol()
        with pytest.raises(ValueError):
            BatchRoundEngine(spec, n=1, trials=2, initial={"x": 1})
        with pytest.raises(ValueError):
            BatchRoundEngine(spec, n=10, trials=0, initial={"x": 10})
        with pytest.raises(ValueError):
            BatchRoundEngine(spec, n=10, trials=2, initial={"x": 10}, mode="warp")
        with pytest.raises(ValueError):
            BatchRoundEngine(
                spec, n=10, trials=2, initial={"x": 10},
                connection_failure_rate=1.0,
            )


# ----------------------------------------------------------------------
# Batch mode: distributional equivalence
# ----------------------------------------------------------------------
class TestBatchModeDistribution:
    def test_flip_rates_match_binomial(self):
        spec = ProtocolSpec(
            name="flip", states=("a", "b"),
            actions=(FlipAction("a", 0.2, "b"),),
        )
        batch = BatchRoundEngine(
            spec, n=5000, trials=16, initial={"a": 5000}, seed=8
        )
        transitions = batch.step()
        movers = transitions[("a", "b")]
        # Every trial's mover count is Binomial(5000, 0.2); one
        # Bonferroni family over the 16 trials.
        statutil.assert_binomial_cells(
            movers, 5000, np.full(16, 0.2), context="batched flip movers"
        )

    def test_endemic_window_matches_serial_ensemble(self):
        params = EndemicParams(alpha=0.01, gamma=0.1, b=2)
        spec = figure1_protocol(params)
        n, trials, periods = 2000, 16, 150
        initial = params.equilibrium_counts(n)
        batch = BatchRoundEngine(
            spec, n=n, trials=trials, initial=initial, seed=91
        )
        recorder = batch.run(periods).recorder
        reference, _ = serial_tensor(spec, n, trials, initial, periods, 91)
        # Compare the two ensembles' per-trial stash means over the
        # stationary window: same distribution => compatible means.
        window = recorder.times >= 50
        stash = spec.states.index("y")
        batch_means = recorder.counts("y")[:, window].mean(axis=1)
        serial_means = reference[:, window, stash].mean(axis=1)
        statutil.assert_mean_close(
            batch_means, float(serial_means.mean()),
            context="endemic stash window (batch vs serial)",
        )

    def test_epidemic_tracks_mean_field_at_n2000(self):
        system = library.epidemic()
        spec = synthesize(system)
        n, trials = 2000, 24
        # 1% infected start: past the stochastic-takeoff knife edge.
        initial = {"x": n - 20, "y": 20}
        batch = BatchRoundEngine(
            spec, n=n, trials=trials, initial=initial, seed=14
        )
        recorder = batch.run(60).recorder
        trajectory = integrate(
            system, {"x": (n - 20) / n, "y": 20 / n},
            t_end=spec.time_for_periods(60),
        )
        for period in (20, 30, 45, 60):
            expected = trajectory.at(spec.time_for_periods(period))["y"]
            mean_fraction = float(
                recorder.counts("y")[:, period].mean()
            ) / n
            # Mean-field error is O(1/sqrt(N)) per trial plus ensemble
            # noise; 0.04 absolute on a fraction is ~3 combined sigmas.
            assert mean_fraction == pytest.approx(expected, abs=0.04), period

    def test_lv_tracks_mean_field_at_n2000(self):
        system = library.lv()
        spec = synthesize(system, p=0.01)
        n, trials = 2000, 16
        initial = {"x": 1200, "y": 800, "z": 0}
        batch = BatchRoundEngine(
            spec, n=n, trials=trials, initial=initial, seed=15
        )
        recorder = batch.run(250).recorder
        trajectory = integrate(
            system, {"x": 0.6, "y": 0.4, "z": 0.0},
            t_end=spec.time_for_periods(250),
        )
        for period in (50, 150, 250):
            for state in ("x", "y"):
                expected = trajectory.at(spec.time_for_periods(period))[state]
                mean_fraction = float(
                    recorder.counts(state)[:, period].mean()
                ) / n
                assert mean_fraction == pytest.approx(expected, abs=0.05), (
                    period, state,
                )

    def test_massive_failure_halves_alive_everywhere(self):
        spec = pull_protocol()
        batch = BatchRoundEngine(
            spec, n=1000, trials=6, initial={"x": 990, "y": 10}, seed=4
        )
        result = batch.run(
            20, hook_factories=[
                lambda m: MassiveFailure(at_period=10, fraction=0.5)
            ],
        )
        alive = result.recorder.alive_tensor()
        assert np.all(alive[:, 9] == 1000)
        assert np.all(alive[:, 12] == 500)

    def test_crash_recovery_noise_runs_batched(self):
        spec = pull_protocol()
        batch = BatchRoundEngine(
            spec, n=500, trials=4, initial={"x": 490, "y": 10}, seed=21
        )
        batch.run(
            30, hook_factories=[
                lambda m: CrashRecoveryNoise(
                    crash_rate=0.02, recovery_rate=0.1, seed=100 + m
                )
            ],
        )
        assert np.array_equal(
            batch.counts_matrix().sum(axis=1), batch.alive_counts()
        )
        assert np.all(batch.alive_counts() < 500)


class TestFullProbabilityTrajectories:
    """Probability-1 sample/anyof/tokenize: batch law == serial runs.

    The batch engine thins these actions by the count law; the serial
    engine (``Experiment(engine="serial")`` is a hand loop over seeded
    RoundEngines bit for bit, see TestSerialExactness) draws every peer.  Whole
    trajectories must agree in distribution, under loss and through a
    mid-run massive failure as well.
    """

    @pytest.mark.parametrize("condition", sorted(CONDITIONS))
    @pytest.mark.parametrize("name", sorted(FULL_PROBABILITY_CASES))
    def test_batch_matches_serial_ensemble(self, name, condition):
        spec, layout, edge, _ = FULL_PROBABILITY_CASES[name]
        loss, kill = CONDITIONS[condition]
        initial = dict(layout)
        n, trials, periods = sum(initial.values()), 32, 8
        options = dict(
            loss_rate=loss, scenario="massive-failure" if kill else None
        )
        serial = serial_facade(
            spec, n, trials, initial, periods, 71, **options
        ).count_tensor()
        batch = Experiment(
            Protocol.from_spec(spec, initial), n, trials=trials,
            periods=periods, seed=72, engine="batch", check="off", **options,
        ).run().count_tensor()
        source = spec.states.index(edge[0])
        # Early, just past the kill (period 4) and at the horizon.
        checkpoints = (2, 5, periods)
        for period in checkpoints:
            statutil.assert_means_agree(
                batch[:, period, source], serial[:, period, source],
                comparisons=len(checkpoints),
                context=f"{name} ({condition}) '{edge[0]}' at {period}",
            )


# ----------------------------------------------------------------------
# BatchMetricsRecorder
# ----------------------------------------------------------------------
class TestBatchMetricsRecorder:
    def make_recorder(self):
        recorder = BatchMetricsRecorder(("a", "b"), trials=3)
        recorder.record(
            0, np.array([[10, 0], [9, 1], [8, 2]]), np.array([10, 10, 10])
        )
        recorder.record(
            1, np.array([[6, 4], [5, 5], [4, 6]]), np.array([10, 10, 10]),
            transitions={("a", "b"): np.array([4, 4, 4])},
        )
        return recorder

    def test_tensor_shapes(self):
        recorder = self.make_recorder()
        assert recorder.count_tensor().shape == (3, 2, 2)
        assert recorder.counts("a").shape == (3, 2)
        assert recorder.alive_tensor().shape == (3, 2)
        assert recorder.transition_tensor(("a", "b")).shape == (3, 2)

    def test_reducers(self):
        recorder = self.make_recorder()
        assert recorder.mean_counts("a").tolist() == [9.0, 5.0]
        assert recorder.quantile_counts("a", 0.5).tolist() == [9.0, 5.0]
        assert recorder.mean_fractions("b").tolist() == pytest.approx([0.1, 0.5])
        assert recorder.mean_transitions(("a", "b")).tolist() == [0.0, 4.0]
        assert recorder.mean_alive().tolist() == [10.0, 10.0]
        assert recorder.std_counts("a")[1] == pytest.approx(
            np.std([6, 5, 4])
        )
        assert recorder.edges_seen() == [("a", "b")]
        assert recorder.last_counts().tolist() == [[6, 4], [5, 5], [4, 6]]

    def test_stride_skips_periods(self):
        recorder = BatchMetricsRecorder(("a",), trials=1, stride=2)
        for period in range(5):
            recorder.record(period, np.array([[1]]), np.array([1]))
        assert recorder.times.tolist() == [0, 2, 4]

    def test_shape_mismatch_rejected(self):
        recorder = BatchMetricsRecorder(("a", "b"), trials=2)
        with pytest.raises(ValueError):
            recorder.record(0, np.zeros((3, 2)), np.zeros(3))

    def test_empty_recorder_tensors(self):
        recorder = BatchMetricsRecorder(("a", "b"), trials=4)
        assert recorder.count_tensor().shape == (4, 0, 2)
        assert recorder.counts("a").shape == (4, 0)
        assert recorder.alive_tensor().shape == (4, 0)

    def test_member_log_is_the_serial_tiers(self):
        # Figure 8's stasher log asks which hosts: the batch tier's
        # census refuses it by name, and a serial trial logs its own
        # member sets.
        spec = pull_protocol()
        batch = BatchRoundEngine(
            spec, n=100, trials=3, initial={"x": 90, "y": 10}, seed=13
        )
        recorder = BatchMetricsRecorder(spec.states, 3, member_log_state="y")
        with pytest.raises(CensusError, match='engine="serial"'):
            batch.run(5, recorder=recorder)
        engine = RoundEngine(spec, n=100, initial={"x": 90, "y": 10}, seed=13)
        recorder = BatchMetricsRecorder(spec.states, 1, member_log_state="y")
        engine.run(5, recorder=recorder)
        log = recorder.trial_member_log(0)
        assert [p for p, _ in log] == list(range(6))  # initial + 5 periods
        assert np.array_equal(log[-1][1], engine.members_in("y"))
        assert log[-1][1].size == engine.counts()["y"]

    def test_member_log_disabled_raises(self):
        recorder = BatchMetricsRecorder(("a",), trials=2)
        with pytest.raises(RuntimeError):
            recorder.trial_member_log(0)

    def test_member_log_feeds_fairness_analysis(self):
        from repro.analysis.fairness import analyze_member_log

        spec = figure1_protocol(EndemicParams(alpha=0.01, gamma=0.1, b=2))
        n = 500
        initial = EndemicParams(alpha=0.01, gamma=0.1, b=2).equilibrium_counts(n)
        for seed in (17, 18):
            recorder = BatchMetricsRecorder(
                spec.states, 1, member_log_state="y"
            )
            RoundEngine(spec, n=n, initial=initial, seed=seed).run(
                60, recorder=recorder
            )
            result = analyze_member_log(
                recorder.trial_member_log(0), n, gamma=0.1
            )
            assert 0 < result.hosts_ever_responsible <= n
            assert result.periods_observed == 61


class ListRecorder(BatchMetricsRecorder):
    """The recorder as it was before the slabs: lists, stacked on read.

    Records into the slabs *and* into per-period lists of copies, the
    reference the slab-built tensors must equal bit for bit.  It taps
    ``_append``, where ``record`` (past its checks) and the engine's own
    recording both write.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.listed = []

    def _append(self, period, counts, alive, transitions, members=None):
        super()._append(period, counts, alive, transitions, members)
        self.listed.append((
            np.array(counts, dtype=np.int64), np.array(alive, dtype=np.int64),
            {e: np.array(v, dtype=np.int64)
             for e, v in (transitions or {}).items()},
        ))

    def check(self):
        assert len(self.listed) == len(self.periods)
        assert np.array_equal(
            self.count_tensor(), np.stack([c for c, _, _ in self.listed], axis=1)
        )
        assert self.count_tensor().flags.c_contiguous
        assert np.array_equal(
            self.alive_tensor(), np.stack([a for _, a, _ in self.listed], axis=1)
        )
        for index, state in enumerate(self.states):
            assert np.array_equal(
                self.counts(state),
                np.stack([c[:, index] for c, _, _ in self.listed], axis=1),
            )
        assert np.array_equal(self.last_counts(), self.listed[-1][0])
        zero = np.zeros(self.trials, dtype=np.int64)
        edges = sorted({
            e for _, _, t in self.listed for e, v in t.items() if v.any()
        })
        assert self.edges_seen() == edges
        for edge in edges + [("nobody", "moved")]:
            assert np.array_equal(
                self.transition_tensor(edge),
                np.stack([t.get(edge, zero) for _, _, t in self.listed], axis=1),
            )


class TestRecorderSlabs:
    """The slabs grow by doubling and read back what the lists held."""

    @pytest.fixture(autouse=True)
    def small_slabs(self, monkeypatch):
        """Nothing reserved and a first slab of 16 rows, so these runs
        outgrow their slabs."""
        from repro.runtime import metrics

        monkeypatch.setattr(metrics, "_FIRST_SLAB", 1)
        monkeypatch.setattr(metrics, "_RESERVE_CAP", 1)

    def run(self, periods, calls=1, **kwargs):
        run_kwargs = {
            k: kwargs.pop(k) for k in ("record_initial",) if k in kwargs
        }
        params = EndemicParams(alpha=0.01, gamma=0.1, b=2)
        spec = figure1_protocol(params)
        engine = BatchRoundEngine(
            spec, n=200, trials=3, initial=params.equilibrium_counts(200),
            seed=19,
        )
        recorder = ListRecorder(spec.states, 3, **kwargs)
        for _ in range(calls):
            engine.run(periods, recorder=recorder, **run_kwargs)
        return recorder

    def test_outgrowing_the_first_slab_many_times(self):
        recorder = self.run(8_000)
        assert recorder.times.tolist() == list(range(8_001))
        assert len(recorder._counts) == 8_192  # 16 rows, doubled 9 times
        recorder.check()

    def test_the_first_slab_is_sized_in_bytes(self, monkeypatch):
        from repro.runtime import metrics

        monkeypatch.setattr(metrics, "_FIRST_SLAB", 1 << 20)
        recorder = self.run(5)
        assert len(recorder._counts) == (1 << 20) // (3 * 3 * 4)
        assert len(recorder._alive) == len(recorder._counts)
        recorder.check()

    def test_a_run_reserves_its_own_length(self, monkeypatch):
        from repro.runtime import metrics

        monkeypatch.setattr(metrics, "_RESERVE_CAP", 64 << 20)
        recorder = self.run(300, calls=2)
        # The first run() cuts the slabs to what it can record (302
        # rows); the second needs 301 + 302 rows and grows them to at
        # least twice their capacity.
        assert len(recorder.periods) == 601
        assert len(recorder._counts) == 2 * 302
        assert all(len(s) == 604 for s in recorder._transitions.values())
        recorder.check()

    def test_runs_of_one_period_grow_the_slabs_geometrically(
        self, monkeypatch
    ):
        from repro.runtime import metrics

        monkeypatch.setattr(metrics, "_RESERVE_CAP", 64 << 20)
        grows = []
        grow = metrics.BatchMetricsRecorder._grow

        def counted(recorder, capacity):
            grows.append(capacity)
            grow(recorder, capacity)

        monkeypatch.setattr(metrics.BatchMetricsRecorder, "_grow", counted)
        calls = 2_000
        recorder = self.run(1, calls=calls)
        assert recorder.times.tolist() == list(range(calls + 1))
        # 3 rows, then doubling: 3 * 2**10 >= 2,001 after ten more.
        assert grows == [3 * 2**k for k in range(11)]
        recorder.check()

    def test_a_far_horizon_is_not_mapped(self, monkeypatch):
        from repro.runtime import metrics

        monkeypatch.setattr(metrics, "_RESERVE_CAP", 40 * 3 * 3 * 4)
        params = EndemicParams(alpha=0.01, gamma=0.1, b=2)
        spec = figure1_protocol(params)
        engine = BatchRoundEngine(
            spec, n=200, trials=3, initial=params.equilibrium_counts(200),
            seed=19,
        )
        recorder = ListRecorder(spec.states, 3)
        engine.run(10**12, recorder=recorder, stop=lambda e: e.period == 100)
        assert len(recorder.periods) == 101
        assert len(recorder._counts) == 160  # 40 reserved, doubled twice
        recorder.check()

    def test_stride_seven(self):
        recorder = self.run(500, stride=7)
        assert recorder.times.tolist() == list(range(0, 501, 7))
        recorder.check()

    def test_without_the_initial_record(self):
        recorder = self.run(100, record_initial=False)
        assert recorder.times.tolist() == list(range(1, 101))
        recorder.check()

    def test_the_engine_writes_its_own_rows(self, monkeypatch):
        """``run`` appends its known-good arrays past ``record``'s
        checks; only a (serial) member log goes through ``record``."""
        checked = []
        record = BatchMetricsRecorder.record

        def spy(recorder, period, *args, **kwargs):
            checked.append(period)
            record(recorder, period, *args, **kwargs)

        monkeypatch.setattr(BatchMetricsRecorder, "record", spy)
        recorder = self.run(30, stride=3)
        assert checked == []
        assert recorder.times.tolist() == list(range(0, 31, 3))
        recorder.check()
        # A member log is the serial tier's, and it is checked.
        params = EndemicParams(alpha=0.01, gamma=0.1, b=2)
        spec = figure1_protocol(params)
        logged = ListRecorder(spec.states, 1, stride=3, member_log_state="y")
        RoundEngine(
            spec, n=200, initial=params.equilibrium_counts(200), seed=19
        ).run(30, recorder=logged)
        assert checked == logged.times.tolist() == list(range(0, 31, 3))
        assert [period for period, _ in logged.member_log] == checked
        logged.check()

    def test_run_called_twice_on_one_recorder(self):
        recorder = self.run(40, calls=2)
        assert recorder.times.tolist() == list(range(81))
        recorder.check()

    def test_tensors_are_copies(self):
        recorder = self.run(20)
        recorder.count_tensor()[:] = -1
        recorder.alive_tensor()[:] = -1
        recorder.counts("x")[:] = -1
        recorder.transition_tensor(recorder.edges_seen()[0])[:] = -1
        recorder.check()

    def test_pickle_carries_the_rows_not_the_capacity(self):
        import pickle

        recorder = self.run(100)  # 101 rows in slabs of 128
        assert len(recorder._counts) == 128
        rows = len(recorder.periods)
        assert len(recorder._counts) > rows
        clone = pickle.loads(pickle.dumps(recorder))
        assert len(clone._counts) == len(clone._alive) == rows
        assert all(len(s) == rows for s in clone._transitions.values())
        assert np.array_equal(clone.count_tensor(), recorder.count_tensor())
        # ... and goes on recording where it stopped.
        clone.record(101, recorder.last_counts(), np.full(3, 200))
        assert clone.count_tensor().shape == (3, rows + 1, 3)
        assert np.array_equal(
            clone.count_tensor()[:, :rows], recorder.count_tensor()
        )

    def test_merge_is_one_concatenate_per_slab(self):
        parts = [self.run(30), self.run(30), self.run(30)]
        merged = BatchMetricsRecorder.merge(parts)
        assert merged.trials == 9 and merged.periods == parts[0].periods
        assert np.array_equal(
            merged.count_tensor(),
            np.concatenate([p.count_tensor() for p in parts], axis=0),
        )
        assert np.array_equal(
            merged.alive_tensor(),
            np.concatenate([p.alive_tensor() for p in parts], axis=0),
        )
        for edge in parts[0].edges_seen():
            assert np.array_equal(
                merged.transition_tensor(edge),
                np.concatenate([p.transition_tensor(edge) for p in parts]),
            )
        # The merged recorder is a recorder: it records on.
        merged.record(31, merged.last_counts(), np.full(9, 200))
        assert merged.count_tensor().shape == (9, 32, 3)

    def test_merge_fills_an_edge_one_part_never_saw(self):
        a = BatchMetricsRecorder(("a", "b"), 2)
        b = BatchMetricsRecorder(("a", "b"), 1)
        for period in range(3):
            a.record(period, np.zeros((2, 2), dtype=int), np.zeros(2, dtype=int),
                     transitions={("a", "b"): np.array([period, 1])})
            b.record(period, np.zeros((1, 2), dtype=int), np.zeros(1, dtype=int))
        merged = BatchMetricsRecorder.merge([a, b])
        assert merged.transition_tensor(("a", "b")).tolist() == [
            [0, 1, 2], [1, 1, 1], [0, 0, 0],
        ]

    def test_merge_refuses_parts_of_different_recorded_length(self):
        longer, shorter = self.run(12), self.run(11)
        with pytest.raises(ValueError, match="recording schedule"):
            BatchMetricsRecorder.merge([longer, shorter])

    @pytest.mark.parametrize("alive", [
        10, np.int64(10), np.full((3, 1), 10), np.full(2, 10), [[10, 10, 10]],
    ])
    def test_misshapen_alive_is_refused(self, alive):
        recorder = BatchMetricsRecorder(("a", "b"), trials=3)
        with pytest.raises(
            ValueError, match=r"alive shape .* need .* \(3, 2\) and \(3,\)"
        ):
            recorder.record(0, np.zeros((3, 2), dtype=np.int64), alive)
        assert recorder.periods == []

    def test_float_observations_are_refused(self):
        recorder = BatchMetricsRecorder(("a", "b"), trials=3)
        counts, alive = np.full((3, 2), 5), np.full(3, 10)
        with pytest.raises(ValueError, match=r"counts shape \(3, 2\) dtype float64"):
            recorder.record(0, counts + 0.5, alive)
        with pytest.raises(ValueError, match=r"alive shape \(3,\) dtype float64"):
            recorder.record(0, counts, alive / 1.0)
        assert recorder.periods == []
        recorder.record(0, counts.astype(np.int32), alive.tolist())
        assert recorder.count_tensor().dtype == np.int64
        assert recorder.alive_tensor().tolist() == [[10], [10], [10]]

    @pytest.mark.parametrize("moved", [
        5, np.array([1.9, 2.7, 0.5]), np.array([1, 2]),
    ], ids=["scalar", "floats", "short"])
    def test_bad_transitions_are_refused_before_any_write(self, moved):
        recorder = BatchMetricsRecorder(
            ("a", "b"), trials=3, member_log_state="b"
        )
        counts, alive = np.full((3, 2), 5), np.full(3, 10)
        members = [np.array([m]) for m in range(3)]
        recorder.record(0, counts, alive, {("a", "b"): np.arange(3)}, members)

        def observed():
            return (
                list(recorder.periods), recorder.count_tensor(),
                recorder.alive_tensor(),
                recorder.transition_tensor(("a", "b")),
                recorder.transition_tensor(("b", "a")),
                [(p, [m.tolist() for m in ms]) for p, ms in recorder.member_log],
            )

        before = observed()
        with pytest.raises(ValueError, match=r"transitions \('b', 'a'\)"):
            recorder.record(
                1, counts, alive,
                {("a", "b"): np.ones(3, dtype=int), ("b", "a"): moved},
                members,
            )
        after = observed()
        assert before[0] == after[0] == [0]
        for old, new in zip(before[1:5], after[1:5]):
            assert np.array_equal(old, new)
        assert before[5] == after[5]


class TestInt32Slabs:
    """The slabs hold 4 bytes a count; every reader still sees int64."""

    def test_a_long_run_keeps_four_bytes_a_count(self):
        params = EndemicParams(alpha=1e-6, gamma=1e-3, b=2)
        spec = figure1_protocol(params)
        engine = BatchRoundEngine(
            spec, n=10_000, trials=32,
            initial=params.equilibrium_counts(10_000), seed=23,
        )
        recorder = ListRecorder(spec.states, 32)
        engine.run(8_000, recorder=recorder)
        assert len(recorder.periods) == 8_001
        assert recorder._counts.itemsize == 4
        assert recorder._counts.dtype == recorder._alive.dtype == np.int32
        assert recorder._transitions
        assert all(s.dtype == np.int32 for s in recorder._transitions.values())
        recorder.check()  # equal to the int64 lists, accessor by accessor
        edge = recorder.edges_seen()[0]
        for out in (
            recorder.count_tensor(), recorder.counts("y"),
            recorder.alive_tensor(), recorder.transition_tensor(edge),
            recorder.transition_tensor(("nobody", "moved")),
            recorder.last_counts(),
        ):
            assert out.dtype == np.int64 and out.flags.c_contiguous

    def test_merge_and_pickle_keep_the_slab_dtype(self):
        import pickle

        params = EndemicParams(alpha=0.01, gamma=0.1, b=2)
        spec = figure1_protocol(params)
        parts = []
        for seed in (1, 2):
            recorder = BatchMetricsRecorder(spec.states, 3)
            BatchRoundEngine(
                spec, n=200, trials=3, initial=params.equilibrium_counts(200),
                seed=seed,
            ).run(50, recorder=recorder)
            parts.append(pickle.loads(pickle.dumps(recorder)))
        merged = BatchMetricsRecorder.merge(parts)
        slabs = [merged._counts, merged._alive, *merged._transitions.values()]
        assert all(slab.dtype == np.int32 for slab in slabs)
        assert merged.count_tensor().dtype == np.int64
        assert np.array_equal(
            merged.count_tensor(),
            np.concatenate([p.count_tensor() for p in parts]),
        )

    @pytest.mark.parametrize("field", ["counts", "alive", "transitions"])
    @pytest.mark.parametrize("value", [2**40, 2**31, -(2**31) - 1])
    def test_a_value_past_int32_is_refused_by_name(self, field, value):
        recorder = BatchMetricsRecorder(("a", "b"), trials=3)
        rows = {
            "counts": np.full((3, 2), 5), "alive": np.full(3, 10),
            "transitions": {("a", "b"): np.ones(3, dtype=np.int64)},
        }
        recorder.record(0, **rows)
        if field == "transitions":
            rows[field][("a", "b")][1] = value
        else:
            rows[field][-1] = value
        name = "transitions \\('a', 'b'\\)" if field == "transitions" else field
        with pytest.raises(
            ValueError, match=f"^{name} holds {value}, outside .* int32"
        ):
            recorder.record(1, **rows)
        assert recorder.periods == [0]
        assert recorder.count_tensor().tolist() == [[[5, 5]]] * 3

    def test_the_int32_extremes_read_back_exactly(self):
        recorder = BatchMetricsRecorder(("a", "b"), trials=2)
        top, bottom = 2**31 - 1, -(2**31)
        counts = np.array([[top, 0], [bottom, 7]])
        recorder.record(0, counts, np.array([top, 1], dtype=np.uint64),
                        {("a", "b"): np.array([top, bottom])})
        assert recorder.count_tensor()[:, 0].tolist() == counts.tolist()
        assert recorder.alive_tensor().tolist() == [[top], [1]]
        assert recorder.transition_tensor(("a", "b")).tolist() == [
            [top], [bottom],
        ]
        # uint64 beside int64 is checked exactly too.
        with pytest.raises(ValueError, match=f"^alive holds {2**63}, "):
            recorder.record(1, counts, np.array([2**63, 1], dtype=np.uint64))
        with pytest.raises(ValueError, match=f"^counts holds {top + 1}, "):
            recorder.record(1, counts + 1, np.array([1, 1]))
        assert recorder.periods == [0]

    def test_the_first_slab_is_sized_by_the_slab_not_the_caller(
        self, monkeypatch
    ):
        from repro.runtime import metrics

        monkeypatch.setattr(metrics, "_FIRST_SLAB", 1 << 20)
        lengths = []
        for dtype in (np.int8, np.int32, np.int64):
            recorder = BatchMetricsRecorder(("a", "b", "c"), trials=3)
            recorder.record(
                0, np.ones((3, 3), dtype=dtype), np.full(3, 3, dtype=dtype)
            )
            lengths.append(len(recorder._counts))
        assert lengths == [(1 << 20) // (3 * 3 * 4)] * 3


class TestGroupSizeCeiling:
    """No engine runs a group its recorder's int32 slabs cannot count."""

    @staticmethod
    def traced_peak(build):
        import tracemalloc

        tracemalloc.start()
        try:
            build()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("engine", ["batch", "serial"])
    def test_a_group_past_int32_is_refused_before_any_allocation(
        self, engine
    ):
        from repro.runtime.metrics import GROUP_SIZE_LIMIT

        params = EndemicParams(alpha=0.01, gamma=0.1, b=2)
        spec, n = figure1_protocol(params), GROUP_SIZE_LIMIT + 1
        fractions = {"x": 0.5, "y": 0.3, "z": 0.2}

        def build():
            with pytest.raises(
                ValueError, match=f"group size {n} exceeds {n - 1}"
            ):
                if engine == "batch":
                    BatchRoundEngine(spec, n=n, trials=2, initial=fractions)
                else:
                    RoundEngine(spec, n=n, initial=fractions)

        assert self.traced_peak(build) < 1 << 20

    def test_a_point_past_int32_is_refused_when_built(self):
        from repro.experiment.point import RunPoint

        with pytest.raises(ValueError, match="group size 2147483648 exceeds"):
            RunPoint("endemic", 2**31, 0.0, "none", 2, 5, 1)
        RunPoint("endemic", 2**31 - 1, 0.0, "none", 2, 5, 1)

    def test_a_billion_hosts_allocate_nothing_per_host(self):
        params = EndemicParams(alpha=0.01, gamma=0.1, b=2)
        spec = figure1_protocol(params)
        fractions = {"x": 0.5, "y": 0.3, "z": 0.2}
        BatchRoundEngine(spec, n=1_000, trials=4, initial=fractions)  # warm
        built = []

        def build():
            built.append(BatchRoundEngine(
                spec, n=10**9, trials=4, initial=fractions, seed=5,
            ))

        assert self.traced_peak(build) < 1 << 20
        engine = built[0]
        assert engine.counts_matrix().tolist() == [
            [5 * 10**8, 3 * 10**8, 2 * 10**8]
        ] * 4
        assert np.array_equal(engine.alive_counts(), np.full(4, 10**9))

    @pytest.mark.parametrize("n, initial", [
        (10, {"x": 0.5, "y": 0.3, "z": 0.2}),
        (7, {"x": 1 / 3, "y": 1 / 3, "z": 1 / 3}),
        (1_001, {"x": 0.25, "z": 0.75}),
        (200, {"x": 120, "y": 60, "z": 20}),
        (13, {"y": 1.0}),
    ])
    def test_initial_counts_are_the_host_vectors_census(self, n, initial):
        from repro.runtime import initial_counts, initial_state_vector

        states = ("x", "y", "z")
        counts = initial_counts(states, n, initial)
        assert counts.dtype == np.int64 and counts.sum() == n
        assert np.array_equal(
            counts,
            np.bincount(initial_state_vector(states, n, initial), minlength=3),
        )


class TestBatchRunResult:
    def test_final_counts_and_means(self):
        spec = pull_protocol()
        batch = BatchRoundEngine(
            spec, n=400, trials=5, initial={"x": 396, "y": 4}, seed=10
        )
        result = batch.run(40)
        finals = result.final_counts()
        assert set(finals) == {"x", "y"}
        assert all(v.shape == (5,) for v in finals.values())
        total = finals["x"] + finals["y"]
        assert np.all(total == 400)
        means = result.mean_final_counts()
        assert means["y"] == pytest.approx(float(finals["y"].mean()))
        # The epidemic takes over in every trial.
        assert np.all(finals["y"] == 400)


class TestRunFixedCosts:
    """What a run nobody perturbs no longer pays for."""

    def test_fault_streams_are_built_on_first_use_and_unmoved(self):
        # The per-trial fault generators are spawned at construction
        # (that fixes every stream) and built at a trial's first
        # failure.  Golden captured on the commit that built all of
        # them eagerly: the count tensor that follows from the victims.
        if not np.__version__.startswith("2.4."):
            pytest.skip(f"no fault-stream goldens for numpy {np.__version__}")
        params = EndemicParams(alpha=0.01, gamma=0.1, b=2)
        engine = BatchRoundEngine(
            figure1_protocol(params), n=400, trials=6,
            initial=params.equilibrium_counts(400), seed=101,
        )
        assert engine._fault_rngs == {}
        hooks = [MassiveFailure(at_period=10, fraction=0.5) for _ in range(6)]
        result = engine.run(20, hook_factories=[lambda m: hooks[m]])
        assert sorted(engine._fault_rngs) == list(range(6))
        assert all(hook.victims.sum() == 200 for hook in hooks)
        tensor = np.ascontiguousarray(
            result.recorder.count_tensor(), dtype=np.int64
        )
        assert zlib.crc32(tensor.tobytes()) == 1185499212

    def test_only_hooked_trials_are_walked(self):
        spec = pull_protocol()
        batch = BatchRoundEngine(
            spec, n=200, trials=4, initial={"x": 190, "y": 10}, seed=1
        )
        seen = []

        def factory(m):
            return (lambda view: seen.append(view.trial)) if m == 2 else None

        batch.run(3, hook_factories=[factory])
        assert seen == [2, 2, 2]

    def test_scenario_none_gives_no_hooks(self):
        from repro.experiment.scenario import Scenario

        experiment = Experiment(
            Protocol.named("endemic"), n=300, trials=4, periods=5, seed=1,
        )
        context = experiment.point
        assert [
            Scenario.named("none").hook_factory(context)(m) for m in range(4)
        ] == [None] * 4
        hook = Scenario.named("massive-failure").hook_factory(context)(0)
        assert callable(hook)
