"""Tests for the repro.experiment facade.

The load-bearing guarantees:

* the serial engine is *bit-identical* to a hand loop over seeded
  ``RoundEngine`` runs on the regression pair (endemic, LV) at small
  N, with and without scenarios;
* ``engine="auto"`` selects serial for one trial and batch for
  ensembles;
* the three Protocol constructors resolve to runnable (spec, initial)
  pairs, with ``# param:`` directives and equilibrium-default initials;
* pre-facade entry points stay importable and green behind deprecation
  shims;
* the ``python -m repro run`` zero-to-aha path works end to end.
"""

import warnings

import numpy as np
import pytest

from repro.__main__ import main
from repro.campaign import (
    CampaignPoint,
    resolve_protocol,
    scenario_builder,
    scenario_seeds,
)
from repro.experiment import (
    ENGINES,
    Experiment,
    ExperimentResult,
    Protocol,
    RunContext,
    Scenario,
    parse_param_directives,
)
from repro.protocols.endemic import EndemicParams, figure1_protocol
from repro.runtime import BatchMetricsRecorder, RoundEngine
from repro.runtime.rng import spawn_seeds
from repro.synthesis import synthesize
from repro.odes import library

ENDEMIC_TEXT = """
# param: beta = 4  gamma = 0.5  alpha = 0.05
x' = -beta*x*y + alpha*z
y' =  beta*x*y - gamma*y
z' =  gamma*y  - alpha*z
"""


class TestParamDirectives:
    def test_parse(self):
        assert parse_param_directives(ENDEMIC_TEXT) == {
            "beta": 4.0, "gamma": 0.5, "alpha": 0.05,
        }

    def test_multiple_lines_and_colon_optional(self):
        text = "# param: a = 1\n# param b=2.5e-3\nx' = -a*x*y\ny' = a*x*y - b*y\n"
        assert parse_param_directives(text) == {"a": 1.0, "b": 2.5e-3}

    def test_malformed_directive_raises(self):
        with pytest.raises(ValueError, match="malformed param directive"):
            parse_param_directives("# param: beta equals four\nx' = -x*y\n")

    def test_no_directives(self):
        assert parse_param_directives("x' = -x*y\ny' = x*y\n") == {}

    def test_colonless_prose_comment_is_not_a_directive(self):
        # A comment that merely starts with the word "param" must stay
        # an ordinary comment; only the explicit '# param:' form is
        # required to parse.
        text = "# param names are greek letters\nx' = -x*y\ny' = x*y\n"
        assert parse_param_directives(text) == {}


class TestProtocolHandles:
    def test_from_equations_text(self):
        protocol = Protocol.from_equations(ENDEMIC_TEXT, name="endemic")
        resolved = protocol.resolve(1000)
        assert resolved.spec.states == ("x", "y", "z")
        assert protocol.source == "equations"
        # Default initial: the stable equilibrium (x* = gamma/beta).
        assert resolved.initial["x"] == pytest.approx(0.125, abs=1e-6)
        assert sum(resolved.initial.values()) == pytest.approx(1.0)

    def test_from_equations_file(self, tmp_path):
        path = tmp_path / "endemic.txt"
        path.write_text(ENDEMIC_TEXT)
        protocol = Protocol.from_equations(str(path))
        assert protocol.label == "endemic"
        assert protocol.resolve(500).spec.states == ("x", "y", "z")

    def test_explicit_parameters_override_directives(self):
        protocol = Protocol.from_equations(
            ENDEMIC_TEXT, parameters={"gamma": 0.25}, name="endemic"
        )
        # x* = gamma/beta with the overridden gamma.
        assert protocol.equilibrium_fractions()["x"] == pytest.approx(
            0.25 / 4, abs=1e-6
        )

    def test_from_equations_auto_rewrites(self):
        protocol = Protocol.from_equations(
            "x' = 3*x - 3*x^2 - 6*x*y\ny' = 3*y - 3*y^2 - 6*x*y",
            p=0.01, name="lv-raw",
        )
        # auto_rewrite introduced the slack state z.
        assert protocol.resolve(100).spec.states == ("x", "y", "z")

    def test_from_equations_initial_override(self):
        protocol = Protocol.from_equations(
            ENDEMIC_TEXT, initial={"x": 0.9, "y": 0.1}, name="endemic"
        )
        assert protocol.resolve(100).initial == {"x": 0.9, "y": 0.1}

    def test_named_resolves_registry(self):
        protocol = Protocol.named("endemic")
        resolved = protocol.resolve(1000)
        assert resolved.spec.states == ("x", "y", "z")
        assert sum(resolved.initial.values()) == pytest.approx(1000)

    def test_named_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown protocol"):
            Protocol.named("nope")

    def test_from_spec(self):
        params = EndemicParams(alpha=1e-4, gamma=1e-2, b=2)
        spec = figure1_protocol(params)
        protocol = Protocol.from_spec(spec, params.equilibrium_counts(400))
        resolved = protocol.resolve(400)
        assert resolved.spec is spec

    def test_equilibrium_counts_scale_with_n(self):
        protocol = Protocol.from_equations(ENDEMIC_TEXT, name="endemic")
        counts = protocol.equilibrium_counts(2000)
        assert counts["x"] == pytest.approx(250.0, rel=1e-6)
        assert sum(counts.values()) == pytest.approx(2000.0)

    def test_resolve_protocol_returns_handle(self):
        handle = resolve_protocol("lv")
        assert isinstance(handle, Protocol)
        assert handle.resolve(200).spec.states == ("x", "y", "z")


class TestEngineSelection:
    def test_auto_single_trial_serial(self):
        exp = Experiment(Protocol.named("lv"), n=100, periods=5)
        assert exp.chosen_engine == "serial"
        assert exp.run().engine == "serial"

    def test_auto_ensemble_batch(self):
        exp = Experiment(Protocol.named("lv"), n=100, trials=3, periods=5)
        assert exp.chosen_engine == "batch"
        assert exp.run().engine == "batch"

    def test_registry_name_accepted_directly(self):
        result = Experiment("endemic", n=200, trials=2, periods=5).run()
        assert result.engine == "batch"

    def test_invalid_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            Experiment(Protocol.named("lv"), n=100, periods=5, engine="warp")

    def test_raw_spec_rejected_with_hint(self):
        spec = synthesize(library.epidemic())
        with pytest.raises(TypeError, match="from_spec"):
            Experiment(spec, n=100, periods=5)

    def test_unseeded_run_records_a_replayable_seed(self):
        first = Experiment(
            Protocol.named("endemic"), n=200, trials=2, periods=10
        )
        assert isinstance(first.seed, int)
        replay = Experiment(
            Protocol.named("endemic"), n=200, trials=2, periods=10,
            seed=first.seed,
        )
        assert np.array_equal(
            first.run().count_tensor(), replay.run().count_tensor()
        )


class TestSerialBitIdentical:
    """The acceptance regression pair: endemic and LV at small N."""

    @pytest.mark.parametrize("name", ["endemic", "lv"])
    @pytest.mark.parametrize("scenario", [None, "massive-failure"])
    def test_bit_identical(self, name, scenario):
        n, trials, periods, seed = 300, 4, 40, 3
        protocol = Protocol.named(name)
        serial = Experiment(
            protocol, n=n, trials=trials, periods=periods, seed=seed,
            scenario=scenario, engine="serial",
        ).run()
        resolved = protocol.resolve(n)
        states = resolved.spec.states
        point = CampaignPoint(
            protocol=name, n=n, loss_rate=0.0, scenario=scenario or "none",
            trials=trials, periods=periods, seed=seed,
        )
        build_hooks = scenario_builder(point.scenario)
        hook_seeds = scenario_seeds(seed, trials)
        seeds = spawn_seeds(seed, trials)
        assert serial.trial_seeds == list(seeds)
        for trial, trial_seed in enumerate(seeds):
            engine = RoundEngine(
                resolved.spec, n=n, initial=resolved.initial, seed=trial_seed
            )
            recorder = BatchMetricsRecorder(states, 1)
            engine.run(
                periods, recorder=recorder,
                hooks=build_hooks(point, trial, hook_seeds[trial]),
            )
            assert np.array_equal(
                serial.count_tensor()[trial],
                np.stack([recorder.counts(s)[0] for s in states], axis=1),
            )
            assert np.array_equal(
                serial.alive_tensor()[trial], recorder.alive_tensor()[0]
            )

    def test_serial_trial_matches_standalone_round_engine(self):
        """Trial m of the serial tier is a plain seeded RoundEngine run."""
        protocol = Protocol.named("endemic")
        result = Experiment(
            protocol, n=250, trials=3, periods=30, seed=9, engine="serial"
        ).run()
        resolved = protocol.resolve(250)
        seeds = spawn_seeds(9, 3)
        assert result.trial_seeds == list(seeds)
        engine = RoundEngine(
            resolved.spec, n=250, initial=resolved.initial, seed=seeds[1]
        )
        recorder = BatchMetricsRecorder(resolved.spec.states, 1)
        engine.run(30, recorder=recorder)
        expected = np.stack(
            [recorder.counts(s)[0] for s in resolved.spec.states], axis=1
        )
        assert np.array_equal(result.count_tensor()[1], expected)


class TestBatchTier:
    def test_population_conserved(self):
        result = Experiment(
            Protocol.named("endemic"), n=500, trials=8, periods=30, seed=1
        ).run()
        assert np.all(result.count_tensor().sum(axis=2) == 500)

    def test_reducers_shapes(self):
        result = Experiment(
            Protocol.named("lv"), n=200, trials=5, periods=20, seed=2
        ).run()
        periods = len(result.times)
        assert result.counts("x").shape == (5, periods)
        assert result.mean_counts("x").shape == (periods,)
        assert result.quantile_counts("x", [0.25, 0.75]).shape == (2, periods)
        finals = result.final_counts()
        assert set(finals) == {"x", "y", "z"}
        assert finals["x"].shape == (5,)
        summary = result.summary()
        assert {"mean", "std", "min", "max", "q25", "q50", "q75"} <= set(
            summary["x"]
        )

    def test_transitions_recorded(self):
        result = Experiment(
            Protocol.named("endemic"), n=400, trials=3, periods=30, seed=4
        ).run()
        edges = result.edges_seen()
        assert edges, "endemic protocol must produce transitions"
        tensor = result.transition_tensor(edges[0])
        assert tensor.shape == (3, len(result.times))

    def test_serial_transitions_and_edges(self):
        result = Experiment(
            Protocol.named("endemic"), n=400, trials=2, periods=30, seed=4,
            engine="serial",
        ).run()
        edges = result.edges_seen()
        assert edges
        assert result.transition_tensor(edges[0]).shape == (
            2, len(result.times)
        )


class TestScenarioContract:
    def test_named_scenario_matches_campaign_seeds(self):
        """Experiment and campaign share the scenario seed family."""
        context = RunContext(
            protocol="endemic", n=200, loss_rate=0.0,
            scenario="crash-recovery", trials=4, periods=20, seed=11,
        )
        scenario = Scenario.named("crash-recovery")
        assert scenario.trial_seeds(context) == scenario_seeds(11, 4)

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            Scenario.named("nope")

    def test_custom_hook_factory(self):
        fired = []

        def factory(trial):
            def hook(view):
                fired.append((trial, view.period))
            return hook

        Experiment(
            Protocol.named("endemic"), n=100, trials=2, periods=3, seed=0,
            scenario=factory,
        ).run()
        assert {t for t, _ in fired} == {0, 1}

    def test_scenario_effect_visible(self):
        quiet = Experiment(
            Protocol.named("endemic"), n=400, trials=2, periods=30, seed=5
        ).run()
        failed = Experiment(
            Protocol.named("endemic"), n=400, trials=2, periods=30, seed=5,
            scenario="massive-failure",
        ).run()
        assert np.all(quiet.alive_tensor()[:, -1] == 400)
        assert np.all(failed.alive_tensor()[:, -1] == 200)

    def test_normalize_rejects_garbage(self):
        with pytest.raises(TypeError):
            Scenario.normalize(42)


class TestEquilibriumCheck:
    def test_endemic_equations_pass(self):
        protocol = Protocol.from_equations(ENDEMIC_TEXT, name="endemic")
        result = Experiment(
            protocol, n=2000, trials=4, periods=120, seed=7
        ).run()
        check = result.equilibrium_check()
        assert check.status in ("PASS", "WARN")
        assert {row.state for row in check.rows} == {"x", "y", "z"}
        gated = [row for row in check.rows if row.gated]
        assert gated, "equilibrium states large enough to gate on"
        rendered = check.render()
        assert "equilibrium check" in rendered
        assert check.status in rendered

    def test_explicit_analytic_override(self):
        result = Experiment(
            Protocol.named("endemic"), n=500, trials=2, periods=20, seed=1
        ).run()
        check = result.equilibrium_check(
            {"x": 5.0, "y": 5.0, "z": 490.0}, pass_tol=1e-9, warn_tol=2e-9
        )
        assert check.status == "FAIL"

    def test_names_the_equilibrium_it_grades(self):
        result = Experiment(
            Protocol.named("endemic"), n=500, trials=2, periods=20, seed=1
        ).run()
        check = result.equilibrium_check()
        assert check.equilibrium.classification == "stable spiral"
        assert check.render().startswith(
            "equilibrium check vs the stable spiral (x=0.0025, "
        )
        reference = result.equilibrium_check({"x": 5.0, "y": 5.0, "z": 490.0})
        assert reference.equilibrium is None
        assert "the given reference counts" in reference.render()

    @pytest.mark.parametrize(
        "counts, label",
        [
            ({"x": 100, "y": 100, "z": 100}, "saddle point"),
            ({"x": 0, "y": 0, "z": 300}, "unstable node"),
        ],
    )
    def test_refuses_to_grade_a_repelling_equilibrium(self, counts, label):
        result = Experiment(
            Protocol.named("lv"), n=300, trials=2, periods=10, seed=1
        ).run()
        with pytest.raises(ValueError, match=f"refusing to grade .*{label}"):
            result.equilibrium_check(counts)
        # Within one host of the saddle is still the saddle.
        if label == "saddle point":
            with pytest.raises(ValueError, match="saddle point"):
                result.equilibrium_check({"x": 100.4, "y": 99.6, "z": 100})

    def test_skip_without_stable_equilibrium(self):
        spec = synthesize(library.epidemic())
        protocol = Protocol.from_spec(spec, {"x": 0.99, "y": 0.01})
        result = Experiment(protocol, n=300, trials=2, periods=10, seed=2).run()
        # The epidemic has a continuum of fixed points, none strictly
        # stable -- the check reports SKIP rather than a verdict.
        check = result.equilibrium_check()
        if check.status == "SKIP":
            assert "SKIP" in check.render()
        else:  # a solver may classify an absorbing point as stable
            assert check.rows

    def test_window_stats_pooled(self):
        result = Experiment(
            Protocol.named("endemic"), n=300, trials=4, periods=40, seed=3
        ).run()
        stats = result.window_stats("z", window_periods=10)
        pooled = result.counts("z")[:, -10:].ravel()
        assert stats.median == float(np.median(pooled))
        assert stats.minimum == float(pooled.min())
        assert stats.maximum == float(pooled.max())


class TestDeprecationShims:
    def test_campaign_run_point_stays_green(self):
        """Old builder-tuple consumers (run_point) still work, warning-free."""
        from repro.campaign import run_point

        point = CampaignPoint(
            protocol="epidemic-pull", n=100, loss_rate=0.0, scenario="none",
            trials=2, periods=5, seed=1,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = run_point(point)
        assert result.point is point


class TestRunCLI:
    @pytest.fixture
    def equations_file(self, tmp_path):
        path = tmp_path / "endemic.txt"
        path.write_text(ENDEMIC_TEXT)
        return str(path)

    def test_equations_file_end_to_end(self, equations_file, capsys):
        code = main([
            "run", equations_file, "--n", "800", "--trials", "4",
            "--periods", "60", "--seed", "1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "ensemble trajectory summary" in out
        assert "equilibrium check" in out
        assert "FAIL" not in out
        assert "batch (auto-selected)" in out

    def test_named_protocol(self, capsys):
        code = main([
            "run", "endemic", "--n", "500", "--trials", "2",
            "--periods", "20", "--seed", "2",
        ])
        assert code == 0
        assert "registry" in capsys.readouterr().out

    def test_param_override_and_plot(self, equations_file, capsys):
        code = main([
            "run", equations_file, "--n", "400", "--trials", "2",
            "--periods", "20", "--seed", "3", "--param", "gamma=0.4",
            "--plot", "--show-protocol",
        ])
        # Two 400-host trials sit within noise of the WARN/FAIL line, so
        # the equilibrium verdict (the exit code) is one draw stream's
        # coin toss; only the flags' plumbing is under test here.
        assert code in (0, 1)
        out = capsys.readouterr().out
        # --param: gamma=0.4 (not the file's 0.5) times p = 0.25.
        assert "flip coin (heads prob 0.1)" in out
        assert "state x:" in out  # --show-protocol
        assert "ensemble mean of 2 trial(s)" in out  # --plot

    def test_unknown_target_fails_cleanly(self, capsys):
        code = main(["run", "no-such-thing", "--n", "100"])
        assert code == 1
        err = capsys.readouterr().err
        assert "neither an equations file nor a registered protocol" in err

    def test_params_rejected_for_named(self, capsys):
        code = main(["run", "endemic", "--param", "beta=1"])
        assert code == 1
        assert "--param" in capsys.readouterr().err

    def test_scenario_flag(self, capsys):
        code = main([
            "run", "endemic", "--n", "400", "--trials", "2",
            "--periods", "30", "--seed", "4",
            "--scenario", "massive-failure",
        ])
        assert code == 0
        assert "massive-failure" in capsys.readouterr().out

    def test_serial_engine_flag(self, capsys):
        code = main([
            "run", "endemic", "--n", "300", "--trials", "1",
            "--periods", "10", "--seed", "5", "--engine", "serial",
        ])
        assert code == 0
        assert "serial" in capsys.readouterr().out

    def test_unknown_scenario_fails_cleanly(self, capsys):
        code = main([
            "run", "endemic", "--n", "200", "--trials", "2",
            "--periods", "5", "--scenario", "typo",
        ])
        assert code == 1
        assert "invalid experiment" in capsys.readouterr().err

    def test_invalid_trials_fails_cleanly(self, capsys):
        code = main(["run", "endemic", "--n", "200", "--trials", "0"])
        assert code == 1
        assert "invalid experiment" in capsys.readouterr().err

    def test_initial_honored_for_named_protocol(self, capsys):
        code = main([
            "run", "endemic", "--n", "200", "--trials", "2",
            "--periods", "1", "--seed", "6",
            "--initial", "x=100", "--initial", "y=100",
        ])
        out = capsys.readouterr().out
        # The summary's initial column reflects the override, not the
        # registry's equilibrium start.  (The equilibrium check may
        # legitimately FAIL from such a start; only the override
        # plumbing is under test here.)
        assert code in (0, 1)
        summary = out[out.index("\nstate"):]
        assert summary.count("100.0") >= 2

    def test_bad_initial_fails_cleanly(self, capsys):
        code = main([
            "run", "endemic", "--n", "200", "--trials", "2",
            "--periods", "1", "--initial", "x=5",
        ])
        assert code == 1
        assert "invalid experiment" in capsys.readouterr().err

    def test_printed_seed_reproduces_unseeded_run(self, capsys):
        assert main([
            "run", "endemic", "--n", "300", "--trials", "2",
            "--periods", "10",
        ]) == 0
        out = capsys.readouterr().out
        seed = int(out.split("seed=")[1].split()[0])
        assert main([
            "run", "endemic", "--n", "300", "--trials", "2",
            "--periods", "10", "--seed", str(seed),
        ]) == 0
        replay = capsys.readouterr().out
        # Identical summary tables onward (the elapsed-seconds stamp
        # differs): the printed seed replays the run.
        assert out[out.index("\nstate"):] == replay[replay.index("\nstate"):]


class TestResultConstruction:
    def test_requires_a_recorder(self):
        spec = synthesize(library.epidemic())
        with pytest.raises(TypeError, match="recorder"):
            ExperimentResult(
                spec=spec, n=10, trials=1, periods=1, engine="serial",
                trial_seeds=[1], elapsed_seconds=0.0,
            )

    def test_engines_constant(self):
        assert ENGINES == ("auto", "serial", "batch", "agent")


def _benign_scenario(trial):
    return []


def _sabotage_scenario(trial):
    if trial >= 4:
        raise RuntimeError(f"trial {trial} sabotaged")
    return []


class TestFaultPolicyPlumbing:
    def test_invalid_on_error_rejected_at_construction(self):
        with pytest.raises(ValueError, match="on_error"):
            Experiment(Protocol.named("lv"), n=200, on_error="explode")
        with pytest.raises(ValueError, match="retries"):
            Experiment(Protocol.named("lv"), n=200, retries=-1)
        with pytest.raises(ValueError, match="timeout"):
            Experiment(Protocol.named("lv"), n=200, unit_timeout=0.0)

    def test_default_policy_aborts_on_shard_failure(self):
        from repro.runtime import UnitExecutionError

        experiment = Experiment(
            Protocol.named("lv"), n=200, trials=6, periods=10, seed=9,
            workers=3, scenario=_sabotage_scenario,
        )
        with pytest.raises(UnitExecutionError, match="sabotaged"):
            experiment.run()

    def test_skip_yields_surviving_trials_with_failures_recorded(self):
        # trials=6 on 3 shards: the sabotaged trials 4, 5 are shard 2.
        clean = Experiment(
            Protocol.named("lv"), n=200, trials=6, periods=10, seed=9,
            workers=3, scenario=_benign_scenario,
        ).run()
        partial = Experiment(
            Protocol.named("lv"), n=200, trials=6, periods=10, seed=9,
            workers=3, scenario=_sabotage_scenario,
            on_error="skip", retries=0,
        ).run()
        assert partial.trials == 4
        assert [f.label for f in partial.failures] == ["shard 2"]
        assert partial.trial_seeds == clean.trial_seeds[:4]
        # The survivors' streams are bitwise untouched by the loss.
        assert np.array_equal(
            partial.count_tensor(), clean.count_tensor()[:4]
        )

    def test_retry_policy_leaves_clean_runs_bitwise_identical(self):
        reference = Experiment(
            Protocol.named("lv"), n=200, trials=6, periods=10, seed=9,
            workers=3,
        ).run()
        guarded = Experiment(
            Protocol.named("lv"), n=200, trials=6, periods=10, seed=9,
            workers=3, on_error="retry", retries=3, unit_timeout=120.0,
        ).run()
        assert guarded.failures == []
        assert guarded.trial_seeds == reference.trial_seeds
        assert np.array_equal(
            guarded.count_tensor(), reference.count_tensor()
        )

    def test_agent_tier_skip(self):
        partial = Experiment(
            Protocol.named("lv"), n=150, trials=6, periods=5, seed=9,
            engine="agent", workers=2, scenario=_sabotage_scenario,
            on_error="skip", retries=0,
        ).run()
        assert partial.trials == 4
        assert len(partial.failures) == 2  # one unit per DES trial
        assert {f.index for f in partial.failures} == {4, 5}

    def test_serial_tier_skip(self):
        """Serial trials are work units too: one lost trial, the rest intact."""
        clean = Experiment(
            Protocol.named("lv"), n=150, trials=6, periods=5, seed=9,
            engine="serial", scenario=_benign_scenario,
        ).run()
        partial = Experiment(
            Protocol.named("lv"), n=150, trials=6, periods=5, seed=9,
            engine="serial", scenario=_sabotage_scenario,
            on_error="skip", retries=0,
        ).run()
        assert partial.trials == 4
        assert [f.label for f in partial.failures] == ["trial 4", "trial 5"]
        assert partial.trial_seeds == clean.trial_seeds[:4]
        assert np.array_equal(
            partial.count_tensor(), clean.count_tensor()[:4]
        )

    def test_serial_tier_default_policy_names_the_trial(self):
        from repro.runtime import UnitExecutionError

        with pytest.raises(UnitExecutionError, match="trial 4"):
            Experiment(
                Protocol.named("lv"), n=150, trials=6, periods=5, seed=9,
                engine="serial", scenario=_sabotage_scenario,
            ).run()
