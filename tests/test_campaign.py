"""Tests for the campaign runner (repro.campaign)."""

import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from repro.campaign import (
    CampaignResult,
    CampaignSpec,
    available_protocols,
    available_scenarios,
    register_protocol,
    register_scenario,
    replay_point,
    run_campaign,
    run_point,
    verify_replay,
)
from repro.__main__ import main as cli_main
from repro.experiment import Experiment, RunPoint


def tiny_spec(**overrides):
    base = dict(
        name="tiny",
        protocols=["epidemic-pull"],
        group_sizes=[300],
        loss_rates=[0.0],
        scenarios=["none"],
        trials=4,
        periods=30,
        base_seed=7,
    )
    base.update(overrides)
    return CampaignSpec(**base)


class TestGridExpansion:
    def test_full_product(self):
        spec = tiny_spec(
            protocols=["epidemic-pull", "lv"],
            group_sizes=[300, 600],
            loss_rates=[0.0, 0.1],
            scenarios=["none", "massive-failure"],
        )
        points = spec.expand()
        assert len(points) == 16
        combos = {
            (p.protocol, p.n, p.loss_rate, p.scenario) for p in points
        }
        assert len(combos) == 16
        assert all(p.trials == 4 and p.periods == 30 for p in points)

    def test_seeds_deterministic_and_distinct(self):
        spec = tiny_spec(group_sizes=[300, 600, 900])
        seeds = [p.seed for p in spec.expand()]
        assert seeds == [p.seed for p in spec.expand()]
        assert len(set(seeds)) == 3
        # Changing the base seed changes every point seed.
        reseeded = tiny_spec(group_sizes=[300, 600, 900], base_seed=8)
        assert set(seeds).isdisjoint(p.seed for p in reseeded.expand())

    def test_validation_rejects_unknowns(self):
        with pytest.raises(ValueError, match="unknown protocols"):
            tiny_spec(protocols=["nope"]).expand()
        with pytest.raises(ValueError, match="unknown scenarios"):
            tiny_spec(scenarios=["nope"]).expand()
        with pytest.raises(ValueError, match="axis"):
            tiny_spec(group_sizes=[]).expand()
        with pytest.raises(ValueError, match="loss rate"):
            tiny_spec(loss_rates=[1.5]).expand()

    def test_registries_list_builtins(self):
        assert "endemic" in available_protocols()
        assert "lv" in available_protocols()
        assert "massive-failure" in available_scenarios()
        assert "churn" in available_scenarios()

    def test_resolve_protocol_handle(self):
        from repro.campaign import resolve_protocol

        resolved = resolve_protocol("lv").resolve(500)
        assert resolved.spec.states == ("x", "y", "z")
        assert sum(resolved.initial.values()) == 500


class TestJsonRoundTrip:
    def test_spec_round_trip(self):
        spec = tiny_spec(scenarios=["none", "crash-recovery"])
        assert CampaignSpec.from_json(spec.to_json()) == spec

    def test_result_round_trip(self):
        result = run_campaign(tiny_spec())
        text = result.to_json()
        json.loads(text)  # valid JSON
        restored = CampaignResult.from_json(text)
        assert restored.spec == result.spec
        assert restored.results == result.results

    def test_point_round_trip(self):
        point = tiny_spec().expand()[0]
        assert RunPoint.from_dict(point.to_dict()) == point

    def test_point_defaults_are_left_out(self):
        """A batch point from the protocol's own start writes the nine
        fields points always wrote; the others appear when set."""
        point = tiny_spec().expand()[0]
        assert list(point.to_dict()) == [
            "protocol", "n", "loss_rate", "scenario", "trials", "periods",
            "seed", "stride", "shards",
        ]
        serial = replace(
            point, engine="serial", initial={"y": 30, "x": 270},
            member_log_state="y",
        )
        data = serial.to_dict()
        assert data["initial"] == {"x": 270, "y": 30}
        assert data["engine"] == "serial"
        assert RunPoint.from_dict(json.loads(json.dumps(data))) == serial
        assert {serial: 1}[replace(serial, initial={"x": 270, "y": 30})]

    @pytest.mark.parametrize("edit, message", [
        ({"bogus": 1}, r"unknown point field\(s\) \['bogus'\]"),
        ({"n": "300"}, "n must be an integer, got '300'"),
        ({"loss_rate": 2.0}, r"loss rate must lie in \[0, 1\), got 2.0"),
        ({"stride": 0}, "stride must be >= 1, got 0"),
        ({"shards": 5}, r"shards must lie in \[1, trials=4\], got 5"),
        ({"engine": "auto"}, "engine must be one of"),
        ({"initial": {"x": "a lot"}}, "initial must map states to numbers"),
    ], ids=["unknown", "n", "loss_rate", "stride", "shards", "engine",
            "initial"])
    def test_point_from_dict_refuses_by_field(self, edit, message):
        data = {**tiny_spec().expand()[0].to_dict(), **edit}
        with pytest.raises(ValueError, match=message):
            RunPoint.from_dict(data)

    def test_point_from_dict_names_missing_fields(self):
        data = tiny_spec().expand()[0].to_dict()
        del data["seed"]
        with pytest.raises(ValueError, match="invalid point: .*'seed'"):
            RunPoint.from_dict(data)


class TestRunPoint:
    def test_summary_consistent_with_finals(self):
        point = tiny_spec().expand()[0]
        result = run_point(point)
        assert result.states == ["x", "y"]
        assert len(result.trial_seeds) == point.trials
        for state in result.states:
            finals = np.asarray(result.final_counts[state])
            assert finals.shape == (point.trials,)
            assert result.summary[state]["mean"] == pytest.approx(
                float(finals.mean())
            )
            assert result.summary[state]["q50"] == pytest.approx(
                float(np.median(finals))
            )
        # Trajectory covers initial period plus every recorded period.
        assert result.recorded_periods[0] == 0
        assert result.recorded_periods[-1] == point.periods
        assert len(result.mean_trajectory["x"]) == len(result.recorded_periods)

    def test_scenario_reduces_alive(self):
        point = tiny_spec(scenarios=["massive-failure"]).expand()[0]
        result = run_point(point)
        assert result.mean_alive[0] == point.n
        assert result.mean_alive[-1] == pytest.approx(point.n / 2)


class TestReplay:
    def test_replay_reproduces_count_tensor(self):
        point = tiny_spec(scenarios=["crash-recovery"]).expand()[0]
        first = replay_point(point)
        second = replay_point(point)
        assert first.shape == (point.trials, point.periods + 1, 2)
        assert np.array_equal(first, second)

    def test_verify_replay_accepts_genuine_result(self):
        result = run_point(tiny_spec(scenarios=["churn"]).expand()[0])
        assert verify_replay(result)

    def test_verify_replay_detects_tampering(self):
        result = run_point(tiny_spec().expand()[0])
        result.final_counts["y"][0] += 1
        assert not verify_replay(result)

    def test_serialized_mode_key_is_dropped_or_named(self):
        # Spec files, result JSON and .npz point_json written while the
        # engine still had an RNG mode carry "mode": it loads when it
        # selected the engine that remains, and fails by name otherwise.
        spec = tiny_spec()
        point = spec.expand()[0]
        old_spec = {**spec.to_dict(), "mode": "batch"}
        old_point = {**point.to_dict(), "mode": "batch"}
        assert CampaignSpec.from_dict(old_spec).to_dict() == spec.to_dict()
        assert RunPoint.from_dict(old_point) == point
        for loader, data in (
            (CampaignSpec.from_dict, old_spec),
            (RunPoint.from_dict, old_point),
        ):
            with pytest.raises(ValueError, match="run --engine serial"):
                loader({**data, "mode": "lockstep"})


class TestFanOut:
    def test_workers_match_serial_results(self):
        spec = tiny_spec(group_sizes=[200, 300], scenarios=["none", "massive-failure"])
        serial = run_campaign(spec, workers=1)
        parallel = run_campaign(spec, workers=2)
        assert [r.point for r in serial.results] == [
            r.point for r in parallel.results
        ]
        for a, b in zip(serial.results, parallel.results):
            assert a.final_counts == b.final_counts
            assert a.mean_trajectory == b.mean_trajectory

    def test_progress_callback_fires_per_point(self):
        spec = tiny_spec(group_sizes=[200, 300])
        seen = []
        run_campaign(spec, progress=lambda r: seen.append(r.point.n))
        assert sorted(seen) == [200, 300]

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(tiny_spec(), workers=0)


class TestTrialSharding:
    def test_sharded_point_replays_bit_for_bit(self):
        spec = tiny_spec(trials=6, shards=3)
        point = spec.expand()[0]
        assert point.shards == 3
        result = run_point(point)
        assert len(result.trial_seeds) == 6
        assert verify_replay(result)
        assert np.array_equal(replay_point(point), replay_point(point))

    def test_shard_seeds_are_disjoint_deterministic(self):
        point = tiny_spec(trials=8, shards=4).expand()[0]
        first = run_point(point)
        second = run_point(point)
        assert first.trial_seeds == second.trial_seeds
        assert len(set(first.trial_seeds)) == 8
        # Sharding changes the seed family on purpose (each shard is an
        # independently seeded sub-ensemble).
        unsharded = run_point(
            tiny_spec(trials=8).expand()[0]
        )
        assert unsharded.trial_seeds != first.trial_seeds

    def test_sharded_fan_out_matches_serial(self):
        spec = tiny_spec(trials=6, shards=3, scenarios=["massive-failure"])
        serial = run_campaign(spec, workers=1)
        pooled = run_campaign(spec, workers=3)
        for a, b in zip(serial.results, pooled.results):
            assert a.trial_seeds == b.trial_seeds
            assert a.final_counts == b.final_counts
            assert a.mean_trajectory == b.mean_trajectory
            assert a.mean_alive == b.mean_alive

    def test_summary_consistent_under_sharding(self):
        point = tiny_spec(trials=5, shards=2).expand()[0]
        result = run_point(point)
        for state in result.states:
            finals = np.asarray(result.final_counts[state])
            assert finals.shape == (5,)
            assert result.summary[state]["mean"] == pytest.approx(
                float(finals.mean())
            )
        assert len(result.mean_trajectory["x"]) == len(result.recorded_periods)

    def test_more_shards_than_trials_rejected(self):
        with pytest.raises(ValueError):
            tiny_spec(trials=2, shards=3).expand()

    def test_json_round_trip_preserves_shards(self):
        spec = tiny_spec(trials=4, shards=2)
        result = run_campaign(spec)
        restored = CampaignResult.from_json(result.to_json())
        assert restored.results[0].point.shards == 2
        assert verify_replay(restored.results[0])


CONTRACT_PROTOCOLS = ("lv", "endemic")
CONTRACT_SCENARIOS = tuple(available_scenarios())


def contract_spec(shards):
    """Every contract protocol under every registry scenario, small."""
    return tiny_spec(
        protocols=list(CONTRACT_PROTOCOLS), group_sizes=[150],
        scenarios=list(CONTRACT_SCENARIOS), trials=3, periods=24,
        stride=5, shards=shards, base_seed=11,
    )


@pytest.fixture(scope="module")
def experiment_for():
    """The Experiment a campaign point promises to equal, run once per
    point for the whole module."""
    runs = {}

    def experiment(point):
        if point not in runs:
            runs[point] = Experiment(
                point.protocol, n=point.n, trials=point.trials,
                periods=point.periods, seed=point.seed,
                workers=point.shards, scenario=point.scenario,
                loss_rate=point.loss_rate, stride=point.stride,
                engine="batch", record_transitions=False, check="off",
            ).run()
        return runs[point]

    return experiment


def assert_point_is_experiment(result, tensor, experiment):
    assert result.trial_seeds == experiment.trial_seeds
    assert result.final_counts == {
        s: v.tolist() for s, v in experiment.final_counts().items()
    }
    assert np.array_equal(tensor, experiment.count_tensor())
    alive = experiment.alive_tensor()
    assert np.array_equal(tensor.sum(axis=2), alive)
    assert result.mean_alive == (
        alive.sum(axis=0) / result.point.trials
    ).tolist()


class TestPointIsAnExperiment:
    """A campaign point equals ``Experiment(..., seed=point.seed,
    workers=point.shards, scenario=point.scenario)`` -- count tensor,
    alive tensor, final counts, trial seeds -- at every shard count,
    under every registry scenario, wherever its units run."""

    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_in_process(self, shards, experiment_for):
        for point in contract_spec(shards).expand():
            assert_point_is_experiment(
                run_point(point), replay_point(point), experiment_for(point)
            )

    @pytest.mark.parametrize("engine", ["serial", "agent"])
    def test_per_trial_tiers(self, engine):
        """A point on the serial or agent tier is that tier's Experiment."""
        for point in contract_spec(1).expand():
            point = replace(point, engine=engine)
            experiment = Experiment(
                point.protocol, n=point.n, trials=point.trials,
                periods=point.periods, seed=point.seed,
                scenario=point.scenario, loss_rate=point.loss_rate,
                stride=point.stride, engine=engine,
                record_transitions=False, check="off",
            ).run()
            assert_point_is_experiment(
                run_point(point), replay_point(point), experiment
            )

    @pytest.mark.parametrize("backend", ["pool", "cluster"])
    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_fanned_out(self, backend, shards, tmp_path, experiment_for):
        result = run_campaign(
            contract_spec(shards), workers=2, backend=backend,
            save_tensors=str(tmp_path),
        )
        assert len(result.results) == 8 and not result.failures
        for point_result in result.results:
            with np.load(tmp_path / point_result.tensor_path) as data:
                assert_point_is_experiment(
                    point_result, data["counts"],
                    experiment_for(point_result.point),
                )


class TestSaveTensors:
    def test_tensor_artifact_matches_replay(self, tmp_path):
        spec = tiny_spec(group_sizes=[200, 300])
        result = run_campaign(spec, save_tensors=str(tmp_path))
        for index, point_result in enumerate(result.results):
            assert point_result.tensor_path is not None
            path = tmp_path / point_result.tensor_path
            assert path.is_file()
            with np.load(path) as data:
                assert np.array_equal(
                    data["counts"], replay_point(point_result.point)
                )
                assert data["counts"].shape == (
                    spec.trials, spec.periods + 1, 2
                )
                assert list(data["states"]) == point_result.states
                assert [int(s) for s in data["trial_seeds"]] \
                    == point_result.trial_seeds
                assert json.loads(str(data["point_json"])) \
                    == point_result.point.to_dict()

    def test_tensor_path_survives_json_round_trip(self, tmp_path):
        result = run_campaign(tiny_spec(), save_tensors=str(tmp_path))
        restored = CampaignResult.from_json(result.to_json())
        assert restored.results[0].tensor_path \
            == result.results[0].tensor_path

    def test_sharded_tensor_rows_follow_trial_seeds(self, tmp_path):
        spec = tiny_spec(trials=4, shards=2)
        result = run_campaign(spec, save_tensors=str(tmp_path), workers=2)
        point_result = result.results[0]
        with np.load(tmp_path / point_result.tensor_path) as data:
            counts = data["counts"]
        assert counts.shape[0] == 4
        assert np.array_equal(counts, replay_point(point_result.point))
        for state in point_result.states:
            index = point_result.states.index(state)
            assert counts[:, -1, index].tolist() \
                == point_result.final_counts[state]

    def test_tensor_records_total_messages(self, tmp_path):
        from repro.check import message_model
        from repro.campaign.registry import resolve_protocol

        spec = tiny_spec()
        result = run_campaign(spec, save_tensors=str(tmp_path))
        point_result = result.results[0]
        with np.load(tmp_path / point_result.tensor_path) as data:
            assert "total_messages" in data.files
            measured = data["total_messages"]
            counts = data["counts"]
        assert measured.shape == (spec.trials,)
        assert measured.dtype == np.int64
        assert np.all(measured > 0)
        # The static complexity model must agree with what the engine
        # actually charged (stride-1 recording makes the prediction
        # exact in expectation).
        protocol = resolve_protocol(point_result.point.protocol)
        model = message_model(protocol.resolve(point_result.point.n).spec)
        z = model.zscore(measured, counts, states=point_result.states)
        assert np.all(np.isfinite(z))
        assert np.all(np.abs(z) <= 5.0)

    def test_tensor_file_has_the_savez_compressed_schema(self, tmp_path):
        """Same members, in the same order, with the same dtypes, shapes
        and values as ``np.savez_compressed`` of the same arrays."""
        import zipfile

        from repro.campaign import runner

        point = tiny_spec(shards=2).expand()[0]
        result = run_point(point)
        tensor = replay_point(point)
        messages = np.arange(point.trials, dtype=np.int64) * 7
        name = runner._save_tensor(
            tmp_path, "schema", 3, result, tensor, messages
        )
        np.savez_compressed(
            tmp_path / "reference.npz",
            counts=tensor,
            periods=np.asarray(result.recorded_periods, dtype=np.int64),
            states=np.asarray(result.states),
            trial_seeds=np.asarray(result.trial_seeds, dtype=np.uint64),
            total_messages=messages,
            point_json=np.asarray(json.dumps(point.to_dict())),
        )
        with np.load(tmp_path / name) as got, \
                np.load(tmp_path / "reference.npz") as want:
            assert got.files == want.files
            for key in want.files:
                assert got[key].dtype == want[key].dtype, key
                assert got[key].shape == want[key].shape, key
                assert np.array_equal(got[key], want[key]), key
        with zipfile.ZipFile(tmp_path / name) as archive:
            assert {info.compress_type for info in archive.infolist()} == {
                zipfile.ZIP_DEFLATED
            }
        assert list(tmp_path.glob("*.tmp")) == []

    def test_savez_compressed_tensors_still_load_and_resume(
        self, tmp_path, capsys
    ):
        """Tensors as ``np.savez_compressed`` wrote them (the format of
        earlier releases) analyse and resume as they are."""
        spec = tiny_spec(group_sizes=[200, 300])
        first = run_campaign(spec, save_tensors=str(tmp_path))
        for point_result in first.results:
            path = tmp_path / point_result.tensor_path
            with np.load(path) as data:
                arrays = {key: data[key] for key in data.files}
            with open(path, "wb") as handle:
                np.savez_compressed(handle, **arrays)
        assert cli_main(["analyze-campaign", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert all(r.point.label in out for r in first.results)

        def fail_if_run(result):
            raise AssertionError("a restored point must not re-run")

        resumed = run_campaign(
            spec, resume=str(tmp_path), progress=fail_if_run
        )
        assert resumed.to_dict() == first.to_dict()

    def test_no_tensors_without_flag(self):
        result = run_campaign(tiny_spec())
        assert result.results[0].tensor_path is None

    def test_manifest_written_and_indexes_points(self, tmp_path):
        from repro.campaign import MANIFEST_NAME, load_manifest

        spec = tiny_spec(group_sizes=[200, 300])
        result = run_campaign(spec, save_tensors=str(tmp_path))
        assert (tmp_path / MANIFEST_NAME).is_file()
        manifest = load_manifest(tmp_path)
        assert manifest["campaign"] == spec.name
        assert manifest["spec"] == spec.to_dict()
        assert len(manifest["points"]) == len(result.results)
        for entry, point_result in zip(manifest["points"], result.results):
            assert entry["label"] == point_result.point.label
            # Each point is stored once, as its embedded result.
            assert set(entry) == {"index", "label", "status", "result"}
            stored = entry["result"]
            assert stored["point"] == point_result.point.to_dict()
            assert stored["tensor_path"] == point_result.tensor_path
            assert (tmp_path / stored["tensor_path"]).is_file()
            assert stored["trial_seeds"] == point_result.trial_seeds
            assert stored["states"] == point_result.states
            # The manifest alone suffices to reload and replay a point:
            # no globbing of per-point npz metadata required.
            replayed = replay_point(
                RunPoint.from_dict(stored["point"])
            )
            with np.load(tmp_path / stored["tensor_path"]) as data:
                assert np.array_equal(data["counts"], replayed)
        assert {"created", "python", "numpy"} <= set(manifest["provenance"])

    def test_manifest_created_date_pinned_by_epoch(self, tmp_path, monkeypatch):
        from repro.campaign import load_manifest

        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        run_campaign(tiny_spec(), save_tensors=str(tmp_path))
        manifest = load_manifest(tmp_path)
        assert manifest["provenance"]["created"].startswith("1970-01-01")

    def test_no_manifest_without_flag(self, tmp_path):
        from repro.campaign import MANIFEST_NAME

        run_campaign(tiny_spec())
        assert not (tmp_path / MANIFEST_NAME).exists()


def _stock_pull_builder(n):
    # Module-level so it pickles by reference and can ride over a
    # process boundary to pool workers (spawn start method).
    from repro.protocols.epidemic import pull_protocol

    return pull_protocol(), {"x": n - 2, "y": 2}


def _point_numbers(result):
    """A campaign result's numbers, wall-clock provenance aside."""
    return [
        (r.trial_seeds, r.final_counts, r.mean_trajectory, r.mean_alive)
        for r in result.results
    ]


class TestRegistryExtension:
    def test_fan_out_with_custom_protocol(self):
        # Units carry the spec resolved in this process, so a campaign
        # over a runtime registration needs nothing from the workers'
        # registry: fanned out, it equals the serial run.
        from repro.campaign import registry

        register_protocol("fan-pull", _stock_pull_builder)
        try:
            spec = tiny_spec(protocols=["fan-pull"], group_sizes=[200, 300],
                             trials=2, periods=10)
            serial = run_campaign(spec, workers=1)
            parallel = run_campaign(spec, workers=2)
            assert _point_numbers(parallel) == _point_numbers(serial)
        finally:
            registry._PROTOCOLS.pop("fan-pull")

    def test_registered_protocol_on_cluster_workers(self):
        # Cluster workers are fresh interpreters that import only the
        # built-in registry; a registered protocol under a registry
        # scenario, sharded, still equals the in-process run.
        from repro.campaign import registry

        register_protocol("cluster-pull", _stock_pull_builder)
        try:
            spec = tiny_spec(protocols=["cluster-pull"], group_sizes=[200],
                             scenarios=["churn"], trials=4, periods=10,
                             shards=2)
            local = run_campaign(spec, workers=1)
            remote = run_campaign(spec, workers=2, backend="cluster")
            assert _point_numbers(remote) == _point_numbers(local)
        finally:
            registry._PROTOCOLS.pop("cluster-pull")

    def test_closure_protocol_builder_fans_out(self):
        # Only the resolved spec crosses the process boundary, so a
        # closure builder fans out -- no serial-fallback warning -- and
        # equals workers=1.
        from repro.campaign import registry
        from repro.protocols.epidemic import pull_protocol

        register_protocol(
            "closure-pull", lambda n: (pull_protocol(), {"x": n - 1, "y": 1})
        )
        try:
            spec = tiny_spec(protocols=["closure-pull"],
                             group_sizes=[200, 300], trials=2, periods=10)
            serial = run_campaign(spec, workers=1)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                pooled = run_campaign(spec, workers=2)
            assert _point_numbers(pooled) == _point_numbers(serial)
        finally:
            registry._PROTOCOLS.pop("closure-pull")

    def test_closure_scenario_builder_runs_serially(self):
        # A scenario builder rides inside every unit; a closure can't
        # cross the process boundary, so the campaign completes
        # serially with a warning instead of crashing in the workers.
        from repro.campaign import registry

        register_scenario("closure-quiet", lambda point, trial, seed: [])
        try:
            spec = tiny_spec(scenarios=["closure-quiet"],
                             group_sizes=[200, 300], trials=2, periods=10)
            with pytest.warns(RuntimeWarning, match="serially"):
                result = run_campaign(spec, workers=2)
            assert _point_numbers(result) == _point_numbers(
                run_campaign(spec, workers=1)
            )
        finally:
            registry._SCENARIOS.pop("closure-quiet")

    def test_unused_unpicklable_registration_keeps_fan_out(self):
        # Only builders the campaign references are shipped to the
        # workers; an unrelated exploratory closure in the registry
        # must not downgrade a builtin-only grid to a serial run.
        from repro.campaign import registry
        from repro.protocols.epidemic import pull_protocol

        register_protocol(
            "unused-closure",
            lambda n: (pull_protocol(), {"x": n - 1, "y": 1}),
        )
        try:
            spec = tiny_spec(group_sizes=[200, 300], trials=2, periods=10)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                result = run_campaign(spec, workers=2)
            assert len(result.results) == 2
        finally:
            registry._PROTOCOLS.pop("unused-closure")

    def test_custom_protocol_and_scenario(self):
        from repro.protocols.epidemic import pull_protocol

        register_protocol(
            "custom-pull", lambda n: (pull_protocol(), {"x": n - 1, "y": 1})
        )
        register_scenario("quiet", lambda point, trial, seed: [])
        try:
            spec = tiny_spec(protocols=["custom-pull"], scenarios=["quiet"])
            result = run_campaign(spec)
            assert result.results[0].point.protocol == "custom-pull"
        finally:
            from repro.campaign import registry

            registry._PROTOCOLS.pop("custom-pull")
            registry._SCENARIOS.pop("quiet")


class TestCampaignCli:
    def test_dry_run(self, capsys):
        assert cli_main([
            "campaign", "--dry-run", "--protocol", "lv", "--n", "100",
        ]) == 0
        out = capsys.readouterr().out
        assert "dry run: nothing executed" in out
        assert "lv" in out

    def test_run_write_and_replay(self, tmp_path, capsys):
        out_file = tmp_path / "results.json"
        assert cli_main([
            "campaign", "--protocol", "epidemic-pull", "--n", "200",
            "--trials", "3", "--periods", "15", "--seed", "5",
            "--out", str(out_file),
        ]) == 0
        stored = CampaignResult.from_json(out_file.read_text())
        assert len(stored.results) == 1
        assert cli_main(["campaign", "--replay", str(out_file)]) == 0
        assert "reproduced" in capsys.readouterr().out

    def test_config_file(self, tmp_path, capsys):
        config = tmp_path / "spec.json"
        config.write_text(tiny_spec(periods=10).to_json())
        assert cli_main([
            "campaign", "--config", str(config), "--dry-run",
        ]) == 0
        assert "1 points" in capsys.readouterr().out

    def test_shards_and_save_tensors(self, tmp_path, capsys):
        out_file = tmp_path / "results.json"
        tensors = tmp_path / "tensors"
        assert cli_main([
            "campaign", "--protocol", "lv", "--n", "200",
            "--trials", "4", "--periods", "10", "--seed", "5",
            "--shards", "2", "--save-tensors", str(tensors),
            "--out", str(out_file),
        ]) == 0
        assert "wrote 1 count tensors" in capsys.readouterr().out
        stored = CampaignResult.from_json(out_file.read_text())
        point_result = stored.results[0]
        assert point_result.point.shards == 2
        with np.load(tensors / point_result.tensor_path) as data:
            assert data["counts"].shape == (4, 11, 3)
        # The sharded run (and its tensor provenance) replays cleanly.
        assert cli_main(["campaign", "--replay", str(out_file)]) == 0

    @pytest.mark.parametrize("edit, message", [
        (lambda point: point.update(loss_rate=2.0),
         "loss rate must lie in [0, 1), got 2.0"),
        (lambda point: point.update(bogus=1),
         "unknown point field(s) ['bogus']"),
    ], ids=["loss-rate", "unknown-key"])
    def test_replay_refuses_a_bad_point_by_name(
        self, tmp_path, capsys, edit, message
    ):
        out_file = tmp_path / "results.json"
        data = run_campaign(tiny_spec(periods=5)).to_dict()
        edit(data["results"][0]["point"])
        out_file.write_text(json.dumps(data))
        assert cli_main(["campaign", "--replay", str(out_file)]) == 1
        err = capsys.readouterr().err
        assert f"invalid results file: {message}" in err
        assert "Traceback" not in err

    def test_replay_rejects_save_tensors(self, tmp_path, capsys):
        out_file = tmp_path / "results.json"
        out_file.write_text(
            CampaignResult(spec=tiny_spec(), results=[]).to_json()
        )
        assert cli_main([
            "campaign", "--replay", str(out_file),
            "--save-tensors", str(tmp_path / "t"),
        ]) == 1
        assert "--save-tensors" in capsys.readouterr().err

    def test_lv_close_protocol_registered(self, capsys):
        assert cli_main([
            "campaign", "--dry-run", "--protocol", "lv-close", "--n", "100",
        ]) == 0
        assert "lv-close" in capsys.readouterr().out

    def test_invalid_grid_fails_cleanly(self, capsys):
        assert cli_main([
            "campaign", "--protocol", "nope", "--dry-run",
        ]) == 1
        assert "invalid campaign" in capsys.readouterr().err

    def test_config_rejects_axis_flags(self, tmp_path, capsys):
        # Grid axes live in the config file; silently ignoring an axis
        # flag would run with parameters the user thinks they overrode.
        config = tmp_path / "spec.json"
        config.write_text(tiny_spec(periods=10).to_json())
        assert cli_main([
            "campaign", "--config", str(config),
            "--loss-rate", "0.2", "--dry-run",
        ]) == 1
        err = capsys.readouterr().err
        assert "--loss-rate" in err and "--config" in err

    def test_replay_unknown_protocol_fails_cleanly(self, tmp_path, capsys):
        # A results file recorded with a runtime-registered protocol
        # (or a typoed name) must produce a clean error, not a
        # traceback.
        from repro.campaign import registry

        register_protocol("ephemeral", _stock_pull_builder)
        try:
            spec = tiny_spec(protocols=["ephemeral"], trials=2, periods=10)
            result = run_campaign(spec)
        finally:
            registry._PROTOCOLS.pop("ephemeral")
        out_file = tmp_path / "results.json"
        out_file.write_text(result.to_json())
        assert cli_main(["campaign", "--replay", str(out_file)]) == 1
        err = capsys.readouterr().err
        assert "cannot replay" in err and "ephemeral" in err

    def test_replay_rejects_other_flags(self, tmp_path, capsys):
        # Same silent-ignore class as --config + axis flags: a replay
        # re-runs the stored points exactly as recorded.
        out_file = tmp_path / "results.json"
        out_file.write_text(
            CampaignResult(spec=tiny_spec(), results=[]).to_json()
        )
        assert cli_main([
            "campaign", "--replay", str(out_file), "--trials", "16",
        ]) == 1
        err = capsys.readouterr().err
        assert "--trials" in err and "--replay" in err

    def test_config_scalar_overrides_still_apply(self, tmp_path, capsys):
        config = tmp_path / "spec.json"
        config.write_text(tiny_spec(periods=10).to_json())
        assert cli_main([
            "campaign", "--config", str(config), "--trials", "9",
            "--name", "renamed", "--dry-run",
        ]) == 0
        out = capsys.readouterr().out
        assert "9 trials" in out and "renamed" in out


class TestProtocolHandleAxes:
    def test_handle_entry_expands_by_label(self):
        from repro.experiment import Protocol

        handle = Protocol.named("lv")
        spec = CampaignSpec(
            protocols=[handle, "endemic"], group_sizes=[300],
            trials=2, periods=5, base_seed=4,
        )
        points = spec.expand()
        assert [p.protocol for p in points] == ["lv", "endemic"]
        # The spec stays JSON-serializable (handles serialize by label).
        assert '"lv"' in spec.to_json()

    def test_handle_entry_runs(self, tmp_path):
        from repro.experiment import Protocol
        from repro.synthesis.protocol import ProtocolSpec
        from repro.synthesis.actions import FlipAction

        custom = Protocol.from_spec(
            ProtocolSpec(
                name="drift", states=("a", "b"),
                actions=(FlipAction("a", 0.2, "b"),),
            ),
            initial={"a": 1.0},
            name="drift-test",
        )
        spec = CampaignSpec(
            protocols=[custom], group_sizes=[200], trials=2, periods=5,
            base_seed=9,
        )
        result = run_campaign(spec)
        assert len(result.results) == 1
        point = result.results[0]
        assert point.point.protocol == "drift-test"
        # The flip drains a into b.
        assert point.summary["b"]["mean"] > 0

    def test_equations_file_entry(self, tmp_path):
        path = tmp_path / "eqs.txt"
        path.write_text(
            "# param: beta = 4 gamma = 1.0 alpha = 0.01\n"
            "x' = -beta*x*y + alpha*z\n"
            "y' =  beta*x*y - gamma*y\n"
            "z' =  gamma*y  - alpha*z\n"
        )
        spec = CampaignSpec(
            protocols=[str(path)], group_sizes=[300], trials=2,
            periods=5, base_seed=2,
        )
        result = run_campaign(spec)
        assert len(result.results) == 1
        assert result.results[0].point.protocol == str(path)
        # Replays reproduce bit for bit (the file still resolves).
        assert verify_replay(result.results[0])

    def test_unknown_entry_rejected(self):
        spec = CampaignSpec(protocols=["no-such-protocol-or-file"])
        with pytest.raises(ValueError, match="neither registered"):
            spec.validate()

    def test_handle_label_collision_rejected(self):
        from repro.experiment import Protocol
        from repro.synthesis.protocol import ProtocolSpec
        from repro.synthesis.actions import FlipAction

        hijacker = Protocol.from_spec(
            ProtocolSpec(
                name="lv", states=("a", "b"),
                actions=(FlipAction("a", 0.1, "b"),),
            ),
            initial={"a": 1.0},
        )
        spec = CampaignSpec(
            protocols=[hijacker], group_sizes=[100], trials=2, periods=2,
        )
        with pytest.raises(ValueError, match="collides"):
            spec.expand()

    def test_handle_reexpansion_is_idempotent(self):
        from repro.experiment import Protocol
        from repro.synthesis.protocol import ProtocolSpec
        from repro.synthesis.actions import FlipAction

        handle = Protocol.from_spec(
            ProtocolSpec(
                name="reexpand-test", states=("a", "b"),
                actions=(FlipAction("a", 0.1, "b"),),
            ),
            initial={"a": 1.0},
        )
        spec = CampaignSpec(
            protocols=[handle], group_sizes=[100], trials=2, periods=2,
        )
        first = spec.expand()
        second = spec.expand()
        assert [p.seed for p in first] == [p.seed for p in second]
