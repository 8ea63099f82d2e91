"""Tests for campaign checkpointing, resume, and failure isolation.

The manifest doubles as the campaign's checkpoint: it is written
atomically before the first unit runs and after every point lands, so
a kill at any moment leaves a consistent partial manifest, and
``run_campaign(..., resume=dir)`` finishes exactly the missing points.
The headline guarantee under test: a resumed campaign's results,
manifest and tensors are bitwise identical to an uninterrupted run's
(wall-clock provenance aside).
"""

import json
import os

import numpy as np
import pytest

from repro.campaign import (
    CampaignSpec,
    load_manifest,
    register_protocol,
    register_scenario,
    run_campaign,
)
from repro.campaign.runner import MANIFEST_NAME
from repro.runtime import FaultPolicy, UnitExecutionError
from repro.store import durable
from repro.__main__ import main as cli_main


def tiny_spec(**overrides):
    base = dict(
        name="resume-tiny",
        protocols=["epidemic-pull"],
        group_sizes=[200, 300],
        loss_rates=[0.0],
        scenarios=["none"],
        trials=4,
        periods=10,
        base_seed=7,
    )
    base.update(overrides)
    return CampaignSpec(**base)


class Bomb(RuntimeError):
    """Simulated interrupt (a kill between two points)."""


def bomb_after(n):
    """A progress callback that detonates after ``n`` points land."""
    landed = []

    def progress(result):
        landed.append(result)
        if len(landed) >= n:
            raise Bomb(f"interrupted after {n} point(s)")

    return progress


def scrub(data):
    """Mask the wall-clock provenance that legitimately differs."""
    if isinstance(data, dict):
        return {
            key: (
                "<wall-clock>"
                if key in ("elapsed_seconds", "created")
                else scrub(value)
            )
            for key, value in data.items()
        }
    if isinstance(data, list):
        return [scrub(value) for value in data]
    return data


def assert_tensor_dirs_equal(dir_a, dir_b):
    """Same .npz files, same array contents (zip timestamps may differ)."""
    names = sorted(p.name for p in dir_a.glob("*.npz"))
    assert names == sorted(p.name for p in dir_b.glob("*.npz"))
    for name in names:
        with np.load(dir_a / name) as a, np.load(dir_b / name) as b:
            assert sorted(a.files) == sorted(b.files)
            for key in a.files:
                assert np.array_equal(a[key], b[key]), (name, key)


class TestCheckpoint:
    def test_manifest_written_before_first_unit(self, tmp_path):
        spec = tiny_spec(group_sizes=[200])
        with pytest.raises(Bomb):
            run_campaign(
                spec, save_tensors=str(tmp_path), progress=bomb_after(1)
            )
        # Even though the run died, the pre-run checkpoint plus the
        # point-completion checkpoint are on disk and consistent.
        manifest = load_manifest(tmp_path)
        assert manifest["complete"] is True  # the only point landed
        assert manifest["spec"] == spec.to_dict()

    def test_partial_manifest_names_exactly_the_landed_points(
        self, tmp_path
    ):
        spec = tiny_spec()
        with pytest.raises(Bomb):
            run_campaign(
                spec, save_tensors=str(tmp_path), progress=bomb_after(1)
            )
        manifest = load_manifest(tmp_path)
        assert manifest["complete"] is False
        statuses = [e["status"] for e in manifest["points"]]
        assert statuses == ["done", "pending"]
        done = manifest["points"][0]
        # The done entry embeds the full result (that is what makes it
        # restorable) and its tensor file exists.
        assert done["result"]["point"] == spec.expand()[0].to_dict()
        assert (tmp_path / done["result"]["tensor_path"]).is_file()
        # No torn temp files linger.
        assert list(tmp_path.glob("*.tmp")) == []

    def test_no_save_tensors_means_no_checkpoint(self, tmp_path):
        os.chdir(tmp_path)  # anything written by mistake lands here
        result = run_campaign(tiny_spec(group_sizes=[200]))
        assert len(result.results) == 1
        assert not (tmp_path / MANIFEST_NAME).exists()


class TestResume:
    def test_interrupted_then_resumed_equals_uninterrupted(
        self, tmp_path, monkeypatch
    ):
        # Pin the manifest's created stamp so only elapsed_seconds is
        # legitimately wall-clock.
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        spec = tiny_spec(shards=2)  # sharded points: resume re-runs
        dir_full = tmp_path / "full"
        dir_interrupted = tmp_path / "interrupted"

        full = run_campaign(spec, save_tensors=str(dir_full))
        with pytest.raises(Bomb):
            run_campaign(
                spec, save_tensors=str(dir_interrupted),
                progress=bomb_after(1),
            )
        resumed = run_campaign(spec, resume=str(dir_interrupted))

        assert scrub(resumed.to_dict()) == scrub(full.to_dict())
        assert scrub(load_manifest(dir_interrupted)) == scrub(
            load_manifest(dir_full)
        )
        assert load_manifest(dir_interrupted)["complete"] is True
        assert_tensor_dirs_equal(dir_full, dir_interrupted)

    def test_resume_skips_completed_points(self, tmp_path):
        spec = tiny_spec()
        full = run_campaign(spec, save_tensors=str(tmp_path))
        reran = []
        resumed = run_campaign(
            spec, resume=str(tmp_path), progress=reran.append
        )
        assert reran == []  # nothing executed, everything restored
        assert scrub(resumed.to_dict()) == scrub(full.to_dict())

    def test_missing_tensor_file_reruns_its_point(self, tmp_path):
        spec = tiny_spec()
        full = run_campaign(spec, save_tensors=str(tmp_path))
        victim = full.results[0].tensor_path
        (tmp_path / victim).unlink()
        reran = []
        resumed = run_campaign(
            spec, resume=str(tmp_path),
            progress=lambda r: reran.append(r.point.label),
        )
        assert reran == [full.results[0].point.label]
        assert (tmp_path / victim).is_file()  # regenerated
        assert scrub(resumed.to_dict()) == scrub(full.to_dict())

    def test_resume_rejects_a_different_spec(self, tmp_path):
        run_campaign(
            tiny_spec(group_sizes=[200]), save_tensors=str(tmp_path)
        )
        with pytest.raises(ValueError, match="spec mismatch"):
            run_campaign(
                tiny_spec(group_sizes=[200], base_seed=8),
                resume=str(tmp_path),
            )

    def test_resume_requires_a_manifest(self, tmp_path):
        with pytest.raises(ValueError, match="resumable"):
            run_campaign(tiny_spec(), resume=str(tmp_path / "nope"))

    def test_resume_rejects_conflicting_save_tensors(self, tmp_path):
        run_campaign(
            tiny_spec(group_sizes=[200]), save_tensors=str(tmp_path)
        )
        with pytest.raises(ValueError, match="same directory"):
            run_campaign(
                tiny_spec(group_sizes=[200]),
                resume=str(tmp_path),
                save_tensors=str(tmp_path / "elsewhere"),
            )

    def test_parent_format_manifest_resumes_as_a_noop(self, tmp_path):
        # A manifest as the previous release wrote it: "mode" in the
        # spec, in every point and in the .npz provenance, and each
        # done entry repeating its result's fields at the top level.
        spec = tiny_spec(group_sizes=[200])
        first = run_campaign(spec, save_tensors=str(tmp_path))
        path = tmp_path / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["spec"]["mode"] = "batch"
        for entry in manifest["points"]:
            stored = entry["result"]
            stored["point"]["mode"] = "batch"
            entry.update(
                point=stored["point"], tensor=stored["tensor_path"],
                states=stored["states"], trial_seeds=stored["trial_seeds"],
                recorded_periods=stored["recorded_periods"],
                elapsed_seconds=stored["elapsed_seconds"],
            )
        path.write_text(json.dumps(manifest))

        def fail_if_run(result):
            raise AssertionError("a restored point must not re-run")

        # progress fires only for points that execute.
        resumed = run_campaign(
            spec, resume=str(tmp_path), progress=fail_if_run
        )
        assert resumed.to_dict() == first.to_dict()
        assert load_manifest(tmp_path)["complete"] is True

        manifest["spec"]["mode"] = "lockstep"
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="run --engine serial"):
            run_campaign(spec, resume=str(tmp_path))
        assert cli_main(["campaign", "--resume", str(tmp_path)]) == 1

    @pytest.mark.parametrize("shards,scenarios,recorded", [
        (1, ["none", "churn"], False),
        (2, ["none"], False),
        (2, ["none", "churn"], True),
    ])
    def test_manifest_records_the_scenario_seeding_where_it_matters(
        self, tmp_path, shards, scenarios, recorded
    ):
        spec = tiny_spec(group_sizes=[200], shards=shards, scenarios=scenarios)
        run_campaign(spec, save_tensors=str(tmp_path))
        manifest = load_manifest(tmp_path)
        assert ("scenario_seeding" in manifest) is recorded
        if recorded:
            assert manifest["scenario_seeding"] == "global-trial"
        # Written as it writes it, a manifest always resumes.
        run_campaign(spec, resume=str(tmp_path))

    def test_per_shard_seeded_manifest_is_refused_before_any_unit(
        self, tmp_path, monkeypatch
    ):
        # A manifest from before faults were seeded by global trial: a
        # sharded point under a scenario, and no seeding field.  Its
        # restored points would not match the ones a resume re-runs.
        from repro.runtime import parallel

        spec = tiny_spec(group_sizes=[200], shards=2,
                         scenarios=["none", "churn"])
        run_campaign(spec, save_tensors=str(tmp_path))
        path = tmp_path / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        del manifest["scenario_seeding"]
        manifest["points"][1] = {
            key: manifest["points"][1][key] for key in ("index", "label")
        } | {"point": manifest["points"][1]["result"]["point"],
             "status": "pending"}
        path.write_text(json.dumps(manifest))
        before = path.read_text()

        def no_unit(job):
            raise AssertionError("no unit may run")

        monkeypatch.setattr(parallel, "_run_unit", no_unit)
        with pytest.raises(ValueError, match="scenario_seeding"):
            run_campaign(spec, resume=str(tmp_path))
        assert path.read_text() == before

    def test_tampered_entry_point_is_rejected(self, tmp_path):
        spec = tiny_spec(group_sizes=[200])
        run_campaign(spec, save_tensors=str(tmp_path))
        path = tmp_path / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["points"][0]["result"]["point"]["seed"] += 1
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="records point"):
            run_campaign(spec, resume=str(tmp_path))


class FlagScenario:
    """Scenario builder that explodes while a flag file exists.

    A scenario builder runs inside the point's work units, so this
    fails a point's units deterministically; deleting the flag
    "repairs" the fault for a resume.
    """

    def __init__(self, flag):
        self.flag = flag

    def __call__(self, point, trial, seed):
        if os.path.exists(self.flag):
            raise RuntimeError("injected campaign fault")
        return []


class TestFailureIsolation:
    def test_skip_isolates_the_failed_point_and_resume_repairs_it(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        from repro.campaign import registry

        flag = tmp_path / "fault-active"
        flag.touch()
        register_scenario("flag", FlagScenario(str(flag)))
        try:
            spec = tiny_spec(scenarios=["none", "flag"], group_sizes=[200])
            run_dir = tmp_path / "run"
            partial = run_campaign(
                spec, save_tensors=str(run_dir),
                fault_policy=FaultPolicy(
                    on_error="skip", retries=0, backoff_seconds=0.0
                ),
            )
            # The healthy point completed; the faulty one is recorded,
            # not silently dropped.
            assert [r.point.scenario for r in partial.results] == ["none"]
            assert len(partial.failures) == 1
            assert "injected campaign fault" in partial.failures[0]["error"]
            manifest = load_manifest(run_dir)
            assert manifest["complete"] is False
            # Done entries hold their point under "result"; unfinished
            # ones (pending/failed) at the top level.
            statuses = {
                e.get("result", e)["point"]["scenario"]: e["status"]
                for e in manifest["points"]
            }
            assert statuses == {"none": "done", "flag": "failed"}
            failed = [
                e for e in manifest["points"] if e["status"] == "failed"
            ][0]
            assert "injected campaign fault" in (
                failed["failures"][0]["error"]
            )

            # Repair the fault and resume: only the failed point
            # re-runs, and the final state matches a clean run.
            flag.unlink()
            resumed = run_campaign(spec, resume=str(run_dir))
            reference = run_campaign(
                spec, save_tensors=str(tmp_path / "reference")
            )
            assert resumed.failures == []
            assert scrub(resumed.to_dict()) == scrub(reference.to_dict())
            assert scrub(load_manifest(run_dir)) == scrub(
                load_manifest(tmp_path / "reference")
            )
        finally:
            registry._SCENARIOS.pop("flag")

    def test_raise_policy_keeps_completed_checkpoints(self, tmp_path):
        from repro.campaign import registry

        flag = tmp_path / "fault-active"
        flag.touch()
        register_scenario("flag", FlagScenario(str(flag)))
        try:
            # Grid order puts the healthy point first (scenario axis
            # order), so it lands and checkpoints before the fault.
            spec = tiny_spec(scenarios=["none", "flag"], group_sizes=[200])
            run_dir = tmp_path / "run"
            with pytest.raises(UnitExecutionError, match="injected"):
                run_campaign(spec, save_tensors=str(run_dir))
            manifest = load_manifest(run_dir)
            assert manifest["complete"] is False
            assert [e["status"] for e in manifest["points"]] == [
                "done", "pending"
            ]
        finally:
            registry._SCENARIOS.pop("flag")

    @pytest.mark.parametrize("on_error", ["raise", "skip"])
    def test_a_protocol_that_fails_to_resolve_runs_nothing(
        self, tmp_path, on_error
    ):
        # Points resolve their protocol in the calling process, before
        # the plan: a builder that raises is a spec error, not a unit
        # fault, and no fault policy turns it into a partial campaign.
        from repro.campaign import registry

        def broken(n):
            raise RuntimeError("builder exploded")

        register_protocol("broken-pull", broken)
        try:
            spec = tiny_spec(protocols=["epidemic-pull", "broken-pull"])
            with pytest.raises(RuntimeError, match="builder exploded"):
                run_campaign(
                    spec, save_tensors=str(tmp_path),
                    fault_policy=FaultPolicy(
                        on_error=on_error, retries=0, backoff_seconds=0.0
                    ),
                )
            assert not (tmp_path / MANIFEST_NAME).exists()
        finally:
            registry._PROTOCOLS.pop("broken-pull")


def manifest_layout(data):
    """The manifest text of ``data``: an ``indent=2`` shell, one line
    per point entry."""
    shell = json.dumps({**data, "points": None}, indent=2)
    lines = ",\n".join("    " + json.dumps(e) for e in data["points"])
    return shell.replace('"points": null', f'"points": [\n{lines}\n  ]')


def watch_manifests(monkeypatch, seen):
    """Call ``seen(path, text)`` after every manifest written durably."""
    write_atomic = durable.write_atomic

    def watched(path, write):
        write_atomic(path, write)
        if path.name == MANIFEST_NAME:
            seen(path, path.read_text())

    monkeypatch.setattr(durable, "write_atomic", watched)


class TestCheckpointEncoding:
    """The manifest is assembled from per-entry pieces, each encoded once."""

    def test_every_checkpoint_is_the_shell_with_a_line_per_entry(
        self, tmp_path, monkeypatch
    ):
        # Three points; the second run restores point 0 from the first
        # run's manifest, fails point 1 and completes point 2.
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        from repro.campaign import registry

        written = []

        def checked_write(path, text):
            data = json.loads(text)
            written.append([e["status"] for e in data["points"]])
            assert text == manifest_layout(data)
            assert data["provenance"]["created"].startswith("2023-11-14")

        watch_manifests(monkeypatch, checked_write)
        flag = tmp_path / "fault-active"
        flag.touch()
        register_scenario("flag", FlagScenario(str(flag)))
        try:
            spec = tiny_spec(
                scenarios=["none", "flag", "massive-failure"],
                group_sizes=[200],
            )
            run_dir = tmp_path / "run"
            with pytest.raises(Bomb):
                run_campaign(
                    spec, save_tensors=str(run_dir), progress=bomb_after(1)
                )
            assert written == [["pending"] * 3, ["done", "pending", "pending"]]
            del written[:]
            run_campaign(
                spec, resume=str(run_dir),
                fault_policy=FaultPolicy(
                    on_error="skip", retries=0, backoff_seconds=0.0
                ),
            )
            # One write per change; none after the plan (it would put
            # the same bytes on disk).
            assert written == [
                ["done", "pending", "pending"],
                ["done", "failed", "pending"],
                ["done", "failed", "done"],
            ]
        finally:
            registry._SCENARIOS.pop("flag")

    def test_created_is_stamped_once_and_kept_by_resume(
        self, tmp_path, monkeypatch
    ):
        # A clock that moves between any two reads: a manifest that
        # re-stamped ``created`` per write would show it.
        from itertools import count

        from repro.campaign import runner

        monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
        ticks = count()
        monkeypatch.setattr(
            runner, "_created_stamp", lambda: f"stamp-{next(ticks)}"
        )
        stamps = []

        def stamped_write(path, text):
            stamps.append(json.loads(text)["provenance"]["created"])

        watch_manifests(monkeypatch, stamped_write)
        spec = tiny_spec()
        with pytest.raises(Bomb):
            run_campaign(
                spec, save_tensors=str(tmp_path), progress=bomb_after(1)
            )
        assert stamps == ["stamp-0", "stamp-0"]
        run_campaign(spec, resume=str(tmp_path))
        assert stamps[2:] == ["stamp-0", "stamp-0"]
        assert load_manifest(tmp_path)["provenance"]["created"] == "stamp-0"
        assert load_manifest(tmp_path)["complete"] is True

    def test_an_entry_is_encoded_once_per_status(self, tmp_path, monkeypatch):
        # Counted, not timed: six points make seven checkpoints, and no
        # finished point is encoded again by the checkpoints after it.
        from collections import Counter

        from repro.campaign import runner

        encodes = Counter()
        writes = []
        encode = runner._encode_entry

        def counting_encode(entry):
            encodes[entry["index"], entry["status"]] += 1
            return encode(entry)

        def counting_write(path, text):
            writes.append(None)

        monkeypatch.setattr(runner, "_encode_entry", counting_encode)
        watch_manifests(monkeypatch, counting_write)
        spec = tiny_spec(group_sizes=[100, 150, 200, 250, 300, 350])
        run_campaign(spec, save_tensors=str(tmp_path))
        assert len(writes) == 7
        assert encodes == {
            (index, status): 1
            for index in range(6) for status in ("pending", "done")
        }
        assert load_manifest(tmp_path)["complete"] is True


class TestResumeCli:
    def _interrupt(self, tmp_path):
        spec = tiny_spec()
        with pytest.raises(Bomb):
            run_campaign(
                spec, save_tensors=str(tmp_path), progress=bomb_after(1)
            )
        return spec

    def test_cli_resume_completes_an_interrupted_campaign(
        self, tmp_path, capsys
    ):
        self._interrupt(tmp_path)
        out_file = tmp_path / "results.json"
        assert cli_main([
            "campaign", "--resume", str(tmp_path), "--out", str(out_file),
        ]) == 0
        out = capsys.readouterr().out
        assert "resuming campaign" in out
        assert "1 of 2 point(s) already complete" in out
        assert load_manifest(tmp_path)["complete"] is True
        stored = json.loads(out_file.read_text())
        assert len(stored["results"]) == 2

    def test_cli_resume_rejects_conflicting_flags(self, tmp_path, capsys):
        self._interrupt(tmp_path)
        assert cli_main([
            "campaign", "--resume", str(tmp_path), "--trials", "9",
        ]) == 1
        assert "--trials" in capsys.readouterr().err

    def test_cli_resume_requires_a_manifest(self, tmp_path, capsys):
        assert cli_main(["campaign", "--resume", str(tmp_path)]) == 1
        assert "manifest.json" in capsys.readouterr().err

    def test_cli_analyze_reports_incomplete_and_orphans(
        self, tmp_path, capsys
    ):
        self._interrupt(tmp_path)
        (tmp_path / "stray.npz").touch()
        assert cli_main(["analyze-campaign", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "campaign is incomplete" in out
        assert "status 'pending'" in out
        assert "orphaned" in out and "stray.npz" in out
        assert "--resume" in out

    def test_cli_analyze_clean_directory_has_no_orphans(
        self, tmp_path, capsys
    ):
        run_campaign(
            tiny_spec(group_sizes=[200]), save_tensors=str(tmp_path)
        )
        assert cli_main(["analyze-campaign", str(tmp_path)]) == 0
        assert "orphaned" not in capsys.readouterr().out


class TestUnreadableManifest:
    """A manifest that does not parse, or is not an object, is refused
    with a ``ValueError`` naming the file, on every path that reads it."""

    CONTENTS = {
        "empty": "",
        "truncated": '{\n  "campaign": "tiny",\n  "spec": {"na',
        "list": "[]",
    }

    def write(self, tmp_path, name):
        path = tmp_path / MANIFEST_NAME
        path.write_text(self.CONTENTS[name])
        return path

    @pytest.mark.parametrize("name", sorted(CONTENTS))
    def test_run_campaign_resume(self, tmp_path, name):
        path = self.write(tmp_path, name)
        with pytest.raises(ValueError, match="invalid manifest") as refused:
            run_campaign(tiny_spec(), resume=str(tmp_path))
        assert type(refused.value) is ValueError
        assert str(path) in str(refused.value)

    @pytest.mark.parametrize("name", sorted(CONTENTS))
    @pytest.mark.parametrize("command", [
        ["campaign", "--resume"], ["analyze-campaign"],
    ])
    def test_cli(self, tmp_path, capsys, name, command):
        path = self.write(tmp_path, name)
        assert cli_main(command + [str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
