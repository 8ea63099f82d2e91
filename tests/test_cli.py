"""Tests for the command-line interface (python -m repro)."""

import pytest

from repro.__main__ import main


@pytest.fixture
def equations_file(tmp_path):
    path = tmp_path / "endemic.txt"
    path.write_text(
        "x' = -beta*x*y + alpha*z\n"
        "y' =  beta*x*y - gamma*y\n"
        "z' =  gamma*y  - alpha*z\n"
    )
    return str(path)


@pytest.fixture
def raw_lv_file(tmp_path):
    path = tmp_path / "lv.txt"
    path.write_text(
        "x' = 3*x - 3*x^2 - 6*x*y\n"
        "y' = 3*y - 3*y^2 - 6*x*y\n"
    )
    return str(path)


PARAMS = ["--param", "beta=4", "--param", "gamma=1.0", "--param", "alpha=0.01"]


class TestClassify:
    def test_classify_output(self, equations_file, capsys):
        assert main(["classify", equations_file, *PARAMS]) == 0
        out = capsys.readouterr().out
        assert "flip+sample" in out
        assert "complete" in out

    def test_unbound_symbol_fails(self, equations_file, capsys):
        assert main(["classify", equations_file]) == 1
        err = capsys.readouterr().err
        assert "endemic.txt: unbound symbols" in err
        assert "Traceback" not in err and len(err.splitlines()) == 1

    def test_bad_param_format(self, equations_file, capsys):
        assert main(["classify", equations_file, "--param", "beta"]) == 1
        assert "--param expects name=value" in capsys.readouterr().err


class TestSynthesize:
    def test_synthesize_output(self, equations_file, capsys):
        assert main(["synthesize", equations_file, *PARAMS]) == 0
        out = capsys.readouterr().out
        assert "protocol" in out
        assert "message complexity" in out

    def test_explicit_p(self, equations_file, capsys):
        assert main(["synthesize", equations_file, *PARAMS, "--p", "0.2"]) == 0
        assert "p = 0.2" in capsys.readouterr().out

    def test_auto_rewrite_applied(self, raw_lv_file, capsys):
        assert main(["synthesize", raw_lv_file]) == 0
        out = capsys.readouterr().out
        assert "state z" in out  # slack variable appeared

    def test_no_rewrite_fails_on_raw(self, raw_lv_file, capsys):
        assert main(["synthesize", raw_lv_file, "--no-rewrite"]) == 1
        assert "failed" in capsys.readouterr().err


class TestSimulate:
    def test_simulate_runs(self, equations_file, capsys):
        code = main([
            "simulate", equations_file,
            "--param", "beta=0.4", "--param", "gamma=0.1",
            "--param", "alpha=0.01",
            "--n", "2000", "--periods", "100", "--seed", "1",
            "--initial", "x=1999", "--initial", "y=1", "--initial", "z=0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "after 100 periods" in out

    def test_simulate_default_initial(self, equations_file, capsys):
        code = main([
            "simulate", equations_file,
            "--param", "beta=0.4", "--param", "gamma=0.1",
            "--param", "alpha=0.01",
            "--n", "500", "--periods", "20", "--seed", "2",
        ])
        assert code == 0

    def test_plot_flag(self, equations_file, capsys):
        code = main([
            "simulate", equations_file,
            "--param", "beta=0.4", "--param", "gamma=0.1",
            "--param", "alpha=0.01",
            "--n", "500", "--periods", "20", "--seed", "3", "--plot",
        ])
        assert code == 0
        assert "|" in capsys.readouterr().out  # plot axis rendered


class TestAnalyze:
    def test_analyze_lists_equilibria(self, equations_file, capsys):
        assert main(["analyze", equations_file, *PARAMS]) == 0
        out = capsys.readouterr().out
        assert "stable spiral" in out
        assert "saddle point" in out

    def test_analyze_with_trajectory(self, equations_file, capsys):
        code = main([
            "analyze", equations_file, *PARAMS, "--trajectory",
            "--initial", "x=0.9", "--initial", "y=0.1", "--initial", "z=0",
            "--t-end", "30",
        ])
        assert code == 0
        assert "trajectory" in capsys.readouterr().out


class TestAnalyzeCampaign:
    def run_campaign_with_tensors(self, tmp_path):
        tensors = tmp_path / "tensors"
        assert main([
            "campaign", "--protocol", "lv", "--n", "200", "--trials", "3",
            "--periods", "5", "--seed", "6",
            "--save-tensors", str(tensors),
        ]) == 0
        return tensors

    def test_summarizes_saved_tensors(self, tmp_path, capsys):
        tensors = self.run_campaign_with_tensors(tmp_path)
        capsys.readouterr()
        assert main(["analyze-campaign", str(tensors)]) == 0
        out = capsys.readouterr().out
        assert "1 point(s)" in out
        assert "lv/n=200/f=0/none" in out
        assert "median" in out
        # Every protocol state appears as a table row.
        for state in ("x", "y", "z"):
            assert f"\n{state} " in out

    def test_prints_predicted_vs_measured_messages(self, tmp_path, capsys):
        tensors = self.run_campaign_with_tensors(tmp_path)
        capsys.readouterr()
        assert main(["analyze-campaign", str(tensors)]) == 0
        out = capsys.readouterr().out
        assert "messages: predicted" in out
        assert "vs measured" in out
        assert "MISMATCH" not in out

    def test_missing_manifest(self, tmp_path, capsys):
        assert main(["analyze-campaign", str(tmp_path)]) == 1
        assert "manifest.json" in capsys.readouterr().err

    def test_missing_directory(self, tmp_path, capsys):
        assert main(["analyze-campaign", str(tmp_path / "nope")]) == 1
        assert "no such directory" in capsys.readouterr().err


class TestRunWorkers:
    def test_run_with_workers(self, capsys):
        # endemic starts at its closed-form equilibrium, so the final
        # equilibrium check passes and the exit status stays 0.
        assert main([
            "run", "endemic", "--n", "400", "--trials", "4",
            "--periods", "10", "--seed", "3", "--workers", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "workers=2 (shards=2)" in out
        assert "ensemble trajectory summary" in out


class TestRunClusterBackend:
    @pytest.mark.slow
    def test_run_with_cluster_backend(self, capsys):
        assert main([
            "run", "endemic", "--n", "300", "--trials", "2",
            "--periods", "5", "--seed", "3", "--workers", "2",
            "--backend", "cluster", "--heartbeat", "0.2",
        ]) == 0
        out = capsys.readouterr().out
        assert "ensemble trajectory summary" in out


class TestFailureProvenanceRendering:
    def test_cluster_failure_renders_provenance(self):
        from repro.cli.common import (
            render_failure_provenance as _render_failure_provenance,
        )

        line = _render_failure_provenance({
            "label": "lv/n=200/f=0/none",
            "error": "worker 'w1' lost",
            "attempts": 2,
            "worker": "w1",
            "redispatches": 1,
            "heartbeat_misses": 3,
        })
        assert "lv/n=200/f=0/none" in line
        assert "after 2 attempt(s)" in line
        assert "last worker w1" in line
        assert "re-dispatched 1x" in line
        assert "3 heartbeat miss(es)" in line

    def test_legacy_record_renders_without_provenance(self):
        from repro.cli.common import (
            render_failure_provenance as _render_failure_provenance,
        )

        line = _render_failure_provenance({
            "label": "pt", "error": "boom", "attempts": 1,
        })
        assert line == "pt: boom after 1 attempt(s)"


class TestCampaignEquationsAxis:
    def test_equations_axis_runs_and_replays(self, equations_file, tmp_path,
                                             capsys):
        # Bind the rates via '# param:' directives so the file is
        # self-contained (the campaign axis takes no --param flags).
        from pathlib import Path

        text = Path(equations_file).read_text()
        bound = tmp_path / "bound.txt"
        bound.write_text(
            "# param: beta = 4 gamma = 1.0 alpha = 0.01\n" + text
        )
        out_file = tmp_path / "results.json"
        assert main([
            "campaign", "--equations", str(bound), "--n", "300",
            "--trials", "2", "--periods", "5", "--seed", "8",
            "--out", str(out_file),
        ]) == 0
        capsys.readouterr()
        assert main(["campaign", "--replay", str(out_file)]) == 0
        assert "reproduced bit-for-bit" in capsys.readouterr().out

    def test_equations_conflicts_with_config(self, equations_file, tmp_path,
                                             capsys):
        config = tmp_path / "spec.json"
        config.write_text(
            '{"name": "c", "protocols": ["lv"], "group_sizes": [200],'
            ' "loss_rates": [0.0], "scenarios": ["none"]}'
        )
        assert main([
            "campaign", "--config", str(config),
            "--equations", equations_file,
        ]) == 1
        assert "--equations" in capsys.readouterr().err


class TestOneErrorConvention:
    """Bad input is exit 1 and one stderr line on every command."""

    @pytest.mark.parametrize(
        "command", ["classify", "synthesize", "analyze", "simulate"]
    )
    def test_missing_and_unparsable_files(self, command, tmp_path, capsys):
        garbage = tmp_path / "garbage.txt"
        garbage.write_text("x' = = 3\n")
        for target, message in (
            (str(tmp_path / "nope.txt"), "cannot read"),
            (str(garbage), "garbage.txt: expected a number or name"),
        ):
            assert main([command, target]) == 1
            err = capsys.readouterr().err
            assert message in err
            assert "Traceback" not in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv", [["run"], ["check", "spec"], ["check", "complexity"]]
    )
    def test_unknown_target_is_never_parsed_as_equations(self, argv, capsys):
        assert main([*argv, "nope.txt"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "'nope.txt' is neither an equations file nor a registered "
            "protocol; available: "
        )
        assert len(captured.err.splitlines()) == 1

    def test_existing_file_wins_over_registry_name(
        self, equations_file, tmp_path, monkeypatch, capsys
    ):
        # A file in the working directory called 'endemic' is an
        # equations file to every command that takes a target.
        from pathlib import Path

        (tmp_path / "endemic").write_text(
            "# param: beta = 2 gamma = 0.5 alpha = 0.125\n"
            + Path(equations_file).read_text()
        )
        monkeypatch.chdir(tmp_path)
        assert main(["check", "complexity", "endemic", "--n", "100"]) == 0
        from_file = capsys.readouterr().out
        assert main(["check", "complexity", "endemic.txt", "--n", "100",
                     "--param", "beta=2", "--param", "gamma=0.5",
                     "--param", "alpha=0.125"]) == 0
        assert capsys.readouterr().out == from_file.replace(
            "endemic:", "endemic.txt:", 1
        )
        assert main(["check", "spec", "endemic", "--param", "beta=x"]) == 1
        assert "--param beta" in capsys.readouterr().err
        assert main(["run", "endemic", "--n", "200", "--trials", "2",
                     "--periods", "2", "--seed", "1"]) == 0
        assert "protocol 'endemic' (endemic):" in capsys.readouterr().out


class TestCampaignModeConflicts:
    """--replay and --resume refuse flags from one table."""

    EXECUTION = [
        ["--on-error", "skip"], ["--retries", "7"], ["--unit-timeout", "5"],
        ["--backend", "cluster"], ["--heartbeat", "9"],
        ["--heartbeat-misses", "2"], ["--max-dispatches", "5"],
    ]

    @pytest.fixture
    def tensors(self, tmp_path):
        directory = tmp_path / "tensors"
        assert main([
            "campaign", "--protocol", "lv", "--n", "200", "--trials", "2",
            "--periods", "3", "--seed", "6", "--save-tensors", str(directory),
            "--out", str(tmp_path / "results.json"),
        ]) == 0
        return directory

    def test_replay_refuses_every_execution_flag(self, tensors, capsys):
        results = str(tensors.parent / "results.json")
        capsys.readouterr()
        for flag in self.EXECUTION + [["--workers", "2"]]:
            assert main(["campaign", "--replay", results, *flag]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"{flag[0]} cannot be combined with --replay" in captured.err
        assert main(["campaign", "--replay", results]) == 0

    def test_resume_keeps_allowing_them(self, tensors, capsys):
        flags = [token for flag in self.EXECUTION[:3] for token in flag]
        assert main(["campaign", "--resume", str(tensors), *flags,
                     "--workers", "2", "--heartbeat", "9",
                     "--out", str(tensors.parent / "again.json")]) == 0
        capsys.readouterr()
        assert main(["campaign", "--resume", str(tensors),
                     "--retries", "7", "--trials", "4", "--dry-run"]) == 1
        assert ("--trials, --dry-run cannot be combined with --resume"
                in capsys.readouterr().err)
