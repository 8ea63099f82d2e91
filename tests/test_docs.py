"""Documentation presence and link integrity (tools/check_docs.py).

The same checks run as a CI step; keeping them in the tier-1 suite
means a PR that deletes README.md or breaks a relative link fails
locally too.
"""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDocsPresence:
    def test_required_docs_exist(self):
        checker = load_checker()
        assert checker.missing_required() == []

    def test_readme_covers_the_essentials(self):
        readme = (REPO_ROOT / "README.md").read_text()
        for needle in (
            "differential equations",   # what the paper is
            "pip install",              # install
            "python -m repro",          # CLI quickstart
            "campaign",                 # campaign pointer
            "REPRO_BENCH_SCALE",        # benchmarks/results policy
            "docs/architecture.md",
            "docs/campaigns.md",
        ):
            assert needle in readme, f"README.md should mention {needle!r}"

    def test_architecture_documents_the_hierarchy(self):
        text = (REPO_ROOT / "docs" / "architecture.md").read_text()
        for needle in (
            "AgentSimulation", "RoundEngine", "BatchRoundEngine",
            "EnsembleExecutor", "spawn_seeds",
        ):
            assert needle in text, f"architecture.md should mention {needle!r}"

    def test_campaigns_documents_the_surface(self):
        text = (REPO_ROOT / "docs" / "campaigns.md").read_text()
        for needle in (
            "--replay", "register_protocol", "register_scenario",
            "shards", "--save-tensors", "spawn",
            "--backend cluster", "repro worker --connect",
            "REPRO_CHAOS",
        ):
            assert needle in text, f"campaigns.md should mention {needle!r}"

    def test_architecture_documents_the_cluster_backend(self):
        text = (REPO_ROOT / "docs" / "architecture.md").read_text()
        for needle in (
            "repro.runtime.cluster", "heartbeat", "re-dispatch",
            "worker loss cannot perturb results",
        ):
            assert needle in text, f"architecture.md should mention {needle!r}"


class TestLinkIntegrity:
    def test_no_dangling_relative_links(self):
        checker = load_checker()
        assert checker.dangling_links() == []

    def test_no_missing_required_sections(self):
        checker = load_checker()
        assert checker.missing_sections() == []

    def test_checker_catches_a_deleted_section(self, tmp_path):
        checker = load_checker()
        (tmp_path / "docs").mkdir()
        for name in checker.REQUIRED_DOCS:
            target = tmp_path / name
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text("# Something unrelated\n")
        bad = checker.missing_sections(tmp_path)
        assert set(bad) == set(checker.REQUIRED_SECTIONS)

    def test_checker_catches_a_dangling_link(self, tmp_path):
        # The checker itself must be able to fail: a fabricated tree
        # with a broken link yields a finding.
        checker = load_checker()
        (tmp_path / "docs").mkdir()
        for name in checker.REQUIRED_DOCS:
            target = tmp_path / name
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text("see [missing](nope.md)\n")
        assert checker.missing_required(tmp_path) == []
        bad = checker.dangling_links(tmp_path)
        assert bad and all(target == "nope.md" for _, target in bad)

    def test_cli_entrypoint_passes(self, capsys):
        checker = load_checker()
        assert checker.main() == 0
        assert "docs ok" in capsys.readouterr().out
