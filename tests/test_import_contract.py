"""The import contract: a ``repro`` process imports what it runs.

``networkx`` and ``sympy`` are imported by the first function that
needs them (see "Import policy" in docs/architecture.md), never by
``import repro``.  The pytest process has long since loaded both, so
the journeys run in one fresh interpreter, in an order where loading is
cumulative -- start-up paths, then run journeys, then each first call
-- and each reports the deferred modules loaded before and after it as
JSON: a statement about *what* loads, which a timing could only hint at.

The second half pins the run journeys: ``src/repro`` imports no scipy
(the equilibrium solve, the integrator and the chi-square are numpy and
the stdlib), so no journey loads it, and every journey gives the same
answer in a second interpreter where scipy cannot be imported.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

#: What no start-up path may load.
DEFERRED = ("networkx", "sympy")

PRELUDE = f"""
import json, sys

def loaded():
    return [m for m in {DEFERRED!r} if m in sys.modules]

def report(**fields):
    print(json.dumps(fields))

def scipy_loaded():
    # A None entry is a blocked import, not a loaded module.
    return sorted(
        m for m, module in sys.modules.items()
        if m.split(".")[0] == "scipy" and module is not None
    )
"""


def fresh(body: str) -> dict:
    """Run ``body`` after PRELUDE in a new interpreter; its last stdout
    line is JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    done = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(body)],
        env=env, cwd=REPO, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


#: Every parser of ``python -m repro`` that runs something.
LEAF_COMMANDS = [
    path for path in json.loads(
        (REPO / "tests" / "data" / "cli_surface.json").read_text()
    ) if path not in ("(top)", "check")
]

#: The journeys, in the order one interpreter runs them: start-up paths
#: (nothing deferred may load), then run journeys (no scipy at all),
#: then the first calls, each of which adds its own deferred module.
#: Each is a function body whose ``return`` gives the row's fields.
JOURNEYS = {
    "import repro": "import repro",
    "import repro.__main__": "import repro.__main__",
    "import repro.runtime.cluster": "import repro.runtime.cluster",
    "repro worker --help": """
        sys.argv = ["repro", "worker", "--help"]
        try:
            runpy.run_module("repro", run_name="__main__", alter_sys=True)
        except SystemExit as stop:
            return dict(code=stop.code)
    """,
    "repro.runtime.cluster --help": """
        sys.argv = ["repro.runtime.cluster", "--help"]
        try:
            runpy.run_module(
                "repro.runtime.cluster", run_name="__main__", alter_sys=True
            )
        except SystemExit as stop:
            return dict(code=stop.code)
    """,
    "command help": f"""
        # One module per command, all imported to build the parser.
        from repro.__main__ import main

        rows = {{}}
        for command in {LEAF_COMMANDS!r}:
            try:
                code = main(command.split() + ["--help"])
            except SystemExit as stop:
                code = stop.code
            rows[command] = {{"code": code, "loaded": loaded()}}
        return dict(rows=rows)
    """,
    "registry campaign shard unit": """
        # What a pool or cluster worker executes for a campaign -- an
        # ensemble executor unit.
        from repro.experiment import RunPoint

        totals = {}
        for protocol in ("endemic", "lv"):
            point = RunPoint(
                protocol=protocol, n=300, loss_rate=0.0,
                scenario="none", trials=4, periods=10, seed=3, shards=2,
            )
            executor, options = point.ensemble()
            unit = executor.units(**options)[0]
            output = unit.runner(unit.payload)
            totals[protocol] = output.final_counts.sum(axis=1).tolist()
        return dict(totals=totals)
    """,
    "find_equilibria": """
        from repro.odes import find_equilibria, library

        found = find_equilibria(
            library.endemic(alpha=0.01, gamma=1.0, beta=4.0)
        )
        return dict(
            labels=[e.classification for e in found],
            stable=found[0].point,
        )
    """,
    "equations-file experiment": """
        # The pool forks from a parent that never loaded a solver:
        # there is nothing left to warm before the fork.
        from repro.experiment import Experiment, Protocol

        protocol = Protocol.from_equations("examples/endemic.txt")
        result = Experiment(
            protocol, n=2000, trials=4, periods=100, seed=1, workers=2,
        ).run()
        check = result.equilibrium_check()
        return dict(
            trials=result.trials,
            gated=sorted(r.state for r in check.rows if r.gated),
            lines=len(result.render_summary().splitlines()),
        )
    """,
    "quickstart cli": """
        # `python -m repro run examples/endemic.txt`
        sys.argv = ["repro", "run", "examples/endemic.txt", "--n", "2000",
                    "--trials", "4", "--periods", "100", "--seed", "5"]
        try:
            runpy.run_module("repro", run_name="__main__", alter_sys=True)
        except SystemExit as stop:
            return dict(code=stop.code)
    """,
    "service start and equilibrium query": """
        from repro.service import LiveConfig, LiveEngine, ServiceCore
        from repro.store import MemoryEventLog

        core = ServiceCore(
            LiveEngine(LiveConfig(protocol="endemic", n=300, seed=42)),
            log=MemoryEventLog(),
        )
        core.start()
        return dict(expected=sorted(core.query("equilibrium")["expected"]))
    """,
    "equations-file campaign": """
        # Parent: resolves the file (solving for its start point),
        # plans, forks two workers, checkpoints.  Unit: what a worker
        # runs -- the resolved spec's ensemble.
        from repro.campaign import CampaignSpec, run_campaign

        spec = CampaignSpec(
            protocols=["examples/endemic.txt"], group_sizes=[300],
            trials=4, periods=10, base_seed=1, shards=2,
        )
        campaign = run_campaign(spec, workers=2)
        parent = scipy_loaded()
        point = spec.expand()[0]
        executor, options = point.ensemble()
        first = executor.units(**options)[0]
        unit = first.runner(first.payload)
        return dict(
            parent=parent, points=len(campaign.results),
            totals=unit.final_counts.sum(axis=1).tolist(),
        )
    """,
    "round map": """
        # The exact infinite-N round map of a registry protocol: the
        # period program's laws, numpy only.
        from repro.analysis.mean_field import discrete_mean_field
        from repro.campaign.registry import protocol_builder

        spec, initial = protocol_builder("epidemic-push-pull")(1000)
        series = discrete_mean_field(
            spec, {s: c / 1000 for s, c in initial.items()}, periods=6
        )
        return dict(x=series["x"].tolist())
    """,
    "repro check spec lv": """
        # An exact protocol's verdicts are the framework's own
        # monomial-keyed residuals: sympy is for `# param-range:` files
        # and `check complexity` only.
        sys.argv = ["repro", "check", "spec", "lv"]
        try:
            runpy.run_module("repro", run_name="__main__", alter_sys=True)
        except SystemExit as stop:
            return dict(code=stop.code)
    """,
    "analyze --trajectory": """
        sys.argv = ["repro", "analyze", "examples/endemic.txt", "--trajectory"]
        try:
            runpy.run_module("repro", run_name="__main__", alter_sys=True)
        except SystemExit as stop:
            return dict(code=stop.code)
    """,
    "integrate": """
        from repro.odes import integrate, library

        trajectory = integrate(
            library.epidemic(), {"x": 0.99, "y": 0.01}, 10.0
        )
        return dict(y=trajectory.final["y"])
    """,
    "fairness chi-square": """
        import numpy as np

        from repro.analysis.fairness import analyze_member_log

        rng = np.random.default_rng(7)
        log = [
            (period, np.sort(rng.choice(64, size=8, replace=False)))
            for period in range(200)
        ]
        fairness = analyze_member_log(log, 64, gamma=0.5)
        return dict(pvalue=fairness.host_id_uniformity_pvalue)
    """,
    "overlay": """
        import importlib.util

        if importlib.util.find_spec("networkx") is None:
            return dict(skipped=True)
        from repro.runtime import overlay_stats, random_regular_overlay

        before = loaded()
        neighbors = random_regular_overlay(100, degree=6, seed=1)
        return dict(before=before, stats=overlay_stats(neighbors))
    """,
}

RUNNER = r"""
import contextlib, io, runpy, textwrap

rows = {}
for name, body in JOURNEYS.items():
    source = "def journey():\n" + textwrap.indent(
        textwrap.dedent(body).strip() + "\nreturn None", "    "
    )
    scope = dict(globals())
    exec(source, scope)
    before = loaded()
    with contextlib.redirect_stdout(io.StringIO()):
        fields = scope["journey"]() or {}
    rows[name] = dict(
        fields, before=fields.get("before", before), after=loaded(),
        scipy=scipy_loaded(),
    )
report(rows=rows)
"""


@pytest.fixture(scope="module")
def journeys():
    """Every journey above, in order, in one fresh interpreter: its
    fields plus the deferred modules loaded before and after it and the
    scipy modules loaded so far."""
    return fresh(f"JOURNEYS = {JOURNEYS!r}\n" + RUNNER)["rows"]


@pytest.fixture(scope="module")
def journeys_without_scipy():
    """The same, in an interpreter where ``import scipy`` fails."""
    return fresh(
        f"sys.modules['scipy'] = None\nJOURNEYS = {JOURNEYS!r}\n" + RUNNER
    )["rows"]


def added(row) -> list:
    """The deferred modules a journey loaded itself."""
    return [m for m in row["after"] if m not in row["before"]]


# ----------------------------------------------------------------------
# Nothing deferred is loaded by starting
# ----------------------------------------------------------------------
class TestStartLoadsNoDeferredModule:
    @pytest.mark.parametrize(
        "module", ["repro", "repro.__main__", "repro.runtime.cluster"]
    )
    def test_import(self, module, journeys):
        assert journeys[f"import {module}"]["after"] == []

    @pytest.mark.parametrize(
        "module, argv",
        [
            ("repro", ["worker", "--help"]),
            ("repro.runtime.cluster", ["--help"]),
        ],
    )
    def test_worker_entry_points(self, module, argv, journeys):
        row = journeys[f"{module} {' '.join(argv)}"]
        assert (row["code"], row["after"]) == (0, [])

    @pytest.mark.parametrize("command", LEAF_COMMANDS)
    def test_command_help(self, command, journeys):
        # Loading is cumulative, so the first failing row in
        # LEAF_COMMANDS order is the culprit.
        rows = journeys["command help"]["rows"]
        assert rows[command] == {"code": 0, "loaded": []}

    def test_registry_campaign_shard_unit(self, journeys):
        # It must import nothing the worker did not have at start.
        row = journeys["registry campaign shard unit"]
        assert row["after"] == []
        assert row["totals"] == {"endemic": [300, 300], "lv": [300, 300]}


# ----------------------------------------------------------------------
# Each deferred module is loaded by its own first call
# ----------------------------------------------------------------------
class TestFirstCallLoadsItsModule:
    def test_overlay_loads_networkx(self, journeys):
        row = journeys["overlay"]
        if row.get("skipped"):
            pytest.skip("networkx is not installed")
        assert "networkx" not in row["before"]
        assert added(row) == ["networkx"]
        assert row["stats"]["connected"]
        assert row["stats"]["mean_degree"] == pytest.approx(6.0)


# ----------------------------------------------------------------------
# A missing package is named, never mistaken for a result
# ----------------------------------------------------------------------
class TestMissingPackages:
    def test_overlay_builders_name_networkx(self, monkeypatch):
        from repro.runtime import (
            erdos_renyi_overlay,
            overlay_stats,
            random_regular_overlay,
        )

        monkeypatch.setitem(sys.modules, "networkx", None)
        for build in (
            lambda: random_regular_overlay(20, degree=4, seed=0),
            lambda: erdos_renyi_overlay(20, seed=0),
            lambda: overlay_stats([]),
        ):
            with pytest.raises(ImportError, match="pip install networkx"):
                build()


# ----------------------------------------------------------------------
# No run journey loads scipy
# ----------------------------------------------------------------------
class TestRunJourneysLoadNoScipy:
    def test_find_equilibria(self, journeys):
        row = journeys["find_equilibria"]
        assert row["scipy"] == []
        assert row["labels"] == ["stable spiral", "saddle point"]
        assert row["stable"] == pytest.approx(
            {"x": 0.25, "y": 0.75 / 101, "z": 75 / 101}, abs=1e-9
        )

    def test_equations_file_experiment(self, journeys):
        row = journeys["equations-file experiment"]
        assert row["scipy"] == []
        assert row["trials"] == 4
        assert row["gated"] == ["x", "y", "z"]
        assert row["lines"] >= 5

    def test_quickstart_cli(self, journeys):
        # `python -m repro run examples/endemic.txt`
        row = journeys["quickstart cli"]
        assert (row["code"], row["scipy"]) == (0, [])

    def test_analyze_trajectory(self, journeys):
        row = journeys["analyze --trajectory"]
        assert (row["code"], row["scipy"]) == (0, [])

    def test_integrate(self, journeys):
        row = journeys["integrate"]
        assert row["scipy"] == []
        # y' = y(1-y): the closed form tests/test_integrate.py checks.
        assert row["y"] == pytest.approx(1 / (1 + 99 * 2.718281828459045 ** -10), rel=1e-5)

    def test_fairness_chi_square(self, journeys):
        row = journeys["fairness chi-square"]
        assert row["scipy"] == []
        # The value scipy.stats.chisquare gave at the parent commit.
        assert row["pvalue"] == pytest.approx(0.8628095479158755, rel=1e-12)

    @pytest.mark.parametrize("name", list(JOURNEYS))
    def test_every_journey_runs_where_scipy_cannot_be_imported(
        self, name, journeys, journeys_without_scipy
    ):
        assert journeys_without_scipy[name] == journeys[name]

    def test_no_module_imports_scipy(self):
        found = []
        for path in sorted((REPO / "src" / "repro").rglob("*.py")):
            source = path.read_text()
            if "scipy" not in source:  # nothing to parse for
                continue
            for node in ast.walk(ast.parse(source)):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module]
                else:
                    continue
                found += [
                    f"{path.relative_to(REPO)}:{node.lineno}"
                    for name in names if name.split(".")[0] == "scipy"
                ]
        assert found == []

    def test_round_map(self, journeys):
        row = journeys["round map"]
        assert (row["scipy"], "sympy" in row["after"]) == ([], False)
        # x' = x^2 e^-(1 - x): the pull misses, and no push lands.
        assert row["x"][6] == pytest.approx(0.0067, abs=1e-4)

    def test_check_spec_of_an_exact_protocol(self, journeys):
        row = journeys["repro check spec lv"]
        assert row["code"] == 0
        assert "sympy" not in added(row)

    def test_service_start_and_equilibrium_query(self, journeys):
        row = journeys["service start and equilibrium query"]
        assert {"scipy": row["scipy"], "expected": row["expected"]} == {
            "scipy": [], "expected": ["x", "y", "z"],
        }

    def test_equations_file_campaign(self, journeys):
        row = journeys["equations-file campaign"]
        out = {
            "parent": row["parent"], "unit": row["scipy"],
            "points": row["points"], "totals": row["totals"],
        }
        assert out == {
            "parent": [], "unit": [], "points": 1, "totals": [300, 300],
        }
