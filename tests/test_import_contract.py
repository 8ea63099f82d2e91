"""The import contract: a ``repro`` process imports what it runs.

``scipy.stats``/``scipy.integrate``, ``networkx`` and ``sympy`` are
imported by the first function that needs them (see "Import policy" in
docs/architecture.md), never by ``import repro``.  The pytest process
has long since loaded all of them, so every case runs in a fresh
interpreter and asserts on ``sys.modules`` -- a statement about *what*
loads, which a timing could only hint at.

The second half pins the run journeys: the equilibrium solve is numpy
only, so an equations-file run -- library, CLI, service or campaign --
never loads scipy at all, and works where scipy cannot be imported.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

#: What no start-up path may load (scipy.linalg / scipy.sparse ride in
#: with scipy.optimize, so they catch an indirect import too).
DEFERRED = (
    "scipy.optimize", "scipy.stats", "scipy.integrate", "scipy.linalg",
    "scipy.sparse", "networkx", "sympy",
)

PRELUDE = f"""
import json, sys

def loaded():
    return [m for m in {DEFERRED!r} if m in sys.modules]

def report(**fields):
    print(json.dumps(fields))

def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
"""


def fresh(body: str) -> dict:
    """Run ``body`` in a new interpreter; its last stdout line is JSON."""
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


@pytest.fixture(scope="module")
def command_help_rows():
    """``python -m repro <cmd> --help`` for every leaf command, in one
    fresh interpreter: exit status and deferred modules loaded so far."""
    return fresh(f"""
        import contextlib, io
        from repro.__main__ import main

        rows = {{}}
        for command in {LEAF_COMMANDS!r}:
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    code = main(command.split() + ["--help"])
                except SystemExit as stop:
                    code = stop.code
            rows[command] = {{"code": code, "loaded": loaded()}}
        report(rows=rows)
    """)["rows"]


# ----------------------------------------------------------------------
# Nothing deferred is loaded by starting
# ----------------------------------------------------------------------
class TestStartLoadsNoDeferredModule:
    @pytest.mark.parametrize(
        "module", ["repro", "repro.__main__", "repro.runtime.cluster"]
    )
    def test_import(self, module):
        out = fresh(f"""
            import {module}
            report(loaded=loaded())
        """)
        assert out["loaded"] == []

    @pytest.mark.parametrize(
        "module, argv",
        [
            ("repro", ["worker", "--help"]),
            ("repro.runtime.cluster", ["--help"]),
        ],
    )
    def test_worker_entry_points(self, module, argv):
        out = fresh(f"""
            import runpy
            sys.argv = [{module!r}] + {argv!r}
            try:
                runpy.run_module({module!r}, run_name="__main__", alter_sys=True)
            except SystemExit as stop:
                code = stop.code
            print()
            report(code=code, loaded=loaded())
        """)
        assert out == {"code": 0, "loaded": []}

    @pytest.mark.parametrize("command", LEAF_COMMANDS)
    def test_command_help(self, command, command_help_rows):
        # One module per command, all imported to build the parser: a
        # command that imports a deferred package at module level
        # fails here by name (loading is cumulative, so the first
        # failing row in LEAF_COMMANDS order is the culprit).
        assert command_help_rows[command] == {"code": 0, "loaded": []}

    def test_registry_campaign_shard_unit(self):
        # What a pool or cluster worker executes for a campaign -- an
        # ensemble executor unit: it must import nothing the worker
        # did not have at start.
        out = fresh("""
            from repro.campaign.grid import CampaignPoint
            from repro.campaign.runner import _executor, _run_options

            totals = {}
            for protocol in ("endemic", "lv"):
                point = CampaignPoint(
                    protocol=protocol, n=300, loss_rate=0.0,
                    scenario="none", trials=4, periods=10, seed=3, shards=2,
                )
                unit = _executor(point).units(**_run_options(point))[0]
                output = unit.runner(unit.payload)
                totals[protocol] = output.final_counts.sum(axis=1).tolist()
            report(totals=totals, loaded=loaded())
        """)
        assert out["loaded"] == []
        assert out["totals"] == {"endemic": [300, 300], "lv": [300, 300]}


# ----------------------------------------------------------------------
# Each deferred module is loaded by its own first call
# ----------------------------------------------------------------------
class TestFirstCallLoadsItsModule:
    def test_integrate_loads_scipy_integrate(self):
        out = fresh("""
            from repro.odes import integrate, library

            before = loaded()
            trajectory = integrate(library.epidemic(), {"x": 0.99, "y": 0.01}, 10.0)
            report(before=before, after=loaded(), y=trajectory.final["y"])
        """)
        assert out["before"] == []
        assert "scipy.integrate" in out["after"]
        assert not {"scipy.stats", "networkx", "sympy"} & set(out["after"])
        # y' = y(1-y): the closed form tests/test_integrate.py checks.
        assert out["y"] == pytest.approx(1 / (1 + 99 * 2.718281828459045 ** -10), rel=1e-5)

    def test_fairness_chi_square_loads_scipy_stats(self):
        out = fresh("""
            import numpy as np

            from repro.analysis.fairness import analyze_member_log

            rng = np.random.default_rng(7)
            log = [
                (period, np.sort(rng.choice(64, size=8, replace=False)))
                for period in range(200)
            ]
            before = loaded()
            fairness = analyze_member_log(log, 64, gamma=0.5)
            report(
                before=before, after=loaded(),
                pvalue=fairness.host_id_uniformity_pvalue,
            )
        """)
        assert out["before"] == []
        assert "scipy.stats" in out["after"]
        assert not {"networkx", "sympy"} & set(out["after"])
        # The value the module-level import produced at the parent commit.
        assert out["pvalue"] == pytest.approx(0.8628095479158755, rel=1e-12)

    def test_overlay_loads_networkx(self):
        pytest.importorskip("networkx")
        out = fresh("""
            from repro.runtime import overlay_stats, random_regular_overlay

            before = loaded()
            neighbors = random_regular_overlay(100, degree=6, seed=1)
            report(
                before=before, after=loaded(),
                stats=overlay_stats(neighbors),
            )
        """)
        assert out["before"] == []
        assert out["after"] == ["networkx"]
        assert out["stats"]["connected"]
        assert out["stats"]["mean_degree"] == pytest.approx(6.0)


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
    def test_find_equilibria(self):
        out = fresh("""
            from repro.odes import find_equilibria, library

            found = find_equilibria(library.endemic(alpha=0.01, gamma=1.0, beta=4.0))
            report(
                scipy=scipy_loaded(),
                labels=[e.classification for e in found],
                stable=found[0].point,
            )
        """)
        assert out["scipy"] == []
        assert out["labels"] == ["stable spiral", "saddle point"]
        assert out["stable"] == pytest.approx(
            {"x": 0.25, "y": 0.75 / 101, "z": 75 / 101}, abs=1e-9
        )

    def test_equations_file_experiment(self):
        # The pool forks from a parent that never loaded a solver:
        # there is nothing left to warm before the fork.
        out = fresh("""
            from repro.experiment import Experiment, Protocol

            protocol = Protocol.from_equations("examples/endemic.txt")
            result = Experiment(
                protocol, n=2000, trials=4, periods=100, seed=1, workers=2,
            ).run()
            check = result.equilibrium_check()
            summary = result.render_summary()
            report(
                scipy=scipy_loaded(), trials=result.trials,
                gated=sorted(r.state for r in check.rows if r.gated),
                lines=len(summary.splitlines()),
            )
        """)
        assert out["scipy"] == []
        assert out["trials"] == 4
        assert out["gated"] == ["x", "y", "z"]
        assert out["lines"] >= 5

    @pytest.mark.parametrize("scipy_importable", [True, False])
    def test_quickstart_cli(self, scipy_importable):
        # `python -m repro run examples/endemic.txt`, also on a box
        # whose scipy is missing or broken.
        out = fresh(f"""
            import runpy
            if not {scipy_importable}:
                sys.modules["scipy"] = None
            sys.argv = ["repro", "run", "examples/endemic.txt", "--n", "2000",
                        "--trials", "4", "--periods", "100", "--seed", "5"]
            try:
                runpy.run_module("repro", run_name="__main__", alter_sys=True)
            except SystemExit as stop:
                code = stop.code
            print()
            report(code=code, scipy=scipy_loaded())
        """)
        assert out == {
            "code": 0, "scipy": [] if scipy_importable else ["scipy"],
        }

    def test_service_start_and_equilibrium_query(self):
        out = fresh("""
            from repro.service import LiveConfig, LiveEngine, ServiceCore
            from repro.store import MemoryEventLog

            core = ServiceCore(
                LiveEngine(LiveConfig(protocol="endemic", n=300, seed=42)),
                log=MemoryEventLog(),
            )
            core.start()
            answer = core.query("equilibrium")
            report(scipy=scipy_loaded(), expected=sorted(answer["expected"]))
        """)
        assert out == {"scipy": [], "expected": ["x", "y", "z"]}

    def test_equations_file_campaign(self):
        # Parent: resolves the file (solving for its start point),
        # plans, forks two workers, checkpoints.  Unit: what a worker
        # runs -- the resolved spec's ensemble.
        out = fresh("""
            from repro.campaign import CampaignSpec, run_campaign
            from repro.campaign.runner import _executor, _run_options

            spec = CampaignSpec(
                protocols=["examples/endemic.txt"], group_sizes=[300],
                trials=4, periods=10, base_seed=1, shards=2,
            )
            campaign = run_campaign(spec, workers=2)
            parent = scipy_loaded()
            point = spec.expand()[0]
            first = _executor(point).units(**_run_options(point))[0]
            unit = first.runner(first.payload)
            report(
                parent=parent, unit=scipy_loaded(),
                points=len(campaign.results),
                totals=unit.final_counts.sum(axis=1).tolist(),
            )
        """)
        assert out == {
            "parent": [], "unit": [], "points": 1, "totals": [300, 300],
        }
