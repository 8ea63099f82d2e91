"""The import contract: a ``repro`` process imports what it runs.

``scipy.optimize``/``scipy.stats``/``scipy.integrate``, ``networkx`` and
``sympy`` are imported by the first function that needs them (see
"Import policy" in docs/architecture.md), never by ``import repro``.
The pytest process has long since loaded all of them, so every case
runs in a fresh interpreter and asserts on ``sys.modules`` -- a
statement about *what* loads, which a timing could only hint at.

The second half pins where the deferred cost may land -- **warm before
you fork or serve**: the process that builds a plan has loaded what
its units need before ``run_plan`` forks the pool.
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

def watch_run_plan(module):
    # Was the solver loaded each time module.run_plan was entered?
    at_fork, run_plan = [], module.run_plan

    def recording(*args, **kwargs):
        at_fork.append("scipy.optimize" in sys.modules)
        return run_plan(*args, **kwargs)

    module.run_plan = recording
    return at_fork
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

    def test_registry_campaign_shard_unit(self):
        # What a pool or cluster worker executes for a campaign: the
        # unit must import nothing the worker did not have at start.
        out = fresh("""
            from repro.campaign.grid import CampaignPoint
            from repro.campaign.runner import _run_shard, _shard_points

            totals = {}
            for protocol in ("endemic", "lv"):
                point = CampaignPoint(
                    protocol=protocol, n=300, loss_rate=0.0,
                    scenario="none", trials=4, periods=10, seed=3, shards=2,
                )
                output = _run_shard(_shard_points(point)[0])
                totals[protocol] = output.final_counts.sum(axis=1).tolist()
            report(totals=totals, loaded=loaded())
        """)
        assert out["loaded"] == []
        assert out["totals"] == {"endemic": [300, 300], "lv": [300, 300]}


# ----------------------------------------------------------------------
# Each deferred module is loaded by its own first call
# ----------------------------------------------------------------------
class TestFirstCallLoadsItsModule:
    def test_find_equilibria_loads_scipy_optimize(self):
        out = fresh("""
            from repro.odes import find_equilibria, library

            before = loaded()
            found = find_equilibria(library.endemic(alpha=0.01, gamma=1.0, beta=4.0))
            report(
                before=before, after=loaded(),
                labels=[e.classification for e in found],
                stable=found[0].point,
            )
        """)
        assert out["before"] == []
        assert "scipy.optimize" in out["after"]
        assert not {"scipy.stats", "networkx", "sympy"} & set(out["after"])
        assert out["labels"] == ["stable spiral", "saddle point"]
        assert out["stable"] == pytest.approx(
            {"x": 0.25, "y": 0.75 / 101, "z": 75 / 101}, abs=1e-9
        )

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

    def test_unimportable_solver_is_not_no_equilibrium(self):
        # With the solver imported inside find_equilibria, a blanket
        # `except Exception` around it would turn a broken scipy into
        # "this system has no stable equilibrium" and every
        # equilibrium check would silently skip.
        out = fresh("""
            from repro.experiment import Protocol

            sys.modules["scipy.optimize"] = None
            try:
                Protocol.named("endemic").equilibrium_fractions(1000)
            except ImportError as exc:
                report(raised=type(exc).__name__)
            else:
                report(raised=None)
        """)
        assert out["raised"] in ("ImportError", "ModuleNotFoundError")


# ----------------------------------------------------------------------
# Warm before you fork
# ----------------------------------------------------------------------
class TestWarmBeforeFork:
    def test_experiment_has_the_solver_loaded_when_the_pool_forks(self):
        # Today Protocol.resolve's equilibrium start point loads it; a
        # change that moves that behind the fork would make every pool
        # worker of every run_plan call import scipy.optimize itself.
        out = fresh("""
            import repro.runtime.parallel as parallel
            from repro.experiment import Experiment, Protocol

            at_fork = watch_run_plan(parallel)
            protocol = Protocol.from_equations(
                "x' = -0.5*x*y + 0.1*y\\ny' = 0.5*x*y - 0.1*y"
            )
            before = loaded()
            result = Experiment(
                protocol, n=400, trials=4, periods=20, seed=1, workers=2,
            ).run()
            report(before=before, at_fork=at_fork, trials=result.trials)
        """)
        assert out == {"before": [], "at_fork": [True], "trials": 4}

    def test_equations_file_campaign_resolves_before_the_pool_forks(self):
        # The campaign's units re-resolve their protocol by name; for
        # an equations file that solves for the equilibrium start
        # point, so the parent resolves once before forking.
        out = fresh("""
            import repro.campaign.runner as runner
            from repro.campaign import CampaignSpec, run_campaign

            at_fork = watch_run_plan(runner)
            spec = CampaignSpec(
                protocols=["examples/endemic.txt"], group_sizes=[300],
                trials=4, periods=10, base_seed=1, shards=2,
            )
            before = loaded()
            campaign = run_campaign(spec, workers=2)
            report(before=before, at_fork=at_fork, points=len(campaign.results))
        """)
        assert out == {"before": [], "at_fork": [True], "points": 1}
