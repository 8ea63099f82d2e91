"""Shared fixtures: canonical systems, parameters and quick engines.

Also wires two suite-wide policies:

* a ``slow`` marker for tests that simulate >~1s of protocol periods
  (they still run by default; ``-m 'not slow'`` gives a fast loop);
* hypothesis profiles -- ``dev`` (default, no deadline: CI boxes make
  wall-clock deadlines flaky) and ``ci`` (derandomized, so the
  property suites are reproducible run to run).  Select with
  ``HYPOTHESIS_PROFILE=ci``.
"""

from __future__ import annotations

import multiprocessing
import os
from pathlib import Path

import pytest
from hypothesis import settings

from repro.odes import library
from repro.protocols.endemic import EndemicParams

settings.register_profile("dev", deadline=None)
settings.register_profile(
    "ci", deadline=None, derandomize=True, print_blob=True
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: simulates many protocol periods (>~1s); "
        "deselect with -m 'not slow'",
    )


@pytest.fixture(autouse=True)
def no_child_outlives_its_plan(request):
    """However a pooled plan ends, its forked children are gone."""
    yield
    if request.module.__name__ in ("test_exec", "test_parallel", "test_campaign"):
        assert multiprocessing.active_children() == []


@pytest.fixture
def worker_path(monkeypatch):
    """Make this tests directory importable from spawned cluster workers.

    The coordinator prepends the repro ``src`` root to each spawned
    worker's ``PYTHONPATH``; the runners in ``cluster_helpers`` need
    the tests directory too, or unpickling them in the worker fails.
    """
    tests_dir = str(Path(__file__).resolve().parent)
    existing = os.environ.get("PYTHONPATH", "")
    monkeypatch.setenv(
        "PYTHONPATH",
        tests_dir + (os.pathsep + existing if existing else ""),
    )


@pytest.fixture
def epidemic_system():
    """Equation (0): the motivating pull epidemic."""
    return library.epidemic()


@pytest.fixture
def endemic_system():
    """Equation (1) with the Figure 2 parameters."""
    return library.endemic(alpha=0.01, gamma=1.0, beta=4.0)


@pytest.fixture
def lv_system():
    """Equation (7): the mappable LV competition system."""
    return library.lv()


@pytest.fixture
def fig2_params():
    """Figure 2's endemic configuration (stable spiral)."""
    return EndemicParams(alpha=0.01, gamma=1.0, b=2)


@pytest.fixture
def fig7_params():
    """Figure 7's endemic configuration."""
    return EndemicParams(alpha=0.001, gamma=0.1, b=2)


@pytest.fixture
def fig8_params():
    """Figure 8's configuration, with alpha=0.01 (see DESIGN.md:
    the printed alpha=0.001 contradicts the stated 88.63 stashers)."""
    return EndemicParams(alpha=0.01, gamma=0.1, b=2)
