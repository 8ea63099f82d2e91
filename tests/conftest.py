"""Shared fixtures: canonical systems, parameters and quick engines.

Also wires two suite-wide policies:

* the ``slow`` and ``heavy`` markers (declared in ``pyproject.toml``):
  ``slow`` tests simulate >~1s of protocol periods and still run by
  default (``-m 'not slow'`` gives a fast loop); ``heavy`` ones, the
  exhaustive searches, are deselected here unless a ``-m`` expression
  names them (``-m heavy``; CI's ``heavy`` job);
* one hypothesis profile, ``derandomized``: the property suites draw
  the same examples on every run and every machine, and have no
  deadline (wall-clock deadlines are flaky on shared boxes).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest
from hypothesis import settings

from repro.odes import library
from repro.protocols.endemic import EndemicParams

settings.register_profile(
    "derandomized", deadline=None, derandomize=True, print_blob=True
)
settings.load_profile("derandomized")


def pytest_collection_modifyitems(config, items):
    if "heavy" in config.getoption("markexpr", ""):
        return
    heavy = [item for item in items if item.get_closest_marker("heavy")]
    if heavy:
        config.hook.pytest_deselected(items=heavy)
        items[:] = [item for item in items if item not in heavy]


def _children() -> set:
    """This process's children, zombies included, as the OS sees them.

    Read from ``/proc/<pid>/stat`` (the field after the command name is
    the parent pid): unlike ``multiprocessing.active_children()`` it
    sees a bare ``os.fork``, and unlike ``os.wait*`` it reaps nothing.
    """
    me, found = os.getpid(), set()
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            stat = Path(entry.path, "stat").read_text()
        except OSError:  # it exited while we looked
            continue
        if int(stat.rpartition(")")[2].split()[1]) == me:
            found.add(int(entry.name))
    return found


#: The modules that run pooled plans, checked by the fixture below.
_POOLING_MODULES = ("test_exec", "test_parallel", "test_campaign",
                    "test_experiment")


@pytest.fixture(autouse=True)
def no_child_outlives_its_plan(request):
    """However a pooled plan ends, its forked children are gone: reaped,
    not just dead (a zombie counts)."""
    if request.module.__name__ not in _POOLING_MODULES:
        yield
        return
    before = _children()
    yield
    assert _children() - before == set()


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
