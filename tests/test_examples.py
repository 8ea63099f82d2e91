"""Smoke tests for the example scripts.

The quickstart and the custom-equations demo are fast enough to run end
to end in the unit suite; the heavier demos are exercised through their
underlying APIs elsewhere, so here we only check they import cleanly
and expose a main().
"""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def load_example(name):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestQuickstart:
    def test_runs_end_to_end(self, capsys):
        module = load_example("quickstart")
        module.main()
        out = capsys.readouterr().out
        assert "taxonomy" in out
        assert "protocol" in out
        assert "rounds to <=1 susceptible" in out
        # The epidemic must have completed, in every ensemble member.
        assert "{'x': 0.0, 'y': 10000.0}" in out
        # The facade auto-selected the batch engine for the ensemble.
        assert "batch engine" in out


class TestCustomEquations:
    def test_token_demo_says_what_it_shows(self, capsys):
        load_example("custom_equations").main()
        errors = {
            label: (float(source), float(round_map))
            for label, source, round_map in re.findall(
                r"^  (.+): (\d\.\d+) / (\d\.\d+)$",
                capsys.readouterr().out, re.MULTILINE,
            )
        }
        oracle = errors["membership oracle"]
        ttl = errors["TTL=3 random walk"]
        # The TTL walk deviates from the source equations more than the
        # oracle does, and the round map models what it deviates by.
        assert oracle[0] < ttl[0]
        assert ttl[1] < ttl[0]


class TestOtherExamplesImportable:
    @pytest.mark.parametrize("name", ["endemic_filestore", "lv_majority"])
    def test_importable_with_main(self, name):
        module = load_example(name)
        assert callable(module.main)
