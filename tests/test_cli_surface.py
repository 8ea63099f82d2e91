"""The command line's surface is pinned structurally, not by help bytes.

``tests/data/cli_surface.json`` was captured from the ``build_parser()``
of the commit before ``repro.cli`` existed (one 1,460-line
``__main__.py``): for each of the 15 parsers, every action's option
strings, ``dest``, action class, ``type``, ``default``, ``choices``,
``nargs``, ``required``, ``metavar`` and ``help``.  The only edits made
to it since are the ``help`` strings of flags whose per-command
declarations were merged into one (``repro/cli/common.py``).  A flag
that appears, disappears, or changes a default fails here by name.

Optionals are compared as a set (sorted by first option string), so
moving a declaration into a shared parent parser -- which changes where
``--help`` lists it -- is not a surface change; positionals keep their
order, which is their meaning.
"""

import argparse
import json
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main

GOLDEN = Path(__file__).parent / "data" / "cli_surface.json"


def _describe(action: argparse.Action) -> dict:
    row = {
        "options": list(action.option_strings),
        "dest": action.dest,
        "action": type(action).__name__,
        "type": getattr(action.type, "__name__", None),
        "default": action.default,
        "choices": None if action.choices is None else list(action.choices),
        "nargs": action.nargs,
        "required": action.required,
        "metavar": action.metavar,
        "help": action.help,
    }
    if isinstance(action, argparse._SubParsersAction):
        row["commands"] = {
            choice.dest: choice.help for choice in action._choices_actions
        }
    return row


def surface(parser: argparse.ArgumentParser, path=()) -> dict:
    """``{"<command path>": {"prog": ..., "actions": [...]}}``, recursively."""
    positionals = [a for a in parser._actions if not a.option_strings]
    optionals = sorted(
        (a for a in parser._actions if a.option_strings),
        key=lambda a: a.option_strings[0],
    )
    out = {
        " ".join(path) or "(top)": {
            "prog": parser.prog,
            "actions": [_describe(a) for a in positionals + optionals],
        }
    }
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                out.update(surface(child, path + (name,)))
    return out


EXPECTED = json.loads(GOLDEN.read_text())


def test_fifteen_parsers():
    assert sorted(surface(build_parser())) == sorted(EXPECTED)
    assert len(EXPECTED) == 15


@pytest.mark.parametrize("path", sorted(EXPECTED))
def test_surface_matches_golden(path):
    assert surface(build_parser())[path] == EXPECTED[path]


@pytest.mark.parametrize("path", sorted(EXPECTED))
def test_help_exits_zero(path, capsys):
    argv = [] if path == "(top)" else path.split()
    with pytest.raises(SystemExit) as stop:
        main(argv + ["--help"])
    assert stop.value.code == 0
    assert "usage: python -m repro" in capsys.readouterr().out


def test_top_level_help_lists_every_command(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    registered = next(
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ).choices
    assert list(registered) == list(EXPECTED["(top)"]["actions"][0]["commands"])
    for name in registered:
        assert re.search(rf"^    {name}\s", out, re.MULTILINE), name
