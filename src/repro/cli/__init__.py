"""``python -m repro``: one module per command over one shared layer.

Each command is a plain module exposing ``configure(subparsers)`` (its
flags) and ``run(args) -> int`` (its exit status); :data:`COMMANDS`
below is the only list of them.  What commands share -- flags with one
meaning, what a target is, how an input error is reported -- lives in
:mod:`repro.cli.common` (docs/architecture.md, "Command line").
"""

import argparse
import sys
from typing import List, Optional

from . import (
    analyze,
    analyze_campaign,
    campaign,
    check,
    classify,
    replay,
    run,
    serve,
    simulate,
    synthesize,
    worker,
)
from .common import CliError

#: Every top-level command, in ``--help`` order.
COMMANDS = (
    run, classify, synthesize, analyze, simulate, campaign, worker, serve,
    replay, analyze_campaign, check,
)

DESCRIPTION = """\
Translate differential equations into distributed protocols
(Gupta, PODC 2004).

An equations file holds one equation per line, e.g.

    x' = -beta*x*y + alpha*z
    y' =  beta*x*y - gamma*y
    z' =  gamma*y  - alpha*z

Symbols that are not variables are rates: bind them with --param
NAME=VALUE, or in the file with '# param: NAME = VALUE' lines.
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro", description=DESCRIPTION,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        command.configure(subparsers)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as error:
        print(error, file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; the
        # conventional CLI response is a quiet exit, not a traceback.
        return 0
