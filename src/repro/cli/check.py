"""``check``: the static-analysis group (no engine runs)."""

from . import check_complexity, check_lint, check_spec


def configure(subparsers) -> None:
    p = subparsers.add_parser(
        "check",
        help="static analysis: spec verifier, determinism linter, "
             "symbolic complexity model (no engine runs)",
    )
    group = p.add_subparsers(dest="check_command", required=True)
    for command in (check_spec, check_lint, check_complexity):
        command.configure(group)
