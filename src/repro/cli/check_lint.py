"""``check lint``: the determinism linter over source paths."""

from pathlib import Path

from .common import CliError


def configure(subparsers) -> None:
    p = subparsers.add_parser(
        "lint",
        help="determinism linter over source paths "
             "(default src/repro; exit 1 on errors)",
    )
    p.add_argument("paths", nargs="*",
                   help="files or directories to lint (default: src/repro)")
    p.add_argument("--allowlist", default=None,
                   help="allowlist file (default: tools/lint_allowlist.txt)")
    p.set_defaults(func=run)


def run(args) -> int:
    from ..check import DEFAULT_ALLOWLIST, has_errors, render_findings
    from ..check.lint import lint_paths

    paths = [Path(p) for p in (args.paths or ["src/repro"])]
    for path in paths:
        if not path.exists():
            raise CliError(f"no such path: {path}")
    allowlist = (
        Path(args.allowlist) if args.allowlist is not None
        else DEFAULT_ALLOWLIST
    )
    findings = lint_paths(paths, allowlist_path=allowlist)
    if findings:
        print(render_findings(findings, label="lint"))
    else:
        print("lint: clean")
    return 1 if has_errors(findings) else 0
