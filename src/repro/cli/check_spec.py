"""``check spec``: statically verify protocol specs."""

import sys

from ..campaign import available_protocols
from ..experiment import Protocol
from .common import PARAMS, SYNTHESIS, CliError, parse_bindings, resolve_target


def configure(subparsers) -> None:
    p = subparsers.add_parser(
        "spec", parents=[PARAMS, SYNTHESIS],
        help="verify specs: probability mass, conservation, "
             "reachability, mean-field consistency (exit 1 on errors)",
    )
    p.add_argument("targets", nargs="*",
                   help="equations files and/or registry protocol names")
    p.add_argument("--registry", action="store_true",
                   help="also verify every registered protocol")
    p.add_argument("--n", type=int, default=1000,
                   help="group size used to resolve registry "
                        "protocols (default 1000)")
    p.add_argument("--no-rewrite", action="store_true",
                   help="fail instead of auto-rewriting unmappable systems")
    p.add_argument("--verbose", action="store_true",
                   help="also print INFO findings")
    p.set_defaults(func=run)


def run(args) -> int:
    from ..check import (
        check_equations,
        check_spec,
        has_errors,
        render_findings,
    )

    targets = list(args.targets)
    if args.registry:
        targets = list(available_protocols()) + targets
    if not targets:
        raise CliError("nothing to check: pass equations files / protocol "
                       "names or --registry")
    parameters = parse_bindings(args.param, "param") or None
    failed = 0
    # Every target is resolved before the first report is printed, so a
    # typo is one error line, not a partial run.
    for target, path in [(t, resolve_target(t)) for t in targets]:
        if path is None:
            spec = Protocol.named(target).resolve(args.n).spec
            findings = check_spec(spec)
        else:
            # Parse and synthesis failures come back as ERROR findings.
            _, findings = check_equations(
                path, parameters=parameters, p=args.p,
                failure_rate=args.failure_rate, rewrite=not args.no_rewrite,
            )
        shown = findings if args.verbose else [
            f for f in findings if int(f.severity) > 0
        ]
        if shown or args.verbose:
            print(render_findings(shown, label=target))
        else:
            print(f"{target}: ok")
        if has_errors(findings):
            failed += 1
    if failed:
        print(f"{failed} of {len(targets)} target(s) failed "
              f"verification", file=sys.stderr)
    return 1 if failed else 0
