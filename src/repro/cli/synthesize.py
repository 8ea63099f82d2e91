"""``synthesize``: emit the protocol an equations file maps to."""

import sys

from ..odes import auto_rewrite, classify
from ..synthesis import SynthesisError, synthesize
from .common import EQUATIONS, SYNTHESIS, CliError, load_system


def configure(subparsers) -> None:
    p = subparsers.add_parser("synthesize", parents=[EQUATIONS, SYNTHESIS],
                              help="emit the protocol")
    p.add_argument("--no-rewrite", action="store_true",
                   help="fail instead of auto-rewriting")
    p.add_argument("--no-tokenize", action="store_true",
                   help="fail on terms that would need tokens")
    p.set_defaults(func=run)


def run(args) -> int:
    system = load_system(args)
    if not args.no_rewrite and not classify(system).mappable:
        print("# system not directly mappable; applying auto_rewrite "
              "(Section 7)", file=sys.stderr)
        system = auto_rewrite(system)
        print(system.render())
        print()
    try:
        spec = synthesize(
            system, p=args.p, failure_rate=args.failure_rate,
            tokenize=not args.no_tokenize,
        )
    except SynthesisError as exc:
        raise CliError(f"synthesis failed: {exc}")
    print(spec.render())
    print()
    print(f"message complexity: {spec.message_complexity()}")
    print(f"one period = {spec.time_scale:g} time units of the equations")
    return 0
