"""``simulate``: one serial run of the protocol an equations file maps to."""

from ..odes import auto_rewrite, classify
from ..runtime import BatchMetricsRecorder, RoundEngine
from ..synthesis import SynthesisError, synthesize
from ..viz import render_series
from .common import EQUATIONS, SYNTHESIS, CliError, load_system, parse_bindings


def configure(subparsers) -> None:
    p = subparsers.add_parser("simulate", parents=[EQUATIONS, SYNTHESIS],
                              help="run the synthesized protocol")
    p.add_argument("--n", type=int, default=10_000, help="group size")
    p.add_argument("--periods", type=int, default=100)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--initial", action="append", default=[],
                   metavar="STATE=COUNT",
                   help="initial counts (default: all in first state, "
                        "1 in second)")
    p.add_argument("--plot", action="store_true",
                   help="ASCII plot of the state counts")
    p.set_defaults(func=run)


def run(args) -> int:
    system = load_system(args)
    if not classify(system).mappable:
        system = auto_rewrite(system)
    try:
        spec = synthesize(system, p=args.p, failure_rate=args.failure_rate)
    except SynthesisError as exc:
        raise CliError(f"synthesis failed: {exc}")
    initial = parse_bindings(args.initial, "initial")
    if not initial:
        # Default: everyone in the first state, one process in the second.
        first, second = spec.states[0], spec.states[1]
        initial = {first: args.n - 1, second: 1}
    engine = RoundEngine(
        spec, n=args.n, initial=initial, seed=args.seed,
        connection_failure_rate=args.failure_rate,
    )
    recorder = BatchMetricsRecorder(
        spec.states, 1, stride=max(1, args.periods // 200)
    )
    engine.run(args.periods, recorder=recorder)
    counts = engine.counts()
    print(f"after {args.periods} periods "
          f"(= {spec.time_for_periods(args.periods):g} time units):")
    for state in spec.states:
        print(f"  {state}: {counts[state]}")
    if args.plot:
        print()
        print(render_series(
            recorder.times,
            {s: recorder.counts(s)[0] for s in spec.states},
            width=70, height=16,
            title=f"{spec.name} (N={args.n})",
        ))
    return 0
