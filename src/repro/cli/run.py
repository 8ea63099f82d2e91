"""``run``: equations (or a protocol name) -> ensemble results."""

from ..experiment import ENGINES, Experiment
from ..viz import render_series
from .common import (
    EXECUTION,
    NORMALIZER,
    PARAMS,
    CliError,
    fault_policy,
    load_protocol,
    parse_bindings,
    render_failure_provenance,
)


def configure(subparsers) -> None:
    p = subparsers.add_parser(
        "run", parents=[PARAMS, NORMALIZER, EXECUTION],
        help="equations (or a protocol name) -> ensemble results, "
             "engine tier auto-selected",
    )
    p.add_argument(
        "target",
        help="equations file (one equation per line; '# param:' directives "
             "supply default rates) or a registered protocol name",
    )
    p.add_argument("--n", type=int, default=10_000, help="group size")
    p.add_argument("--trials", type=int, default=16,
                   help="ensemble width M (default 16)")
    p.add_argument("--periods", type=int, default=200,
                   help="protocol periods per trial (default 200)")
    p.add_argument("--seed", type=int, default=None, help="root seed")
    p.add_argument("--engine", choices=ENGINES, default="auto",
                   help="engine tier (default auto: serial for one "
                        "trial, batch for ensembles; 'agent' runs "
                        "the ensemble on the asynchronous DES tier)")
    p.add_argument("--scenario", default=None,
                   help="failure scenario name (see campaign --dry-run for "
                        "the registry); makes the equilibrium check "
                        "informational (never exit 1)")
    p.add_argument("--loss-rate", type=float, default=0.0,
                   help="per-connection failure rate f (equations "
                        "targets are failure-compensated for it)")
    p.add_argument("--initial", action="append", default=[],
                   metavar="STATE=COUNT",
                   help="initial counts, overriding the protocol's "
                        "own start (equations targets default to "
                        "the stable ODE equilibrium; registry "
                        "targets to their registered start)")
    p.add_argument("--stride", type=int, default=1,
                   help="record every stride-th period")
    p.add_argument("--workers", type=int, default=1,
                   help="processes to fan the trial axis across (batch: "
                        "trials split into min(workers, trials) "
                        "campaign-style shards, and the shard count is part "
                        "of the run's stream identity; agent: whole trials "
                        "fan out, results are worker-independent)")
    p.add_argument("--show-protocol", action="store_true",
                   help="print the synthesized state machine")
    p.add_argument("--plot", action="store_true",
                   help="ASCII plot of the ensemble-mean counts")
    p.set_defaults(func=run)


def run(args) -> int:
    """The zero-to-aha path.

    Resolves the target to a :class:`repro.experiment.Protocol` handle,
    runs an :class:`repro.experiment.Experiment` on the auto-selected
    engine tier, and prints the ensemble trajectory summary plus the
    equilibrium-vs-closed-form check.  Exit status 1 when the check
    FAILs (PASS/WARN/SKIP exit 0) -- except under ``--scenario``,
    where injected faults legitimately hold the group away from the
    unperturbed equilibrium, so the check is informational only (a
    printed note says so) and never fails the run.
    """
    protocol = load_protocol(args.target, args, failure_rate=args.loss_rate)
    named = protocol.source == "named"
    if named and (args.param or args.p is not None):
        raise CliError("--param/--p only apply to equations files, not to "
                       "registry protocol names")
    scenario = None if args.scenario in (None, "none") else args.scenario
    try:
        experiment = Experiment(
            protocol, n=args.n, trials=args.trials, periods=args.periods,
            scenario=scenario, seed=args.seed, engine=args.engine,
            loss_rate=args.loss_rate, stride=args.stride,
            initial=parse_bindings(args.initial, "initial") or None,
            workers=args.workers, fault_policy=fault_policy(args),
            backend=args.backend,
        )
        result = experiment.run()
    except (KeyError, ValueError, TypeError) as exc:
        raise CliError(f"invalid experiment: {exc}")
    spec = result.spec
    engine_note = (
        f"{result.engine} (auto-selected)" if args.engine == "auto"
        else result.engine
    )
    print(f"protocol {protocol.label!r} "
          f"({'registry' if named else args.target}): "
          f"states {', '.join(spec.states)}")
    # experiment.seed is concrete even when --seed was omitted (a fresh
    # root seed is drawn and recorded), so the printed value always
    # reproduces the run.
    print(f"engine: {engine_note}  n={args.n}  trials={args.trials}  "
          f"periods={args.periods}  seed={experiment.seed}"
          + ((f"  workers={args.workers}"
              + (f" (shards={result.shards})"
                 if result.engine == "batch" else ""))
             if args.workers > 1 else "")
          + (f"  scenario={scenario}" if scenario else "")
          + (f"  loss rate={args.loss_rate:g}" if args.loss_rate else ""))
    print(f"one period = {spec.time_scale:g} time units of the source "
          f"equations (horizon t = {spec.time_for_periods(args.periods):g})")
    if args.show_protocol:
        print()
        print(spec.render())
    print()
    if result.failures:
        print(f"warning: {len(result.failures)} work unit(s) failed "
              f"terminally and were skipped (on-error=skip); the "
              f"summary covers the {result.trials} surviving trial(s)")
        for failure in result.failures:
            print(f"  {render_failure_provenance(failure.to_dict())}")
    print(f"ensemble trajectory summary over {result.trials} trial(s) "
          f"({result.elapsed_seconds:.2f}s):")
    print(result.render_summary())
    print()
    check = result.equilibrium_check()
    print(check.render())
    if scenario:
        print(f"note: scenario {scenario!r} perturbs the group, so "
              f"the closed-form comparison is informational only")
    if args.plot:
        print()
        print(render_series(
            result.times,
            {s: result.mean_counts(s) for s in spec.states},
            width=70, height=16,
            title=f"{spec.name} (N={args.n}, ensemble mean of "
                  f"{args.trials} trial(s))",
        ))
    return 1 if (check.status == "FAIL" and not scenario) else 0
