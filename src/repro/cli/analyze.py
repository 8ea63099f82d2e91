"""``analyze``: equilibria, stability and a trajectory preview."""

from ..odes import find_equilibria, integrate
from ..viz import render_series
from .common import EQUATIONS, CliError, load_system, parse_bindings


def configure(subparsers) -> None:
    p = subparsers.add_parser(
        "analyze", parents=[EQUATIONS],
        help="equilibria and stability of the equations",
    )
    p.add_argument("--trajectory", action="store_true",
                   help="ASCII plot of one integrated trajectory")
    p.add_argument("--initial", action="append", default=[],
                   metavar="VAR=FRACTION",
                   help="start point for --trajectory")
    p.add_argument("--t-end", type=float, default=50.0,
                   help="integration horizon for --trajectory")
    p.set_defaults(func=run)


def run(args) -> int:
    system = load_system(args)
    print(system.render())
    print()
    try:
        equilibria = find_equilibria(system)
    except ValueError as exc:  # the variable cap, or a singular solve
        raise CliError(f"{args.equations}: {exc}")
    if not equilibria:
        print("no equilibria found on the simplex")
    for equilibrium in equilibria:
        print("equilibrium:", equilibrium.render())
    stable = [e for e in equilibria if e.stable]
    print()
    print(f"{len(stable)} stable of {len(equilibria)} equilibria "
          f"(stable points become self-stabilizing protocol operating "
          f"points)")
    if args.trajectory:
        initial = parse_bindings(args.initial, "initial")
        if not initial:
            dim = system.dimension
            initial = {v: 1.0 / dim for v in system.variables}
        trajectory = integrate(system, initial, t_end=args.t_end)
        print()
        print(render_series(
            trajectory.times,
            {v: trajectory.series(v) for v in system.variables},
            width=70, height=14,
            title=f"trajectory from {initial}",
        ))
    return 0
