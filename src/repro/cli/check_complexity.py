"""``check complexity``: the per-period message-cost model of a protocol."""

from ..viz import format_table
from .common import PARAMS, SYNTHESIS, load_protocol, parse_bindings


def configure(subparsers) -> None:
    p = subparsers.add_parser(
        "complexity", parents=[PARAMS, SYNTHESIS],
        help="derive the per-period message-cost model from a spec",
    )
    p.add_argument("target", help="registry protocol name or equations file")
    p.add_argument("--n", type=int, default=1000,
                   help="group size (default 1000)")
    p.add_argument("--fraction", action="append", default=[],
                   metavar="STATE=FRACTION",
                   help="evaluate expected messages/period at "
                        "this state distribution (repeatable)")
    p.set_defaults(func=run)


def _render_period_program(spec, n: int) -> str:
    """What a batch-engine period of ``spec`` draws, action by action."""
    from ..runtime.planner import ActionPlanner
    from ..runtime.round_engine import _compile

    rows = ActionPlanner(_compile(spec), trials=1, n=n).describe()

    def edge(row) -> str:
        source, target = row["edge"]
        return f"{spec.states[source]}->{spec.states[target]}"

    def overlap(row) -> str:
        if not row["overlap"]:
            return "never"
        return "with " + ", ".join(
            f"{i} ({rows[i]['kind']} {edge(rows[i])})" for i in row["overlap"]
        )

    table = format_table(
        ["action", "kind", "edge", "laws", "overlap"],
        [
            (row["index"], row["kind"], edge(row),
             ", ".join(row["laws"]) or "-", overlap(row))
            for row in rows
        ],
    )
    return f"batch period program (draws per action, in census order)\n{table}"


def run(args) -> int:
    from ..check import message_model, symbolic_message_model

    protocol = load_protocol(
        args.target, args, failure_rate=args.failure_rate,
    )
    spec = protocol.resolve(args.n).spec
    model = message_model(spec)
    print(f"{args.target}: per-period message cost (N = {args.n})")
    try:
        print(symbolic_message_model(spec).render())
    except ImportError:
        print("(sympy unavailable: numeric model only)")
    print(format_table(
        ["state", "messages/process/period"],
        [(s, f"{c:g}") for s, c in model.per_state_cost().items()],
    ))
    print(_render_period_program(spec, args.n))
    fractions = parse_bindings(args.fraction, "fraction")
    if fractions:
        expected = model.expected_messages(fractions, args.n)
        at = ", ".join(f"{k}={v:g}" for k, v in fractions.items())
        print(f"expected messages/period at ({at}): {expected:.1f}")
    return 0
