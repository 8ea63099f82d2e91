"""``worker``: one standalone cluster worker that dials in over TCP."""


def configure(subparsers) -> None:
    p = subparsers.add_parser(
        "worker",
        help="run one standalone cluster worker that dials in to a "
             "--backend cluster coordinator (elastic mid-plan join)",
    )
    p.add_argument("--connect", required=True, metavar="HOST:PORT",
                   help="coordinator address (pin the coordinator's port with "
                        "REPRO_CLUSTER_PORT to make it known)")
    p.set_defaults(func=run)


def run(args) -> int:
    from ..runtime.cluster import worker_main

    return worker_main(args.connect)
