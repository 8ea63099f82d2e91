"""``serve``: run a protocol population as a live service (docs/service.md)."""

import json
from pathlib import Path

from ..campaign import available_protocols
from ..runtime import spawn_seeds
from .common import CliError, parse_bindings


def configure(subparsers) -> None:
    p = subparsers.add_parser(
        "serve",
        help="run a protocol population continuously as a live service "
             "(event log + snapshots in --dir; newline-JSON over TCP)",
    )
    p.add_argument("--protocol", required=True,
                   help="registry protocol name (the log must be "
                        "able to reconstruct the engine by name)")
    p.add_argument("--n", type=int, default=1000, help="group size")
    p.add_argument("--seed", type=int, default=None,
                   help="root seed (default: drawn and recorded "
                        "in the init event, so runs always replay)")
    p.add_argument("--loss-rate", type=float, default=0.0,
                   help="per-connection failure rate")
    p.add_argument("--initial", action="append", default=[],
                   metavar="STATE=COUNT",
                   help="initial counts, overriding the protocol's "
                        "registered start")
    p.add_argument("--dir", required=True,
                   help="service state directory (events.jsonl + "
                        "snapshots); must not already hold a log")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (default 0 = ephemeral, printed on startup)")
    p.add_argument("--no-listen", action="store_true",
                   help="no TCP endpoint; tick until --max-periods "
                        "or a signal")
    p.add_argument("--tick-seconds", type=float, default=1.0,
                   help="clock seconds between protocol ticks")
    p.add_argument("--periods-per-tick", type=int, default=1,
                   help="protocol periods advanced per tick")
    p.add_argument("--snapshot-every", type=int, default=0,
                   help="checkpoint every this many periods (0 = never)")
    p.add_argument("--max-periods", type=int, default=0,
                   help="stop after this many periods (0 = run "
                        "until signalled)")
    p.add_argument("--events", metavar="FILE",
                   help="scripted membership events: JSON list or "
                        "JSONL of {at_period, kind, ...} records, "
                        "applied when the period is reached")
    p.add_argument("--virtual-clock", action="store_true",
                   help="drive ticks on a virtual clock as fast as possible "
                        "(deterministic batch mode; needs --max-periods)")
    p.set_defaults(func=run)


def _load_event_script(path: Path) -> list:
    """The ``ScriptedEvent`` records of a JSON-list or JSONL file."""
    from ..service.service import ScriptedEvent

    text = path.read_text()
    try:
        payload = json.loads(text)
    except ValueError:
        payload = None
    if isinstance(payload, list):
        records = payload
    else:
        records = [
            json.loads(line) for line in text.splitlines() if line.strip()
        ]
    return [ScriptedEvent.from_dict(record) for record in records]


def run(args) -> int:
    import asyncio
    import signal

    from ..service import (
        LiveConfig,
        LiveEngine,
        ProtocolService,
        ServiceCore,
        VirtualClock,
        WallClock,
        serve_tcp,
    )

    if args.virtual_clock and not args.max_periods:
        raise CliError("--virtual-clock needs --max-periods (virtual time "
                       "has no external clients to wait for)")
    initial = parse_bindings(args.initial, "initial") or None
    # An unseeded service still gets a concrete recorded seed -- the
    # event log must reconstruct the exact engine (same rule as
    # Experiment's root seed).
    seed = args.seed if args.seed is not None else spawn_seeds(None, 1)[0]
    try:
        config = LiveConfig(
            protocol=args.protocol, n=args.n, seed=seed,
            loss_rate=args.loss_rate, initial=initial,
        )
        live = LiveEngine(config)
    except KeyError:
        raise CliError(f"{args.protocol!r} is not a registered protocol; "
                       f"available: {', '.join(available_protocols())}")
    except ValueError as exc:
        raise CliError(f"invalid service config: {exc}")
    script = []
    if args.events:
        try:
            script = _load_event_script(Path(args.events))
        except (OSError, ValueError, KeyError) as exc:
            raise CliError(f"cannot load event script {args.events}: {exc}")
    try:
        core = ServiceCore(
            live, directory=Path(args.dir),
            snapshot_every=args.snapshot_every,
        )
    except FileExistsError as exc:
        raise CliError(str(exc))
    clock = VirtualClock() if args.virtual_clock else WallClock()
    service = ProtocolService(
        core, clock=clock, tick_seconds=args.tick_seconds,
        periods_per_tick=args.periods_per_tick, script=script,
        max_periods=args.max_periods or None,
    )

    async def amain() -> None:
        await service.start()
        server = None
        if not args.no_listen:
            server = await serve_tcp(service, args.host, args.port)
            port = server.sockets[0].getsockname()[1]
            print(f"serving {config.protocol!r} (n={config.n}, "
                  f"seed={config.seed}) on {args.host}:{port}", flush=True)
        else:
            print(f"running {config.protocol!r} (n={config.n}, "
                  f"seed={config.seed}), no listener", flush=True)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(
                signum, lambda: asyncio.ensure_future(service.stop())
            )
        if isinstance(clock, VirtualClock):
            while not service.finished.is_set():
                await clock.advance(service.tick_seconds)
        else:
            await service.finished.wait()
        await service.stop()
        if server is not None:
            server.close()
            await server.wait_closed()

    asyncio.run(amain())
    print(f"stopped at period {core.live.period} after "
          f"{core.log.next_seq} logged event(s), "
          f"{core.snapshots_written} snapshot(s); replay with "
          f"`python -m repro replay {args.dir}`")
    return 0
