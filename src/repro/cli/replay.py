"""``replay``: re-run a service directory's log and verify the stream."""

import sys

from .common import CliError


def configure(subparsers) -> None:
    p = subparsers.add_parser(
        "replay",
        help="replay a service directory's event log and verify the "
             "state stream reproduces bit-for-bit",
    )
    p.add_argument("directory", help="service directory written by 'serve'")
    p.add_argument("--from-snapshot", action="store_true",
                   help="start from the latest intact snapshot "
                        "instead of the init record")
    p.add_argument("--quiet", action="store_true",
                   help="no output; exit status only")
    p.set_defaults(func=run)


def run(args) -> int:
    from ..service import replay_directory
    from ..store.eventlog import EventLogError
    from ..store.snapshots import SnapshotError

    try:
        report = replay_directory(
            args.directory, from_snapshot=args.from_snapshot,
        )
    except FileNotFoundError as exc:
        raise CliError(f"not a service directory: {exc}")
    except (EventLogError, SnapshotError) as exc:
        raise CliError(f"cannot replay: {exc}")
    if not args.quiet:
        anchor = (
            f"snapshot {report.from_snapshot}" if report.from_snapshot
            else "genesis (init record)"
        )
        print(f"replayed {report.replayed} event(s) from {anchor}")
        if report.torn_tail:
            print("note: dropped a torn final log line (crash-time write)")
    if report.mismatches:
        print(f"REPLAY MISMATCH: {len(report.mismatches)} divergence(s):",
              file=sys.stderr)
        for mismatch in report.mismatches[:10]:
            print(f"  {mismatch}", file=sys.stderr)
        return 1
    if not args.quiet:
        counts = report.final_counts()
        period = report.core.period if report.core else "?"
        print(f"final counts at period {period}: {counts}")
        print("replay verified: state stream is bit-identical to the log")
    return 0
