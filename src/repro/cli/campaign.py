"""``campaign``: run, resume or replay a declarative experiment grid."""

import argparse
import sys
from pathlib import Path

from ..campaign import (
    CampaignResult,
    CampaignSpec,
    available_protocols,
    available_scenarios,
    load_manifest,
    run_campaign,
    verify_replay,
)
from ..viz import format_table
from .common import EXECUTION, CliError, fault_policy

#: The campaign's own flags, declared at module level because the
#: ``--config`` / ``--replay`` / ``--resume`` conflict checks read the
#: declarations (:func:`_flags_given`): there is no second list of them.
GRID = argparse.ArgumentParser(add_help=False)
GRID.add_argument("--config", help="JSON campaign spec file")
GRID.add_argument("--name", default=None,
                  help="campaign name (default 'campaign')")
GRID.add_argument("--protocol", action="append", default=[],
                  help="protocol name (repeatable; see --dry-run)")
GRID.add_argument("--equations", action="append", default=[],
                  metavar="FILE",
                  help="equations file added to the protocol axis "
                       "(repeatable; '# param:' directives supply "
                       "rates; resolved via resolve_protocol)")
GRID.add_argument("--n", action="append", type=int, default=[],
                  help="group size (repeatable)")
GRID.add_argument("--loss-rate", action="append", type=float,
                  default=[], help="connection failure rate (repeatable)")
GRID.add_argument("--scenario", action="append", default=[],
                  help="failure scenario name (repeatable)")
GRID.add_argument("--trials", type=int, default=None,
                  help="trials per point (default 8)")
GRID.add_argument("--periods", type=int, default=None,
                  help="periods per trial (default 100)")
GRID.add_argument("--seed", type=int, default=None,
                  help="campaign base seed (default 0)")
GRID.add_argument("--stride", type=int, default=None,
                  help="record every stride-th period (default 1)")
GRID.add_argument("--shards", type=int, default=None,
                  help="split each point's trial axis into this "
                       "many independently seeded sub-ensembles "
                       "(default 1; they fan out across --workers)")
GRID.add_argument("--workers", type=int, default=1,
                  help="processes to fan shards/points across")
GRID.add_argument("--out", help="write results JSON here")
GRID.add_argument("--save-tensors", metavar="DIR",
                  help="also write each point's full (M, periods, states) "
                       "count tensor as a compressed .npz into this directory")
GRID.add_argument("--dry-run", action="store_true",
                  help="print the expanded grid and exit")
GRID.add_argument("--replay", metavar="RESULTS_JSON",
                  help="re-run a stored results file and verify it "
                       "reproduces bit-for-bit")
GRID.add_argument("--resume", metavar="DIR",
                  help="continue an interrupted campaign from the manifest "
                       "checkpointed in DIR (written by --save-tensors): "
                       "completed points are restored, only missing ones "
                       "re-run, and the final results are bitwise identical "
                       "to an uninterrupted run")


def configure(subparsers) -> None:
    p = subparsers.add_parser(
        "campaign", parents=[GRID, EXECUTION],
        help="run a declarative experiment grid on the batch engine",
    )
    p.set_defaults(func=run)


#: The grid axes: with ``--config`` they come from the file alone.
_AXES = ("--protocol", "--equations", "--n", "--loss-rate", "--scenario")


def _flags_given(args, *parsers) -> list:
    """The flags of ``parsers`` that differ from their declared default."""
    return [
        action.option_strings[0]
        for parser in parsers for action in parser._actions
        if getattr(args, action.dest) != action.default
    ]


def _refuse(conflicting: list, mode: str, why: str) -> None:
    # Rejecting a flag beats silently ignoring one the user thinks applied.
    if conflicting:
        raise CliError(
            f"invalid campaign: {', '.join(conflicting)} cannot be "
            f"combined with {mode}; {why}"
        )


def _spec_from_args(args) -> CampaignSpec:
    if args.config:
        ignored = [flag for flag in _flags_given(args, GRID) if flag in _AXES]
        if ignored:
            raise ValueError(
                f"{', '.join(ignored)} cannot be combined with --config; "
                f"edit the grid axes in the config file instead"
            )
        spec = CampaignSpec.from_json(Path(args.config).read_text())
        # Explicit flags override the config file's scalar settings.
        for field, value in (
            ("name", args.name), ("trials", args.trials),
            ("periods", args.periods), ("base_seed", args.seed),
            ("stride", args.stride), ("shards", args.shards),
        ):
            if value is not None:
                setattr(spec, field, value)
        return spec
    return CampaignSpec(
        name=args.name if args.name is not None else "campaign",
        protocols=(args.protocol + args.equations) or ["epidemic-pull"],
        group_sizes=args.n or [1000],
        loss_rates=args.loss_rate or [0.0],
        scenarios=args.scenario or ["none"],
        trials=args.trials if args.trials is not None else 8,
        periods=args.periods if args.periods is not None else 100,
        base_seed=args.seed if args.seed is not None else 0,
        stride=args.stride if args.stride is not None else 1,
        shards=args.shards if args.shards is not None else 1,
    )


def _progress(result) -> None:
    top = max(result.summary, key=lambda s: result.summary[s]["mean"])
    print(f"  {result.point.label}: {result.elapsed_seconds:.2f}s, "
          f"dominant state {top} "
          f"(mean {result.summary[top]['mean']:.1f})")


def _write_out(args, result) -> None:
    if args.out:
        Path(args.out).write_text(result.to_json())
        print(f"wrote {len(result.results)} point results to {args.out}")


def _replay(args) -> int:
    _refuse(
        [flag for flag in _flags_given(args, GRID, EXECUTION)
         if flag != "--replay"],
        "--replay", "a replay re-runs the stored points exactly as recorded",
    )
    try:
        stored = CampaignResult.from_json(Path(args.replay).read_text())
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(f"invalid results file: {exc}")
    failures = 0
    for result in stored.results:
        try:
            ok = verify_replay(result)
        except (ValueError, KeyError) as exc:
            # e.g. a protocol/scenario registered at record time but
            # unknown in this process.
            raise CliError(f"cannot replay {result.point.label}: {exc}")
        print(f"{result.point.label}: {'reproduced' if ok else 'MISMATCH'}")
        failures += int(not ok)
    if failures:
        print(f"{failures} of {len(stored.results)} points failed to replay")
        return 1
    print(f"all {len(stored.results)} points reproduced bit-for-bit")
    return 0


def _resume(args) -> int:
    _refuse(
        [flag for flag in _flags_given(args, GRID)
         if flag not in ("--resume", "--workers", "--out")],
        "--resume",
        "the campaign's parameters come from the checkpointed manifest "
        "(only --workers, --backend, --out and the fault-policy flags "
        "apply)",
    )
    directory = Path(args.resume)
    try:
        manifest = load_manifest(directory)
    except ValueError as exc:
        raise CliError(str(exc))
    try:
        spec = CampaignSpec.from_dict(manifest["spec"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"invalid manifest spec: {exc}")
    entries = manifest.get("points", [])
    done = sum(1 for e in entries if e.get("status") == "done")
    print(f"resuming campaign {spec.name!r} from {directory}: "
          f"{done} of {len(entries)} point(s) already complete")
    try:
        result = run_campaign(
            spec, workers=args.workers, progress=_progress,
            resume=args.resume, fault_policy=fault_policy(args),
            backend=args.backend,
        )
    except (ValueError, KeyError, RuntimeError) as exc:
        raise CliError(f"cannot resume: {exc}")
    print(f"campaign complete: {len(result.results)} point result(s) "
          f"in {directory}")
    if result.failures:
        print(f"{len(result.failures)} work unit(s) failed terminally "
              f"and were skipped; re-run with --resume to retry them",
              file=sys.stderr)
    _write_out(args, result)
    return 1 if result.failures else 0


def run(args) -> int:
    if args.workers < 1:
        raise CliError(
            f"invalid campaign: workers must be >= 1, got {args.workers}"
        )
    for flag, path in (("--replay", args.replay), ("--config", args.config)):
        if path and not Path(path).is_file():
            raise CliError(f"{flag}: no such file: {path}")
    if args.replay:
        return _replay(args)
    if args.resume:
        return _resume(args)
    try:
        spec = _spec_from_args(args)
        points = spec.expand()
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(f"invalid campaign: {exc}")
    print(f"campaign {spec.name!r}: {len(points)} points x "
          f"{spec.trials} trials x {spec.periods} periods")
    if args.dry_run:
        print()
        print(format_table(
            ["protocol", "n", "loss", "scenario", "seed"],
            [(p.protocol, p.n, f"{p.loss_rate:g}", p.scenario, p.seed)
             for p in points],
        ))
        print()
        print(f"protocols available: {', '.join(available_protocols())}")
        print(f"scenarios available: {', '.join(available_scenarios())}")
        print("dry run: nothing executed")
        return 0
    result = run_campaign(
        spec, workers=args.workers, progress=_progress,
        save_tensors=args.save_tensors, fault_policy=fault_policy(args),
        backend=args.backend,
    )
    _write_out(args, result)
    if args.save_tensors:
        print(f"wrote {len(result.results)} count tensors and "
              f"manifest.json to {args.save_tensors}")
    if result.failures:
        print(f"{len(result.failures)} work unit(s) failed terminally and "
              f"were skipped"
              + ("; re-run with --resume to retry them"
                 if args.save_tensors else ""),
              file=sys.stderr)
        return 1
    return 0
