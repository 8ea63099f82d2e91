"""``analyze-campaign``: offline summary tables from saved tensors."""

import json
from pathlib import Path

import numpy as np

from ..campaign import load_manifest
from ..campaign.runner import summarize_final_counts
from ..viz import format_table
from .common import CliError, render_failure_provenance


def configure(subparsers) -> None:
    p = subparsers.add_parser(
        "analyze-campaign",
        help="summarize a campaign's saved tensors "
             "(manifest.json + per-point .npz) offline",
    )
    p.add_argument("tensors_dir",
                   help="directory written by 'campaign --save-tensors'")
    p.set_defaults(func=run)


def _print_message_check(point_json, counts, periods, states, measured):
    """Predicted-vs-measured message line for one campaign point.

    Uses the static complexity model (:mod:`repro.check.complexity`)
    when the producing protocol is resolvable in this process; custom
    runtime-registered builders that are absent here are skipped
    quietly.
    """
    if point_json is None:
        return
    try:
        point = json.loads(point_json)
        protocol, n = point.get("protocol"), point.get("n")
        if not protocol or not n:
            return
        from ..campaign.registry import resolve_protocol
        from ..check import message_model

        spec = resolve_protocol(str(protocol)).resolve(int(n)).spec
        model = message_model(spec)
        mean, bound = model.predict_total(counts, periods, states=states)
    except Exception:
        return
    predicted = float(np.sum(mean))
    approx = " (approx: recording stride > 1)" if np.any(
        np.diff(np.asarray(periods)) > 1
    ) else ""
    if measured is None:
        print(f"messages: predicted {predicted:,.0f} total"
              f"{approx}; measured n/a (tensor predates "
              f"total_messages recording)")
        return
    total = float(np.sum(np.asarray(measured)))
    variance = float(np.sum(bound))
    if variance > 0:
        z = (total - predicted) / variance ** 0.5
        calibration = f"z = {z:+.2f}"
    else:
        calibration = (
            "exact" if total == predicted else "MISMATCH (deterministic "
            "charging predicted a different total)"
        )
    print(f"messages: predicted {predicted:,.0f} vs measured "
          f"{total:,.0f} over all trials ({calibration}){approx}")


def _print_point(directory: Path, tensor_name: str, label: str) -> None:
    """One point's final-count table (over the trial axis) and messages."""
    with np.load(directory / tensor_name) as data:
        counts = data["counts"]          # (M, periods, S)
        states = [str(state) for state in data["states"]]
        periods = data["periods"]
        measured = (
            data["total_messages"] if "total_messages" in data.files else None
        )
        point_json = (
            str(data["point_json"]) if "point_json" in data.files else None
        )
    print(f"{label}: {counts.shape[0]} trials x {counts.shape[1]} recorded "
          f"periods (last period {int(periods[-1])}), "
          f"tensor {tensor_name}")
    rows = []
    for index, state in enumerate(states):
        stats = summarize_final_counts(counts[:, -1, index])
        rows.append((
            state, f"{stats['mean']:.1f}", f"{stats['std']:.1f}",
            *(f"{stats[k]:g}" for k in ("min", "q25", "q50", "q75", "max")),
        ))
    print(format_table(
        ["state", "mean", "std", "min", "q25", "median", "q75", "max"], rows,
    ))
    _print_message_check(point_json, counts, periods, states, measured)


def run(args) -> int:
    """Loads ``manifest.json`` plus each point's ``.npz`` (written by
    ``campaign --save-tensors``) and prints a per-point summary without
    re-running anything.  Exit status 1 when a point is incomplete or
    its tensor is missing."""
    directory = Path(args.tensors_dir)
    if not directory.is_dir():
        raise CliError(f"no such directory: {directory}")
    try:
        manifest = load_manifest(directory)
    except FileNotFoundError:
        raise CliError(f"{directory} has no manifest.json (was the campaign "
                       f"run with --save-tensors?)")
    except (ValueError, KeyError) as exc:
        raise CliError(f"invalid manifest: {exc}")
    points = manifest.get("points", [])
    provenance = manifest.get("provenance", {})
    print(f"campaign {manifest.get('campaign', '?')!r}: "
          f"{len(points)} point(s)"
          + (f", created {provenance['created']}"
             if "created" in provenance else ""))
    if manifest.get("complete") is False:
        print(f"note: campaign is incomplete; finish it with "
              f"`python -m repro campaign --resume {directory}`")

    def tensor_of(entry):
        # Done entries store the point once, as its embedded result.
        return (entry.get("result") or {}).get("tensor_path")

    failures = 0
    for entry in points:
        tensor_name = tensor_of(entry)
        label = entry.get("label", f"point {entry.get('index', '?')}")
        status = entry.get("status", "done")
        print()
        if status != "done":
            print(f"{label}: not completed (status {status!r})")
            for record in entry.get("failures", []):
                print(f"  {render_failure_provenance(record)}")
            failures += 1
        elif not tensor_name:
            print(f"{label}: no tensor recorded")
            failures += 1
        elif not (directory / tensor_name).is_file():
            print(f"{label}: missing tensor file {tensor_name}")
            failures += 1
        else:
            _print_point(directory, tensor_name, label)
    referenced = {tensor_of(entry) for entry in points}
    orphans = sorted(path.name for path in directory.glob("*.npz")
                     if path.name not in referenced)
    if orphans:
        print()
        print(f"{len(orphans)} orphaned tensor file(s) not referenced "
              f"by the manifest (stale or from an interrupted run):")
        for name in orphans:
            print(f"  {name}")
        print(f"`python -m repro campaign --resume {directory}` "
              f"completes an interrupted campaign; orphans can be "
              f"deleted safely.")
    return 1 if failures else 0
