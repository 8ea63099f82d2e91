#!/usr/bin/env python3
"""Benchmark trajectory check (CI gate, stdlib only).

Every PR that claims a performance gain commits a ``BENCH_<pr>.json``:
the parent commit and the change measured side by side with
``benchmarks/perf/run.py --seed 1 --out``.  This loads the newest one
and fails unless

* its ``claim`` names a workload and a metric ``BENCHMARK.json``
  declares;
* every workload's exact-count ledger is equal on the ``parent`` and
  ``change`` sides (the two sides did the same work), except for the
  entries the file's ``ledger_moves`` names per workload as moved by
  design (``{"campaign_sharded": ["campaign.tensor_bytes"]}``);
* no end-to-end median on the ``change`` side is worse than the
  parent's by more than the ``bound`` ``BENCHMARK.json`` fixes for
  that metric;
* the claim holds by the paired rule of ``benchmarks/perf/README.md``:
  some ``"<workload> seed S"`` entry of ``paired_summary`` shows at
  least 10 alternating pairs, the change better in at least 9 of 10,
  and medians that differ, in the direction that counts as better for
  the metric, by more than the parent's ``q3 - q1``.

It reads numbers that were measured where the PR was written; it runs
nothing, so it is as fast and as deterministic as the file it reads.

Run from anywhere:  python tools/check_bench.py [BENCH_<pr>.json]
Exit status 0 = all good, 1 = a problem (each printed on its own line).
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent

_BENCH_NAME = re.compile(r"BENCH_(\d+)\.json$")


def newest_bench(root: Path = REPO_ROOT) -> Optional[Path]:
    """The ``BENCH_<pr>.json`` with the highest PR number, if any."""
    numbered = [
        (int(match.group(1)), path)
        for path in root.glob("BENCH_*.json")
        if (match := _BENCH_NAME.search(path.name))
    ]
    return max(numbered)[1] if numbered else None


def _runs_by_workload(side: dict) -> Dict[str, dict]:
    return {run["workload"]: run for run in side.get("runs", [])}


#: The README's paired rule: pairs needed, and wins per ten pairs.
MIN_PAIRS, WINS_IN_TEN = 10, 9


def _paired_shortfall(entry: dict, better: str) -> Optional[str]:
    """Why one ``paired_summary`` entry misses the paired rule, or None.

    Wins are counted under ``change_higher`` or ``change_lower``, after
    the direction in which the claimed metric is better.
    """
    try:
        pairs = int(entry["pairs"])
        wins = int(entry[f"change_{better}"])
        parent, change = entry["parent"], entry["change"]
        before, after = float(parent["median"]), float(change["median"])
        spread = float(parent["q3"]) - float(parent["q1"])
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed (missing or bad {exc})"
    if pairs < MIN_PAIRS:
        return f"{pairs} pairs, fewer than {MIN_PAIRS}"
    if 10 * wins < WINS_IN_TEN * pairs:
        return (
            f"change {better} in {wins} of {pairs} pairs, fewer than "
            f"{WINS_IN_TEN} in 10"
        )
    gain = after - before if better == "higher" else before - after
    if gain <= spread:
        return (
            f"medians {before:.6g} -> {after:.6g} are not apart by more "
            f"than the parent's q3 - q1 ({spread:.6g}) in the better "
            f"direction"
        )
    return None


def _paired_problems(bench: dict, workload: str, better: str) -> List[str]:
    """The claim must hold by the paired rule on some seed."""
    prefix = f"{workload} seed "
    shortfalls = {
        label: _paired_shortfall(entry, better)
        for label, entry in (bench.get("paired_summary") or {}).items()
        if label.startswith(prefix)
    }
    if not shortfalls:
        return [
            f"{workload}: the claim has no paired_summary entry "
            f"'{prefix}S'"
        ]
    if any(why is None for why in shortfalls.values()):
        return []
    return [
        f"{label}: the claim fails the paired rule: {why}"
        for label, why in shortfalls.items()
    ]


def problems(bench: dict, benchmark: dict) -> List[str]:
    """Everything wrong with one trajectory file, one line each."""
    found: List[str] = []
    workloads = [entry["name"] for entry in benchmark["workloads"]]
    end_to_end = {entry["name"]: entry for entry in benchmark["end_to_end"]}
    better = {
        entry["name"]: entry.get("better")
        for entry in benchmark["per_layer"] + benchmark["end_to_end"]
    }

    claim = bench.get("claim") or {}
    if claim.get("workload") not in workloads:
        found.append(
            f"claim names workload {claim.get('workload')!r}, which "
            f"BENCHMARK.json does not declare"
        )
    if claim.get("metric") not in better:
        found.append(
            f"claim names metric {claim.get('metric')!r}, which "
            f"BENCHMARK.json does not declare"
        )
    elif claim.get("workload") in workloads:
        found.extend(_paired_problems(
            bench, claim["workload"], better[claim["metric"]]
        ))

    parent = _runs_by_workload(bench.get("parent", {}))
    change = _runs_by_workload(bench.get("change", {}))
    moves = bench.get("ledger_moves") or {}
    for name in workloads:
        if name not in parent or name not in change:
            found.append(f"{name}: not measured on both sides")
            continue
        moved = set(moves.get(name, ()))
        before, after = (
            {
                key: value
                for key, value in (side[name].get("ledger") or {}).items()
                if key not in moved
            }
            for side in (parent, change)
        )
        if before != after:
            found.append(
                f"{name}: ledger differs, parent "
                f"{parent[name].get('ledger')} vs change "
                f"{change[name].get('ledger')}"
            )
        for metric, entry in end_to_end.items():
            try:
                before = float(parent[name]["metrics"][metric]["value"])
                after = float(change[name]["metrics"][metric]["value"])
            except (KeyError, TypeError, ValueError):
                found.append(f"{name}: {metric} missing on one side")
                continue
            bound = float(entry["bound"])
            if entry["better"] == "higher":
                worse = after < before * (1.0 - bound)
            else:
                worse = after > before * (1.0 + bound)
            if worse:
                found.append(
                    f"{name}: {metric} {before:.6g} -> {after:.6g} "
                    f"{entry['unit']} is worse than the parent by more "
                    f"than the bound ({bound:.0%}, {entry['better']} is "
                    f"better)"
                )
    return found


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    path = Path(args[0]) if args else newest_bench()
    if path is None:
        print("no BENCH_<pr>.json at the repository root")
        return 1
    bench = json.loads(path.read_text())
    benchmark = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    found = problems(bench, benchmark)
    for line in found:
        print(f"{path.name}: {line}")
    if found:
        print(f"{len(found)} benchmark trajectory problem(s)")
        return 1
    claim = bench["claim"]
    print(
        f"bench ok: {path.name} claims {claim['metric']} on "
        f"{claim['workload']} and meets the paired rule; "
        f"{len(benchmark['workloads'])} ledgers equal, "
        f"{len(benchmark['workloads']) * len(benchmark['end_to_end'])} "
        f"end-to-end medians within their bounds"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
