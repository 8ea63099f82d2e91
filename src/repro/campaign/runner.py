"""Campaign execution: grid points as ensemble units, fan-out, and replay.

Each :class:`~repro.campaign.grid.CampaignPoint` is one
:class:`~repro.runtime.parallel.EnsembleExecutor` ensemble on the batch
tier -- the same executor an :class:`~repro.experiment.Experiment`
runs -- so a point equals ``Experiment(..., seed=point.seed,
workers=point.shards, scenario=point.scenario)`` bit for bit, scenario
faults included.  Two axes of process-level parallelism compose on
top:

* independent grid *points* fan out across worker processes;
* a single point with ``shards > 1`` splits its trial axis into that
  many independently seeded sub-ensembles (shard seeds spawned from
  ``(point.seed, shard domain)``), which fan out across the same pool
  -- the ROADMAP's "very large M" case, where one point is the whole
  campaign.

Both become one work-unit list in one plan.  Sharded or not, a point's
result is assembled with integer-exact arithmetic (count sums, not
means of means), so serial runs, pooled runs and replays of the same
point agree bit for bit.  Results carry every seed that produced
them, so :func:`replay_point` can re-run any point and
:func:`verify_replay` can check a stored result file bit-for-bit.
``save_tensors`` additionally persists each point's full
``(M, periods, states)`` count tensor as a compressed ``.npz`` for
offline analysis, indexed by a ``manifest.json`` checkpoint; both are
written by :func:`repro.store.durable.write_atomic`, a tensor before
the manifest that names it.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import zipfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..experiment.scenario import Scenario
from ..runtime.exec import (
    ExecutionPlan,
    FaultPolicy,
    UnitFailure,
    WorkUnit,
    run_plan,
)
from ..runtime.parallel import EnsembleExecutor, EnsembleResult, UnitOutput
from ..store import durable
from .grid import CampaignPoint, CampaignSpec, _without_legacy_mode
from .registry import resolve_protocol

#: Quantiles reported in point summaries.
SUMMARY_QUANTILES = (0.25, 0.5, 0.75)

#: zlib level of the ``.npz`` count tensors.  ``np.savez_compressed``
#: deflates at 6; level 1 writes the tensors ~4x faster into files
#: ~15 % larger.
TENSOR_DEFLATE_LEVEL = 1


@dataclass
class PointResult:
    """Outcome of one campaign point: summaries plus replay provenance."""

    point: CampaignPoint
    states: List[str]
    trial_seeds: List[int]
    final_counts: Dict[str, List[int]]
    summary: Dict[str, Dict[str, float]]
    mean_trajectory: Dict[str, List[float]]
    recorded_periods: List[int]
    mean_alive: List[float]
    #: Aggregate compute time over the point's shards.  For an
    #: unsharded point this is the point's wall clock; with shards
    #: fanned out across workers it exceeds the wall time (it is the
    #: CPU-seconds the point cost, not how long you waited).
    elapsed_seconds: float
    #: Set when the campaign ran with ``save_tensors``: file name of the
    #: compressed full count tensor, relative to the tensors directory.
    tensor_path: Optional[str] = None

    def to_dict(self) -> Dict:
        return {
            "point": self.point.to_dict(),
            "states": list(self.states),
            "trial_seeds": list(self.trial_seeds),
            "final_counts": self.final_counts,
            "summary": self.summary,
            "mean_trajectory": self.mean_trajectory,
            "recorded_periods": list(self.recorded_periods),
            "mean_alive": list(self.mean_alive),
            "elapsed_seconds": self.elapsed_seconds,
            "tensor_path": self.tensor_path,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "PointResult":
        return cls(
            point=CampaignPoint.from_dict(data["point"]),
            states=list(data["states"]),
            trial_seeds=list(data["trial_seeds"]),
            final_counts={k: list(v) for k, v in data["final_counts"].items()},
            summary={
                k: {kk: float(vv) for kk, vv in v.items()}
                for k, v in data["summary"].items()
            },
            mean_trajectory={
                k: list(v) for k, v in data["mean_trajectory"].items()
            },
            recorded_periods=list(data["recorded_periods"]),
            mean_alive=list(data["mean_alive"]),
            elapsed_seconds=float(data["elapsed_seconds"]),
            tensor_path=data.get("tensor_path"),
        )


@dataclass
class CampaignResult:
    """All point results of a campaign, JSON round-trippable.

    ``results`` holds the completed points in grid order.  Under a
    skipping fault policy (``FaultPolicy(on_error="skip")``) points
    whose units failed terminally are *absent* from ``results`` and
    recorded on :attr:`failures` instead -- partial results with the
    losses named, never silently shortened.
    """

    spec: CampaignSpec
    results: List[PointResult] = field(default_factory=list)
    #: Terminal unit failures (as dicts: index, label, error,
    #: traceback, attempts) recorded by a skipping fault policy.
    failures: List[Dict] = field(default_factory=list)

    def to_dict(self) -> Dict:
        return {
            "spec": self.spec.to_dict(),
            "results": [r.to_dict() for r in self.results],
            "failures": list(self.failures),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "CampaignResult":
        return cls(
            spec=CampaignSpec.from_dict(data["spec"]),
            results=[PointResult.from_dict(r) for r in data["results"]],
            failures=list(data.get("failures", [])),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "CampaignResult":
        return cls.from_dict(json.loads(text))


def _executor(point: CampaignPoint) -> EnsembleExecutor:
    """A point's ensemble, its protocol resolved here and only here.

    Work units carry the resolved spec, so no worker ever looks a
    registry name up: whatever this process has registered -- at
    runtime, as a closure -- runs on every backend.
    """
    resolved = resolve_protocol(point.protocol).resolve(point.n)
    return EnsembleExecutor(
        resolved.spec,
        n=point.n,
        trials=point.trials,
        initial=resolved.initial,
        seed=point.seed,
        connection_failure_rate=point.loss_rate,
        shards=point.shards,
    )


def _run_options(point: CampaignPoint) -> Dict:
    """The :meth:`EnsembleExecutor.units` arguments of a point's units.

    A CampaignPoint duck-types the experiment facade's RunContext, so
    the scenario's seed family is rooted at the point's seed and
    indexed by global trial -- an Experiment's faults, at any shard
    count.
    """
    return dict(
        periods=point.periods,
        stride=point.stride,
        track_transitions=False,
        hook_factories=[Scenario.named(point.scenario).hook_factory(point)],
    )


def summarize_final_counts(series: np.ndarray) -> Dict[str, float]:
    """One state's final counts over the trial axis, as summary numbers.

    ``mean`` / ``std`` / ``min`` / ``max`` plus one ``q<percent>`` per
    :data:`SUMMARY_QUANTILES` entry: what ``PointResult.summary`` stores
    per state and what ``analyze-campaign`` tabulates from a tensor.
    """
    stats = {
        "mean": float(series.mean()),
        "std": float(series.std()),
        "min": float(series.min()),
        "max": float(series.max()),
    }
    for q, value in zip(
        SUMMARY_QUANTILES, np.quantile(series, SUMMARY_QUANTILES)
    ):
        stats[f"q{int(q * 100)}"] = float(value)
    return stats


def _point_result(
    point: CampaignPoint, outcome: EnsembleResult, tensor: np.ndarray
) -> PointResult:
    """Summarize a point's merged ensemble (``tensor`` is its counts).

    The trajectory means are integer sums over the trial axis divided
    once, so a point's numbers are bitwise independent of where its
    units ran -- a serial run, a pooled run and a replay agree.
    """
    states = list(outcome.recorder.states)
    trials = len(outcome.trial_seeds)
    count_sums = tensor.sum(axis=0)
    summary: Dict[str, Dict[str, float]] = {}
    final_counts: Dict[str, List[int]] = {}
    mean_trajectory: Dict[str, List[float]] = {}
    for index, state in enumerate(states):
        series = outcome.final_counts[:, index]
        summary[state] = summarize_final_counts(series)
        final_counts[state] = series.tolist()
        mean_trajectory[state] = (count_sums[:, index] / trials).tolist()
    return PointResult(
        point=point,
        states=states,
        trial_seeds=list(outcome.trial_seeds),
        final_counts=final_counts,
        summary=summary,
        mean_trajectory=mean_trajectory,
        recorded_periods=[int(t) for t in outcome.recorder.times],
        mean_alive=(
            outcome.recorder.alive_tensor().sum(axis=0) / trials
        ).tolist(),
        elapsed_seconds=outcome.seconds,
    )


def run_point(point: CampaignPoint) -> PointResult:
    """Execute one campaign point (all of its units, in this process)."""
    outcome = _executor(point).run(**_run_options(point))
    return _point_result(point, outcome, outcome.recorder.count_tensor())


def _tensor_file_name(spec_name: str, index: int) -> str:
    safe = "".join(
        c if c.isalnum() or c in "-_" else "-" for c in spec_name
    ) or "campaign"
    return f"{safe}-point{index:03d}.npz"


def _save_tensor(
    directory: Path,
    spec_name: str,
    index: int,
    result: PointResult,
    tensor: np.ndarray,
    total_messages: np.ndarray,
) -> str:
    """Persist one point's full count tensor as a compressed ``.npz``.

    Layout: ``counts`` is the ``(M, periods, S)`` tensor in
    ``trial_seeds`` order, ``periods``/``states``/``trial_seeds`` label
    its axes, ``total_messages`` holds the engine's per-trial message
    totals (same trial order; the static complexity model cross-checks
    against it), and ``point_json`` carries the producing point for
    provenance (``json.loads(str(...))`` round-trips it).

    The archive is the one ``np.savez_compressed`` writes -- one
    deflated ``<name>.npy`` member per array, zip64 forced -- except
    that it deflates at :data:`TENSOR_DEFLATE_LEVEL`, so ``np.load``
    reads it as it reads theirs.  Written by
    :func:`~repro.store.durable.write_atomic`: a crash mid-write can
    never leave a truncated ``.npz`` that a later ``--resume`` would
    trust, and the tensor is durable before the manifest names it.
    """
    arrays = {
        "counts": tensor,
        "periods": np.asarray(result.recorded_periods, dtype=np.int64),
        "states": np.asarray(result.states),
        "trial_seeds": np.asarray(result.trial_seeds, dtype=np.uint64),
        "total_messages": np.asarray(total_messages, dtype=np.int64),
        "point_json": np.asarray(json.dumps(result.point.to_dict())),
    }

    def write(fh) -> None:
        with zipfile.ZipFile(
            fh, "w", compression=zipfile.ZIP_DEFLATED,
            compresslevel=TENSOR_DEFLATE_LEVEL, allowZip64=True,
        ) as archive:
            for key, array in arrays.items():
                with archive.open(key + ".npy", "w", force_zip64=True) as out:
                    np.lib.format.write_array(out, array, allow_pickle=False)

    name = _tensor_file_name(spec_name, index)
    durable.write_atomic(directory / name, write)
    return name


#: File name of the campaign-level index written next to the tensors.
MANIFEST_NAME = "manifest.json"

#: The manifest field that records how sharded points seed their
#: scenario faults, and its one value: one family rooted at the
#: point's seed, indexed by global trial (an Experiment's seeding).
#: Manifests without the field seeded each shard's faults from the
#: shard's own seed.
SEEDING_KEY = "scenario_seeding"
SEEDING = "global-trial"


def _seeding_matters(spec: CampaignSpec) -> bool:
    """Whether the scenario seeding can move any of the spec's points.

    Only sharded points under a scenario other than ``none`` ever
    seeded faults per shard; every other manifest is byte-identical to
    one written before the seeding moved, so only these record it.
    """
    return spec.shards > 1 and any(s != "none" for s in spec.scenarios)


def _created_stamp() -> str:
    """The manifest's creation time (``SOURCE_DATE_EPOCH`` pins it)."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        return datetime.datetime.fromtimestamp(
            int(epoch), tz=datetime.timezone.utc
        ).isoformat()
    return datetime.datetime.now(tz=datetime.timezone.utc).isoformat()


def _pending_entry(index: int, point: CampaignPoint) -> Dict:
    """A planned-but-not-finished point's manifest entry."""
    return {
        "index": index,
        "label": point.label,
        "point": point.to_dict(),
        "status": "pending",
    }


def _done_entry(index: int, result: PointResult) -> Dict:
    """A completed point's manifest entry.

    Everything about the point -- its parameters, seeds, tensor file
    and summaries -- is stored once, under ``result``
    (:meth:`PointResult.to_dict`), which is also what ``--resume``
    restores from.
    """
    return {
        "index": index,
        "label": result.point.label,
        "status": "done",
        "result": result.to_dict(),
    }


def _manifest_data(
    spec: CampaignSpec, entries: List[Dict], created: str
) -> Dict:
    """The campaign-level manifest: one entry per planned point.

    One file indexes every point of the campaign -- its parameters,
    completion status, seeds, tensor file and summary provenance -- so
    offline analysis loads the manifest instead of globbing per-point
    ``.npz`` files, and an interrupted campaign can be resumed from it
    (``complete`` is true only once every point is ``done``).
    ``created`` is when the campaign was first started
    (:func:`_created_stamp`; ``SOURCE_DATE_EPOCH`` pins it for
    byte-identical reruns).
    """
    data = {
        "campaign": spec.name,
        "spec": spec.to_dict(),
        "complete": all(
            entry.get("status") == "done" for entry in entries
        ),
        "points": entries,
        "provenance": {
            "created": created,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    if _seeding_matters(spec):
        data[SEEDING_KEY] = SEEDING
    return data


def _encode_entry(entry: Dict) -> str:
    """One entry as it reads inside the manifest's ``points`` list."""
    return "    " + json.dumps(entry)


class _Checkpoint:
    """The manifest file, rewritten whenever a point lands.

    The file is :func:`_manifest_data` as an ``indent=2`` shell whose
    ``points`` list holds one line per entry.  Each entry is encoded
    once after it is set, by the C encoder (an ``indent`` would run the
    pure-Python one), and every later write assembles the file from the
    kept pieces, so a campaign's checkpoints cost O(points) encodes,
    not O(points^2).  ``created`` is stamped once, when the campaign
    first starts, so a write with no entry set since the last one would
    put the same bytes on disk.  With no ``path`` (the campaign keeps
    no tensors directory) nothing is encoded or written.
    """

    def __init__(
        self,
        path: Optional[Path],
        spec: CampaignSpec,
        entries: List[Dict],
        created: str,
    ):
        self.path = path
        self.spec = spec
        self.entries = entries
        self.created = created
        self._pieces: List[Optional[str]] = [None] * len(entries)

    def set(self, index: int, entry: Dict) -> None:
        self.entries[index] = entry
        self._pieces[index] = None

    def text(self) -> str:
        for index, piece in enumerate(self._pieces):
            if piece is None:
                self._pieces[index] = _encode_entry(self.entries[index])
        shell = _manifest_data(self.spec, self.entries, self.created)
        if not self._pieces:
            return json.dumps(shell, indent=2)
        shell["points"] = []
        head, tail = json.dumps(shell, indent=2).split(
            '\n  "points": [],\n'
        )
        return (
            f'{head}\n  "points": [\n' + ",\n".join(self._pieces)
            + f"\n  ],\n{tail}"
        )

    def write(self) -> None:
        if self.path is not None:
            text = self.text().encode()
            durable.write_atomic(self.path, lambda fh: fh.write(text))


def load_manifest(directory) -> Dict:
    """Read a campaign tensors directory's ``manifest.json``.

    A missing file, one that does not parse and one that is not a JSON
    object are each refused with a ``ValueError`` naming it.
    """
    path = Path(directory) / MANIFEST_NAME
    try:
        manifest = json.loads(path.read_bytes())
    except FileNotFoundError:
        raise ValueError(
            f"{directory} has no {MANIFEST_NAME}; only campaigns run with "
            f"--save-tensors (save_tensors=) are resumable"
        ) from None
    except ValueError as exc:
        raise ValueError(f"invalid manifest {path}: {exc}") from None
    if not isinstance(manifest, dict):
        raise ValueError(f"invalid manifest {path}: not a JSON object")
    return manifest


def _restore_completed(
    resume_dir: Path, spec: CampaignSpec, points: List[CampaignPoint]
) -> Tuple[Dict[int, PointResult], Optional[str]]:
    """Load the completed points of a partial campaign manifest.

    Verifies spec identity first: resuming under a different spec
    would splice points from two different campaigns into one result,
    so anything but an exact ``spec.to_dict()`` match (after dropping
    the ``mode`` key older manifests carry) is an error, and so is a
    manifest whose sharded scenario points were seeded per shard
    (no :data:`SEEDING_KEY`).
    Entries count as restorable only when they are ``done``, embed
    their ``result``, match the re-expanded point exactly, and their
    tensor file (when one was recorded) still exists -- anything else
    is simply re-run, which is always correct (points are
    deterministic in their seeds).  Returns those points and the
    ``created`` stamp the manifest recorded (None if it has none),
    which the resumed campaign keeps.
    """
    manifest = load_manifest(resume_dir)
    recorded = manifest.get("spec")
    if isinstance(recorded, dict):
        recorded = _without_legacy_mode(recorded)
    if recorded != spec.to_dict():
        raise ValueError(
            f"resume spec mismatch: the manifest in {resume_dir} was "
            f"written by a different campaign spec; --resume re-runs "
            f"the recorded campaign, it does not reconfigure it"
        )
    if _seeding_matters(spec) and manifest.get(SEEDING_KEY) != SEEDING:
        raise ValueError(
            f"cannot resume {resume_dir}: its sharded points under a "
            f"scenario seeded their faults per shard, and campaigns now "
            f"seed them by global trial (an Experiment's seeding, "
            f"{SEEDING_KEY}={SEEDING!r}), so resumed points would not "
            f"match the restored ones; re-run the campaign into a fresh "
            f"directory"
        )
    restored: Dict[int, PointResult] = {}
    for entry in manifest.get("points", []):
        if entry.get("status") != "done" or "result" not in entry:
            continue
        index = entry.get("index")
        if not isinstance(index, int) or not 0 <= index < len(points):
            continue
        result = PointResult.from_dict(entry["result"])
        if result.point.to_dict() != points[index].to_dict():
            raise ValueError(
                f"resume manifest entry {index} records point "
                f"{result.point.label!r}, but the spec expands to "
                f"{points[index].label!r} there"
            )
        if result.tensor_path is not None and not (
            resume_dir / result.tensor_path
        ).is_file():
            continue
        restored[index] = result
    provenance = manifest.get("provenance")
    created = (
        provenance.get("created") if isinstance(provenance, dict) else None
    )
    return restored, created if isinstance(created, str) else None


def run_campaign(
    spec: CampaignSpec,
    workers: int = 1,
    progress: Optional[Callable[[PointResult], None]] = None,
    save_tensors: Optional[str] = None,
    resume: Optional[str] = None,
    fault_policy: Optional[FaultPolicy] = None,
    backend: str = "pool",
) -> CampaignResult:
    """Run every point of the campaign grid.

    ``workers > 1`` fans work out across that many processes.  The unit
    of fan-out is the *shard*: with ``spec.shards == 1`` (default) that
    is one grid point per job (each point's trial axis is already
    vectorized), and with ``spec.shards > 1`` each point additionally
    splits its trial axis into independently seeded sub-ensembles so a
    small grid with a very large M still fills the pool.  Results are
    returned in grid order, and are bitwise identical however the jobs
    were scheduled (see :func:`_point_result`).

    ``save_tensors`` names a directory (created if missing) that
    receives one compressed ``.npz`` per point with the full
    ``(M, periods, states)`` count tensor; each
    :class:`PointResult.tensor_path` records its file, and a
    campaign-level ``manifest.json`` (see :func:`load_manifest`)
    indexes every point's parameters, seeds and tensor path for
    offline analysis.  The manifest doubles as the campaign's
    **checkpoint**: :func:`~repro.store.durable.write_atomic` writes it
    before the first unit runs and again as every point completes (the
    point's tensor first), so a crash, kill or power loss at any moment
    leaves a consistent partial manifest naming exactly the points that
    finished.

    ``resume`` names such a directory: completed points are restored
    from the manifest instead of re-run (after verifying the manifest
    was written by this exact spec), and only the missing points
    execute.  Because every point's seeds derive from the spec alone,
    a resumed campaign's results, manifest and tensors are bitwise
    identical to an uninterrupted run's (wall-clock provenance --
    ``elapsed_seconds``, ``created`` -- aside).  ``resume`` implies
    ``save_tensors`` into the same directory.

    ``fault_policy`` governs work-unit faults (default: raise on the
    first failure).  ``on_error="retry"`` re-runs a failed unit's
    exact payload with capped backoff, which cannot perturb seeds or
    merge order; ``on_error="skip"`` isolates terminal failures to
    their point -- the other points complete, the failed ones are
    recorded on :attr:`CampaignResult.failures` and marked ``failed``
    in the manifest (a later ``resume`` re-runs them).

    ``backend`` selects the executor
    (:data:`~repro.runtime.exec.BACKENDS`): ``"pool"`` (default) or
    ``"cluster"`` -- process-isolated socket workers with heartbeats,
    dead-worker re-dispatch and elastic worker counts.  ``backend`` is
    pure scheduling, never part of the campaign's identity: manifests
    and tensors are bitwise identical across backends, so a campaign
    checkpointed on one backend resumes cleanly on the other.  A
    SIGTERM during a cluster run drains in-flight units into the
    checkpoint and raises
    :class:`~repro.runtime.cluster.ClusterDrained`; resume then
    finishes the remaining points.
    """
    points = spec.expand()
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    resume_dir: Optional[Path] = None
    if resume is not None:
        resume_dir = Path(resume)
        if save_tensors is None:
            save_tensors = resume
        elif Path(save_tensors).resolve() != resume_dir.resolve():
            raise ValueError(
                "resume and save_tensors must name the same directory "
                "(resume continues the campaign checkpointed there)"
            )
    tensors_dir = None if save_tensors is None else Path(save_tensors)

    restored, created = (
        _restore_completed(resume_dir, spec, points)
        if resume_dir is not None else ({}, None)
    )

    # The checkpoint state: one manifest entry per planned point,
    # rewritten durably whenever a point lands.
    checkpoint = _Checkpoint(
        None if tensors_dir is None else tensors_dir / MANIFEST_NAME,
        spec,
        [
            _done_entry(index, restored[index]) if index in restored
            else _pending_entry(index, point)
            for index, point in enumerate(points)
        ],
        created or _created_stamp(),
    )

    # The campaign as one ExecutionPlan: every point's ensemble units
    # -- one per trial-axis shard -- flatten into a single work-unit
    # list served by one ``workers`` budget, so a small grid holding
    # one huge sharded point fills the same pool a wide grid does.
    # The decomposition (and every unit's seed) depends only on the
    # spec, never on ``workers`` -- which is what keeps pooled runs
    # bitwise equal to serial ones and replays, and what lets a resume
    # re-run exactly the units of the not-yet-completed points.
    executors = {
        index: _executor(point)
        for index, point in enumerate(points) if index not in restored
    }
    unit_points: List[int] = []
    units: List[WorkUnit] = []
    for point_index, executor in executors.items():
        point = points[point_index]
        for unit in executor.units(**_run_options(point)):
            unit_points.append(point_index)
            units.append(replace(unit, label=f"{point.label} {unit.label}"))

    # Stream completion: a point is merged, saved, checkpointed and
    # reported as soon as its last unit lands, and its unit outputs
    # are freed immediately -- the plan declares no merge, so the
    # executor never forces the whole campaign resident at once.
    pending: Dict[int, Dict[int, UnitOutput]] = {}
    results: Dict[int, PointResult] = dict(restored)
    failures_by_point: Dict[int, List[UnitFailure]] = {}

    def complete(unit_index: int, output: UnitOutput) -> None:
        point_index = unit_points[unit_index]
        bucket = pending.setdefault(point_index, {})
        bucket[unit_index] = output
        executor = executors[point_index]
        if len(bucket) < len(executor.layout):
            return
        del pending[point_index]
        outcome = executor.merge([bucket[k] for k in sorted(bucket)])
        tensor = outcome.recorder.count_tensor()
        result = _point_result(points[point_index], outcome, tensor)
        if tensors_dir is not None:
            result.tensor_path = _save_tensor(
                tensors_dir, spec.name, point_index, result, tensor,
                outcome.total_messages,
            )
        results[point_index] = result
        checkpoint.set(point_index, _done_entry(point_index, result))
        checkpoint.write()
        if progress is not None:
            progress(result)

    def record_failure(failure: UnitFailure) -> None:
        # Only reachable under on_error="skip" (raising policies abort
        # run_plan instead): isolate the loss to its point, persist it,
        # and let every other unit proceed.
        point_index = unit_points[failure.index]
        bucket = failures_by_point.setdefault(point_index, [])
        bucket.append(failure)
        checkpoint.set(point_index, {
            **_pending_entry(point_index, points[point_index]),
            "status": "failed",
            "failures": [f.to_dict() for f in bucket],
        })
        checkpoint.write()

    checkpoint.write()
    run_plan(
        ExecutionPlan(
            units=units,
            merge=None,
            label=f"campaign {spec.name!r}",
        ),
        workers=workers,
        on_unit=complete,
        fault_policy=fault_policy,
        on_failure=record_failure,
        backend=backend,
    )

    # Nothing is left to write: every entry set above was written as it
    # was set, and the ``created`` stamp does not move.
    ordered = [
        results[i] for i in range(len(points)) if i in results
    ]
    failure_dicts = [
        failure.to_dict()
        for point_index in sorted(failures_by_point)
        for failure in sorted(
            failures_by_point[point_index], key=lambda f: f.index
        )
    ]
    return CampaignResult(
        spec=spec, results=ordered, failures=failure_dicts
    )


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
def replay_point(point: CampaignPoint) -> np.ndarray:
    """Re-run a point and return its full ``(M, periods, S)`` count tensor.

    Campaign seeds are recorded in specs and results, so the same point
    always reproduces the same tensor (same numpy version);
    trial rows follow the merged unit order, i.e. the recorded
    ``trial_seeds``.
    """
    return _executor(point).run(**_run_options(point)).recorder.count_tensor()


def verify_replay(result: PointResult) -> bool:
    """Re-run a recorded point and check it reproduces the stored result."""
    rerun = run_point(result.point)
    if rerun.trial_seeds != result.trial_seeds:
        return False
    for state in result.states:
        if rerun.final_counts[state] != result.final_counts[state]:
            return False
        if rerun.mean_trajectory[state] != result.mean_trajectory[state]:
            return False
    return True
