"""Command-line interface: classify, synthesize and simulate equations.

Usage::

    python -m repro run       equations.txt|protocol-name --n 10000
                               --trials 16 [--periods 200] [--param ...]
                               [--scenario massive-failure]
                               [--engine auto|serial|batch|agent]
                               [--workers 4]
                               [--seed 42] [--loss-rate 0.05] [--plot]
    python -m repro classify  equations.txt [--param beta=4 ...]
    python -m repro synthesize equations.txt [--param ...] [--p 0.01]
                               [--failure-rate 0.1] [--no-rewrite]
    python -m repro simulate  equations.txt --n 10000 --periods 200
                               [--initial x=9999 --initial y=1]
                               [--seed 42] [--plot]
    python -m repro campaign  [--config spec.json | --protocol lv --n 1000
                               --loss-rate 0.05 --scenario massive-failure]
                               [--trials 16] [--periods 200] [--workers 4]
                               [--shards 4] [--save-tensors DIR]
                               [--out results.json] [--dry-run]
                               [--replay results.json]
    python -m repro serve     --protocol endemic --n 1000 --dir state/
                               [--seed 42] [--port 7341 | --no-listen]
                               [--tick-seconds 1.0] [--periods-per-tick 1]
                               [--snapshot-every 100] [--max-periods 0]
                               [--events script.jsonl] [--virtual-clock]
    python -m repro replay    state/ [--from-snapshot] [--quiet]
    python -m repro worker    --connect HOST:PORT

``run`` and ``campaign`` accept ``--backend cluster`` to fan work
units across process-isolated socket workers with heartbeats,
dead-worker re-dispatch and elastic worker counts (results bitwise
identical to the default pool backend); ``worker`` starts a standalone
worker that dials in to such a run's coordinator (pin its port with
``REPRO_CLUSTER_PORT``) and can join mid-plan.

``equations.txt`` holds one equation per line, e.g.::

    x' = -beta*x*y + alpha*z
    y' =  beta*x*y - gamma*y
    z' =  gamma*y  - alpha*z

Symbols that are not variables must be bound with ``--param``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

from .campaign import (
    CampaignResult,
    CampaignSpec,
    available_protocols,
    available_scenarios,
    load_manifest,
    run_campaign,
    verify_replay,
)
from .experiment import ENGINES, Experiment, Protocol, parse_param_directives
from .runtime.exec import BACKENDS, ON_ERROR_MODES, FaultPolicy
from .odes import ParseError, auto_rewrite, classify, find_equilibria, integrate, parse_system
from .runtime import MetricsRecorder, RoundEngine, spawn_seeds
from .synthesis import SynthesisError, synthesize
from .viz import format_table, render_series


def _parse_bindings(pairs: List[str], kind: str) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--{kind} expects name=value, got {pair!r}")
        name, _, value = pair.partition("=")
        try:
            out[name.strip()] = float(value)
        except ValueError:
            raise SystemExit(f"--{kind} {name}: {value!r} is not a number")
    return out


def _load_system(args) -> "EquationSystem":
    text = Path(args.equations).read_text()
    # ``# param:`` directives in the file supply defaults; explicit
    # --param flags override them (same rule as ``python -m repro run``).
    try:
        parameters = parse_param_directives(text)
    except ValueError as exc:
        raise SystemExit(f"{args.equations}: {exc}")
    parameters.update(_parse_bindings(args.param, "param"))
    system = parse_system(
        text,
        parameters=parameters,
        name=Path(args.equations).stem,
    )
    return system


def cmd_classify(args) -> int:
    system = _load_system(args)
    print(system.render())
    print()
    print(classify(system).render())
    return 0


def cmd_synthesize(args) -> int:
    system = _load_system(args)
    if not args.no_rewrite and not classify(system).mappable:
        print("# system not directly mappable; applying auto_rewrite "
              "(Section 7)", file=sys.stderr)
        system = auto_rewrite(system)
        print(system.render())
        print()
    try:
        spec = synthesize(
            system,
            p=args.p,
            failure_rate=args.failure_rate,
            tokenize=not args.no_tokenize,
        )
    except SynthesisError as exc:
        print(f"synthesis failed: {exc}", file=sys.stderr)
        return 1
    print(spec.render())
    print()
    print(f"message complexity: {spec.message_complexity()}")
    print(f"one period = {spec.time_scale:g} time units of the equations")
    return 0


def cmd_simulate(args) -> int:
    system = _load_system(args)
    if not classify(system).mappable:
        system = auto_rewrite(system)
    try:
        spec = synthesize(system, p=args.p, failure_rate=args.failure_rate)
    except SynthesisError as exc:
        print(f"synthesis failed: {exc}", file=sys.stderr)
        return 1
    initial = _parse_bindings(args.initial, "initial")
    if not initial:
        # Default: everyone in the first state, one process in the second.
        first, second = spec.states[0], spec.states[1]
        initial = {first: args.n - 1, second: 1}
    engine = RoundEngine(
        spec, n=args.n, initial=initial, seed=args.seed,
        connection_failure_rate=args.failure_rate,
    )
    recorder = MetricsRecorder(spec.states, stride=max(1, args.periods // 200))
    engine.run(args.periods, recorder=recorder)
    counts = engine.counts()
    print(f"after {args.periods} periods "
          f"(= {spec.time_for_periods(args.periods):g} time units):")
    for state in spec.states:
        print(f"  {state}: {counts[state]}")
    if args.plot:
        print()
        print(render_series(
            recorder.times,
            {s: recorder.counts(s) for s in spec.states},
            width=70, height=16,
            title=f"{spec.name} (N={args.n})",
        ))
    return 0


def cmd_analyze(args) -> int:
    """Equilibria, stability and (optionally) a trajectory preview."""
    system = _load_system(args)
    print(system.render())
    print()
    equilibria = find_equilibria(system)
    if not equilibria:
        print("no equilibria found on the simplex")
    for equilibrium in equilibria:
        print("equilibrium:", equilibrium.render())
    stable = [e for e in equilibria if e.is_stable]
    print()
    print(f"{len(stable)} stable of {len(equilibria)} equilibria "
          f"(stable points become self-stabilizing protocol operating "
          f"points)")
    if args.trajectory:
        initial = _parse_bindings(args.initial, "initial")
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


def cmd_run(args) -> int:
    """The zero-to-aha path: equations (or a name) -> ensemble results.

    Resolves the target to a :class:`repro.experiment.Protocol` handle
    (an equations file -- with ``# param:`` directives and ``--param``
    overrides -- or a campaign-registry name), runs an
    :class:`repro.experiment.Experiment` on the auto-selected engine
    tier, and prints the ensemble trajectory summary plus the
    equilibrium-vs-closed-form check.  Exit status 1 when the check
    FAILs (PASS/WARN/SKIP exit 0) -- except under ``--scenario``,
    where injected faults legitimately hold the group away from the
    unperturbed equilibrium, so the check is informational only (a
    printed note says so) and never fails the run.
    """
    target = args.target
    params = _parse_bindings(args.param, "param")
    initial = _parse_bindings(args.initial, "initial") or None
    is_file = Path(target).is_file()
    if is_file:
        try:
            protocol = Protocol.from_equations(
                Path(target), parameters=params, p=args.p,
                failure_rate=args.loss_rate,
            )
        except (ParseError, SynthesisError, ValueError) as exc:
            print(f"cannot build a protocol from {target}: {exc}",
                  file=sys.stderr)
            return 1
        origin = target
    else:
        if params or args.p is not None:
            print("--param/--p only apply to equations files, not to "
                  "registry protocol names", file=sys.stderr)
            return 1
        try:
            protocol = Protocol.named(target)
        except KeyError:
            print(f"{target!r} is neither an equations file nor a "
                  f"registered protocol; "
                  f"available: {', '.join(available_protocols())}",
                  file=sys.stderr)
            return 1
        origin = "registry"
    try:
        experiment = Experiment(
            protocol, n=args.n, trials=args.trials, periods=args.periods,
            scenario=None if args.scenario in (None, "none")
            else args.scenario,
            seed=args.seed, engine=args.engine, loss_rate=args.loss_rate,
            stride=args.stride, initial=initial, workers=args.workers,
            fault_policy=_fault_policy_from_args(args),
            backend=args.backend,
        )
        result = experiment.run()
    except (KeyError, ValueError, TypeError) as exc:
        print(f"invalid experiment: {exc}", file=sys.stderr)
        return 1
    spec = result.spec
    engine_note = (
        f"{result.engine} (auto-selected)" if args.engine == "auto"
        else result.engine
    )
    print(f"protocol {protocol.label!r} ({origin}): "
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
          + (f"  scenario={args.scenario}"
             if args.scenario not in (None, "none") else "")
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
            print(f"  {_render_failure_provenance(failure.to_dict())}")
    print(f"ensemble trajectory summary over {result.trials} trial(s) "
          f"({result.elapsed_seconds:.2f}s):")
    print(result.render_summary())
    print()
    check = result.equilibrium_check()
    print(check.render())
    scenario_active = args.scenario not in (None, "none")
    if scenario_active:
        print(f"note: scenario {args.scenario!r} perturbs the group, so "
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
    return 1 if (check.status == "FAIL" and not scenario_active) else 0


def _print_message_check(point_json, counts, periods, states, measured):
    """Predicted-vs-measured message line for one campaign point.

    Uses the static complexity model (:mod:`repro.check.complexity`)
    when the producing protocol is resolvable in this process; custom
    runtime-registered builders that are absent here are skipped
    quietly.
    """
    import numpy as np

    if point_json is None:
        return
    try:
        point = json.loads(point_json)
        protocol, n = point.get("protocol"), point.get("n")
        if not protocol or not n:
            return
        from .campaign.registry import resolve_protocol
        from .check import message_model

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


def _render_failure_provenance(record: Dict) -> str:
    """One line per persisted UnitFailure, naming who lost the unit.

    Cluster-backend failures carry provenance (which worker died, how
    many re-dispatches the unit survived, how many heartbeat intervals
    were missed); pool/serial failures leave those fields empty and
    render without them -- legacy manifests predating the fields parse
    the same way.
    """
    label = record.get("label") or f"unit {record.get('index', '?')}"
    parts = [f"{label}: {record.get('error', 'unknown error')}"]
    attempts = record.get("attempts")
    if attempts:
        parts.append(f"after {attempts} attempt(s)")
    worker = record.get("worker", "")
    if worker:
        detail = [f"last worker {worker}"]
        redispatches = record.get("redispatches", 0)
        if redispatches:
            detail.append(f"re-dispatched {redispatches}x")
        misses = record.get("heartbeat_misses", 0)
        if misses:
            detail.append(f"{misses} heartbeat miss(es)")
        parts.append(f"[{', '.join(detail)}]")
    return " ".join(parts)


def cmd_analyze_campaign(args) -> int:
    """Offline summary tables from a campaign's saved tensors.

    Loads ``manifest.json`` plus each point's compressed ``.npz``
    (written by ``campaign --save-tensors``) and prints a per-point
    final-count summary table -- mean / std / min / quartiles / max
    over the trial axis -- without re-running anything.
    """
    directory = Path(args.tensors_dir)
    if not directory.is_dir():
        print(f"no such directory: {directory}", file=sys.stderr)
        return 1
    try:
        manifest = load_manifest(directory)
    except FileNotFoundError:
        print(f"{directory} has no manifest.json (was the campaign run "
              f"with --save-tensors?)", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        print(f"invalid manifest: {exc}", file=sys.stderr)
        return 1
    points = manifest.get("points", [])
    provenance = manifest.get("provenance", {})
    print(f"campaign {manifest.get('campaign', '?')!r}: "
          f"{len(points)} point(s)"
          + (f", created {provenance['created']}"
             if "created" in provenance else ""))
    if manifest.get("complete") is False:
        print(f"note: campaign is incomplete; finish it with "
              f"`python -m repro campaign --resume {directory}`")
    import numpy as np

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
                print(f"  {_render_failure_provenance(record)}")
            failures += 1
            continue
        if not tensor_name:
            print(f"{label}: no tensor recorded")
            failures += 1
            continue
        path = directory / tensor_name
        if not path.is_file():
            print(f"{label}: missing tensor file {tensor_name}")
            failures += 1
            continue
        with np.load(path) as data:
            counts = data["counts"]          # (M, periods, S)
            states = [str(state) for state in data["states"]]
            periods = data["periods"]
            measured_messages = (
                data["total_messages"]
                if "total_messages" in data.files else None
            )
            point_json = (
                str(data["point_json"])
                if "point_json" in data.files else None
            )
        trials = counts.shape[0]
        print(f"{label}: {trials} trials x {counts.shape[1]} recorded "
              f"periods (last period {int(periods[-1])}), "
              f"tensor {tensor_name}")
        final = counts[:, -1, :]
        rows = []
        for index, state in enumerate(states):
            series = final[:, index]
            q25, q50, q75 = np.quantile(series, (0.25, 0.5, 0.75))
            rows.append((
                state,
                f"{series.mean():.1f}",
                f"{series.std():.1f}",
                f"{series.min():g}",
                f"{q25:g}", f"{q50:g}", f"{q75:g}",
                f"{series.max():g}",
            ))
        print(format_table(
            ["state", "mean", "std", "min", "q25", "median", "q75",
             "max"],
            rows,
        ))
        _print_message_check(
            point_json, counts, periods, states, measured_messages,
        )
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


def _campaign_spec_from_args(args) -> CampaignSpec:
    if args.config:
        # Grid axes come from the config file alone; rejecting axis
        # flags beats silently running with parameters the user thinks
        # they overrode.
        ignored = [
            flag for flag, values in (
                ("--protocol", args.protocol),
                ("--equations", args.equations),
                ("--n", args.n),
                ("--loss-rate", args.loss_rate),
                ("--scenario", args.scenario),
            ) if values
        ]
        if ignored:
            raise ValueError(
                f"{', '.join(ignored)} cannot be combined with --config; "
                f"edit the grid axes in the config file instead"
            )
        spec = CampaignSpec.from_json(Path(args.config).read_text())
        # Explicit flags override the config file's scalar settings.
        if args.name is not None:
            spec.name = args.name
        if args.trials is not None:
            spec.trials = args.trials
        if args.periods is not None:
            spec.periods = args.periods
        if args.seed is not None:
            spec.base_seed = args.seed
        if args.stride is not None:
            spec.stride = args.stride
        if args.shards is not None:
            spec.shards = args.shards
        return spec
    protocols = list(args.protocol) + list(args.equations)
    return CampaignSpec(
        name=args.name if args.name is not None else "campaign",
        protocols=protocols or ["epidemic-pull"],
        group_sizes=args.n or [1000],
        loss_rates=args.loss_rate or [0.0],
        scenarios=args.scenario or ["none"],
        trials=args.trials if args.trials is not None else 8,
        periods=args.periods if args.periods is not None else 100,
        base_seed=args.seed if args.seed is not None else 0,
        stride=args.stride if args.stride is not None else 1,
        shards=args.shards if args.shards is not None else 1,
    )


def _fault_policy_from_args(args) -> Optional[FaultPolicy]:
    overrides = {}
    if getattr(args, "heartbeat", None) is not None:
        overrides["heartbeat_seconds"] = args.heartbeat
    if getattr(args, "heartbeat_misses", None) is not None:
        overrides["heartbeat_misses"] = args.heartbeat_misses
    if getattr(args, "max_dispatches", None) is not None:
        overrides["max_dispatches"] = args.max_dispatches
    try:
        return FaultPolicy(
            on_error=args.on_error,
            retries=args.retries,
            timeout_seconds=args.unit_timeout,
            **overrides,
        )
    except ValueError as exc:
        raise SystemExit(f"invalid fault policy: {exc}")


def _add_backend_arguments(parser) -> None:
    """The executor-backend flags shared by ``run`` and ``campaign``."""
    parser.add_argument("--backend", choices=BACKENDS, default="pool",
                        help="work-unit executor: pool (default) is the "
                             "local process pool; cluster fans units "
                             "across process-isolated socket workers "
                             "with heartbeats, dead-worker re-dispatch "
                             "and elastic join (python -m repro worker) "
                             "-- results are bitwise identical either "
                             "way")
    parser.add_argument("--heartbeat", type=float, default=None,
                        metavar="SECONDS",
                        help="cluster backend: expected interval "
                             "between worker heartbeats (default 0.5)")
    parser.add_argument("--heartbeat-misses", type=int, default=None,
                        metavar="COUNT",
                        help="cluster backend: silent heartbeat "
                             "intervals before a worker is declared "
                             "dead and its unit re-dispatched "
                             "(default 4)")
    parser.add_argument("--max-dispatches", type=int, default=None,
                        metavar="COUNT",
                        help="cluster backend: workers a unit may be "
                             "dispatched to before its loss counts as "
                             "the unit's own terminal failure "
                             "(default 3)")


def cmd_worker(args) -> int:
    """Run one standalone cluster worker process (dials in over TCP)."""
    from .runtime.cluster import worker_main

    return worker_main(args.connect)


def cmd_campaign(args) -> int:
    if args.workers < 1:
        print(f"invalid campaign: workers must be >= 1, got {args.workers}",
              file=sys.stderr)
        return 1
    for label, path in (("--replay", args.replay), ("--config", args.config)):
        if path and not Path(path).is_file():
            print(f"{label}: no such file: {path}", file=sys.stderr)
            return 1
    if args.replay:
        # A replay re-runs the stored points exactly as recorded;
        # rejecting other flags beats silently replaying with
        # parameters the user thinks they overrode.
        conflicting = [
            flag for flag, present in (
                ("--config", bool(args.config)),
                ("--protocol", bool(args.protocol)),
                ("--equations", bool(args.equations)),
                ("--n", bool(args.n)),
                ("--loss-rate", bool(args.loss_rate)),
                ("--scenario", bool(args.scenario)),
                ("--name", args.name is not None),
                ("--trials", args.trials is not None),
                ("--periods", args.periods is not None),
                ("--seed", args.seed is not None),
                ("--stride", args.stride is not None),
                ("--shards", args.shards is not None),
                ("--workers", args.workers != 1),
                ("--out", bool(args.out)),
                ("--save-tensors", bool(args.save_tensors)),
                ("--dry-run", args.dry_run),
                ("--resume", bool(args.resume)),
                ("--on-error", args.on_error != "raise"),
                ("--unit-timeout", args.unit_timeout is not None),
            ) if present
        ]
        if conflicting:
            print(
                f"invalid campaign: {', '.join(conflicting)} cannot be "
                f"combined with --replay; a replay re-runs the stored "
                f"points exactly as recorded",
                file=sys.stderr,
            )
            return 1
        try:
            stored = CampaignResult.from_json(Path(args.replay).read_text())
        except (ValueError, KeyError, TypeError) as exc:
            print(f"invalid results file: {exc}", file=sys.stderr)
            return 1
        failures = 0
        for result in stored.results:
            try:
                ok = verify_replay(result)
            except (ValueError, KeyError) as exc:
                # e.g. a protocol/scenario registered at record time
                # but unknown in this process.
                print(f"cannot replay {result.point.label}: {exc}",
                      file=sys.stderr)
                return 1
            status = "reproduced" if ok else "MISMATCH"
            print(f"{result.point.label}: {status}")
            failures += int(not ok)
        if failures:
            print(f"{failures} of {len(stored.results)} points failed to replay")
            return 1
        print(f"all {len(stored.results)} points reproduced bit-for-bit")
        return 0

    def progress(result):
        top = max(result.summary, key=lambda s: result.summary[s]["mean"])
        print(f"  {result.point.label}: {result.elapsed_seconds:.2f}s, "
              f"dominant state {top} "
              f"(mean {result.summary[top]['mean']:.1f})")

    if args.resume:
        # A resume continues the checkpointed campaign exactly as its
        # manifest records it; rejecting grid/axis flags beats silently
        # resuming with parameters the user thinks they overrode.
        conflicting = [
            flag for flag, present in (
                ("--config", bool(args.config)),
                ("--protocol", bool(args.protocol)),
                ("--equations", bool(args.equations)),
                ("--n", bool(args.n)),
                ("--loss-rate", bool(args.loss_rate)),
                ("--scenario", bool(args.scenario)),
                ("--name", args.name is not None),
                ("--trials", args.trials is not None),
                ("--periods", args.periods is not None),
                ("--seed", args.seed is not None),
                ("--stride", args.stride is not None),
                ("--shards", args.shards is not None),
                ("--save-tensors", bool(args.save_tensors)),
                ("--dry-run", args.dry_run),
            ) if present
        ]
        if conflicting:
            print(
                f"invalid campaign: {', '.join(conflicting)} cannot be "
                f"combined with --resume; the campaign's parameters come "
                f"from the checkpointed manifest (only --workers, "
                f"--backend, --out and the fault-policy flags apply)",
                file=sys.stderr,
            )
            return 1
        directory = Path(args.resume)
        try:
            manifest = load_manifest(directory)
        except FileNotFoundError:
            print(f"{directory} has no manifest.json; only campaigns run "
                  f"with --save-tensors are resumable", file=sys.stderr)
            return 1
        except (ValueError, KeyError) as exc:
            print(f"invalid manifest: {exc}", file=sys.stderr)
            return 1
        try:
            spec = CampaignSpec.from_dict(manifest["spec"])
        except (KeyError, TypeError, ValueError) as exc:
            print(f"invalid manifest spec: {exc}", file=sys.stderr)
            return 1
        entries = manifest.get("points", [])
        done = sum(1 for e in entries if e.get("status") == "done")
        print(f"resuming campaign {spec.name!r} from {directory}: "
              f"{done} of {len(entries)} point(s) already complete")
        try:
            result = run_campaign(
                spec, workers=args.workers, progress=progress,
                resume=args.resume,
                fault_policy=_fault_policy_from_args(args),
                backend=args.backend,
            )
        except (ValueError, KeyError, RuntimeError) as exc:
            print(f"cannot resume: {exc}", file=sys.stderr)
            return 1
        print(f"campaign complete: {len(result.results)} point result(s) "
              f"in {directory}")
        if result.failures:
            print(f"{len(result.failures)} work unit(s) failed terminally "
                  f"and were skipped; re-run with --resume to retry them",
                  file=sys.stderr)
        if args.out:
            Path(args.out).write_text(result.to_json())
            print(f"wrote {len(result.results)} point results to {args.out}")
        return 1 if result.failures else 0

    try:
        spec = _campaign_spec_from_args(args)
        points = spec.expand()
    except (ValueError, KeyError, TypeError) as exc:
        print(f"invalid campaign: {exc}", file=sys.stderr)
        return 1
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
        spec, workers=args.workers, progress=progress,
        save_tensors=args.save_tensors,
        fault_policy=_fault_policy_from_args(args),
        backend=args.backend,
    )
    if args.out:
        Path(args.out).write_text(result.to_json())
        print(f"wrote {len(result.results)} point results to {args.out}")
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


def _load_event_script(path: Path) -> List["ScriptedEvent"]:
    from .service.service import ScriptedEvent

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


def cmd_serve(args) -> int:
    """Run a protocol population as a live service (see docs/service.md)."""
    import asyncio
    import signal

    import numpy as np

    from .service import (
        LiveConfig,
        LiveEngine,
        ProtocolService,
        ServiceCore,
        VirtualClock,
        WallClock,
        serve_tcp,
    )

    if args.virtual_clock and not args.max_periods:
        print("--virtual-clock needs --max-periods (virtual time has no "
              "external clients to wait for)", file=sys.stderr)
        return 1
    initial = _parse_bindings(args.initial, "initial") or None
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
        print(f"{args.protocol!r} is not a registered protocol; "
              f"available: {', '.join(available_protocols())}",
              file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"invalid service config: {exc}", file=sys.stderr)
        return 1
    script = []
    if args.events:
        try:
            script = _load_event_script(Path(args.events))
        except (OSError, ValueError, KeyError) as exc:
            print(f"cannot load event script {args.events}: {exc}",
                  file=sys.stderr)
            return 1
    try:
        core = ServiceCore(
            live, directory=Path(args.dir),
            snapshot_every=args.snapshot_every,
        )
    except FileExistsError as exc:
        print(f"{exc}", file=sys.stderr)
        return 1
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


def cmd_replay(args) -> int:
    """Replay a service directory and verify the logged state stream."""
    from .service import replay_directory
    from .store.eventlog import EventLogError
    from .store.snapshots import SnapshotError

    try:
        report = replay_directory(
            args.directory, from_snapshot=args.from_snapshot,
        )
    except FileNotFoundError as exc:
        print(f"not a service directory: {exc}", file=sys.stderr)
        return 1
    except (EventLogError, SnapshotError) as exc:
        print(f"cannot replay: {exc}", file=sys.stderr)
        return 1
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
        period = report.core.live.period if report.core else "?"
        print(f"final counts at period {period}: {counts}")
        print("replay verified: state stream is bit-identical to the log")
    return 0


# ----------------------------------------------------------------------
# Static analysis (repro.check)
# ----------------------------------------------------------------------
def _resolve_check_target(target: str, n: int):
    """A ``(spec, label)`` pair for a registry name or equations file.

    Registry names resolve through the campaign registry; anything
    else is treated as an equations file path.
    """
    from .campaign.registry import resolve_protocol

    if target in available_protocols():
        return resolve_protocol(target).resolve(n).spec, target
    return None, target


def cmd_check_spec(args) -> int:
    """Statically verify protocol specs (registry names or equations)."""
    from .check import (
        check_equations,
        check_spec,
        has_errors,
        render_findings,
    )

    targets = list(args.targets)
    if args.registry:
        targets = list(available_protocols()) + targets
    if not targets:
        print("nothing to check: pass equations files / protocol names "
              "or --registry", file=sys.stderr)
        return 2
    parameters = _parse_bindings(args.param, "param") or None
    failed = 0
    for target in targets:
        spec, label = _resolve_check_target(target, args.n)
        if spec is not None:
            findings = check_spec(spec, symbolic=True)
        else:
            spec, findings = check_equations(
                target,
                parameters=parameters,
                p=args.p,
                failure_rate=args.failure_rate,
                rewrite=not args.no_rewrite,
            )
        shown = findings if args.verbose else [
            f for f in findings if int(f.severity) > 0
        ]
        if shown or args.verbose:
            print(render_findings(shown, label=label))
        else:
            print(f"{label}: ok")
        if has_errors(findings):
            failed += 1
    if failed:
        print(f"{failed} of {len(targets)} target(s) failed "
              f"verification", file=sys.stderr)
    return 1 if failed else 0


def cmd_check_lint(args) -> int:
    """Run the determinism linter over source paths."""
    from .check import DEFAULT_ALLOWLIST, has_errors, render_findings
    from .check.lint import lint_paths

    paths = [Path(p) for p in (args.paths or ["src/repro"])]
    for path in paths:
        if not path.exists():
            print(f"no such path: {path}", file=sys.stderr)
            return 2
    allowlist = (
        Path(args.allowlist) if args.allowlist is not None
        else DEFAULT_ALLOWLIST
    )
    findings = lint_paths(paths, allowlist_path=allowlist)
    if findings:
        print(render_findings(findings, label="lint"))
    else:
        print("lint: clean")
    return 1 if has_errors(findings) else 0


def _render_period_program(spec, n: int) -> str:
    """What a batch-engine period of ``spec`` draws, action by action."""
    from .runtime.planner import ActionPlanner
    from .runtime.round_engine import _compile

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


def cmd_check_complexity(args) -> int:
    """Print the symbolic message-complexity model for a protocol."""
    from .check import message_model, symbolic_message_model

    spec, label = _resolve_check_target(args.target, args.n)
    if spec is None:
        try:
            protocol = Protocol.from_equations(
                args.target,
                parameters=_parse_bindings(args.param, "param") or None,
                p=args.p,
                failure_rate=args.failure_rate,
            )
        except (OSError, ParseError, SynthesisError, ValueError) as exc:
            print(f"cannot build {args.target!r}: {exc}", file=sys.stderr)
            return 1
        spec = protocol.resolve(args.n).spec
    model = message_model(spec)
    print(f"{label}: per-period message cost (N = {args.n})")
    try:
        print(symbolic_message_model(spec).render())
    except ImportError:
        print("(sympy unavailable: numeric model only)")
    print(format_table(
        ["state", "messages/process/period"],
        [(s, f"{c:g}") for s, c in model.per_state_cost().items()],
    ))
    print(_render_period_program(spec, args.n))
    fractions = _parse_bindings(args.fraction, "fraction")
    if fractions:
        expected = model.expected_messages(fractions, args.n)
        at = ", ".join(f"{k}={v:g}" for k, v in fractions.items())
        print(f"expected messages/period at ({at}): {expected:.1f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Translate differential equations into distributed "
                    "protocols (Gupta, PODC 2004).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run",
        help="equations (or a protocol name) -> ensemble results, "
             "engine tier auto-selected",
    )
    p_run.add_argument(
        "target",
        help="equations file (one equation per line; '# param:' "
             "directives supply default rates) or a registered "
             "protocol name",
    )
    p_run.add_argument("--param", action="append", default=[],
                       metavar="NAME=VALUE",
                       help="bind a rate symbol (overrides '# param:' "
                            "directives in the file)")
    p_run.add_argument("--n", type=int, default=10_000, help="group size")
    p_run.add_argument("--trials", type=int, default=16,
                       help="ensemble width M (default 16)")
    p_run.add_argument("--periods", type=int, default=200,
                       help="protocol periods per trial (default 200)")
    p_run.add_argument("--seed", type=int, default=None, help="root seed")
    p_run.add_argument("--engine", choices=ENGINES, default="auto",
                       help="engine tier (default auto: serial for one "
                            "trial, batch for ensembles; 'agent' runs "
                            "the ensemble on the asynchronous DES tier)")
    p_run.add_argument("--scenario", default=None,
                       help="failure scenario name (see campaign "
                            "--dry-run for the registry); makes the "
                            "equilibrium check informational (never "
                            "exit 1)")
    p_run.add_argument("--loss-rate", type=float, default=0.0,
                       help="per-connection failure rate f (equations "
                            "targets are failure-compensated for it)")
    p_run.add_argument("--initial", action="append", default=[],
                       metavar="STATE=COUNT",
                       help="initial counts, overriding the protocol's "
                            "own start (equations targets default to "
                            "the stable ODE equilibrium; registry "
                            "targets to their registered start)")
    p_run.add_argument("--p", type=float, default=None,
                       help="normalizing constant (equations targets; "
                            "default: auto)")
    p_run.add_argument("--stride", type=int, default=1,
                       help="record every stride-th period")
    p_run.add_argument("--workers", type=int, default=1,
                       help="processes to fan the trial axis across "
                            "(batch: trials split into "
                            "min(workers, trials) campaign-style shards, "
                            "and the shard count is part of the run's "
                            "stream identity; agent: whole trials fan "
                            "out, results are worker-independent)")
    p_run.add_argument("--on-error", choices=ON_ERROR_MODES,
                       default="raise",
                       help="work-unit fault policy on the execution "
                            "layer (agent and batch tiers): "
                            "raise aborts on the first unit failure, "
                            "retry re-runs the same payload with "
                            "capped backoff (bitwise identical), skip "
                            "keeps the surviving trials and reports "
                            "the losses")
    p_run.add_argument("--retries", type=int, default=2,
                       help="extra attempts per work unit under "
                            "--on-error retry/skip (default 2)")
    p_run.add_argument("--unit-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="wall-clock bound per work-unit attempt; "
                            "an expired attempt fails like any other "
                            "fault")
    _add_backend_arguments(p_run)
    p_run.add_argument("--show-protocol", action="store_true",
                       help="print the synthesized state machine")
    p_run.add_argument("--plot", action="store_true",
                       help="ASCII plot of the ensemble-mean counts")
    p_run.set_defaults(func=cmd_run)

    def common(p):
        p.add_argument("equations", help="file with one equation per line")
        p.add_argument("--param", action="append", default=[],
                       metavar="NAME=VALUE", help="bind a rate symbol")

    p_classify = sub.add_parser("classify", help="Section 2 taxonomy")
    common(p_classify)
    p_classify.set_defaults(func=cmd_classify)

    p_synth = sub.add_parser("synthesize", help="emit the protocol")
    common(p_synth)
    p_synth.add_argument("--p", type=float, default=None,
                         help="normalizing constant (default: auto)")
    p_synth.add_argument("--failure-rate", type=float, default=0.0,
                         help="per-connection failure rate f to compensate")
    p_synth.add_argument("--no-rewrite", action="store_true",
                         help="fail instead of auto-rewriting")
    p_synth.add_argument("--no-tokenize", action="store_true",
                         help="fail on terms that would need tokens")
    p_synth.set_defaults(func=cmd_synthesize)

    p_analyze = sub.add_parser(
        "analyze", help="equilibria and stability of the equations"
    )
    common(p_analyze)
    p_analyze.add_argument("--trajectory", action="store_true",
                           help="ASCII plot of one integrated trajectory")
    p_analyze.add_argument("--initial", action="append", default=[],
                           metavar="VAR=FRACTION",
                           help="start point for --trajectory")
    p_analyze.add_argument("--t-end", type=float, default=50.0,
                           help="integration horizon for --trajectory")
    p_analyze.set_defaults(func=cmd_analyze)

    p_sim = sub.add_parser("simulate", help="run the synthesized protocol")
    common(p_sim)
    p_sim.add_argument("--p", type=float, default=None)
    p_sim.add_argument("--failure-rate", type=float, default=0.0)
    p_sim.add_argument("--n", type=int, default=10_000, help="group size")
    p_sim.add_argument("--periods", type=int, default=100)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--initial", action="append", default=[],
                       metavar="STATE=COUNT",
                       help="initial counts (default: all in first state, "
                            "1 in second)")
    p_sim.add_argument("--plot", action="store_true",
                       help="ASCII plot of the state counts")
    p_sim.set_defaults(func=cmd_simulate)

    p_camp = sub.add_parser(
        "campaign",
        help="run a declarative experiment grid on the batch engine",
    )
    p_camp.add_argument("--config", help="JSON campaign spec file")
    p_camp.add_argument("--name", default=None,
                        help="campaign name (default 'campaign')")
    p_camp.add_argument("--protocol", action="append", default=[],
                        help="protocol name (repeatable; see --dry-run)")
    p_camp.add_argument("--equations", action="append", default=[],
                        metavar="FILE",
                        help="equations file added to the protocol axis "
                             "(repeatable; '# param:' directives supply "
                             "rates; resolved via resolve_protocol)")
    p_camp.add_argument("--n", action="append", type=int, default=[],
                        help="group size (repeatable)")
    p_camp.add_argument("--loss-rate", action="append", type=float,
                        default=[], help="connection failure rate (repeatable)")
    p_camp.add_argument("--scenario", action="append", default=[],
                        help="failure scenario name (repeatable)")
    p_camp.add_argument("--trials", type=int, default=None,
                        help="trials per point (default 8)")
    p_camp.add_argument("--periods", type=int, default=None,
                        help="periods per trial (default 100)")
    p_camp.add_argument("--seed", type=int, default=None,
                        help="campaign base seed (default 0)")
    p_camp.add_argument("--stride", type=int, default=None,
                        help="record every stride-th period (default 1)")
    p_camp.add_argument("--shards", type=int, default=None,
                        help="split each point's trial axis into this "
                             "many independently seeded sub-ensembles "
                             "(default 1; they fan out across --workers)")
    p_camp.add_argument("--workers", type=int, default=1,
                        help="processes to fan shards/points across")
    p_camp.add_argument("--out", help="write results JSON here")
    p_camp.add_argument("--save-tensors", metavar="DIR",
                        help="also write each point's full (M, periods, "
                             "states) count tensor as a compressed .npz "
                             "into this directory")
    p_camp.add_argument("--dry-run", action="store_true",
                        help="print the expanded grid and exit")
    p_camp.add_argument("--replay", metavar="RESULTS_JSON",
                        help="re-run a stored results file and verify it "
                             "reproduces bit-for-bit")
    p_camp.add_argument("--resume", metavar="DIR",
                        help="continue an interrupted campaign from the "
                             "manifest checkpointed in DIR (written by "
                             "--save-tensors): completed points are "
                             "restored, only missing ones re-run, and "
                             "the final results are bitwise identical "
                             "to an uninterrupted run")
    p_camp.add_argument("--on-error", choices=ON_ERROR_MODES,
                        default="raise",
                        help="work-unit fault policy: raise aborts the "
                             "campaign on the first failure (completed "
                             "points stay checkpointed), retry re-runs "
                             "the same unit payload with capped backoff "
                             "(bitwise identical), skip isolates the "
                             "failure to its point and completes the "
                             "rest")
    p_camp.add_argument("--retries", type=int, default=2,
                        help="extra attempts per work unit under "
                             "--on-error retry/skip (default 2)")
    p_camp.add_argument("--unit-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock bound per work-unit attempt")
    _add_backend_arguments(p_camp)
    p_camp.set_defaults(func=cmd_campaign)

    p_worker = sub.add_parser(
        "worker",
        help="run one standalone cluster worker that dials in to a "
             "--backend cluster coordinator (elastic mid-plan join)",
    )
    p_worker.add_argument("--connect", required=True, metavar="HOST:PORT",
                          help="coordinator address (pin the "
                               "coordinator's port with "
                               "REPRO_CLUSTER_PORT to make it known)")
    p_worker.set_defaults(func=cmd_worker)

    p_serve = sub.add_parser(
        "serve",
        help="run a protocol population continuously as a live service "
             "(event log + snapshots in --dir; newline-JSON over TCP)",
    )
    p_serve.add_argument("--protocol", required=True,
                         help="registry protocol name (the log must be "
                              "able to reconstruct the engine by name)")
    p_serve.add_argument("--n", type=int, default=1000, help="group size")
    p_serve.add_argument("--seed", type=int, default=None,
                         help="root seed (default: drawn and recorded "
                              "in the init event, so runs always replay)")
    p_serve.add_argument("--loss-rate", type=float, default=0.0,
                         help="per-connection failure rate")
    p_serve.add_argument("--initial", action="append", default=[],
                         metavar="STATE=COUNT",
                         help="initial counts, overriding the protocol's "
                              "registered start")
    p_serve.add_argument("--dir", required=True,
                         help="service state directory (events.jsonl + "
                              "snapshots); must not already hold a log")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0,
                         help="TCP port (default 0 = ephemeral, printed "
                              "on startup)")
    p_serve.add_argument("--no-listen", action="store_true",
                         help="no TCP endpoint; tick until --max-periods "
                              "or a signal")
    p_serve.add_argument("--tick-seconds", type=float, default=1.0,
                         help="clock seconds between protocol ticks")
    p_serve.add_argument("--periods-per-tick", type=int, default=1,
                         help="protocol periods advanced per tick")
    p_serve.add_argument("--snapshot-every", type=int, default=0,
                         help="checkpoint every this many periods "
                              "(0 = never)")
    p_serve.add_argument("--max-periods", type=int, default=0,
                         help="stop after this many periods (0 = run "
                              "until signalled)")
    p_serve.add_argument("--events", metavar="FILE",
                         help="scripted membership events: JSON list or "
                              "JSONL of {at_period, kind, ...} records, "
                              "applied when the period is reached")
    p_serve.add_argument("--virtual-clock", action="store_true",
                         help="drive ticks on a virtual clock as fast as "
                              "possible (deterministic batch mode; "
                              "needs --max-periods)")
    p_serve.set_defaults(func=cmd_serve)

    p_replay = sub.add_parser(
        "replay",
        help="replay a service directory's event log and verify the "
             "state stream reproduces bit-for-bit",
    )
    p_replay.add_argument("directory",
                          help="service directory written by 'serve'")
    p_replay.add_argument("--from-snapshot", action="store_true",
                          help="start from the latest intact snapshot "
                               "instead of the init record")
    p_replay.add_argument("--quiet", action="store_true",
                          help="no output; exit status only")
    p_replay.set_defaults(func=cmd_replay)

    p_analyze_campaign = sub.add_parser(
        "analyze-campaign",
        help="summarize a campaign's saved tensors "
             "(manifest.json + per-point .npz) offline",
    )
    p_analyze_campaign.add_argument(
        "tensors_dir",
        help="directory written by 'campaign --save-tensors'",
    )
    p_analyze_campaign.set_defaults(func=cmd_analyze_campaign)

    p_check = sub.add_parser(
        "check",
        help="static analysis: spec verifier, determinism linter, "
             "symbolic complexity model (no engine runs)",
    )
    check_sub = p_check.add_subparsers(dest="check_command", required=True)

    p_check_spec = check_sub.add_parser(
        "spec",
        help="verify specs: probability mass, conservation, "
             "reachability, mean-field consistency (exit 1 on errors)",
    )
    p_check_spec.add_argument(
        "targets", nargs="*",
        help="equations files and/or registry protocol names",
    )
    p_check_spec.add_argument(
        "--registry", action="store_true",
        help="also verify every registered protocol",
    )
    p_check_spec.add_argument("--n", type=int, default=1000,
                              help="group size used to resolve registry "
                                   "protocols (default 1000)")
    p_check_spec.add_argument("--param", action="append", default=[],
                              metavar="NAME=VALUE",
                              help="rate binding override (repeatable)")
    p_check_spec.add_argument("--p", type=float, default=None,
                              help="pin the normalizer instead of "
                                   "choosing it automatically")
    p_check_spec.add_argument("--failure-rate", type=float, default=0.0,
                              help="compensated connection failure rate")
    p_check_spec.add_argument("--no-rewrite", action="store_true",
                              help="fail instead of auto-rewriting "
                                   "unmappable systems")
    p_check_spec.add_argument("--verbose", action="store_true",
                              help="also print INFO findings")
    p_check_spec.set_defaults(func=cmd_check_spec)

    p_check_lint = check_sub.add_parser(
        "lint",
        help="determinism linter over source paths "
             "(default src/repro; exit 1 on errors)",
    )
    p_check_lint.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: src/repro)",
    )
    p_check_lint.add_argument("--allowlist", default=None,
                              help="allowlist file (default: "
                                   "tools/lint_allowlist.txt)")
    p_check_lint.set_defaults(func=cmd_check_lint)

    p_check_cx = check_sub.add_parser(
        "complexity",
        help="derive the per-period message-cost model from a spec",
    )
    p_check_cx.add_argument(
        "target",
        help="registry protocol name or equations file",
    )
    p_check_cx.add_argument("--n", type=int, default=1000,
                            help="group size (default 1000)")
    p_check_cx.add_argument("--param", action="append", default=[],
                            metavar="NAME=VALUE",
                            help="rate binding override (repeatable)")
    p_check_cx.add_argument("--p", type=float, default=None,
                            help="pin the normalizer")
    p_check_cx.add_argument("--failure-rate", type=float, default=0.0,
                            help="compensated connection failure rate")
    p_check_cx.add_argument("--fraction", action="append", default=[],
                            metavar="STATE=FRACTION",
                            help="evaluate expected messages/period at "
                                 "this state distribution (repeatable)")
    p_check_cx.set_defaults(func=cmd_check_complexity)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; the
        # conventional CLI response is a quiet exit, not a traceback.
        return 0


if __name__ == "__main__":
    sys.exit(main())
