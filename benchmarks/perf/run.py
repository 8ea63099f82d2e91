#!/usr/bin/env python3
"""The repository's benchmark: one command, seven workloads.

Contract form (one workload, one JSON object as the last line)::

    python3 benchmarks/perf/run.py --workload ensemble_dense --seed 1 \
        --seconds 8 --trace 0

Without ``--workload`` every workload runs in turn.  ``--trace 1`` makes
the separate traced run that prints the per-layer metrics, ``--selftest``
checks the harness against ``BENCHMARK.json`` at toy size, and
``--out FILE`` writes everything printed as JSON.  See README.md.

The parent process measures from outside: it starts each workload in a
fresh child interpreter (several times, to time set-up), reads what the
child measured, and prints.  Only the child imports ``repro``.  End-to-end
times are in reference seconds (see calibrate.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibrate import Probe, speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / ".out"

#: Fresh interpreters per run whose set-up is timed; ``setup_s`` is
#: their median.  The last one goes on to measure.
SETUPS = 3
#: Reference-loop passes on each side of a timed set-up.
SETUP_PROBES = 4
#: Reference-loop passes between two timed repetitions.
GAP_PROBES = 3
MIN_REPS = 3
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


def declaration() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quartiles(values):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


# ----------------------------------------------------------------------
# Child: the only process that imports repro
# ----------------------------------------------------------------------
def child_main(args) -> int:
    import resource

    import numpy
    import scipy

    from tracing import Tracer
    from workloads import WORKLOADS

    def emit(record: dict) -> None:
        sys.stdout.write(json.dumps(record) + "\n")
        sys.stdout.flush()

    def verdict(workload) -> dict:
        usage = [
            resource.getrusage(who).ru_maxrss
            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        ]
        return {
            "checks": workload.checks,
            "attempted": workload.attempted,
            "failed": workload.failed,
            # Linux reports kilobytes: this process plus its largest
            # reaped child (pool and cluster workers, CLI runs).
            "peak_rss_mb": sum(usage) / 1024.0,
            "versions": {
                "python": platform.python_version(),
                "numpy": numpy.__version__, "scipy": scipy.__version__,
            },
        }

    def timed(workload) -> dict:
        """Repetitions for ``--seconds``, the reference loop between them."""
        probe = Probe()

        def gap():
            return [probe.run() for _ in range(GAP_PROBES)]

        reps, probes = [], [gap()]
        started = perf_counter()
        while (len(reps) < MIN_REPS
               or perf_counter() - started < args.seconds):
            reps.append(workload.rep())
            probes.append(gap())
        workload.finish()
        workload.check(
            "ledger_repeats", all(r.exact == reps[0].exact for r in reps)
        )
        extras = {
            key: statistics.median(r.extra[key] for r in reps)
            for key in reps[0].extra
        }
        return {
            "reps": [[r.ops, r.seconds] for r in reps], "probes": probes,
            "work_unit": workload.work_unit,
            "ledger": reps[0].exact, "extra": extras,
        }

    def traced(workload) -> dict:
        """This workload's journey at full size, the others' at toy size.

        Every per-layer metric must be printed on every traced run; the
        rows of layers this workload never enters are measured on toy
        passes of the journeys that do, so each printed number is a
        measurement.  Claims on a workload use its own rows only.
        """
        path = Path(args.trace_out) if args.trace_out else (
            OUT / f"trace-{workload.name}-{args.seed}.jsonl"
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.unlink(missing_ok=True)
        tracer = Tracer(workload.name)
        metrics = workload.traced(tracer)
        own = sorted(metrics)
        spans = tracer.dump(path, scale="toy" if workload.toy else "full")
        for name, cls in WORKLOADS.items():
            if name == workload.name:
                continue
            other = cls(args.seed, toy=True)
            try:
                other.setup()
                tracer = Tracer(name)
                for key, value in other.traced(tracer).items():
                    metrics.setdefault(key, value)
                spans += tracer.dump(path, scale="toy")
            finally:
                other.close()
            workload.attempted += other.attempted
            workload.failed += other.failed
            for key, ok in other.checks.items():
                workload.checks[f"{name}.{key}"] = ok
        return {
            "layers": metrics, "own_rows": own,
            "trace_file": os.path.relpath(path, ROOT), "spans": spans,
        }

    for name in args.workload.split(","):
        workload = WORKLOADS[name](args.seed, toy=args.toy)
        try:
            workload.setup()
            emit({"ready": name})
            if args.setup_only:
                continue
            # The parent times the reference loop on an idle box first.
            sys.stdin.readline()
            result = traced(workload) if args.trace else timed(workload)
            result.update(verdict(workload))
            emit({"result": name, **result})
        finally:
            workload.close()
    return 0


# ----------------------------------------------------------------------
# Parent
# ----------------------------------------------------------------------
def child_env() -> dict:
    env = dict(os.environ)
    paths = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src")] + paths)
    # One numeric thread per process: the box has two cores and the
    # pool workloads already use both.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    # Whatever the program puts in a temporary directory stays inside
    # the checkout.
    OUT.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(OUT)
    return env


def run_child(names, args, probe=None, *, trace: int, setup_only: bool = False):
    """Start one child; yield ``(name, setup, result)`` per workload.

    ``setup`` is ``(wall seconds, host speed)``: process start to the
    workload being ready, and the reference loop timed by ``probe`` just
    before and just after (speed 1.0 without a probe).
    """
    command = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", ",".join(names), "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.toy:
        command.append("--toy")
    if setup_only:
        command.append("--setup-only")
    if args.trace_out:
        command += ["--trace-out", args.trace_out]

    def beside():
        return [probe.run() for _ in range(SETUP_PROBES)] if probe else []

    probes = beside()
    mark = perf_counter()
    # Its own process group, so that a failed child's pool and cluster
    # workers can be stopped with it.
    child = subprocess.Popen(
        command, env=child_env(), stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, text=True, cwd=str(ROOT),
        start_new_session=True,
    )
    try:
        for name in names:
            line = child.stdout.readline()
            wall = perf_counter() - mark
            if json.loads(line or "{}").get("ready") != name:
                raise RuntimeError(f"{name}: child failed during set-up")
            probes += beside()
            setup = (wall, speed(probes) if probes else 1.0)
            if setup_only:
                yield name, setup, None
                continue
            child.stdin.write("go\n")
            child.stdin.flush()
            line = child.stdout.readline()
            probes, mark = [], perf_counter()
            result = json.loads(line or "{}")
            if result.get("result") != name:
                raise RuntimeError(f"{name}: child failed while measuring")
            yield name, setup, result
        if child.wait() != 0:
            raise RuntimeError(f"child exited with {child.returncode}")
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:  # the group is already gone
            pass
        child.wait()
        child.stdin.close()
        child.stdout.close()


def provenance(args) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), text=True,
            capture_output=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "seed": args.seed, "seconds": args.seconds, "toy": args.toy,
        # Toy sizes exist to test the harness, never to compare commits.
        "comparable": not args.toy,
        "nproc": os.cpu_count(), "loadavg_at_start": os.getloadavg()[0],
        "platform": platform.platform(), "git_commit": commit,
        "threads_per_process": 1,
    }


def measure(name, args, declared) -> dict:
    """One workload, end to end: ``SETUPS`` fresh children, one measures."""
    probe = Probe()
    setups = []
    for _ in range(SETUPS - 1):
        setups += [setup for _n, setup, _r in run_child(
            [name], args, probe, trace=0, setup_only=True)]
    [(_name, setup, result)] = run_child([name], args, probe, trace=0)
    return summarize(name, setups + [setup], result, declared)


def summarize(name, setups, result, declared) -> dict:
    probes = result["probes"]
    # Each repetition ran between two gaps of reference-loop passes.
    speeds = [speed(before + after) for before, after in zip(probes, probes[1:])]
    wall_rates = [ops / seconds for ops, seconds in result["reps"]]
    samples = {
        "setup_s": [wall * host for wall, host in setups],
        "work_per_s": [rate / host for rate, host in zip(wall_rates, speeds)],
        "peak_rss_mb": [result["peak_rss_mb"]],
    }
    units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    return {
        "workload": name, "kind": "end_to_end", **verdict_of(result),
        "metrics": {
            key: {"value": statistics.median(samples[key]), "unit": units[key]}
            for key in units
        },
        "quartiles": {
            key: dict(zip(("q1", "median", "q3", "count"),
                          (*quartiles(samples[key]), len(samples[key]))))
            for key in units
        },
        "samples": samples,
        # The same, uncalibrated, and the host speed that relates them.
        "wall": {
            "setup_s": [wall for wall, _host in setups],
            "work_per_s": wall_rates,
            "host_speed": speeds,
            "probe_s": probes,
        },
        "work_unit": result["work_unit"],
        "ledger": result["ledger"], "extra": result["extra"],
        "versions": result["versions"],
    }


def measure_traced(name, args, declared) -> dict:
    [(_name, _setup, result)] = run_child([name], args, trace=1)
    return summarize_traced(name, result, declared)


def summarize_traced(name, result, declared) -> dict:
    units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    layers = result["layers"]
    missing = sorted(set(units) - set(layers))
    undeclared = sorted(set(layers) - set(units))
    if missing or undeclared:
        raise RuntimeError(
            f"{name}: traced run and BENCHMARK.json disagree "
            f"(missing {missing}, undeclared {undeclared})"
        )
    return {
        "workload": name, "kind": "per_layer", **verdict_of(result),
        "metrics": {
            key: {"value": layers[key], "unit": units[key]} for key in units
        },
        "own_rows": result["own_rows"], "trace_file": result["trace_file"],
        "spans": result["spans"], "versions": result["versions"],
    }


def verdict_of(result) -> dict:
    failed_checks = sorted(k for k, ok in result["checks"].items() if not ok)
    return {
        "correct": not failed_checks and result["failed"] == 0,
        "attempted": max(1, result["attempted"]),
        "failed": result["failed"],
        "error_share": result["failed"] / max(1, result["attempted"]),
        "checks": result["checks"], "failed_checks": failed_checks,
    }


def report(record: dict, stream=sys.stdout) -> None:
    """The human-readable part: every metric by name, with its unit."""
    w = record["workload"]
    print(f"== {w} ({record['kind']}) correct={record['correct']} "
          f"attempted={record['attempted']} failed={record['failed']} "
          f"error_share={record['error_share']:.6f}", file=stream)
    own = set(record.get("own_rows", record["metrics"]))
    for key, metric in record["metrics"].items():
        line = f"  {key:34s} {metric['value']:>16.6g} {metric['unit']}"
        q = record.get("quartiles", {}).get(key)
        if q:
            line += (f"   q1={q['q1']:.6g} q3={q['q3']:.6g} n={q['count']}")
        if key not in own:
            line += "   (toy pass of another workload)"
        print(line, file=stream)
    if record["kind"] == "end_to_end":
        wall = record["wall"]
        print(f"  work_per_s counts {record['work_unit']}; wall clock: "
              f"setup_s {statistics.median(wall['setup_s']):.6g}, "
              f"work_per_s {statistics.median(wall['work_per_s']):.6g}, "
              f"host speed {statistics.median(wall['host_speed']):.3f}",
              file=stream)
        for key, value in record["extra"].items():
            print(f"  extra  {key:27s} {value:>16.6g}  (wall clock)",
                  file=stream)
        for key, value in record["ledger"].items():
            print(f"  ledger {key:27s} {value:>16d}", file=stream)
    else:
        print(f"  {record['spans']} spans in {record['trace_file']}",
              file=stream)
    for key in record["failed_checks"]:
        print(f"  FAILED CHECK {key}", file=stream)


def contract_line(record: dict) -> str:
    return json.dumps({
        key: record[key]
        for key in ("correct", "attempted", "failed", "metrics")
    })


def selftest(args, declared) -> int:
    """Every workload at toy size against what BENCHMARK.json declares."""
    args.toy, args.seconds = True, 0.2
    names = [w["name"] for w in declared["workloads"]]
    problems = []
    declared_names = names + [
        m["name"] for m in declared["end_to_end"] + declared["per_layer"]
    ]
    problems += [f"bad name {n!r}" for n in declared_names if not NAME.match(n)]
    problems += [f"name {n!r} used twice" for n in set(declared_names)
                 if declared_names.count(n) > 1]
    records = [
        summarize(name, [setup], result, declared)
        for name, setup, result in run_child(names, args, trace=0)
    ]
    # One traced run prints every per-layer metric (see ``traced``).
    records.append(measure_traced(names[0], args, declared))
    for record in records:
        report(record)
        kind = record["kind"]
        want = {m["name"]: m["unit"] for m in declared[kind]}
        got = {k: v["unit"] for k, v in record["metrics"].items()}
        if got != want:
            problems.append(f"{record['workload']}: {kind} metrics differ "
                            f"from the declaration")
        if not record["correct"]:
            problems.append(f"{record['workload']}: checks failed "
                            f"{record['failed_checks']}")
    if sorted(r["workload"] for r in records[:-1]) != sorted(names):
        problems.append("not every workload ran exactly once")
    for problem in problems:
        print("SELFTEST PROBLEM:", problem)
    print(json.dumps({"selftest": "failed" if problems else "passed",
                      "comparable": False, "problems": problems}))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="workload inputs derive from this and the name")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed window (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = the traced run (per-layer metrics)")
    parser.add_argument("--trace-out", help="span file (default: .out/)")
    parser.add_argument("--out", help="also write everything as JSON")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--toy", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no src/repro under {ROOT}: nothing to measure",
              file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    declared = declaration()
    if args.seconds is None:
        args.seconds = float(declared["run_seconds"])
    if args.selftest:
        return selftest(args, declared)
    names = [w["name"] for w in declared["workloads"]]
    if args.workload:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; one of {names}")
        names = [args.workload]
    run = measure_traced if args.trace else measure
    document = {"provenance": provenance(args), "runs": []}
    print(f"# seed={args.seed} " + " ".join(
        f"{k}={v}" for k, v in document["provenance"].items() if k != "seed"))
    for name in names:
        try:
            record = run(name, args, declared)
        except RuntimeError as error:  # the child's traceback is above
            print(f"run.py: {error}", file=sys.stderr)
            return 1
        document["runs"].append(record)
        report(record)
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=2) + "\n")
    records = document["runs"]
    if len(records) == 1:
        print(contract_line(records[0]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": {r["workload"]: r["metrics"] for r in records},
        }))
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
