"""The seven benchmark workloads and their traced journeys.

Every workload drives ``src/repro`` through public functions only and
measures from outside; see README.md for why each is here and which
layer metric should move which end-to-end metric.

A workload object lives in one child interpreter::

    w = WORKLOADS[name](seed, toy=False)
    w.setup()            # everything before the first timed operation
    w.rep() ...          # timed repetitions, all replaying one seed
    w.finish()           # untimed correctness checks
    w.traced(tracer)     # the separate traced run (per-layer metrics)
    w.close()

``toy=True`` shrinks every size so that the self-test, and the layer
rows a traced run borrows from the other workloads, finish in seconds.
"""

from __future__ import annotations

import asyncio
import json
import pickle
import shutil
import statistics
import subprocess
import sys
import tempfile
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.campaign import (
    CampaignSpec, load_manifest, run_campaign, run_point, verify_replay,
)
from repro.check import error_findings, message_model, verify_spec
from repro.experiment import (
    Experiment, ExperimentResult, Protocol, parse_param_directives,
)
from repro.odes import auto_rewrite, classify, find_equilibria, parse_system
from repro.protocols.endemic import EndemicParams, figure1_protocol
from repro.protocols.lv import LVEnsemble
from repro.runtime.batch_engine import BatchMetricsRecorder, BatchRoundEngine
from repro.runtime.cluster import ClusterCoordinator
from repro.runtime.exec import ExecutionPlan, FaultPolicy, WorkUnit, run_plan
from repro.runtime.parallel import ShardedBatchExecutor, shard_layout
from repro.runtime.planner import TrialMemberPools
from repro.service import (
    LiveConfig, LiveEngine, ProtocolService, ServiceClient, ServiceCore,
    replay_directory, serve_tcp,
)
from repro.store import (
    EVENTS_NAME, EventLog, load_snapshot, read_events, save_snapshot,
)
from repro.synthesis import synthesize

from tracing import Tracer

ROOT = Path(__file__).resolve().parents[2]

TRACED_REPS = 3


def derive_seed(seed: int, name: str) -> int:
    """The workload's own seed: a function of ``--seed`` and its name."""
    return zlib.crc32(f"{seed}:{name}".encode())


def crc(array) -> int:
    return zlib.crc32(np.ascontiguousarray(array).tobytes())


def median(values) -> float:
    return float(statistics.median(values))


def movers(recorder: BatchMetricsRecorder) -> int:
    """Hosts that changed state, over every trial, period and edge."""
    return sum(
        int(recorder.transition_tensor(edge).sum())
        for edge in recorder.edges_seen()
    )


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q))


@dataclass
class Rep:
    """One timed repetition: work done, time taken, repeatable counts."""

    ops: int
    seconds: float
    #: Counts that must repeat exactly for one seed (the ledger).
    exact: Dict[str, int] = field(default_factory=dict)
    #: Secondary measurements, printed but not part of the contract.
    extra: Dict[str, float] = field(default_factory=dict)


class Workload:
    name = ""
    #: What one unit of ``work_per_s`` is.
    work_unit = ""
    FULL: Dict[str, Any] = {}
    TOY: Dict[str, Any] = {}

    def __init__(self, seed: int, toy: bool = False):
        self.seed = derive_seed(seed, self.name)
        self.toy = toy
        self.p = self.TOY if toy else self.FULL
        self.checks: Dict[str, bool] = {}
        self.attempted = 0
        self.failed = 0
        self._tmp: Optional[Path] = None

    # -- bookkeeping ---------------------------------------------------
    def check(self, name: str, ok: bool, ops: int = 1, bad: int = 0) -> None:
        """Record a correctness check covering ``ops`` operations.

        ``bad`` of them failed (at least one when the check did), and
        every failed operation counts into ``failed``.
        """
        self.attempted += ops
        self.failed += max(bad, 0 if ok else 1)
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    def tmpdir(self) -> Path:
        """A fresh directory under ``TMPDIR``, which the harness points
        into the checkout (``run.child_env``)."""
        if self._tmp is None:
            self._tmp = Path(tempfile.mkdtemp(prefix=self.name + "-"))
        return Path(tempfile.mkdtemp(dir=self._tmp))

    def close(self) -> None:
        if self._tmp is not None:
            shutil.rmtree(self._tmp, ignore_errors=True)
            self._tmp = None

    # -- the contract --------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def rep(self) -> Rep:
        raise NotImplementedError

    def finish(self) -> None:
        """Untimed correctness checks that need no repetition."""

    def traced(self, tracer: Tracer) -> Dict[str, float]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# Batch-engine ensembles through the Experiment facade
# ----------------------------------------------------------------------
class _Ensemble(Workload):
    work_unit = "trial-periods"

    def make_protocol(self) -> Protocol:
        raise NotImplementedError

    def check_result(self, result: ExperimentResult, tensor) -> None:
        """Workload-specific output check."""

    def experiment(self, periods: Optional[int] = None) -> Experiment:
        return Experiment(
            self.protocol, n=self.p["n"], trials=self.p["trials"],
            periods=periods or self.p["periods"], seed=self.seed,
        )

    def setup(self) -> None:
        self.protocol = self.make_protocol()
        self.experiment(periods=self.p["warm"]).run()

    def facade(self):
        started = perf_counter()
        result = self.experiment().run()
        seconds = perf_counter() - started
        tensor = result.recorder.count_tensor()
        self.check(
            "population_conserved",
            bool((tensor.sum(axis=2) == self.p["n"]).all()),
        )
        self.check_result(result, tensor)
        return result, tensor, seconds

    def rep(self) -> Rep:
        result, tensor, seconds = self.facade()
        return Rep(
            ops=self.p["trials"] * self.p["periods"], seconds=seconds,
            exact={
                "counts_crc32": crc(tensor),
                "batch_engine.movers": movers(result.recorder),
            },
        )

    # -- traced --------------------------------------------------------
    def traced_run(self, tracer: Tracer):
        """``Experiment.run`` made call by call, each in a span."""
        n, trials, periods = self.p["n"], self.p["trials"], self.p["periods"]
        root = tracer.begin("experiment.run")
        resolved = self.protocol.resolve(n)
        with tracer.span("check.verify"):
            self.protocol.verify(n)
        with tracer.span("batch_engine.construct"):
            engine = BatchRoundEngine(
                resolved.spec, n=n, trials=trials, initial=resolved.initial,
                seed=self.seed, connection_failure_rate=0.0, mode="batch",
            )
        recorder = BatchMetricsRecorder(resolved.spec.states, trials)
        for period in range(periods + 1):
            if period:
                tracer.begin("batch_engine.step")
                engine.step()
                tracer.end()
            tracer.begin("batch_engine.counts")
            counts, alive = engine.counts_matrix(), engine.alive_counts()
            tracer.end()
            tracer.begin("batch_engine.record")
            recorder.record(
                engine.period, counts, alive,
                transitions=engine.last_transitions,
            )
            tracer.end()
        result = ExperimentResult(
            spec=resolved.spec, n=n, trials=trials, periods=periods,
            engine="batch", trial_seeds=list(engine.trial_seeds),
            elapsed_seconds=0.0, protocol=self.protocol, recorder=recorder,
        )
        tracer.end()
        return root, engine, result

    def traced(self, tracer: Tracer) -> Dict[str, float]:
        periods = self.p["periods"]
        facade_walls, traced_walls, roots, ledgers = [], [], [], []
        for rep in range(TRACED_REPS):
            tracer.rep = rep
            _result, tensor, seconds = self.facade()
            facade_walls.append(seconds)
            root, engine, result = self.traced_run(tracer)
            roots.append(root)
            traced_walls.append(tracer.duration(root))
            recorder = result.recorder
            self.check(
                "traced_equals_facade",
                np.array_equal(recorder.count_tensor(), tensor),
            )
            self.check("trace_accounted", abs(tracer.accounted(root) - 1) < 0.05)
            ledgers.append({
                "batch_engine.messages": int(engine.total_messages.sum()),
                "batch_engine.movers": movers(recorder),
            })
        self.check("ledger_repeats", all(l == ledgers[0] for l in ledgers))
        selfs = [tracer.self_times(root) for root in roots]

        def per_period(name: str) -> float:
            return median(sum(s[name]) / periods for s in selfs) * 1e6

        step_s = median(sum(s["batch_engine.step"]) for s in selfs)
        spec = result.spec
        metrics = dict(ledgers[0])
        metrics.update({
            "experiment.facade_self_ms":
                median(s["experiment.run"][0] for s in selfs) * 1e3,
            "batch_engine.construct_ms":
                median(s["batch_engine.construct"][0] for s in selfs) * 1e3,
            "batch_engine.step_us": per_period("batch_engine.step"),
            "batch_engine.counts_us": per_period("batch_engine.counts"),
            "batch_engine.record_us": per_period("batch_engine.record"),
            "batch_engine.us_per_mover":
                step_s * 1e6 / max(1, metrics["batch_engine.movers"]),
            "trace.overhead_share":
                median(traced_walls) / median(facade_walls) - 1.0,
        })
        tracer.rep = 0
        layers = tracer.begin(self.name + ".layers")
        with tracer.span("check.spec") as index:
            findings = verify_spec(spec, label=self.name)
        metrics["check.spec_ms"] = tracer.duration(index) * 1e3
        self.check("spec_has_no_errors", not error_findings(findings))
        with tracer.span("check.complexity") as index:
            predicted = message_model(spec).predict_total(tensor)[0].sum()
        metrics["check.complexity_ms"] = tracer.duration(index) * 1e3
        metrics["check.predicted_messages"] = float(predicted)
        with tracer.span("experiment.equilibrium_check") as index:
            result.equilibrium_check()
        metrics["experiment.equilibrium_check_ms"] = tracer.duration(index) * 1e3
        with tracer.span("experiment.render") as index:
            result.render_summary()
        metrics["experiment.render_ms"] = tracer.duration(index) * 1e3
        with tracer.span("batch_engine.merge") as index:
            BatchMetricsRecorder.merge([recorder, recorder])
        metrics["batch_engine.merge_ms"] = tracer.duration(index) * 1e3
        metrics.update(self.pool_layer(
            tracer, layers, metrics["batch_engine.movers"] // periods
        ))
        metrics.update(self.more_layers(tracer))
        tracer.end()
        return metrics

    def more_layers(self, tracer: Tracer) -> Dict[str, float]:
        return {}

    def pool_layer(
        self, tracer: Tracer, root: int, per_period: int
    ) -> Dict[str, float]:
        """``TrialMemberPools`` driven with this workload's mover count.

        ``per_period`` hosts, spread over the trials, leave state 0 for
        state 1 and come back, through the same fused calls the engine
        makes once per period.
        """
        n, trials = self.p["n"], self.p["trials"]
        per_period = max(1, min(per_period, trials * n // 4))
        share, extra = divmod(per_period, trials)
        rng = np.random.default_rng(self.seed)
        states = (rng.random(trials * n) < 0.5).astype(np.int64)
        pools = TrialMemberPools([0, 1], trials, n, states)
        for _ in range(self.p["pool_rounds"]):
            for source, target in ((0, 1), (1, 0)):
                tracer.begin("planner.pools_grouped")
                grouped, bounds = pools.grouped(source)
                tracer.end()
                # Trial-grouped picks, as the engine's mover batches are.
                picks = np.concatenate([
                    grouped[bounds[m]:bounds[m] + share + (m < extra)]
                    for m in range(trials)
                ]).astype(np.int64)
                tracer.begin("planner.pools_remove")
                pools.remove_many([(source, [picks])])
                tracer.end()
                tracer.begin("planner.pools_add")
                pools.add_many([(target, [picks])])
                tracer.end()
        return {
            f"planner.{name}_us": median(
                tracer.durations(root, f"planner.{name}")
            ) * 1e6
            for name in ("pools_remove", "pools_add", "pools_grouped")
        }


class EnsembleDense(_Ensemble):
    name = "ensemble_dense"
    FULL = dict(n=10_000, trials=32, periods=500, warm=10, pool_rounds=100,
                cli=["--n", "10000", "--trials", "16"], cli_reps=3)
    # The toy CLI population is large enough that its equilibrium check
    # (exit 1 on FAIL) passes on every seed.
    TOY = dict(n=1000, trials=4, periods=20, warm=2, pool_rounds=5,
               cli=["--n", "2000", "--trials", "8", "--periods", "100"],
               cli_reps=1)
    EQUATIONS = ROOT / "examples" / "endemic.txt"

    def make_protocol(self) -> Protocol:
        return Protocol.from_equations(self.EQUATIONS)

    def check_result(self, result, tensor) -> None:
        if not self.toy:  # the toy run is too short to sit at equilibrium
            self.check(
                "equilibrium_not_fail",
                result.equilibrium_check().status != "FAIL",
            )

    def more_layers(self, tracer: Tracer) -> Dict[str, float]:
        """The layers only the equations-file journey enters."""
        metrics: Dict[str, float] = {}
        text = self.EQUATIONS.read_text()
        bound = parse_param_directives(text)

        def timed(name: str, call: Callable, key: str):
            with tracer.span(name) as index:
                out = call()
            metrics[key] = tracer.duration(index) * 1e6
            return out

        system = timed(
            "odes.parse", lambda: parse_system(text, parameters=bound),
            "odes.parse_us",
        )
        timed("odes.classify", lambda: classify(system), "odes.classify_us")
        timed("odes.rewrite", lambda: auto_rewrite(system), "odes.rewrite_us")
        timed(
            "odes.equilibria", lambda: find_equilibria(system),
            "odes.equilibria_us",
        )
        timed("synthesis.map", lambda: synthesize(system), "synthesis.map_us")
        # Child interpreters inherit this one's environment, which the
        # harness already pinned (PYTHONPATH, one numeric thread).
        with tracer.span("main.import_probe"):
            probe = subprocess.run(
                [sys.executable, "-c", _IMPORT_PROBE],
                capture_output=True, text=True, check=True,
            )
        imports = json.loads(probe.stdout)
        metrics["main.import_repro_s"] = imports["repro"]
        metrics["main.import_main_s"] = imports["main"]
        walls = []
        for _ in range(self.p["cli_reps"]):
            with tracer.span("main.cli_run") as index:
                done = subprocess.run(
                    [sys.executable, "-m", "repro", "run",
                     str(self.EQUATIONS), *self.p["cli"],
                     "--seed", str(self.seed)],
                    capture_output=True, text=True,
                )
            walls.append(tracer.duration(index))
            self.check("cli_exit_0", done.returncode == 0)
        metrics["main.cli_run_s"] = median(walls)
        return metrics


_IMPORT_PROBE = """
import json, time
t0 = time.perf_counter()
import repro
t1 = time.perf_counter()
import repro.__main__
t2 = time.perf_counter()
print(json.dumps({"repro": t1 - t0, "main": t2 - t0}))
"""


class EnsembleSparse(_Ensemble):
    name = "ensemble_sparse"
    FULL = dict(n=10_000, trials=32, periods=8000, warm=20, pool_rounds=100)
    TOY = dict(n=1000, trials=4, periods=50, warm=2, pool_rounds=5)
    PARAMS = EndemicParams(alpha=1e-6, gamma=1e-3, b=2)

    def make_protocol(self) -> Protocol:
        return Protocol.from_spec(
            figure1_protocol(self.PARAMS),
            self.PARAMS.equilibrium_counts(self.p["n"]),
        )


class EpidemicSpread(_Ensemble):
    name = "epidemic_spread"
    FULL = dict(n=100_000, trials=16, periods=30, warm=2, pool_rounds=20)
    TOY = dict(n=5000, trials=4, periods=30, warm=2, pool_rounds=5)

    def make_protocol(self) -> Protocol:
        return Protocol.named("epidemic-push-pull")

    def check_result(self, result, tensor) -> None:
        infected = result.states.index("y")
        self.check(
            "epidemic_saturates",
            bool((tensor[:, -1, infected] == self.p["n"]).all()),
        )


# ----------------------------------------------------------------------
# LV majority selection
# ----------------------------------------------------------------------
class LVMajority(Workload):
    name = "lv_majority"
    work_unit = "selections"
    FULL = dict(n=10_000, trials=128, max_periods=1040)
    TOY = dict(n=2000, trials=8, max_periods=1040)

    def ensemble(self) -> LVEnsemble:
        n = self.p["n"]
        zeros = n * 6 // 10
        return LVEnsemble(
            n, zeros=zeros, ones=n - zeros, trials=self.p["trials"], p=0.01,
            seed=self.seed,
        )

    def setup(self) -> None:
        self.ensemble().run(10)

    def facade(self):
        ensemble = self.ensemble()
        started = perf_counter()
        outcome = ensemble.run(self.p["max_periods"])
        seconds = perf_counter() - started
        tensor = outcome.recorder.count_tensor()
        self.check(
            "population_conserved",
            bool((tensor.sum(axis=2) == self.p["n"]).all()),
        )
        self.check("lv_accuracy_1", outcome.accuracy() == 1.0)
        return ensemble, outcome, tensor, seconds

    def rep(self) -> Rep:
        ensemble, _outcome, tensor, seconds = self.facade()
        periods = int(ensemble.engine.period)
        return Rep(
            ops=self.p["trials"], seconds=seconds,
            exact={
                "lv.periods_to_converge": periods,
                "counts_crc32": crc(tensor),
            },
            extra={"trial_periods_per_s": self.p["trials"] * periods / seconds},
        )

    def traced_run(self, tracer: Tracer):
        """``LVEnsemble.run`` made call by call, each in a span."""
        ensemble = self.ensemble()
        engine, trials = ensemble.engine, self.p["trials"]
        root = tracer.begin("lv.run")
        recorder = BatchMetricsRecorder(
            ensemble.spec.states, trials, track_transitions=False
        )
        convergence = np.full(trials, -1, dtype=np.int64)
        done = np.zeros(trials, dtype=bool)
        for period in range(self.p["max_periods"] + 1):
            if period:
                tracer.begin("batch_engine.step")
                engine.step()
                tracer.end()
                tracer.begin("batch_engine.counts")
                counts, alive = engine.counts_matrix(), engine.alive_counts()
                tracer.end()
                tracer.begin("batch_engine.record")
                recorder.record(engine.period, counts, alive)
                tracer.end()
            tracer.begin("lv.converged_check")
            newly = (ensemble.converged_winners() != "") & ~done
            tracer.end()
            convergence[newly] = engine.period
            done[newly] = True
            if not period:
                recorder.record(
                    0, engine.counts_matrix(), engine.alive_counts()
                )
            if done.all():
                break
        tracer.end()
        return root, engine, recorder, convergence

    def traced(self, tracer: Tracer) -> Dict[str, float]:
        facade_walls, traced_walls, selfs, periods = [], [], [], []
        for rep in range(TRACED_REPS):
            tracer.rep = rep
            _ensemble, outcome, tensor, seconds = self.facade()
            facade_walls.append(seconds)
            root, engine, recorder, convergence = self.traced_run(tracer)
            traced_walls.append(tracer.duration(root))
            selfs.append(tracer.self_times(root))
            periods.append(int(engine.period))
            self.check("traced_equals_facade", bool(
                np.array_equal(recorder.count_tensor(), tensor)
                and np.array_equal(convergence, outcome.convergence_periods)
            ))
            self.check("trace_accounted", abs(tracer.accounted(root) - 1) < 0.05)
        self.check("ledger_repeats", len(set(periods)) == 1)

        def per_period(name: str) -> float:
            return median(sum(s[name]) / periods[0] for s in selfs) * 1e6

        return {
            "lv.periods_to_converge": periods[0],
            "lv.converged_check_us": per_period("lv.converged_check"),
            "lv.selections_per_s": self.p["trials"] / median(facade_walls),
            "batch_engine.step_us": per_period("batch_engine.step"),
            "batch_engine.counts_us": per_period("batch_engine.counts"),
            "batch_engine.record_us": per_period("batch_engine.record"),
            "trace.overhead_share":
                median(traced_walls) / median(facade_walls) - 1.0,
        }


# ----------------------------------------------------------------------
# A sharded campaign on the pool backend
# ----------------------------------------------------------------------
class CampaignSharded(Workload):
    name = "campaign_sharded"
    work_unit = "shard units"
    FULL = dict(group_sizes=[2000, 10_000], trials=32, periods=300)
    TOY = dict(group_sizes=[200, 400], trials=4, periods=10)
    WORKERS = 2

    def spec(self, **overrides) -> CampaignSpec:
        fields = dict(
            name="perf", protocols=["endemic", "lv"],
            group_sizes=self.p["group_sizes"], loss_rates=[0.0, 0.1],
            scenarios=["none"], trials=self.p["trials"],
            periods=self.p["periods"], shards=2, base_seed=self.seed,
        )
        fields.update(overrides)
        return CampaignSpec(**fields)

    def setup(self) -> None:
        self.campaign = self.spec()
        self.units = len(self.campaign.expand()) * self.campaign.shards
        run_campaign(
            self.spec(trials=2, periods=2), workers=self.WORKERS,
            save_tensors=str(self.tmpdir()),
        )
        self.last = None

    @staticmethod
    def fingerprint(result) -> int:
        return zlib.crc32(json.dumps([
            [r.trial_seeds, r.final_counts, r.mean_trajectory]
            for r in result.results
        ]).encode())

    def facade(self, workers: int, directory: Optional[Path]):
        started = perf_counter()
        result = run_campaign(
            self.campaign, workers=workers,
            save_tensors=None if directory is None else str(directory),
        )
        seconds = perf_counter() - started
        points = self.campaign.expand()
        self.check(
            "all_points_landed",
            len(result.results) == len(points) and not result.failures,
        )
        self.check("population_conserved", all(
            sum(r.final_counts[s][m] for s in r.states) == r.point.n
            for r in result.results for m in range(r.point.trials)
        ))
        return result, seconds

    def rep(self) -> Rep:
        directory = self.tmpdir()
        result, seconds = self.facade(self.WORKERS, directory)
        if self.last is not None:
            shutil.rmtree(self.last[1], ignore_errors=True)
        self.last = (result, directory)
        return Rep(
            ops=self.units, seconds=seconds,
            exact={
                "results_crc32": self.fingerprint(result),
                "campaign.tensor_bytes": sum(
                    f.stat().st_size for f in directory.glob("*.npz")
                ),
            },
        )

    def finish(self) -> None:
        result, _directory = self.last
        serial, _seconds = self.facade(1, None)
        self.check(
            "workers_2_equals_workers_1",
            self.fingerprint(serial) == self.fingerprint(result),
        )
        self.check("verify_replay", verify_replay(result.results[0]))

    def traced(self, tracer: Tracer) -> Dict[str, float]:
        spec = self.campaign
        facade_walls, traced_walls, point_ms, expand_ms = [], [], [], []
        pooled_dir = self.tmpdir()
        pooled, _seconds = self.facade(self.WORKERS, pooled_dir)
        for rep in range(TRACED_REPS):
            tracer.rep = rep
            serial, seconds = self.facade(1, None)
            facade_walls.append(seconds)
            root = tracer.begin("campaign.run")
            with tracer.span("campaign.expand") as index:
                points = spec.expand()
            expand_ms.append(tracer.duration(index) * 1e3)
            results = []
            for point in points:
                tracer.begin("campaign.run_point")
                results.append(run_point(point))
                point_ms.append(tracer.end() * 1e3)
            tracer.end()
            traced_walls.append(tracer.duration(root))
            traced_result = replace(serial, results=results)
            self.check("traced_equals_facade", (
                self.fingerprint(traced_result) == self.fingerprint(serial)
                == self.fingerprint(pooled)
            ))
            self.check("trace_accounted", abs(tracer.accounted(root) - 1) < 0.05)
        tracer.rep = 0
        tracer.begin(self.name + ".layers")

        def timed(name: str, call: Callable):
            with tracer.span(name) as index:
                out = call()
            return out, tracer.duration(index)

        _, resume_s = timed("campaign.resume_noop", lambda: run_campaign(
            spec, workers=self.WORKERS, resume=str(pooled_dir)
        ))
        manifest, load_s = timed(
            "campaign.load_manifest", lambda: load_manifest(pooled_dir)
        )
        self.check("manifest_complete", manifest["complete"] is True)
        replayed, replay_s = timed(
            "campaign.verify_replay", lambda: verify_replay(pooled.results[0])
        )
        self.check("verify_replay", replayed)

        # The campaign's work units, rebuilt from public pieces: one
        # single-shard point per (point, shard), run by ``run_point``.
        shard_points = [
            replace(point, trials=size, seed=seed, shards=1)
            for point in points
            for size, seed in shard_layout(point.seed, point.trials, point.shards)
        ]
        payload_bytes = sum(
            len(pickle.dumps((run_point, shard))) for shard in shard_points
        )
        largest = max(points, key=lambda p: (p.n, p.loss_rate, p.protocol))
        resolved = Protocol.named(largest.protocol).resolve(largest.n)
        sharded = {}
        for workers in (1, 2):
            executor = ShardedBatchExecutor(
                resolved.spec, n=largest.n, trials=largest.trials,
                initial=resolved.initial, seed=largest.seed,
                connection_failure_rate=largest.loss_rate,
                shards=2, workers=workers,
            )
            out, sharded[workers] = timed(
                f"parallel.sharded_{workers}w",
                lambda: executor.run(largest.periods, track_transitions=False),
            )
            sharded[workers, "crc"] = crc(out.recorder.count_tensor())
        self.check(
            "sharded_2w_equals_1w", sharded[1, "crc"] == sharded[2, "crc"]
        )
        tracer.end()
        return {
            "campaign.expand_ms": median(expand_ms),
            "campaign.run_point_ms": median(point_ms),
            "campaign.resume_noop_s": resume_s,
            "campaign.load_manifest_ms": load_s * 1e3,
            "campaign.manifest_bytes":
                (pooled_dir / "manifest.json").stat().st_size,
            "campaign.tensor_bytes":
                sum(f.stat().st_size for f in pooled_dir.glob("*.npz")),
            "campaign.verify_replay_s": replay_s,
            "exec.payload_bytes": payload_bytes,
            "parallel.sharded_1w_s": sharded[1],
            "parallel.sharded_2w_s": sharded[2],
            "parallel.efficiency": sharded[1] / (2 * sharded[2]),
            "trace.overhead_share":
                median(traced_walls) / median(facade_walls) - 1.0,
        }


# ----------------------------------------------------------------------
# Units that do nothing: pure scheduling
# ----------------------------------------------------------------------
class DispatchTrivial(Workload):
    name = "dispatch_trivial"
    work_unit = "units"
    FULL = dict(units=8192)
    TOY = dict(units=64)
    WORKERS = 2

    def setup(self) -> None:
        # ``abs`` is importable in a fresh worker; a runner defined in
        # this file's ``__main__`` would not be on the cluster backend.
        base = self.seed % 1_000_003
        count = self.p["units"]
        self.expected = [base + i for i in range(count)]
        self.plan = ExecutionPlan(
            units=[WorkUnit(runner=abs, payload=-v) for v in self.expected],
            merge=list, label="dispatch_trivial",
        )
        self.payload_bytes = sum(
            len(pickle.dumps((u.runner, u.payload))) for u in self.plan.units
        )
        run_plan(
            ExecutionPlan(units=self.plan.units[:4], merge=list),
            workers=self.WORKERS,
        )

    def pool(self, on_unit=None):
        started = perf_counter()
        out = run_plan(
            self.plan, workers=self.WORKERS, backend="pool", on_unit=on_unit
        )
        seconds = perf_counter() - started
        wrong = sum(a != b for a, b in zip(out, self.expected))
        self.check(
            "pool_outputs_in_order", out == self.expected,
            ops=len(self.expected), bad=wrong,
        )
        return seconds

    def rep(self) -> Rep:
        seconds = self.pool()
        return Rep(
            ops=len(self.expected), seconds=seconds,
            exact={"exec.payload_bytes": self.payload_bytes},
        )

    def traced(self, tracer: Tracer) -> Dict[str, float]:
        count = len(self.expected)
        facade_walls, traced_walls = [], []
        pool_us, inprocess_us, start_ms = [], [], []
        failures: List = []
        policy = FaultPolicy(on_error="skip")
        for rep in range(TRACED_REPS):
            tracer.rep = rep
            facade_walls.append(self.pool())
            root = tracer.begin("exec.journey")
            landings: List[float] = []
            with tracer.span("exec.pool") as index:
                self.pool(
                    on_unit=lambda i, out: landings.append(perf_counter())
                )
            traced_walls.append(tracer.duration(index))
            pool_us.append(
                (landings[-1] - landings[0]) / max(1, count - 1) * 1e6
            )
            with tracer.span("exec.inprocess") as index:
                out = run_plan(
                    self.plan, workers=1, fault_policy=policy,
                    on_failure=failures.append,
                )
            inprocess_us.append(tracer.duration(index) / count * 1e6)
            self.check("inprocess_outputs_in_order", out == self.expected)
            with tracer.span("exec.pool_start") as index:
                run_plan(
                    ExecutionPlan(units=self.plan.units[:2], merge=list),
                    workers=self.WORKERS,
                )
            start_ms.append(tracer.duration(index) * 1e3)
            tracer.end()
            self.check("trace_accounted", abs(tracer.accounted(root) - 1) < 0.05)

        # The cluster backend, through the coordinator ``run_plan``
        # builds, so that its re-dispatch counter can be read.
        tracer.rep = 0
        outputs: List[Any] = [None] * count
        landings = []

        def land(index, output, failure):
            landings.append(perf_counter())
            if failure is not None:
                failures.append(failure)
            outputs[index] = output

        coordinator = ClusterCoordinator(
            label="dispatch_trivial",
            blobs=[pickle.dumps((u.runner, u.payload)) for u in self.plan.units],
            labels=[u.label for u in self.plan.units],
            policy=policy, workers=self.WORKERS,
        )
        with tracer.span("cluster.run"):
            started = perf_counter()
            coordinator.run(land)
        self.check(
            "cluster_outputs_in_order", outputs == self.expected, ops=count,
            bad=sum(a != b for a, b in zip(outputs, self.expected)),
        )
        self.check("cluster_redispatches_0", coordinator.stats["redispatches"] == 0)
        return {
            "exec.inprocess_us_per_unit": median(inprocess_us),
            "exec.pool_us_per_unit": median(pool_us),
            "exec.pool_start_ms": median(start_ms),
            "exec.payload_bytes": self.payload_bytes,
            "exec.retried_units": sum(f.attempts - 1 for f in failures),
            "exec.failed_units": len(failures),
            "cluster.start_ms": (landings[0] - started) * 1e3,
            "cluster.us_per_unit":
                (landings[-1] - landings[0]) / max(1, count - 1) * 1e6,
            "cluster.redispatches": coordinator.stats["redispatches"],
            "trace.overhead_share":
                median(traced_walls) / median(facade_walls) - 1.0,
        }


# ----------------------------------------------------------------------
# The live service: reads beside writes beside ticks
# ----------------------------------------------------------------------
READS = ("counts", "equilibrium", "majority", "convergence", "status")


class ServiceMixed(Workload):
    name = "service_mixed"
    work_unit = "requests"
    FULL = dict(n=100_000, burst=200, requests=1000, probes=200)
    TOY = dict(n=2000, burst=10, requests=40, probes=10)
    WARM = dict(burst=3, requests=20)
    CLIENTS = 2
    TICK_SECONDS = 0.01
    HOSTS_PER_WRITE = 8

    def config(self) -> LiveConfig:
        return LiveConfig("endemic", n=self.p["n"], seed=self.seed)

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        hosts = rng.choice(
            self.p["n"], size=self.CLIENTS * self.HOSTS_PER_WRITE,
            replace=False,
        )
        #: Each client leaves and rejoins its own hosts, so the
        #: population stays level and no event is refused.
        self.hosts = [
            [int(h) for h in part]
            for part in np.split(hosts, self.CLIENTS)
        ]
        self.last: Optional[Path] = None
        self.journey(self.tmpdir(), **self.WARM)

    def journey(
        self, directory: Path, tracer: Optional[Tracer] = None,
        burst: Optional[int] = None, requests: Optional[int] = None,
    ):
        return asyncio.run(self._journey(
            directory, tracer, burst or self.p["burst"],
            requests or self.p["requests"],
        ))

    async def _client(self, port, hosts, requests, reads, writes, errors):
        client = await ServiceClient.connect("127.0.0.1", port)
        try:
            for i in range(requests):
                started = perf_counter()
                try:
                    if i % 10 == 9:
                        kind = "leave" if i % 20 == 9 else "join"
                        await client.event(kind, {"hosts": hosts})
                        writes.append(perf_counter() - started)
                    else:
                        await client.query(READS[i % len(READS)])
                        reads.append(perf_counter() - started)
                except (RuntimeError, ConnectionError, OSError):
                    errors.append(i)
        finally:
            await client.close()

    async def _journey(self, directory, tracer, burst, requests):
        def begin(name):
            if tracer is not None:
                tracer.begin(name)

        def end():
            if tracer is not None:
                tracer.end()

        begin("service.journey")
        begin("service.construct")
        core = ServiceCore(
            LiveEngine(self.config()), directory=directory, snapshot_every=100
        )
        service = ProtocolService(core, tick_seconds=self.TICK_SECONDS)
        await service.start()
        end()
        out: Dict[str, Any] = {}
        begin("service.burst")
        started = perf_counter()
        for _ in range(burst):
            begin("service.core_tick")
            core.tick(1)
            end()
        out["burst_s"] = perf_counter() - started
        end()
        out["log_bytes"] = (directory / EVENTS_NAME).stat().st_size
        server = await serve_tcp(service)
        port = server.sockets[0].getsockname()[1]
        reads: List[float] = []
        writes: List[float] = []
        errors: List[int] = []
        begin("service.live")
        period = core.live.period
        started = perf_counter()
        await asyncio.gather(*(
            self._client(port, hosts, requests, reads, writes, errors)
            for hosts in self.hosts
        ))
        out["live_s"] = perf_counter() - started
        out["ticks_live"] = core.live.period - period
        end()
        if tracer is not None:
            client = await ServiceClient.connect("127.0.0.1", port)
            rtts = []
            begin("service.tcp_rtt")
            for _ in range(self.p["probes"]):
                started = perf_counter()
                await client.query("status")
                rtts.append(perf_counter() - started)
            end()
            await client.close()
            out["rtts"] = rtts
        begin("service.stop")
        server.close()
        await server.wait_closed()
        await service.stop()
        end()
        end()
        out.update(reads=reads, writes=writes)
        sent = self.CLIENTS * requests
        self.check("no_request_refused", not errors, ops=sent, bad=len(errors))
        self.check("population_level", core.live.alive_count() == self.p["n"])
        out["requests"] = sent
        return out

    def rep(self) -> Rep:
        directory = self.tmpdir()
        out = self.journey(directory)
        if self.last is not None:
            shutil.rmtree(self.last, ignore_errors=True)
        self.last = directory
        return Rep(
            ops=out["requests"], seconds=out["live_s"],
            exact={"store.log_bytes": out["log_bytes"]},
            extra={
                "ticks_per_s": self.p["burst"] / out["burst_s"],
                "query_p50_ms": median(out["reads"]) * 1e3,
                "event_p50_ms": median(out["writes"]) * 1e3,
            },
        )

    def replay(self, directory: Path):
        started = perf_counter()
        report = replay_directory(directory)
        seconds = perf_counter() - started
        self.check("replay_ok", report.ok and report.replayed > 0)
        return report, seconds

    def finish(self) -> None:
        self.replay(self.last)

    def traced(self, tracer: Tracer) -> Dict[str, float]:
        facade_walls, traced_walls, outs, replays = [], [], [], []
        for rep in range(TRACED_REPS):
            tracer.rep = rep
            started = perf_counter()
            self.journey(self.tmpdir())
            facade_walls.append(perf_counter() - started)
            directory = self.tmpdir()
            root = len(tracer.spans)
            outs.append(self.journey(directory, tracer))
            traced_walls.append(tracer.duration(root))
            self.check("trace_accounted", abs(tracer.accounted(root) - 1) < 0.05)
            with tracer.span("service.replay"):
                report, seconds = self.replay(directory)
            replays.append(report.replayed / seconds)
        self.check(
            "ledger_repeats", len({o["log_bytes"] for o in outs}) == 1
        )
        reads = [v for o in outs for v in o["reads"]]
        writes = [v for o in outs for v in o["writes"]]
        ticks_live = median(o["ticks_live"] for o in outs)
        metrics = {
            "service.core_tick_us":
                median(o["burst_s"] / self.p["burst"] for o in outs) * 1e6,
            "service.ticks_per_s":
                median(self.p["burst"] / o["burst_s"] for o in outs),
            "service.requests_per_s":
                median(o["requests"] / o["live_s"] for o in outs),
            "service.query_p50_ms": median(reads) * 1e3,
            "service.query_p99_ms": percentile(reads, 99) * 1e3,
            "service.event_p50_ms": median(writes) * 1e3,
            "service.event_p99_ms": percentile(writes, 99) * 1e3,
            "service.tcp_rtt_us":
                median(v for o in outs for v in o["rtts"]) * 1e6,
            "service.ticks_during_live": ticks_live,
            # How much later than scheduled the average tick ran.
            "service.tick_lag_ms": (
                median(o["live_s"] for o in outs) / max(1.0, ticks_live)
                - self.TICK_SECONDS
            ) * 1e3,
            "service.replay_events_per_s": median(replays),
            "store.log_bytes": outs[0]["log_bytes"],
            "trace.overhead_share":
                median(traced_walls) / median(facade_walls) - 1.0,
        }
        metrics.update(self.layers(tracer, directory))
        return metrics

    def layers(self, tracer: Tracer, directory: Path) -> Dict[str, float]:
        """The layers under the service, called directly."""
        tracer.rep = 0
        root = tracer.begin(self.name + ".layers")
        probes = self.p["probes"]
        scratch = self.tmpdir()

        def spans(name: str, call: Callable, count: int = probes) -> float:
            for _ in range(count):
                tracer.begin(name)
                call()
                tracer.end()
            return median(tracer.durations(root, name))

        core = ServiceCore(LiveEngine(self.config()), directory=scratch)
        core.start()
        cycle = iter(range(10 ** 9))
        hosts = self.hosts[0]
        metrics = {
            "service.core_query_us": spans(
                "service.core_query",
                lambda: core.query(READS[next(cycle) % len(READS)]),
            ) * 1e6,
            "service.apply_event_us": spans(
                "service.apply_event",
                lambda: core.apply_event(
                    "join" if next(cycle) % 2 else "leave", {"hosts": hosts}
                ),
                count=probes - probes % 2,
            ) * 1e6,
        }
        engine = core.live.engine
        metrics["round_engine.step_us"] = spans(
            "round_engine.step", engine.step, count=max(5, probes // 4)
        ) * 1e6
        metrics["round_engine.counts_us"] = spans(
            "round_engine.counts", engine.counts
        ) * 1e6
        record = {"periods": 1, "counts": engine.counts(), "alive": self.p["n"]}
        with EventLog(scratch / "probe.jsonl") as log:
            metrics["store.append_us"] = spans(
                "store.append", lambda: log.append("tick", 0, record)
            ) * 1e6
        metrics["store.read_events_ms"] = spans(
            "store.read_events",
            lambda: read_events(directory / EVENTS_NAME), count=3,
        ) * 1e3
        arrays, meta = core.live.snapshot()
        path = scratch / "probe.npz"
        metrics["store.snapshot_save_ms"] = spans(
            "store.snapshot_save",
            lambda: save_snapshot(path, arrays, meta), count=5,
        ) * 1e3
        metrics["store.snapshot_load_ms"] = spans(
            "store.snapshot_load", lambda: load_snapshot(path), count=5,
        ) * 1e3
        metrics["store.snapshot_bytes"] = path.stat().st_size
        core.close()
        tracer.end()
        return metrics


WORKLOADS = {
    cls.name: cls for cls in (
        EnsembleDense, EnsembleSparse, LVMajority, EpidemicSpread,
        CampaignSharded, DispatchTrivial, ServiceMixed,
    )
}
