"""Bitwise determinism of the cluster backend under chaos.

The execution-layer contract, clause 5: worker loss cannot perturb
results.  These tests run the same small campaign serially, on the
pool backend, and on the cluster backend at ``workers`` in {1, 3}
with scripted kill/hang faults -- and assert the manifests and saved
tensors are *bitwise* identical (wall-clock provenance aside).  The
drain test additionally interrupts a chaos campaign mid-flight with
SIGTERM and proves ``resume`` restores bitwise equality.  The campaign's
units take tens of milliseconds and travel one to a frame; the last
class runs plans whose units are small enough to share frames, and
loses a worker in the middle of one.
"""

import os
import signal

import numpy as np
import pytest

import cluster_helpers as helpers
from repro.campaign import CampaignSpec, load_manifest, run_campaign
from repro.runtime import (
    ChaosSchedule,
    ExecutionPlan,
    FaultPolicy,
    WorkerFault,
    WorkUnit,
    run_plan,
)
from repro.runtime.chaos import SCHEDULE_ENV
from repro.runtime.cluster import ClusterCoordinator, ClusterDrained
from repro.runtime.exec import _encode_units

pytestmark = pytest.mark.slow


def chaos_spec(**overrides):
    base = dict(
        name="chaos-tiny",
        protocols=["epidemic-pull"],
        group_sizes=[120, 160, 200, 240],
        loss_rates=[0.0],
        scenarios=["none"],
        trials=3,
        periods=8,
        base_seed=11,
    )
    base.update(overrides)
    return CampaignSpec(**base)


def cluster_policy(**overrides):
    base = dict(heartbeat_seconds=0.1, heartbeat_misses=3)
    base.update(overrides)
    return FaultPolicy(**base)


def scrub(data):
    """Mask the wall-clock provenance that legitimately differs."""
    if isinstance(data, dict):
        return {
            key: (
                "<wall-clock>"
                if key in ("elapsed_seconds", "created")
                else scrub(value)
            )
            for key, value in data.items()
        }
    if isinstance(data, list):
        return [scrub(value) for value in data]
    return data


def assert_tensor_dirs_equal(dir_a, dir_b):
    names = sorted(p.name for p in dir_a.glob("*.npz"))
    assert names == sorted(p.name for p in dir_b.glob("*.npz"))
    for name in names:
        with np.load(dir_a / name) as a, np.load(dir_b / name) as b:
            assert sorted(a.files) == sorted(b.files)
            for key in a.files:
                assert np.array_equal(a[key], b[key]), (name, key)


def assert_campaign_dirs_equal(dir_a, dir_b):
    assert scrub(load_manifest(dir_a)) == scrub(load_manifest(dir_b))
    assert_tensor_dirs_equal(dir_a, dir_b)


@pytest.fixture(scope="module")
def reference_dirs(tmp_path_factory):
    """One serial and one pool-backend run of the canonical campaign."""
    serial_dir = tmp_path_factory.mktemp("serial")
    pool_dir = tmp_path_factory.mktemp("pool")
    run_campaign(chaos_spec(), workers=1, save_tensors=str(serial_dir))
    run_campaign(chaos_spec(), workers=3, save_tensors=str(pool_dir))
    return serial_dir, pool_dir


class TestClusterBitwise:
    def test_pool_matches_serial(self, reference_dirs):
        serial_dir, pool_dir = reference_dirs
        assert_campaign_dirs_equal(serial_dir, pool_dir)

    @pytest.mark.parametrize("fault_kind", ["kill", "hang"])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_chaos_cluster_matches_pool_and_serial(
        self, reference_dirs, tmp_path, monkeypatch, workers, fault_kind
    ):
        # The first spawned worker dies (or hangs) on its first unit;
        # re-dispatch and respawn must leave no trace in the results.
        schedule = ChaosSchedule(faults={
            0: (WorkerFault(kind=fault_kind, after_units=1),),
        })
        monkeypatch.setenv(SCHEDULE_ENV, schedule.to_json())
        cluster_dir = tmp_path / "cluster"
        run_campaign(
            chaos_spec(), workers=workers,
            save_tensors=str(cluster_dir),
            backend="cluster", fault_policy=cluster_policy(),
        )
        serial_dir, pool_dir = reference_dirs
        assert_campaign_dirs_equal(cluster_dir, serial_dir)
        assert_campaign_dirs_equal(cluster_dir, pool_dir)

    def test_worker_death_then_drain_then_resume_is_bitwise(
        self, reference_dirs, tmp_path, monkeypatch
    ):
        # Chaos run: worker 0 is killed mid-campaign AND the
        # coordinating process itself takes a SIGTERM after the first
        # point lands.  The drain leaves a consistent checkpoint; a
        # clean resume finishes the exact missing points.
        schedule = ChaosSchedule(faults={
            0: (WorkerFault(kind="kill", after_units=1),),
        })
        monkeypatch.setenv(SCHEDULE_ENV, schedule.to_json())
        out_dir = tmp_path / "interrupted"
        landed = []

        def terminate_after_first(result):
            landed.append(result)
            if len(landed) == 1:
                os.kill(os.getpid(), signal.SIGTERM)

        with pytest.raises(ClusterDrained):
            run_campaign(
                chaos_spec(), workers=2, save_tensors=str(out_dir),
                backend="cluster", fault_policy=cluster_policy(),
                progress=terminate_after_first,
            )
        partial = load_manifest(out_dir)
        assert partial["complete"] is False
        statuses = [entry["status"] for entry in partial["points"]]
        assert "pending" in statuses and "done" in statuses

        monkeypatch.delenv(SCHEDULE_ENV)
        run_campaign(
            chaos_spec(), workers=2, save_tensors=str(out_dir),
            resume=str(out_dir), backend="cluster",
            fault_policy=cluster_policy(),
        )
        assert load_manifest(out_dir)["complete"] is True
        serial_dir, _pool_dir = reference_dirs
        assert_campaign_dirs_equal(out_dir, serial_dir)


class TestFramesBitwise:
    def test_mixed_plan_serial_pool_cluster(self, worker_path, caplog):
        caplog.set_level("DEBUG", logger="repro.runtime.exec")
        serial = run_plan(helpers.mixed_plan())
        assert caplog.records == []
        for backend in ("pool", "cluster"):
            landed = []
            result = run_plan(
                helpers.mixed_plan(), workers=2, backend=backend,
                fault_policy=cluster_policy(),
                on_unit=lambda index, output: landed.append(index),
            )
            assert result == serial, backend
            assert sorted(landed) == list(range(1000)), backend
            units, frames, largest = helpers.framing(caplog)
            # Frames of many and (around the 30 ms units) of few.
            assert units == 1000, backend
            assert largest > 1 and frames < units, backend
            caplog.clear()

    def test_a_kill_mid_frame_redispatches_the_whole_frame(
        self, worker_path
    ):
        plan = ExecutionPlan(
            units=[
                WorkUnit(runner=helpers.double_unit, payload=v)
                for v in range(400)
            ],
            merge=list,
        )
        undisturbed = run_plan(plan)
        # One worker, so the frames it is sent are 1, 2, 4, ... units
        # and the 40th unit it starts sits inside a frame of many.
        coordinator = ClusterCoordinator(
            label="mid-frame",
            blobs=_encode_units(plan),
            labels=[unit.label for unit in plan.units],
            policy=cluster_policy(),
            workers=1,
            chaos=ChaosSchedule(faults={
                0: (WorkerFault(kind="kill", after_units=40),),
            }),
        )
        landed = []

        def land(index, output, failure):
            assert failure is None
            landed.append((index, output))

        coordinator.run(land)
        # Every unit exactly once, and bitwise the undisturbed values.
        assert sorted(landed) == list(enumerate(undisturbed))
        stats = coordinator.stats
        assert stats["workers_lost"] == 1
        # redispatches counts the lost frame's units, not the frame.
        assert 1 < stats["redispatches"] <= stats["largest_frame"]
        assert stats["dispatches"] == 400 + stats["redispatches"]
        assert stats["frames"] < 400
