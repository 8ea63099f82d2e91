"""Tests for the migratory file store (repro.store.filestore)."""

import numpy as np
import pytest

from repro.protocols.endemic import EndemicParams
from repro.store import MigratoryFileStore


@pytest.fixture
def params():
    return EndemicParams(alpha=0.01, gamma=0.1, b=2)


@pytest.fixture
def store(params):
    return MigratoryFileStore(n=800, params=params, seed=0)


class TestLifecycle:
    def test_insert_and_locate(self, store):
        store.insert("a.txt")
        store.tick(300)
        replicas = store.locate("a.txt")
        assert len(replicas) > 5

    def test_duplicate_insert_rejected(self, store):
        store.insert("a.txt")
        with pytest.raises(ValueError):
            store.insert("a.txt")

    def test_remove(self, store):
        store.insert("a.txt")
        store.remove("a.txt")
        assert "a.txt" not in store.files

    def test_insert_after_remove_takes_a_fresh_seed(self, store):
        # A remove must not hand the next file a live file's seed (it
        # would replay that file's history).
        store.insert("a.txt")
        store.insert("b.txt")
        store.remove("a.txt")
        store.insert("c.txt")
        store.tick(10)
        assert not np.array_equal(store.locate("b.txt"), store.locate("c.txt"))

    def test_multiple_files_independent(self, store):
        store.insert("a.txt")
        store.insert("b.txt")
        store.tick(200)
        assert store.replica_count("a.txt") > 0
        assert store.replica_count("b.txt") > 0

    def test_single_replica_seeds_population(self, store, params):
        stored = store.insert("a.txt", initial_replicas=1)
        store.tick(400)
        expected = params.equilibrium_counts(800)["y"]
        assert store.replica_count("a.txt") == pytest.approx(expected, rel=0.5)

    def test_replicas_migrate(self, store):
        store.insert("a.txt")
        store.tick(200)
        first = set(store.locate("a.txt").tolist())
        store.tick(200)
        second = set(store.locate("a.txt").tolist())
        assert first != second

    def test_invalid_initial_replicas(self, store):
        with pytest.raises(ValueError):
            store.insert("a.txt", initial_replicas=0)


class TestFetch:
    def test_fetch_finds_file(self, store):
        store.insert("a.txt")
        store.tick(300)
        result = store.fetch("a.txt")
        assert result.found
        assert result.replica_host in store.locate("a.txt")

    def test_fetch_probe_cost_reasonable(self, store):
        store.insert("a.txt")
        store.tick(400)
        replicas = store.replica_count("a.txt")
        probes = [store.fetch("a.txt").probes for _ in range(30)]
        # Expected probes ~ n / replicas.
        assert np.mean(probes) < 5 * store.n / replicas

    def test_fetch_missing_file_raises(self, store):
        with pytest.raises(KeyError):
            store.fetch("nope.txt")


class TestFailures:
    def test_massive_failure_survival(self, store):
        store.insert("a.txt")
        store.tick(300)
        store.crash_random_fraction(0.5)
        store.tick(300)
        assert store.replica_count("a.txt") > 0
        assert store.lost_files() == []

    def test_crash_affects_all_files(self, store):
        store.insert("a.txt")
        store.insert("b.txt")
        store.tick(100)
        store.crash_hosts(range(400))
        for name in ("a.txt", "b.txt"):
            engine = store.files[name].engine
            assert engine.alive_count() == 400

    def test_recovered_hosts_are_receptive(self, store):
        store.insert("a.txt")
        store.tick(50)
        store.crash_hosts(range(100))
        store.recover_hosts(range(100))
        engine = store.files["a.txt"].engine
        assert engine.alive_count() == 800

    def test_insert_after_crash_sees_down_hosts(self, store):
        store.crash_hosts(range(200))
        store.insert("late.txt")
        assert store.files["late.txt"].engine.alive_count() == 600

    def test_loss_detection(self, params):
        # Crash every host: the replica population cannot survive.
        store = MigratoryFileStore(n=100, params=params, seed=1)
        store.insert("a.txt")
        store.tick(10)
        store.crash_hosts(range(100))
        store.tick(5)
        assert "a.txt" in store.lost_files()


class TestAccounting:
    def test_bandwidth_positive_at_equilibrium(self, store):
        store.insert("a.txt")
        store.tick(400)
        bandwidth = store.bandwidth_bps_per_host("a.txt", window_periods=200)
        assert bandwidth > 0

    def test_bandwidth_matches_theory(self, params):
        # Measured transfer bandwidth ~ RealityCheck prediction.
        from repro.analysis.safety import RealityCheck

        store = MigratoryFileStore(n=2000, params=params, seed=2)
        store.insert("a.txt", size_bytes=88.2e3)
        store.tick(700)
        measured = store.bandwidth_bps_per_host("a.txt", window_periods=400)
        predicted = RealityCheck.of(params, 2000).bandwidth_bps_per_host
        assert measured == pytest.approx(predicted, rel=0.3)

    def test_storage_load_distribution(self, store):
        store.insert("a.txt")
        store.insert("b.txt")
        store.tick(200)
        load = store.storage_load()
        assert load.sum() == pytest.approx(
            (store.replica_count("a.txt") + store.replica_count("b.txt"))
            * 88.2e3
        )

    def test_transfers_counted(self, store):
        store.insert("a.txt")
        store.tick(300)
        assert store.files["a.txt"].transfers > 0
