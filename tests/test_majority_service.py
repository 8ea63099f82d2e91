"""Tests for the majority-polling service (repro.store.majority_service)."""

import numpy as np
import pytest

from repro.runtime.rng import generator_state
from repro.store import MajorityService


class TestSetup:
    def test_initial_split(self):
        versions = np.array([0] * 70 + [1] * 30)
        service = MajorityService(100, versions, seed=0)
        assert service.split() == (70, 30)
        assert service.true_majority() == 0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            MajorityService(100, np.zeros(50, dtype=int))

    def test_version_values_validated(self):
        with pytest.raises(ValueError):
            MajorityService(10, np.full(10, 2))

    def test_tie_has_no_majority(self):
        service = MajorityService(10, np.array([0] * 5 + [1] * 5), seed=0)
        assert service.true_majority() is None


class TestCorruption:
    def test_corrupt_flips_fraction(self):
        service = MajorityService(200, np.zeros(200, dtype=int), seed=1)
        changed = service.corrupt(0.25, to_version=1)
        zeros, ones = service.split()
        assert ones == 50
        assert changed == 50

    def test_corrupt_bounds(self):
        service = MajorityService(10, np.zeros(10, dtype=int), seed=2)
        with pytest.raises(ValueError):
            service.corrupt(1.5)


class TestPolling:
    def test_poll_repairs_to_majority(self):
        service = MajorityService(1500, np.zeros(1500, dtype=int), seed=3)
        service.corrupt(0.3, to_version=1)
        record = service.poll(max_periods=4000)
        assert record.matched_majority
        # All copies repaired to version 0.
        assert service.split() == (1500, 0)

    def test_repeated_polls(self):
        service = MajorityService(1000, np.zeros(1000, dtype=int), seed=4)
        for _ in range(3):
            service.corrupt(0.2, to_version=1)
            service.poll(max_periods=4000)
        summary = service.summary()
        assert summary["polls"] == 3
        assert summary["accuracy"] == 1.0
        assert summary["mean_convergence_periods"] > 0

    def test_unconverged_poll_leaves_versions(self):
        service = MajorityService(1000, np.zeros(1000, dtype=int), seed=5)
        service.corrupt(0.4, to_version=1)
        before = service.split()
        record = service.poll(max_periods=2)
        assert record.winner is None
        assert service.split() == before

    def test_clock_advances(self):
        service = MajorityService(800, np.zeros(800, dtype=int), seed=6)
        service.corrupt(0.2, to_version=1)
        service.poll(max_periods=4000)
        assert service.clock_periods > 0

    def test_accuracy_nan_when_no_polls(self):
        service = MajorityService(10, np.zeros(10, dtype=int), seed=7)
        assert np.isnan(service.accuracy())


class TestRefusedEvents:
    @pytest.mark.parametrize("call", [
        lambda s: s.corrupt(1.5),
        lambda s: s.corrupt(True),
        lambda s: s.corrupt(0.2, to_version=2),
        lambda s: s.poll(max_periods=0),
        lambda s: s.poll(max_periods=2.5),
        lambda s: s.core.apply_event("insert", {"name": "a"}),
    ])
    def test_refused_event_moves_nothing(self, call):
        service = MajorityService(100, np.zeros(100, dtype=int), seed=8)
        service.corrupt(0.2)
        before = (
            service.versions.copy(), list(service.polls),
            service.clock_periods, service.core.log.next_seq,
            generator_state(service.rng),
        )
        with pytest.raises(ValueError):
            call(service)
        assert np.array_equal(service.versions, before[0])
        assert (
            list(service.polls), service.clock_periods,
            service.core.log.next_seq, generator_state(service.rng),
        ) == before[1:]
