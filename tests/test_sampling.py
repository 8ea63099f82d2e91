"""The per-segment throw helpers of ``repro.runtime.sampling``.

``uniform_throws`` draws few, full segments one scalar-bound fill at a
time and everything else in one array-bound call, and the engine's
streams are only allowed to do that because numpy serves both from one
bounded-integer routine over the same bits.  These tests hold the
running numpy to that by name: a release that changes one path and not
the other fails here, not as a moved anchor somewhere downstream.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.runtime import sampling
from repro.runtime.rng import make_generator
from repro.runtime.sampling import (
    distinct_per_segment,
    distinct_throws,
    sorted_distinct,
    uniform_throws,
)

MAX_BOUND = 2**31 - 1  # host ids are int32: nothing larger is reachable

# 1, every 2^k and its neighbours: where a masked or a multiply-shift
# rejection sampler changes how many words it consumes.
EDGE_BOUNDS = sorted({
    bound for k in range(32) for bound in (2**k - 1, 2**k, 2**k + 1)
    if 1 <= bound <= MAX_BOUND
})
bound = st.one_of(st.sampled_from(EDGE_BOUNDS), st.integers(1, MAX_BOUND))
segment_lists = st.lists(st.tuples(bound, st.integers(0, 40)), max_size=8)

GENERATORS = {
    "mt19937": make_generator,  # the engine's
    "pcg64": np.random.default_rng,  # serves 32-bit words from a buffer
}


def assert_same_state(rng, other):
    """Equal bit-generator states (MT19937's holds an array)."""
    np.testing.assert_equal(
        rng.bit_generator.state, other.bit_generator.state
    )


def arrays(pairs):
    bounds = np.array([b for b, _ in pairs], dtype=np.int64)
    counts = np.array([c for _, c in pairs], dtype=np.int64)
    return bounds, counts


@pytest.fixture(params=["per-segment", "flat"])
def regime(request, monkeypatch):
    """Force one side of the rule: every call drawn alone, or none."""
    forced = 0 if request.param == "per-segment" else 2**40
    monkeypatch.setattr(sampling, "_FULL_SEGMENT", forced)
    return request.param


class TestRegimesShareOneStream:
    @pytest.mark.parametrize("kind", sorted(GENERATORS))
    @given(pairs=segment_lists, seed=st.integers(0, 2**32 - 1))
    def test_fills_equal_the_flat_draw_and_its_state(self, kind, pairs, seed):
        bounds, counts = arrays(pairs)
        flat_rng, fill_rng = GENERATORS[kind](seed), GENERATORS[kind](seed)
        flat = flat_rng.integers(0, np.repeat(bounds, counts))
        fills = [
            fill_rng.integers(0, bounds[s], size=counts[s])
            for s in np.flatnonzero(counts)
        ]
        assert np.array_equal(np.concatenate([flat[:0]] + fills), flat)
        assert_same_state(fill_rng, flat_rng)

    @given(pairs=segment_lists, seed=st.integers(0, 2**32 - 1))
    def test_uniform_throws_is_that_draw_in_either_regime(self, pairs, seed):
        bounds, counts = arrays(pairs)
        reference = make_generator(seed)
        expected = reference.integers(0, np.repeat(bounds, counts))
        for forced in (0, 2**40):
            rng = make_generator(seed)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(sampling, "_FULL_SEGMENT", forced)
                got = uniform_throws(rng, bounds, counts)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)
            assert_same_state(rng, reference)

    @pytest.mark.parametrize("pairs", [
        [], [(7, 0)], [(1, 5)], [(MAX_BOUND, 3)], [(5, 0), (9, 0), (2, 0)],
        [(0, 0), (3, 4)],  # an empty range may sit where nothing draws
    ])
    def test_one_segment_and_all_empty(self, pairs, regime):
        bounds, counts = arrays(pairs)
        rng, reference = make_generator(4), make_generator(4)
        got = uniform_throws(rng, bounds, counts)
        assert np.array_equal(
            got, reference.integers(0, np.repeat(bounds, counts))
        )
        assert_same_state(rng, reference)

    def test_the_rule_reads_throws_per_drawing_segment(self):
        """Segments that draw nothing do not dilute a full one."""
        calls = []

        class Spy:
            def integers(self, low, high, size=None):
                calls.append(np.ndim(high))
                return np.zeros(size if size is not None else len(high),
                                dtype=np.int64)

        full = sampling._FULL_SEGMENT + 1
        uniform_throws(Spy(), np.full(50, 9), np.array([full] + [0] * 49))
        assert calls == [0]  # one scalar-bound fill
        calls.clear()
        uniform_throws(Spy(), np.full(50, 9), np.array([full] + [1] * 49))
        assert calls == [1]  # one array-bound call

    def test_a_drawing_segment_without_room_is_named(self, regime):
        rng = make_generator(0)
        bounds, counts = np.array([4, 0, 3]), np.array([2, 5, 1])
        for draw in (uniform_throws, distinct_throws):
            with pytest.raises(ValueError, match="segment 1: 5 throws at an"):
                draw(rng, bounds, counts)


class TestPushCount:
    @given(
        pairs=st.lists(
            st.tuples(st.integers(1, 60), st.integers(0, 120)), max_size=8,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_distinct_throws_is_a_brute_force_set_per_segment(
        self, pairs, seed
    ):
        bounds, counts = arrays(pairs)
        bounds = np.append(bounds, 1)  # an engine has at least one trial
        counts = np.append(counts, 0)
        reference = make_generator(seed)
        throws = reference.integers(0, np.repeat(bounds, counts))
        stops = np.cumsum(counts)
        expected = [
            len(set(throws[stop - count:stop].tolist()))
            for stop, count in zip(stops, counts)
        ]
        for forced in (0, 2**40):
            rng = make_generator(seed)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(sampling, "_FULL_SEGMENT", forced)
                got = distinct_throws(rng, bounds, counts)
                segment = np.repeat(np.arange(counts.size), counts)
                given_balls = distinct_per_segment(
                    segment, throws, counts.size, int(bounds.max())
                )
            assert got.tolist() == expected
            assert given_balls.tolist() == expected
            assert_same_state(rng, reference)


class TestSortedDistinct:
    @given(st.lists(st.integers(-5, 40), max_size=60))
    def test_equals_np_unique(self, values):
        values = np.array(values, dtype=np.int32)
        got = sorted_distinct(values)
        assert got.dtype == values.dtype
        assert np.array_equal(got, np.unique(values))
