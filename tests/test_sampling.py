"""The per-segment throw helpers of ``repro.runtime.sampling``.

``uniform_throws`` draws few, full segments one scalar-bound fill at a
time and everything else in one array-bound call, and the engine's
streams are only allowed to do that because numpy serves both from one
bounded-integer routine over the same bits.  These tests hold the
running numpy to that by name: a release that changes one path and not
the other fails here, not as a moved anchor somewhere downstream.  The
same goes for the generator contracts the period program's choice of
calls and the snapshots' generator pickles rest on
(``TestGeneratorContracts``).
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


class TestGeneratorContracts:
    """What the period program's choice of generator call rests on.

    ``ActionPlanner`` draws a split whose coins all have two sides with
    ``binomial`` instead of ``multinomial``, a full push's contacts
    inside the thinning ``binomial`` call, and skips an overlap
    ``hypergeometric`` none of whose elements can draw, because the
    running numpy consumes the same bits in the same order either way;
    snapshots keep
    a generator as its pickle, which carries its ``bit_generator.state``
    and nothing more.  Each contract is held here by name.
    """

    @pytest.mark.parametrize("kind", sorted(GENERATORS))
    @given(
        rows=st.lists(
            st.tuples(
                st.one_of(st.sampled_from([0.0, 1.0, 0.5]),
                          st.floats(0.0, 1.0)),
                st.lists(st.one_of(st.just(0), st.integers(0, 10**6)),
                         min_size=1, max_size=6),
            ),
            min_size=1, max_size=4,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_two_category_multinomial_is_binomial_on_its_first_column(
        self, kind, rows, seed
    ):
        """Row-major, one ``binomial`` per row: equal values and state,
        ``p = 1`` rows and ``n = 0`` entries included."""
        width = min(len(counts) for _, counts in rows)
        n = np.array([counts[:width] for _, counts in rows], dtype=np.int64)
        p = np.array([[prob] for prob, _ in rows])
        pvals = np.stack([p, 1.0 - p], axis=-1)  # (G, 1, 2)
        split_rng, binomial_rng = GENERATORS[kind](seed), GENERATORS[kind](seed)
        split = split_rng.multinomial(n, pvals)
        assert np.array_equal(split[..., 0], binomial_rng.binomial(n, p))
        assert np.array_equal(split.sum(axis=-1), n)
        assert_same_state(split_rng, binomial_rng)

    @pytest.mark.parametrize("kind", sorted(GENERATORS))
    @given(
        cells=st.lists(
            st.tuples(st.integers(0, 5000), st.floats(0.0, 1.0)), max_size=12,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_binomial_elements_with_nothing_to_draw_consume_no_bits(
        self, kind, cells, seed
    ):
        """An ``n = 0`` or ``p = 0`` element returns 0 without drawing,
        so one call over two argument lists is the two calls: what lets
        a push whose actors fired nobody ride in the thinning call."""
        n = np.array([c for c, _ in cells] + [0, 0, 7, 0], dtype=np.int64)
        p = np.array([q for _, q in cells] + [0.5, 0.0, 0.0, 1.0])
        idle = GENERATORS[kind](seed)
        assert not idle.binomial(n[-4:], p[-4:]).any()
        assert_same_state(idle, GENERATORS[kind](seed))
        one, two = GENERATORS[kind](seed), GENERATORS[kind](seed)
        half = len(cells) // 2
        assert np.array_equal(
            one.binomial(n, p),
            np.concatenate([two.binomial(n[:half], p[:half]),
                            two.binomial(n[half:], p[half:])]),
        )
        assert_same_state(one, two)

    def test_hypergeometric_with_no_good_items_still_draws(self):
        """The trap found while sizing the period program: numpy's
        ``hypergeometric`` consumes bits for ``ngood = 0`` once
        ``nsample >= 10`` (its ratio-of-uniforms branch draws whatever
        the counts; below ten samples the sampling loop stops at once).
        On ``ensemble_sparse`` at seed 1, 1,235 of the 1,242 overlap
        calls have no trial where both counts are nonzero, and in every
        one of them each trial samples fewer than ten, so (e) lets the
        census skip them.  What this forbids is skipping a call whose
        only candidates are ``ngood = 0`` elements sampling ten or
        more."""
        rng, untouched = make_generator(1), make_generator(1)
        assert rng.hypergeometric(0, 100, 10) == 0
        assert rng.random() != untouched.random()
        rng, untouched = make_generator(1), make_generator(1)
        assert rng.hypergeometric(np.zeros(3, np.int64), 100, 9).sum() == 0
        assert_same_state(rng, untouched)

    @pytest.mark.parametrize("kind", sorted(GENERATORS))
    @given(
        elements=st.lists(
            st.tuples(
                st.sampled_from(["any", "no sample", "nothing good"]),
                st.integers(0, 40), st.integers(0, 200), st.integers(0, 240),
            ),
            max_size=10,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_hypergeometric_elements_that_cannot_draw_consume_no_bits(
        self, kind, elements, seed
    ):
        """An ``nsample = 0`` element, or an ``ngood = 0`` one sampling
        fewer than ten, returns 0 without drawing, so a call over mixed
        elements is the call over the others: what lets the census skip
        an overlap call none of whose trials can draw."""
        idle, rows = [], []
        for case, good, bad, sample in elements:
            if case == "no sample":
                sample = 0
            elif case == "nothing good":
                good, sample = 0, min(sample, 9, bad)
            else:
                sample = min(sample, good + bad)
            idle.append(case != "any")
            rows.append((good, bad, sample))
        idle = np.array(idle, dtype=bool)
        good, bad, sample = np.array(rows, dtype=np.int64).reshape(-1, 3).T

        rng, untouched = GENERATORS[kind](seed), GENERATORS[kind](seed)
        assert not rng.hypergeometric(
            good[idle], bad[idle], sample[idle]
        ).any()
        assert_same_state(rng, untouched)

        mixed, others = GENERATORS[kind](seed), GENERATORS[kind](seed)
        got = mixed.hypergeometric(good, bad, sample)
        assert not got[idle].any()
        assert np.array_equal(got[~idle], others.hypergeometric(
            good[~idle], bad[~idle], sample[~idle]
        ))
        assert_same_state(mixed, others)

    @pytest.mark.parametrize("kind", sorted(GENERATORS))
    def test_a_state_round_trip_reproduces_the_stream(self, kind):
        """After 32-bit and 64-bit draws, ``bit_generator.state`` (for
        MT19937 just ``{key, pos}``: no spare word) restores the stream
        exactly, as a pickle of the whole generator does."""
        import pickle

        def mixed(rng):
            return [
                rng.integers(0, 10, size=3, dtype=np.uint32),
                rng.random(dtype=np.float32), rng.random(2),
                rng.binomial(np.arange(4), 0.5),
                rng.integers(0, 2**40, size=2),
            ]

        rng = GENERATORS[kind](3)
        mixed(rng)
        rng.integers(0, 7, dtype=np.uint32)  # an odd number of words
        restored = np.random.Generator(type(rng.bit_generator)())
        restored.bit_generator.state = rng.bit_generator.state
        unpickled = pickle.loads(pickle.dumps(rng))
        expected = mixed(rng)
        for other in (restored, unpickled):
            for got, want in zip(mixed(other), expected):
                assert np.array_equal(got, want)
            assert_same_state(other, rng)
        if kind == "mt19937":
            assert set(rng.bit_generator.state["state"]) == {"key", "pos"}


class TestSortedDistinct:
    @given(st.lists(st.integers(-5, 40), max_size=60))
    def test_equals_np_unique(self, values):
        values = np.array(values, dtype=np.int32)
        got = sorted_distinct(values)
        assert got.dtype == values.dtype
        assert np.array_equal(got, np.unique(values))
