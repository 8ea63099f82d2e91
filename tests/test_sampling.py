"""The per-segment throw helpers of ``repro.runtime.sampling``.

``uniform_throws`` draws few, full segments one scalar-bound fill at a
time and everything else in one array-bound call, ``distinct_throws``
and ``already_taken`` draw a few elements one scalar call each, and the
engine's streams are only allowed to do that because numpy serves all
of them from one per-element routine over the same bits.  These tests hold the
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
    already_taken,
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


#: The generator calls the census draws element by element when few of
#: their elements can draw, as ``(rng, *per-element args)``.
ELEMENT_CALLS = {
    "binomial": lambda rng, n, p: rng.binomial(n, p),
    "hypergeometric": lambda rng, good, bad, sample: rng.hypergeometric(
        good, bad, sample
    ),
    "integers": lambda rng, high: rng.integers(0, high),
}


def element_args(law):
    """``(idle, args)`` of one element of ``law``'s array call; an idle
    element cannot draw (contracts (b), (e), and a range of one)."""
    if law == "binomial":
        drawing = st.tuples(st.integers(1, 10**6), st.floats(0.0, 1.0))
        idle = st.one_of(
            st.tuples(st.just(0), st.floats(0.0, 1.0)),
            st.tuples(st.integers(0, 10**6), st.just(0.0)),
        )
    elif law == "hypergeometric":
        drawing = st.tuples(
            st.integers(0, 300), st.integers(0, 300), st.integers(0, 600),
        ).map(lambda e: (e[0], e[1], min(e[2], e[0] + e[1])))
        idle = st.one_of(
            st.tuples(st.integers(0, 300), st.integers(0, 300), st.just(0)),
            st.tuples(st.just(0), st.integers(9, 300), st.integers(0, 9)),
        )
    else:
        drawing = st.tuples(bound.filter(lambda b: b > 1))
        idle = st.just((1,))
    return st.one_of(
        drawing.map(lambda a: (False, a)), idle.map(lambda a: (True, a)),
    )


def assert_same_state(rng, other):
    """Equal bit-generator states (MT19937's holds an array)."""
    np.testing.assert_equal(
        rng.bit_generator.state, other.bit_generator.state
    )


def arrays(pairs):
    bounds = np.array([b for b, _ in pairs], dtype=np.int64)
    counts = np.array([c for _, c in pairs], dtype=np.int64)
    return bounds, counts


#: ``(_FULL_SEGMENT, _FEW_DRAWS)`` forcing each regime of the throws:
#: every segment one fill, one flat call, or every throw alone.
REGIMES = {
    "per-segment": (0, -1), "flat": (2**40, -1), "per-element": (0, 2**40),
}


def force(patch, name):
    full, few = REGIMES[name]
    patch.setattr(sampling, "_FULL_SEGMENT", full)
    patch.setattr(sampling, "_FEW_DRAWS", few)


@pytest.fixture(params=sorted(REGIMES))
def regime(request, monkeypatch):
    """Force one regime of the throws."""
    force(monkeypatch, request.param)
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
        for name in REGIMES:
            rng = make_generator(seed)
            with pytest.MonkeyPatch.context() as patch:
                force(patch, name)
                got = distinct_throws(rng, bounds, counts)
                segment = np.repeat(np.arange(counts.size), counts)
                given_balls = distinct_per_segment(
                    segment, throws, counts.size, int(bounds.max())
                )
            assert got.tolist() == expected
            assert given_balls.tolist() == expected
            assert_same_state(rng, reference)


    def test_the_gate_reads_the_total_throws(self):
        calls = []

        class Spy:
            def integers(self, low, high, size=None):
                calls.append(np.ndim(high))
                return np.zeros(np.shape(high), dtype=np.int64)[()]

        few = sampling._FEW_DRAWS
        for counts, made in [
            ([0, 0, 0], []),
            ([2, 0, 1], [0, 0, 0]),  # every throw alone
            ([few, 0, 0], [0] * few),
            ([few, 1, 0], [1]),  # one flat call
        ]:
            calls.clear()
            got = distinct_throws(Spy(), np.full(3, 40), np.array(counts))
            assert calls == made, counts
            assert got.tolist() == [min(c, 1) for c in counts]


class TestOverlapLaw:
    @given(
        elements=st.lists(
            st.tuples(
                st.integers(0, 12), st.integers(0, 30), st.integers(0, 40),
            ),
            min_size=1, max_size=12,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_already_taken_is_the_census_call_in_every_regime(
        self, elements, seed
    ):
        """The old census's ``hypergeometric(taken, rest, take)`` when
        anything is taken: equal values (None for zeros) and state,
        whether the call is made whole, element by element or not."""
        taken, rest, take = np.array(elements, dtype=np.int64).T
        take = np.minimum(take, taken + rest)
        reference = make_generator(seed)
        expected = (
            reference.hypergeometric(taken, rest, take) if taken.any()
            else np.zeros_like(take)
        )
        for few in (-1, 2**40):
            rng = make_generator(seed)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(sampling, "_FEW_DRAWS", few)
                got = already_taken(rng, taken, rest, take)
            if got is None:
                got = np.zeros_like(take)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)
            assert_same_state(rng, reference)

    def test_the_gate_reads_pairs_and_then_takes_of_ten(self):
        calls = []

        class Spy:
            def hypergeometric(self, ngood, nbad, nsample):
                calls.append(np.ndim(ngood))
                return np.zeros_like(nsample)

        rest = np.full(4, 50)
        few = sampling._FEW_DRAWS
        for taken, take, made in [
            ([0, 0, 0, 0], [1, 2, 3, 4], []),  # nothing taken
            ([2, 0, 0, 0], [0, 3, 9, 9], []),  # no pair can draw
            ([0, 0, 0, 0], [0, 0, 10, 0], []),  # ten, but nothing taken
            ([1, 0, 2, 0], [1, 5, 1, 0], [0, 0]),  # two elements alone
            ([few, 0, 0, 0], [1, 0, 0, 0], [0]),  # pairs == the constant
            ([few + 1, 0, 0, 0], [1, 0, 0, 0], [1]),  # the array call
            ([1, 0, 0, 0], [0, 0, 10, 0], [1]),  # ten draws whatever
        ]:
            calls.clear()
            got = already_taken(Spy(), np.array(taken), rest, np.array(take))
            assert calls == made, (taken, take)
            assert (got is None) == (not made)


class TestGeneratorContracts:
    """What the period program's choice of generator call rests on.

    ``ActionPlanner`` draws a split whose coins all have two sides with
    ``binomial`` instead of ``multinomial``, a full push's contacts
    inside the thinning ``binomial`` call, skips an overlap
    ``hypergeometric`` none of whose elements can draw, and draws a
    few overlap elements or throws one scalar call each, because the
    running numpy consumes the same bits in the same order either way;
    snapshots keep a generator as its ``bit_generator.state`` alone
    (``repro.runtime.rng.generator_state``).  Each contract is held
    here by name.
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

    @pytest.mark.parametrize("law", sorted(ELEMENT_CALLS))
    @pytest.mark.parametrize("kind", sorted(GENERATORS))
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_scalar_calls_over_the_elements_are_the_array_call(
        self, kind, law, data, seed
    ):
        """(f) Every element of a 2-D array call drawn by a scalar call
        of its own, row-major, the elements that cannot draw skipped and
        left 0: equal values and state.  What lets the census draw a few
        overlap elements or throws one scalar call each."""
        rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        elements = data.draw(st.lists(
            element_args(law), min_size=rows * cols, max_size=rows * cols,
        ))
        idle = np.array([i for i, _ in elements]).reshape(rows, cols)
        args = [
            np.array([a[k] for _, a in elements]).reshape(rows, cols)
            for k in range(len(elements[0][1]))
        ]
        call = ELEMENT_CALLS[law]
        whole, alone = GENERATORS[kind](seed), GENERATORS[kind](seed)
        expected = call(whole, *args)
        got = np.zeros_like(expected)
        for at in np.ndindex(rows, cols):
            if not idle[at]:
                got[at] = call(alone, *(a[at].item() for a in args))
        assert np.array_equal(got, expected)
        assert_same_state(alone, whole)


class TestSortedDistinct:
    @given(st.lists(st.integers(-5, 40), max_size=60))
    def test_equals_np_unique(self, values):
        values = np.array(values, dtype=np.int32)
        got = sorted_distinct(values)
        assert got.dtype == values.dtype
        assert np.array_equal(got, np.unique(values))
