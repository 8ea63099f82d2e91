"""Samplers shared by the batch engine and its planner.

They live below both :mod:`repro.runtime.batch_engine` and
:mod:`repro.runtime.planner` so neither has to import the other's.
:func:`distinct_positions` is the one law of *who*: the hosts of a
state are exchangeable (the paper's system model, Section 3), so "which
``k`` of these ``c`` members" is a uniform ``k``-subset wherever it is
asked -- the planner's who pass and the engine's massive failure both
ask it here.  :func:`uniform_throws` is the one definition of "so many
uniform throws at each segment's range", which the who law's rejection
rounds and the census pass's push law (:func:`distinct_throws`, the
occupancy count of such throws) both draw through, and
:func:`already_taken` is the census pass's overlap law.

Both census laws follow one rule for an array call in which few
elements can consume bits.  numpy draws an array call element by
element, row-major, with the same per-element routine a scalar call
runs, and an element that cannot draw consumes nothing
(``TestGeneratorContracts`` in ``tests/test_sampling.py``); what an
array call adds is its argument checks, a dozen small numpy calls
before the first draw.  So when a reduction the law already makes
shows that no element can draw, no call is made; when it bounds the
drawing elements by :data:`_FEW_DRAWS`, each of them is one scalar
call, in row-major order, and the rest stay 0; otherwise the one
array call is made.  The bits are the same in every case.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = [
    "already_taken", "distinct_per_segment", "distinct_positions",
    "distinct_throws", "segment_ranks", "sorted_distinct", "uniform_throws",
]

# Throws per drawing segment above which each segment is handled alone
# (one scalar-bound fill, one mask row) and not in one flat call.  An
# array-bound ``integers`` costs 10-14 ns a draw where a scalar-bound
# fill costs ~3 (MT19937), and a throw is marked in a row for less than
# its key sorts or scatters, but a segment handled alone pays 7-15 us
# of calls and row scans: measured at widths 2,000 to 100,000 the
# regimes cross at 400-900 throws per segment, and ``epidemic_spread``
# reads the same for any value from 16 to 4096.
_FULL_SEGMENT = 512

# Drawing elements, at most, for which an array call is replaced by one
# scalar call per element.  Drawn alone, an overlap costs ~2.5 us plus
# ~1.3 us an element and a push's throws ~2.3 us plus ~1.3 us a throw,
# against ~23 us for the array ``hypergeometric`` and ~15 us for a flat
# ``integers`` and its distinct count, at 16 to 128 trials (numpy 2.4,
# MT19937): the throws cross at 9-10 and the overlap at ~16 elements.
# Over the campaign's endemic shards any value from 10 to 16 costs the
# same within 1 us a period, and 12 the least.
_FEW_DRAWS = 12

#: numpy's ``hypergeometric`` draws by ratio of uniforms from this many
#: samples on, whatever the counts; below it the sampling loop stops
#: before drawing when there is nothing good to find or nothing to take.
_HYPERGEOMETRIC_LOOP = 10


def segment_ranks(counts: np.ndarray) -> np.ndarray:
    """``0 .. counts[s] - 1`` for every segment ``s``, concatenated."""
    return np.arange(int(counts.sum())) - np.repeat(
        np.cumsum(counts) - counts, counts
    )


def distinct_positions(
    rng: np.random.Generator, sizes: np.ndarray, take: np.ndarray
) -> np.ndarray:
    """A uniform ``take[s]``-subset of ``range(sizes[s])``, per segment.

    Returns the chosen positions segment by segment (``take[s]``
    entries for segment ``s``, in no promised order): every subset of
    that size is equally likely and segments are independent.

    Rejection with a scatter mask: each round draws one uniform
    position per element still wanted, across all segments at once,
    and marks it; draws that land on a marked position (or on each
    other) are redrawn.  A segment that wants over half of itself marks
    the positions it leaves *out* instead and returns the rest, so at
    most half of any segment is ever marked: every draw is accepted
    with probability >= 1/2 at every take fraction, the loop ends in
    ``O(log)`` rounds, and the draws number ``O(min(take, size -
    take))``.  A round never draws more than is still wanted, so a
    segment cannot overshoot, and relabelling positions leaves the
    procedure unchanged -- which is why the marked set is uniform.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    take = np.asarray(take, dtype=np.int64)
    if take.shape != sizes.shape:
        raise ValueError(
            f"take has shape {take.shape}, expected {sizes.shape}"
        )
    bad = np.flatnonzero((take < 0) | (take > sizes))
    if bad.size:
        raise ValueError(
            f"segment {bad[0]}: cannot take {take[bad[0]]} of "
            f"{sizes[bad[0]]} elements without replacement"
        )
    flip = take * 2 > sizes
    # Segment s owns base[s] .. base[s] + sizes[s] of one flat space.
    base = np.cumsum(sizes) - sizes
    marked = np.zeros(int(sizes.sum()), dtype=bool)
    last = np.empty(marked.size, dtype=np.int32)  # written before read
    # One pending draw per position still to mark.
    seg = np.repeat(np.arange(sizes.size), np.where(flip, sizes - take, take))
    segs, picks = [], []
    while True:
        pick = uniform_throws(
            rng, sizes, np.bincount(seg, minlength=sizes.size)
        )
        spot = base[seg] + pick
        draw = np.arange(seg.size, dtype=np.int32)
        last[spot] = draw  # of equal draws, the last one stands
        fresh = (last[spot] == draw) & ~marked[spot]
        marked[spot[fresh]] = True
        segs.append(seg[fresh])
        picks.append(pick[fresh])
        seg = seg[~fresh]
        if not seg.size:
            break
    seg, pick = np.concatenate(segs), np.concatenate(picks)
    if flip.any():
        # Complemented segments return everything they did not mark.
        keep = ~flip[seg]
        rest = np.flatnonzero(flip)
        rest = np.repeat(rest, take[rest])
        spot = np.flatnonzero(np.repeat(flip, sizes) & ~marked)
        seg = np.concatenate([seg[keep], rest])
        pick = np.concatenate([pick[keep], spot - base[rest]])
    # Every chunk is segment-ordered, so the stable sort is a merge.
    return pick[np.argsort(seg, kind="stable")]


def _empty_range(s: int, count: int) -> ValueError:
    return ValueError(f"segment {s}: {count} throws at an empty range")


def _fills(
    rng: np.random.Generator, bounds: np.ndarray, counts: np.ndarray,
    total: int,
):
    """``(s, throws)``, one scalar-bound fill per drawing segment when
    segments are few and full; None when one flat call serves them.
    ``total`` is ``counts.sum()``."""
    if np.count_nonzero(counts[bounds < 1]):
        s = np.flatnonzero((counts > 0) & (bounds < 1))[0]
        raise _empty_range(s, counts[s])
    if total <= _FULL_SEGMENT * np.count_nonzero(counts):
        return None
    return (
        (s, rng.integers(0, bounds[s], size=counts[s]))
        for s in np.flatnonzero(counts)
    )


def uniform_throws(
    rng: np.random.Generator, bounds: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """``counts[s]`` uniform throws at ``range(bounds[s])``, per segment.

    Concatenated in segment order.  numpy runs one bounded-integer
    routine over the same bits for a scalar bound and an array of
    bounds, so both regimes return the same numbers and leave ``rng``
    in the same state (``tests/test_sampling.py`` holds numpy to it).
    """
    fills = _fills(rng, bounds, counts, int(counts.sum()))
    if fills is None:
        return rng.integers(0, np.repeat(bounds, counts))
    return np.concatenate([throws for _, throws in fills])


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct ``values``, ascending: ``np.unique`` by plain sort."""
    values = np.sort(values)
    keep = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def distinct_per_segment(
    segment: np.ndarray, bins: np.ndarray, segments: int, width: int
) -> np.ndarray:
    """How many distinct ``bins`` (each ``< width``) every segment holds.

    The occupancy count behind the census pass's push law: balls
    ``(segment[i], bins[i])``, answer ``(segments,)``.  Few balls are
    sorted; many are scattered into a ``segments x width`` mask, which
    costs the same however often a bin is hit.  Both branches return
    the same numbers and neither draws.
    """
    keys = segment * width + bins
    if keys.size * 16 < segments * width:
        return np.bincount(sorted_distinct(keys) // width, minlength=segments)
    mask = np.zeros(segments * width, dtype=bool)
    mask[keys] = True
    return np.count_nonzero(mask.reshape(segments, width), axis=1)


def distinct_throws(
    rng: np.random.Generator, bounds: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Distinct positions among :func:`uniform_throws`, per segment.

    The census pass's push law: the same draws in the same regimes,
    but few, full segments are counted fill by fill in one reused mask
    row, so neither their throws nor a ``segments x width`` mask ever
    exist side by side.  At most :data:`_FEW_DRAWS` throws in all are
    one scalar call each, counted in a set per segment (and none at
    all returns ``counts`` itself, all zero).
    """
    total = int(counts.sum())
    if total <= _FEW_DRAWS:
        return _few_distinct_throws(rng, bounds, counts) if total else counts
    width = int(bounds.max())
    fills = _fills(rng, bounds, counts, total)
    if fills is None:
        segment = np.repeat(np.arange(counts.size), counts)
        throws = rng.integers(0, bounds[segment])
        return distinct_per_segment(segment, throws, counts.size, width)
    out = np.zeros(counts.size, dtype=np.int64)
    row = np.zeros(width, dtype=bool)
    for s, throws in fills:
        row[throws] = True
        out[s] = np.count_nonzero(row)
        row[:] = False  # a memset: cheaper than un-marking the throws
    return out


def _few_distinct_throws(
    rng: np.random.Generator, bounds: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """:func:`distinct_throws` for a few throws: the flat call's
    elements, each drawn alone in the same order."""
    drawing = [
        (s, int(bounds[s]), int(counts[s]))
        for s in counts.nonzero()[0].tolist()
    ]
    for s, bound, count in drawing:
        if bound < 1:
            raise _empty_range(s, count)
    out = np.zeros(counts.size, dtype=np.int64)
    for s, bound, count in drawing:
        if count == 1:  # one throw is one position, wherever it lands
            rng.integers(0, bound)
            out[s] = 1
        else:
            out[s] = len({rng.integers(0, bound) for _ in range(count)})
    return out


def already_taken(
    rng: np.random.Generator,
    taken: np.ndarray,
    rest: np.ndarray,
    take: np.ndarray,
) -> Optional[np.ndarray]:
    """How many of ``take[s]`` uniform picks fall among ``taken[s]``.

    The census pass's overlap law: of a uniform ``take``-subset of
    ``taken + rest`` elements, ``Hypergeometric(taken, rest, take)``
    are among the ``taken``, per segment.  Returns None, and draws
    nothing, when nothing is taken (no segment has anything to land
    on) or no element can draw: one with ``take = 0``, or with ``taken
    = 0`` and a ``take`` below ten, returns 0 with the generator
    untouched (contract (e)).  A ``take`` of ten or more draws whatever
    ``taken`` is (contract (c)), so the takes are checked first and
    then the array call is made; below ten, ``taken @ take`` bounds the
    elements that draw, and at most :data:`_FEW_DRAWS` of them are one
    scalar call each.
    """
    if take.max() >= _HYPERGEOMETRIC_LOOP:
        if not np.count_nonzero(taken):
            return None
        return rng.hypergeometric(taken, rest, take)
    pairs = int(taken @ take)  # both >= 0: a drawing element adds >= 1
    if pairs > _FEW_DRAWS:
        return rng.hypergeometric(taken, rest, take)
    if not pairs:
        return None
    out = np.zeros(take.size, dtype=np.int64)
    for s in (taken * take).nonzero()[0].tolist():
        out[s] = rng.hypergeometric(int(taken[s]), int(rest[s]), int(take[s]))
    return out


def _action_width(action) -> int:
    """Peer contacts per actor for one action (0 = no peer sampling)."""
    if action.kind in ("sample", "tokenize"):
        return len(action.required)
    if action.kind in ("anyof", "push"):
        return action.fanout
    return 0
