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
occupancy count of such throws) both draw through.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "distinct_per_segment", "distinct_positions", "distinct_throws",
    "segment_ranks", "sorted_distinct", "uniform_throws",
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


def _fills(rng: np.random.Generator, bounds: np.ndarray, counts: np.ndarray):
    """``(s, throws)``, one scalar-bound fill per drawing segment when
    segments are few and full; None when one flat call serves them."""
    if np.count_nonzero(counts[bounds < 1]):
        s = np.flatnonzero((counts > 0) & (bounds < 1))[0]
        raise ValueError(f"segment {s}: {counts[s]} throws at an empty range")
    if int(counts.sum()) <= _FULL_SEGMENT * np.count_nonzero(counts):
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
    fills = _fills(rng, bounds, counts)
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
    exist side by side.
    """
    width = int(bounds.max())
    fills = _fills(rng, bounds, counts)
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


def _action_width(action) -> int:
    """Peer contacts per actor for one action (0 = no peer sampling)."""
    if action.kind in ("sample", "tokenize"):
        return len(action.required)
    if action.kind in ("anyof", "push"):
        return action.fanout
    return 0
