"""Samplers shared by the batch engine and its planner.

They live below both :mod:`repro.runtime.batch_engine` and
:mod:`repro.runtime.planner` so neither has to import the other's.
:func:`distinct_positions` is the one law of *who*: the hosts of a
state are exchangeable (the paper's system model, Section 3), so "which
``k`` of these ``c`` members" is a uniform ``k``-subset wherever it is
asked -- the planner's who pass and the engine's massive failure both
ask it here.  :func:`distinct_per_segment` is the occupancy count
behind the census pass's push law; it draws nothing.
"""

from __future__ import annotations

import numpy as np

__all__ = ["distinct_per_segment", "distinct_positions", "segment_ranks"]


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
        pick = rng.integers(0, sizes[seg])
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
        return np.bincount(np.unique(keys) // width, minlength=segments)
    mask = np.zeros(segments * width, dtype=bool)
    mask[keys] = True
    return np.count_nonzero(mask.reshape(segments, width), axis=1)


def _action_width(action) -> int:
    """Peer contacts per actor for one action (0 = no peer sampling)."""
    if action.kind in ("sample", "tokenize"):
        return len(action.required)
    if action.kind in ("anyof", "push"):
        return action.fanout
    return 0
