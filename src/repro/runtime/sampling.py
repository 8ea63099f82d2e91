"""Samplers shared by the batch engine and its planner.

They live below both :mod:`repro.runtime.batch_engine` and
:mod:`repro.runtime.planner` so neither has to import the other's.
"""

from __future__ import annotations

import numpy as np

__all__ = ["distinct_per_segment", "segmented_choice"]


def segmented_choice(
    rng: np.random.Generator,
    pool: np.ndarray,
    bounds: np.ndarray,
    take: np.ndarray,
) -> np.ndarray:
    """Without-replacement draws from every segment of a flat pool at once.

    ``pool`` is a flat array whose segment ``s`` occupies
    ``pool[bounds[s]:bounds[s + 1]]`` (``bounds`` has ``S + 1`` entries
    with ``bounds[0] == 0``); ``take[s]`` elements are chosen uniformly
    without replacement from segment ``s``.  Returns the chosen elements
    grouped by segment, in ascending pool order within each segment
    (set semantics: every ``take[s]``-subset is equally likely).

    This is the sampler that removes the batch engine's per-trial
    ``Generator.choice`` loops: actor selection for sub-1.0-probability
    actions on dense states (the LV hot path) and token routing both
    need ``take[m]`` distinct members from each trial's segment, and a
    Python loop over trials costs O(M) interpreter round trips per
    action per period.  Two vectorized strategies, chosen by the take
    fraction:

    * **rejection** (every ``take[s] <= sizes[s] / 4``): draw one
      candidate position per requested element across all segments at
      once, keep the non-colliding ones, redraw the rest.  Acceptance
      is >= 3/4 per round, so the loop terminates in O(log) rounds and
      the number of random draws is proportional to ``take.sum()`` --
      not the pool size -- which is what makes dense-state sampling
      cheap (a 3% coin on a state holding 60% of an (M, N) batch draws
      ~0.02 * M * N values instead of 0.6 * M * N keys).
    * **top-k keys** (some segment wants more than a quarter of its
      pool): one uniform key per candidate, padded to a
      ``(segments, max_size)`` matrix; the ``take[s]`` smallest keys
      per row (an axis-1 ``argpartition``) are the sample.
    """
    pool = np.asarray(pool)
    bounds = np.asarray(bounds, dtype=np.int64)
    take = np.asarray(take, dtype=np.int64)
    sizes = np.diff(bounds)
    if take.shape != sizes.shape:
        raise ValueError(
            f"take has shape {take.shape}, expected {sizes.shape}"
        )
    if np.any(take < 0) or np.any(take > sizes):
        bad = int(np.flatnonzero((take < 0) | (take > sizes))[0])
        raise ValueError(
            f"segment {bad}: cannot take {int(take[bad])} of "
            f"{int(sizes[bad])} elements without replacement"
        )
    total_take = int(take.sum())
    if total_take == 0:
        return np.empty(0, dtype=pool.dtype)
    if total_take == pool.size:
        return pool

    if np.all(take * 4 <= sizes):
        # Rejection: candidate positions are global pool coordinates,
        # so collisions (within a round or against earlier rounds) are
        # plain duplicate values.
        accepted = np.empty(0, dtype=np.int64)
        pending_base = np.repeat(bounds[:-1], take)
        pending_size = np.repeat(sizes, take)
        while pending_base.size:
            candidates = pending_base + rng.integers(
                0, pending_size, dtype=np.int64
            )
            merged = np.concatenate([accepted, candidates])
            order = np.argsort(merged, kind="stable")
            sorted_values = merged[order]
            duplicate_sorted = np.zeros(merged.size, dtype=bool)
            duplicate_sorted[1:] = sorted_values[1:] == sorted_values[:-1]
            duplicate = np.empty(merged.size, dtype=bool)
            duplicate[order] = duplicate_sorted
            # The stable sort keeps previously accepted values ahead of
            # equal new candidates, so only the new ones re-enter.
            redraw = duplicate[accepted.size:]
            accepted = np.concatenate([accepted, candidates[~redraw]])
            pending_base = pending_base[redraw]
            pending_size = pending_size[redraw]
        return pool[np.sort(accepted)]

    # Top-k random keys, padded so the extraction is one axis-1
    # partition; padding keys are +inf and can never be drawn because
    # take[s] <= sizes[s].
    n_segments = sizes.size
    max_size = int(sizes.max())
    k_max = int(take.max())
    keys = rng.random((n_segments, max_size))
    keys[np.arange(max_size)[None, :] >= sizes[:, None]] = np.inf
    if k_max < max_size:
        block = np.argpartition(keys, k_max - 1, axis=1)[:, :k_max]
        # Order the block so row s's first take[s] entries are exactly
        # its take[s] *smallest* keys -- a manifestly uniform subset
        # (argpartition's internal order is not).
        block_keys = np.take_along_axis(keys, block, axis=1)
        block = np.take_along_axis(
            block, np.argsort(block_keys, axis=1), axis=1
        )
    else:
        block = np.argsort(keys, axis=1)
    chosen = block[np.arange(block.shape[1])[None, :] < take[:, None]]
    starts = np.repeat(bounds[:-1], take)
    # Segments are disjoint ascending position ranges, so one global
    # sort yields the documented segment-grouped, ascending-pool-order
    # layout (matching the rejection branch).
    return pool[np.sort(starts + chosen)]


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
