"""Fused per-state multinomial action planning for the batch engine.

Every action of a :class:`~repro.synthesis.protocol.ProtocolSpec` is a
biased coin flipped independently by each member of its actor state
(a ``probability >= 1.0`` action is the coin that always lands heads).
The paper's system model (Section 3) actually specifies one
*multi-way* coin per actor per period: an actor in state ``s`` picks
among ``s``'s actions with their respective probabilities or does
nothing, so the number of actors firing each action is exactly a
**multinomial split** of the state's occupancy -- the same aggregation
that makes mean-field analysis of population protocols tractable
(Chatzigiannakis & Spirakis) and that batch simulation of huge
populations exploits (Kosowski & Uznanski, "Population Protocols Are
Fast").

:class:`ActionPlanner` plans one period's actor selections for every
action at once:

1. **One multinomial draw for the whole period.**  The per-state splits
   of every (trial, state) occupancy across that state's actions (plus
   the no-op remainder) come from a single broadcast
   ``rng.multinomial`` call over a ``(groups, trials, actions + 1)``
   probability tensor -- replacing one ``rng.binomial`` call per action
   with one RNG call per period.
2. **One selection pass per state, fused across dense states.**  A
   state's total firing count is drawn once and the winning actors are
   selected once (instead of once per action); all states in the dense
   probing regime share a single rejection-probe loop over global host
   ids (a (state, trial) segment generalization of the former
   per-action ``_sample_dense_actors``), so a multi-action protocol
   like LV pays for one probe pass per period, not four.
3. **Partition, not re-draw.**  A state's selected actors arrive in
   uniform-random order (probe draw order, or an explicit segmented
   shuffle for sorted selections); splitting that permutation into
   consecutive runs of the multinomial counts assigns each actor to
   exactly one action with the correct joint distribution.  Per-action
   marginals are unchanged -- ``Binomial(count, p_a)`` actors, uniform
   without replacement -- but actors now fire *at most one* action of
   their state per period, which is the paper's own actor model.  (The
   serial engine keeps independent per-action coins with
   declaration-order conflict resolution; the two agree to the
   ``O((p c)^2)`` order the normalizing constant already bounds.)

Scratch buffers (the probe ``taken`` mask and last-writer ``slot``
array, both ``(trials * n,)``) are allocated once and reused across
periods, so the planner makes no per-period ``O(M * N)`` allocations.

Planner decisions (selection strategy per state) depend only on
period-start counts and the draws made so far, so batch-mode replays
remain deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .sampling import _action_width, segmented_choice

__all__ = ["ActionPlanner", "PlannedAction"]

_EMPTY = np.empty(0, dtype=np.int64)


@dataclass
class PlannedAction:
    """One action's planned work for a period.

    ``actors`` holds global ids in uniform-random order within each
    trial's segment (consumers must not rely on sorted ids).  When
    ``prefired`` is True the planner has already applied the action's
    interaction condition analytically (see
    ``ActionPlanner._match_probability`` and
    ``ActionPlanner._plan_push``), so ``actors`` ARE the movers -- no
    peer sampling or state checks remain; for a ``push`` plan they are
    the converted *targets*, drawn from the match pool.  ``tokens``
    carries a tokenize action's per-trial fired-token counts instead of
    actor ids (token routing never needs the actors' identities).
    """

    action: object
    actors: np.ndarray
    prefired: bool = False
    tokens: Optional[np.ndarray] = None


class TrialMemberPools:
    """Per-(state, trial) member pools in lazily allocated ``(M, n)`` rows.

    The engine's incremental-membership store, upgraded from capped
    flat lists to one ``(allocated_states, M, n)`` tensor: row
    ``(s, m)`` holds the global ids of trial ``m``'s alive members of
    state ``s`` in its first ``sizes[s, m]`` slots, in arbitrary order.
    A positional index (``pos[gid]`` = the gid's column in its state's
    row) makes removals O(movers) swap-deletes instead of O(list)
    ``isin`` filters, so *every* referenced state stays tracked -- no
    population cap, no per-period re-grouping sorts, no O(M * N) mask
    scans once the simulation is running.

    The pools are what the planner's dense probe samples from: probing
    uniform *pool positions* instead of uniform host ids makes the
    acceptance rate at least 3/4 independent of how dense the state is
    (only same-period duplicates reject), where host-id probing pays
    the inverse of the state's density.

    Mutations must keep the engine's period discipline: the engine
    applies the period's membership deltas *after* executing every
    action, so during planning and execution the pools always describe
    the period-start membership.

    Row allocation is **lazy**: construction builds rows only for the
    tracked states that actually hold members (one ``bincount`` over
    the batch decides which), and a state that starts empty gets its
    ``(M, n)`` row -- zero-filled, no batch scan -- the first time it
    is referenced: the first :meth:`add` of members, or a
    :meth:`members`/:meth:`grouped` lookup.  Memory is therefore
    ``O(occupied_states * M * n)`` int32 (~6 MB per occupied state at
    the paper scales M=64, n=10k; ~25 MB at M=64, n=100k) instead of
    ``O(referenced_states * M * n)``, so a wide synthesized system with
    dozens of mostly-empty states pays only for the states its
    trajectory visits.  Laziness is invisible to the draw stream: an
    empty state's row starts empty either way, and rows evolve
    identically from there, so batch-mode results are bit-for-bit
    unchanged by when the zeroed memory appeared.

    Invariant (checked by the engine's ``_validate_consistency``): a
    tracked state without an allocated row has no alive members --
    every way a state gains members goes through :meth:`add` /
    :meth:`add_many`, which allocate.
    """

    def __init__(
        self,
        sids: Sequence[int],
        trials: int,
        n: int,
        states_flat: np.ndarray,
        alive_flat: Optional[np.ndarray] = None,
    ):
        self.trials = trials
        self.n = n
        #: The states these pools manage.  ``slots`` maps the subset
        #: with allocated rows to their row indices; the rest allocate
        #: on first reference.
        self.tracked = frozenset(int(sid) for sid in sids)
        self.slots: Dict[int, int] = {}
        # int32 gids: half the gather/scatter traffic of the planner's
        # probe; batches are bounded far below 2**31 positions.
        self.pool = np.zeros((0, trials, n), dtype=np.int32)
        self._pool_flat = self.pool.reshape(-1)
        self.sizes = np.zeros((0, trials), dtype=np.int64)
        #: Column of each pooled gid within its state's row.  Entries of
        #: gids not currently pooled are stale and never read.
        self.pos = np.zeros(trials * n, dtype=np.int64)
        self._flag = np.zeros(trials * n, dtype=bool)
        #: Memoized grouped() layouts, invalidated when a state's rows
        #: change -- near-stationary states (the endemic receptive
        #: pool) then serve their full-prob actions without a rebuild.
        self._grouped_cache: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        if self.tracked:
            # One batch-wide occupancy count decides which states get
            # rows now; empty ones wait for their first reference.
            counted = states_flat if alive_flat is None \
                else states_flat[alive_flat]
            occupied = np.bincount(
                counted, minlength=max(self.tracked) + 1
            )
            for sid in sorted(self.tracked):
                if occupied[sid]:
                    self._allocate(sid)
                    self._build(sid, states_flat, alive_flat)

    def _allocate(self, sid: int) -> int:
        """Assign (and zero) a row for ``sid``, growing the tensor."""
        if sid not in self.tracked:
            raise KeyError(f"state {sid} is not tracked by these pools")
        slot = len(self.slots)
        if slot >= self.pool.shape[0]:
            grow = max(1, self.pool.shape[0])
            self.pool = np.concatenate([
                self.pool,
                np.zeros((grow, self.trials, self.n), dtype=np.int32),
            ])
            self._pool_flat = self.pool.reshape(-1)
            self.sizes = np.concatenate([
                self.sizes,
                np.zeros((grow, self.trials), dtype=np.int64),
            ])
        self.slots[sid] = slot
        return slot

    def slot(self, sid: int) -> int:
        """The row index of ``sid``, allocating the row on first use.

        Post-construction allocation never scans the batch: a tracked
        state without a row holds no members (see the class invariant),
        so its fresh row is correctly empty.
        """
        got = self.slots.get(sid)
        if got is None:
            got = self._allocate(sid)
        return got

    def _build(
        self,
        sid: int,
        states_flat: np.ndarray,
        alive_flat: Optional[np.ndarray],
    ) -> None:
        mask = states_flat == sid
        if alive_flat is not None:
            mask &= alive_flat
        members = np.flatnonzero(mask)
        slot = self.slots[sid]
        trials_of = members // self.n
        counts = np.bincount(trials_of, minlength=self.trials)
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        cols = np.arange(members.size) - starts[trials_of]
        self.pool[slot].reshape(-1)[trials_of * self.n + cols] = members
        self.pos[members] = cols
        self.sizes[slot] = counts
        self._grouped_cache.pop(sid, None)

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def members(self, sid: int, trial: int) -> np.ndarray:
        """One trial's members of one state (a read-only view)."""
        slot = self.slot(sid)
        return self.pool[slot, trial, :self.sizes[slot, trial]]

    def grouped(self, sid: int) -> Tuple[np.ndarray, np.ndarray]:
        """All members of one state, flat and trial-grouped.

        Returns ``(grouped, bounds)`` in the :func:`segmented_choice`
        layout: trial ``m``'s members occupy
        ``grouped[bounds[m]:bounds[m + 1]]`` (within-trial order is the
        pool's arbitrary order).  Costs one O(members) gather, memoized
        until the state's rows next change.
        """
        got = self._grouped_cache.get(sid)
        if got is None:
            slot = self.slot(sid)
            sizes = self.sizes[slot]
            bounds = np.concatenate([[0], np.cumsum(sizes)])
            total = int(bounds[-1])
            rank = np.arange(total) - np.repeat(bounds[:-1], sizes)
            flat = np.repeat(np.arange(self.trials) * self.n, sizes) + rank
            got = (self.pool[slot].reshape(-1)[flat], bounds)
            self._grouped_cache[sid] = got
        return got

    # ------------------------------------------------------------------
    # Mutations (O(edited) each)
    # ------------------------------------------------------------------
    def remove(self, sid: int, gone: np.ndarray) -> None:
        """Swap-delete ``gone`` (duplicate-free, all pooled) from ``sid``.

        Surviving tail elements of each trial's row fill the holes the
        removed elements leave below the new row size, so the edit
        touches O(len(gone)) slots however large the rows are.
        """
        slot = self.slots.get(sid)
        if slot is None or gone.size == 0:
            return
        self._grouped_cache.pop(sid, None)
        seg = slot * self.trials + gone // self.n
        order = np.argsort(seg, kind="stable")
        self._remove_segments(gone[order], seg[order])

    def apply_deltas(self, removes, adds) -> None:
        """Apply one period's membership deltas in two fused passes."""
        if removes:
            self.remove_many(removes.items())
        if adds:
            self.add_many(adds.items())

    def remove_many(
        self, items: Sequence[Tuple[int, Sequence[np.ndarray]]]
    ) -> None:
        """One fused swap-delete pass over many states' removal batches.

        ``items`` maps state ids to lists of trial-grouped gid chunks
        (the engine's per-period mover batches).  All chunks are
        processed in one segment-space pass -- segment = (state row,
        trial) -- so a period with several moving edges pays one fixed
        numpy-call overhead instead of one per edge.
        """
        chunks: List[np.ndarray] = []
        seg_chunks: List[np.ndarray] = []
        total = 0
        for sid, chs in items:
            slot = self.slots.get(sid)
            if slot is None:
                continue
            for chunk in chs:
                if chunk.size:
                    self._grouped_cache.pop(sid, None)
                    total += chunk.size
                    chunks.append(chunk)
                    seg_chunks.append(
                        slot * self.trials + chunk // self.n
                    )
        if not chunks:
            return
        if total <= 4:
            # Scalar fast path: near-stationary protocols move a
            # handful of hosts per period, where the vectorized pass's
            # ~25 numpy-call overhead dwarfs the work.
            pool_flat, pos, n = self._pool_flat, self.pos, self.n
            sizes_flat = self.sizes.reshape(-1)
            for chunk, segs in zip(chunks, seg_chunks):
                for gid, seg in zip(chunk.tolist(), segs.tolist()):
                    size = sizes_flat[seg] = sizes_flat[seg] - 1
                    col = pos[gid]
                    last = pool_flat[seg * n + size]
                    pool_flat[seg * n + col] = last
                    pos[last] = col
            return
        gone = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
        seg = np.concatenate(seg_chunks) if len(chunks) > 1 else seg_chunks[0]
        if len(chunks) > 1:
            order = np.argsort(seg, kind="stable")
            gone = gone[order]
            seg = seg[order]
        self._remove_segments(gone, seg)

    def _remove_segments(self, gone: np.ndarray, seg: np.ndarray) -> None:
        """Swap-delete segment-sorted ``gone``; ``seg`` = row * M + trial."""
        n, pos, flag = self.n, self.pos, self._flag
        sizes_flat = self.sizes.reshape(-1)
        removed = np.bincount(seg, minlength=sizes_flat.size)
        new_sizes = sizes_flat - removed
        cols = pos[gone]
        flag[gone] = True
        active = np.flatnonzero(removed)
        tail_counts = removed[active]
        tail_rank = (
            np.arange(int(tail_counts.sum()))
            - np.repeat(
                np.concatenate([[0], np.cumsum(tail_counts)[:-1]]),
                tail_counts,
            )
        )
        tail = self._pool_flat[
            np.repeat(active * n + new_sizes[active], tail_counts)
            + tail_rank
        ]
        keep_tail = tail[~flag[tail]]
        hole_mask = cols < new_sizes[seg]
        holes = cols[hole_mask]
        self._pool_flat[seg[hole_mask] * n + holes] = keep_tail
        pos[keep_tail] = holes
        flag[gone] = False
        sizes_flat -= removed

    def add_many(
        self, items: Sequence[Tuple[int, Sequence[np.ndarray]]]
    ) -> None:
        """One fused append pass over many states' addition batches."""
        chunks: List[np.ndarray] = []
        seg_chunks: List[np.ndarray] = []
        total = 0
        for sid, chs in items:
            if sid not in self.tracked:
                continue
            slot = self.slot(sid)
            for chunk in chs:
                if chunk.size:
                    self._grouped_cache.pop(sid, None)
                    total += chunk.size
                    chunks.append(chunk)
                    seg_chunks.append(
                        slot * self.trials + chunk // self.n
                    )
        if not chunks:
            return
        if total <= 4:
            pool_flat, pos, n = self._pool_flat, self.pos, self.n
            sizes_flat = self.sizes.reshape(-1)
            for chunk, segs in zip(chunks, seg_chunks):
                for gid, seg in zip(chunk.tolist(), segs.tolist()):
                    size = sizes_flat[seg]
                    pool_flat[seg * n + size] = gid
                    pos[gid] = size
                    sizes_flat[seg] = size + 1
            return
        gids = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
        seg = np.concatenate(seg_chunks) if len(chunks) > 1 else seg_chunks[0]
        if len(chunks) > 1:
            order = np.argsort(seg, kind="stable")
            gids = gids[order]
            seg = seg[order]
        self._add_segments(gids, seg)

    def _add_segments(self, gids: np.ndarray, seg: np.ndarray) -> None:
        """Append segment-sorted ``gids``; ``seg`` = row * M + trial."""
        n = self.n
        sizes_flat = self.sizes.reshape(-1)
        added = np.bincount(seg, minlength=sizes_flat.size)
        rank = (
            np.arange(gids.size)
            - np.repeat(np.concatenate([[0], np.cumsum(added)[:-1]]), added)
        )
        cols = sizes_flat[seg] + rank
        self._pool_flat[seg * n + cols] = gids
        self.pos[gids] = cols
        sizes_flat += added

    def add(self, sid: int, gids: np.ndarray) -> None:
        """Append ``gids`` (not currently pooled in ``sid``) to its rows."""
        if sid not in self.tracked or gids.size == 0:
            return
        slot = self.slot(sid)
        self._grouped_cache.pop(sid, None)
        seg = slot * self.trials + gids // self.n
        order = np.argsort(seg, kind="stable")
        self._add_segments(gids[order], seg[order])


@dataclass
class _CoinGroup:
    """One actor state's coin-flipped and condition-thinned actions, fused."""

    sid: int
    indices: List[int]            # declaration indices, ascending
    actions: List[object]         # compiled actions, same order
    probabilities: np.ndarray     # (A,) float
    psum: float = field(init=False)

    def __post_init__(self) -> None:
        self.psum = float(self.probabilities.sum())

    @property
    def width(self) -> int:
        return len(self.actions)


class ActionPlanner:
    """Plans per-period actor selections for a compiled protocol.

    Parameters
    ----------
    compiled:
        The engine's compiled action list (declaration order).
    trials, n:
        Batch dimensions (M trials of N hosts).

    The planner partitions the compiled actions statically:

    * ``probability >= 1.0`` actions with no per-actor condition to
      thin (flips, condition-less samples, pushes) involve every member
      of their state: the members are the movers, or -- for a push --
      the heads are the counts;
    * every other action joins its state's :class:`_CoinGroup`, handled
      by the multinomial split and thinned by the count law (a
      ``probability >= 1.0`` ``sample``/``anyof``/``tokenize`` is a
      group whose no-op remainder is 0) -- unless the state's
      probabilities sum above 1 (impossible for synthesized specs,
      whose normalizing constant bounds the per-state total, but
      expressible by hand-built specs), in which case that state falls
      back to independent per-action binomials.

    :attr:`disjoint_movers` is True when the plan structure alone
    guarantees that no host can be moved twice in one period (all
    kinds move their *actors*, every actor fires at most one action),
    letting the engine skip its at-most-one-move bookkeeping.
    """

    def __init__(
        self,
        compiled: Sequence,
        trials: int,
        n: int,
        connection_failure_rate: float = 0.0,
    ):
        self.trials = trials
        self.n = n
        self._batch = trials * n
        self._failure = connection_failure_rate
        # Matches the former per-action threshold: below ~max(4, M/4)
        # expected firings, per-trial scans beat batch-wide passes.
        self._dense_threshold = max(4.0, trials / 4.0)

        self.full_actions: List[Tuple[int, object]] = []
        self.coin_groups: List[_CoinGroup] = []
        self.fallback_groups: List[_CoinGroup] = []
        by_state: Dict[int, _CoinGroup] = {}
        for index, action in enumerate(compiled):
            probability = action.probability
            if probability <= 0.0:
                continue
            thinned = (
                action.kind in ("anyof", "tokenize")
                or len(action.required) > 0
            )
            if probability >= 1.0 and not thinned:
                self.full_actions.append((index, action))
                continue
            group = by_state.get(action.actor)
            if group is None:
                group = _CoinGroup(
                    sid=action.actor, indices=[], actions=[],
                    probabilities=np.empty(0),
                )
                by_state[action.actor] = group
            group.indices.append(index)
            group.actions.append(action)
        for sid in sorted(by_state):
            group = by_state[sid]
            group.probabilities = np.array(
                [a.probability for a in group.actions], dtype=float
            )
            group.__post_init__()
            if group.psum <= 1.0:
                self.coin_groups.append(group)
            else:
                self.fallback_groups.append(group)

        # The fused (G, 1, K) probability tensor: row g holds group g's
        # action probabilities, zero padding, and the no-op remainder
        # last, so one broadcast multinomial call serves every group.
        if self.coin_groups:
            width = max(g.width for g in self.coin_groups)
            pvals = np.zeros((len(self.coin_groups), 1, width + 1))
            for g, group in enumerate(self.coin_groups):
                pvals[g, 0, :group.width] = group.probabilities
                pvals[g, 0, -1] = 1.0 - group.psum
            self._pvals = pvals
            self._group_sids = np.array(
                [g.sid for g in self.coin_groups], dtype=np.int64
            )
        else:
            self._pvals = None
            self._group_sids = np.empty(0, dtype=np.int64)

        self.disjoint_movers = self._movers_disjoint(compiled)

        # Peer-contact widths: messages an actor of each action sends
        # per period (0 for flips).  Summed once per period from the
        # multinomial splits, message accounting stays exact even for
        # trials whose selection was thinned away -- their actors still
        # send, they just cannot convert anyone.
        self._msg_width = {
            index: _action_width(action)
            for index, action in enumerate(compiled)
        }
        self._group_widths = [
            np.array([self._msg_width[i] for i in g.indices], dtype=np.int64)
            for g in self.coin_groups
        ]
        self._group_has_width = [
            bool(w.any()) for w in self._group_widths
        ]
        # Analytic push eligibility: a push action's movers are its
        # *targets*, drawn by every firing actor as iid uniform peers.
        # With the match state disjoint from the actor state, all
        # actors see the same match mass, so the surviving matched
        # contacts follow one exact binomial law and the movers can be
        # sampled straight from the match pool (see _plan_push) -- no
        # per-actor target draws, no batch-wide state checks.  A push
        # whose match state IS its actor state keeps the explicit path
        # (each actor excludes itself, breaking the single-q symmetry).
        self._push_analytic = {
            index: action.kind == "push" and action.match != action.actor
            for index, action in enumerate(compiled)
        }
        #: States whose *members* a plan selects or probes -- the only
        #: states the engine keeps member pools for.  An analytic push
        #: draws from its match pool and a tokenize from its token pool;
        #: of their actor states both need only the counts.
        self.selected_states = frozenset(
            int(action.match) if self._push_analytic[index]
            else int(action.token_state) if action.kind == "tokenize"
            else int(action.actor)
            for index, action in enumerate(compiled)
            if action.probability > 0.0
        )
        # Columns lifted out of the actor-selection pass entirely:
        # tokenize (token routing needs counts, not actor identities)
        # and analytic push (movers come from the match pool).
        self._group_lifted = [
            any(
                a.kind == "tokenize" or self._push_analytic[i]
                for i, a in zip(g.indices, g.actions)
            )
            for g in self.coin_groups
        ]

        # Analytic condition thinning: a selected actor of a sample /
        # anyof / tokenize action fires iff its uniformly-drawn peers
        # match the required states -- an independent Bernoulli whose
        # probability is an exact function of the period-start counts.
        # Thinning the splits by it (``movers | heads ~ Binomial(heads,
        # q)``, the serial engine's own conditional law) means only the
        # *movers* are ever selected; peer draws and state checks for
        # these kinds disappear from the batch hot path entirely, at
        # every probability: a ``probability >= 1.0`` action is a coin
        # group whose heads are the whole state.
        # ``push`` movers are *targets*, handled by their own analytic
        # law (``_plan_push``) whenever the match state differs from
        # the actor state; protocols whose coins are all flips skip
        # thinning statically, leaving their draw stream untouched.
        coin_kinds = {
            a.kind
            for grp in (self.coin_groups + self.fallback_groups)
            for a in grp.actions
        }
        self._thinning = bool(
            coin_kinds & {"sample", "anyof", "tokenize"}
        )
        self._prefired = {
            index: action.kind in ("flip", "sample", "anyof")
            for index, action in enumerate(compiled)
        }
        self._q_buf: Optional[np.ndarray] = None

        # Dense-probe and push-dedupe scratch (lazy: sparse-regime
        # protocols never pay the 5 bytes per host).  ``_taken`` is
        # kept all-False between calls; ``_slot`` is always written
        # before it is read.
        self._taken: Optional[np.ndarray] = None
        self._slot: Optional[np.ndarray] = None
        self._arange: Optional[np.ndarray] = None

    def _taken_mask(self) -> np.ndarray:
        """The all-False ``(M * n + 1,)`` scratch mask (callers reset it).

        The extra trailing slot is the dummy position that absorbs
        dense probes landing beyond a row's live size.
        """
        if self._taken is None:
            self._taken = np.zeros(self._batch + 1, dtype=bool)
        return self._taken

    def _movers_disjoint(self, compiled: Sequence) -> bool:
        """Can the planned movers of one period ever collide?

        ``push`` moves its *targets* and ``tokenize`` moves members of
        the token state, so those kinds can collide with anything.  For
        actor-moving kinds (flip/sample/anyof), actors of different
        states are disjoint by definition and the multinomial split
        makes actors within a state fire at most one action -- unless a
        state mixes a ``probability >= 1.0`` action (which fires every
        member) with any other action, or needed the independent-coin
        fallback.
        """
        if self.fallback_groups:
            return False
        if any(
            action.kind not in ("flip", "sample", "anyof")
            for action in compiled if action.probability > 0.0
        ):
            return False
        full_sids = [action.actor for _, action in self.full_actions]
        if len(set(full_sids)) != len(full_sids):
            return False  # two all-member actions on one state
        if {g.sid for g in self.coin_groups} & set(full_sids):
            return False  # all-member action overlaps a coin group
        return True

    # ------------------------------------------------------------------
    # Per-period planning
    # ------------------------------------------------------------------
    def plan(
        self,
        rng: np.random.Generator,
        counts0: np.ndarray,
        pools: TrialMemberPools,
    ) -> Tuple[List[PlannedAction], np.ndarray]:
        """Select the actors of every action for one period.

        ``counts0`` is the period-start ``(M, S)`` count matrix and
        ``pools`` the period-start membership pools of
        :attr:`selected_states`.  Returns ``(plans, messages)``:
        ``(action, actors)`` pairs in action declaration order (empty
        selections omitted) plus the period's exact per-trial
        peer-contact counts -- charged from the splits, so trials whose
        selection was thinned away still pay for the sends their
        unobservable actors make.
        """
        plans: Dict[int, PlannedAction] = {}
        messages = np.zeros(self.trials, dtype=np.int64)
        for index, action in self.full_actions:
            actor_counts = counts0[:, action.actor]
            if not actor_counts.any():
                continue
            width = self._msg_width[index]
            if width:
                messages += width * actor_counts
            if self._push_analytic[index]:
                # Every member fires, so the heads are the counts; the
                # movers come straight from the analytic conversion law.
                self._plan_push(
                    plans, rng, index, action, actor_counts, counts0, pools,
                )
                continue
            plans[index] = PlannedAction(
                action, pools.grouped(action.actor)[0],
                prefired=self._prefired[index],
            )

        if self.coin_groups:
            occupancy = counts0[:, self._group_sids].T  # (G, M)
            splits_all = rng.multinomial(occupancy, self._pvals)
            if self._thinning:
                movers_all = rng.binomial(
                    splits_all[:, :, :-1], self._q_tensor(counts0)
                )
            else:
                movers_all = splits_all[:, :, :-1]
            dense: List[Tuple[_CoinGroup, np.ndarray, np.ndarray]] = []
            for g, group in enumerate(self.coin_groups):
                if self._group_has_width[g]:
                    # Messages charge the unthinned coin counts: every
                    # head sends, whether or not its peers matched.
                    messages += (
                        splits_all[g][:, :group.width]
                        @ self._group_widths[g]
                    )
                splits = movers_all[g][:, :group.width]  # (M, A)
                if self._group_lifted[g]:
                    splits = splits.copy()
                    for a, (index, action) in enumerate(
                        zip(group.indices, group.actions)
                    ):
                        if action.kind == "tokenize":
                            # Token routing needs fired counts, not
                            # actors: lift the column out of the
                            # selection entirely.
                            fired = splits[:, a]
                            if fired.any():
                                plans[index] = PlannedAction(
                                    action, _EMPTY, prefired=True,
                                    tokens=fired.astype(np.int64),
                                )
                            splits[:, a] = 0
                        elif self._push_analytic[index]:
                            # Push movers are targets: plan them from
                            # the match pool, never selecting actors.
                            heads = splits[:, a]
                            if heads.any():
                                self._plan_push(
                                    plans, rng, index, action, heads,
                                    counts0, pools,
                                )
                            splits[:, a] = 0
                total_take = int(splits.sum())
                if total_take == 0:
                    continue
                take = splits.sum(axis=1, dtype=np.int64)
                selected = self._select_actors(
                    rng, group.sid, take, group.psum, counts0[:, group.sid],
                    pools,
                )
                if selected is None:
                    dense.append((group, splits, take))
                    continue
                actors, pre_shuffled = selected
                self._partition(
                    plans, rng, group, actors, take, splits,
                    pre_shuffled=pre_shuffled,
                )
            if dense:
                self._plan_dense(plans, rng, dense, pools)

        for group in self.fallback_groups:
            self._plan_fallback(plans, rng, group, counts0, pools, messages)
        return [plans[index] for index in sorted(plans)], messages

    # ------------------------------------------------------------------
    # Probe-vs-materialize strategy gate
    # ------------------------------------------------------------------
    def _select_actors(
        self,
        rng: np.random.Generator,
        sid: int,
        take: np.ndarray,
        probability: float,
        actor_counts: np.ndarray,
        pools: TrialMemberPools,
    ) -> Optional[Tuple[np.ndarray, bool]]:
        """Pick ``take[m]`` distinct members of state ``sid`` per trial.

        Returns ``None`` when the state belongs in the dense probe
        (the caller owns that pass: coin groups fuse theirs into one
        loop), else ``(actors, pre_shuffled)``: sorted
        :func:`segmented_choice` picks where a trial wants over a
        quarter of its state, per-trial ``Generator.choice`` scans
        where fewer than the dense threshold are expected to fire.
        """
        if probability * int(actor_counts.sum()) >= self._dense_threshold:
            if self._probe_viable(take, actor_counts):
                return None
            grouped, bounds = pools.grouped(sid)
            return segmented_choice(rng, grouped, bounds, take), False
        active = np.flatnonzero(take)
        if active.size == 0:
            return _EMPTY, True
        return np.concatenate([
            rng.choice(
                pools.members(sid, int(trial)),
                size=int(take[trial]), replace=False,
            )
            for trial in active
        ]), True

    def _probe_viable(
        self, take: np.ndarray, actor_counts: np.ndarray
    ) -> bool:
        """Should this state's selection join the fused probe pass?

        Pool-position probing costs ``take * size / (size - take)``
        draws per trial -- only same-period duplicates reject -- so it
        is viable whenever no trial wants more than a quarter of its
        state (which would collapse the acceptance rate).  Inputs are
        period-start quantities, so the decision is replay-deterministic.
        """
        return bool(np.all(take * 4 <= actor_counts))

    def _match_probability(
        self, counts0: np.ndarray, action
    ) -> Optional[np.ndarray]:
        """Per-trial probability that one selected actor's condition holds.

        Exact, not mean-field: peers are drawn uniformly from the
        ``n - 1`` other hosts (dead ones keep their slot but fail the
        alive check, so the matching mass is the *alive* count of each
        required state, minus the actor itself when it sits in that
        state), and every contact independently survives the
        connection-failure coin.  ``None`` means probability 1 (flips)
        or an unthinnable kind (push).
        """
        others = self.n - 1
        survive = 1.0 - self._failure
        if action.kind in ("sample", "tokenize"):
            if len(action.required) == 0:
                return None
            q: Optional[np.ndarray] = None
            for required in action.required:
                required = int(required)
                matching = counts0[:, required] - (
                    1 if required == action.actor else 0
                )
                # Clip into [0, 1]: a trial whose actor state is empty
                # can carry matching == n (no actor to subtract), and
                # its q is never exercised (zero heads to thin).
                term = np.clip(matching * (survive / others), 0.0, 1.0)
                q = term if q is None else q * term
            return q
        if action.kind == "anyof":
            match = int(action.match)
            matching = counts0[:, match] - (
                1 if match == action.actor else 0
            )
            per_contact = np.clip(matching * (survive / others), 0.0, 1.0)
            return 1.0 - (1.0 - per_contact) ** action.fanout
        return None

    def _q_tensor(self, counts0: np.ndarray) -> np.ndarray:
        """The ``(G, M, A_max)`` thinning probabilities for this period."""
        if self._q_buf is None:
            width = self._pvals.shape[2] - 1
            self._q_buf = np.ones(
                (len(self.coin_groups), self.trials, width)
            )
        q = self._q_buf
        # Cells of unconditioned actions (and padding) stay at their 1.0.
        for g, group in enumerate(self.coin_groups):
            for a, action in enumerate(group.actions):
                probability = self._match_probability(counts0, action)
                if probability is not None:
                    q[g, :, a] = probability
        return q

    def _plan_push(
        self,
        plans: Dict[int, PlannedAction],
        rng: np.random.Generator,
        index: int,
        action,
        heads: np.ndarray,
        counts0: np.ndarray,
        pools: TrialMemberPools,
    ) -> None:
        """Select a push action's movers directly: targets, not actors.

        A firing push actor's ``fanout`` contacts are iid uniform over
        its ``n - 1`` peers, each independently surviving the
        connection-failure coin; a contact *converts* its target iff
        the target is an alive member of the match state.  With the
        match state disjoint from the actor state (the eligibility
        condition), every contact hits a match member with the same
        exact probability ``q = (1 - f) * c_match / (n - 1)`` (dead
        hosts keep their slot and fail the check, so ``c_match`` is the
        alive count), and conditional on hitting, the hit member is iid
        uniform over the match pool.  The period's surviving matched
        contacts are therefore ``K ~ Binomial(heads * fanout, q)`` and
        the movers are the distinct members among ``K`` uniform pool
        positions -- the serial engine's own conversion law
        (``unique(targets[ok])``), reached without drawing a single
        per-actor target or scanning a single state array.  A trial
        whose match state is empty draws nothing at all, and message
        accounting still charges every head's contacts upstream.
        """
        survive = 1.0 - self._failure
        q = np.clip(
            counts0[:, action.match] * (survive / (self.n - 1)), 0.0, 1.0
        )
        hits = rng.binomial(heads * action.fanout, q)
        if not hits.any():
            return
        slot = pools.slot(action.match)
        positions = rng.integers(0, np.repeat(pools.sizes[slot], hits))
        rows = (slot * self.trials + np.arange(self.trials)) * self.n
        # Dedupe through the probe's mask: scatter the hit members, read
        # them back in id order (the sorted set ``np.unique`` returns,
        # without hashing or sorting up to heads x fanout ids).
        taken = self._taken_mask()
        taken[pools.pool.reshape(-1)[np.repeat(rows, hits) + positions]] = True
        movers = np.flatnonzero(taken)
        taken[movers] = False
        plans[index] = PlannedAction(action, movers, prefired=True)

    # ------------------------------------------------------------------
    # Partitioning a state's selection across its actions
    # ------------------------------------------------------------------
    def _partition(
        self,
        plans: Dict[int, PlannedAction],
        rng: np.random.Generator,
        group: _CoinGroup,
        actors: np.ndarray,
        take: np.ndarray,
        splits: np.ndarray,
        pre_shuffled: bool = True,
    ) -> None:
        """Assign a state's selected actors to its actions.

        ``actors`` is trial-segment-major with ``take[m]`` entries per
        trial.  Single-action groups forward the selection unchanged.
        Multi-action groups hand out consecutive runs of
        ``splits[m, a]`` actors per action -- the multinomial's
        exclusive assignment -- which requires the order within each
        trial segment to be uniform.  Probe draw order and
        ``Generator.choice`` order already are (``pre_shuffled``);
        sorted selections (``segmented_choice``) get an explicit
        segmented shuffle first.
        """
        if actors.size == 0:
            return
        if group.width == 1:
            index = group.indices[0]
            plans[index] = PlannedAction(
                group.actions[0], actors, prefired=self._prefired[index]
            )
            return
        if not pre_shuffled:
            # One fused sort key: integer segment id + uniform [0, 1)
            # jitter sorts by segment with a uniform shuffle inside it.
            seg = np.repeat(np.arange(self.trials), take)
            actors = actors[np.argsort(seg + rng.random(actors.size))]
        assignment = np.repeat(
            np.tile(np.arange(group.width), self.trials), splits.ravel()
        )
        for a, (index, action) in enumerate(
            zip(group.indices, group.actions)
        ):
            chosen = actors[assignment == a]
            if chosen.size:
                plans[index] = PlannedAction(
                    action, chosen, prefired=self._prefired[index]
                )

    # ------------------------------------------------------------------
    # The fused dense rejection probe
    # ------------------------------------------------------------------
    def _plan_dense(
        self,
        plans: Dict[int, PlannedAction],
        rng: np.random.Generator,
        batch_groups: List[Tuple[_CoinGroup, np.ndarray, np.ndarray]],
        pools: TrialMemberPools,
    ) -> None:
        """Select actors for every dense state in one probe loop.

        Pool-position rejection sampling, fused across every dense
        (state, trial) segment: each segment probes uniform *positions*
        of its own member-pool row, so every probe lands on a valid
        member and only same-period duplicates reject -- acceptance is
        at least 3/4 however dense or sparse the state is (host-id
        probing, by contrast, pays the inverse of the state's density).
        Pool rows of different states hold disjoint gid sets, so one
        shared ``taken`` mask deduplicates the whole pass, and the
        number of random draws stays proportional to the total firing
        count.  Keeping each segment's first ``need`` valid probes in
        draw order is sequential uniform sampling without replacement,
        so the per-segment order is itself uniform (what the partition
        step relies on).
        """
        n = self.n
        trials = self.trials
        if self._slot is None:
            self._slot = np.zeros(self._batch + 1, dtype=np.int32)
        taken, slot = self._taken_mask(), self._slot
        dummy = self._batch

        n_segments = len(batch_groups) * trials
        need = np.concatenate([take for _, _, take in batch_groups])
        slots = [pools.slot(group.sid) for group, _, _ in batch_groups]
        seg_sizes = np.concatenate([pools.sizes[s] for s in slots])
        group_max = np.array(
            [int(pools.sizes[s].max()) for s in slots], dtype=np.int64
        )
        trial_arange = np.arange(trials, dtype=np.int64)
        seg_base = np.concatenate([
            (s * trials + trial_arange) * n for s in slots
        ])
        pool_flat = pools.pool.reshape(-1)
        # Acceptance per probe: lands inside the row's live size
        # (scalar per-group draws use the group's max row size) and is
        # not a same-period duplicate.
        acceptance = group_max.repeat(trials) / np.maximum(
            seg_sizes - need, 1
        )
        need = need.astype(np.int64).copy()
        actor_chunks: List[np.ndarray] = []
        seg_chunks: List[np.ndarray] = []
        first_round = True
        while True:
            active = np.flatnonzero(need)
            if active.size == 0:
                break
            # Oversample by the inverse acceptance plus a four-sigma
            # binomial margin, so virtually every period resolves in a
            # single round (the redraw is the rare tail).
            expected = need[active] * acceptance[active]
            draws = (
                expected + 4.0 * np.sqrt(expected) + 8.0
            ).astype(np.int64)
            candidate_seg = np.repeat(active, draws)
            total = int(draws.sum())
            # One scalar-bound draw per group (a scalar bound is ~3x
            # faster than per-element bounds); probes at positions
            # beyond their own row's size are parked on the dummy.
            positions = np.empty(total, dtype=np.int64)
            offset = 0
            for gi in range(len(slots)):
                lo = np.searchsorted(active, gi * trials)
                hi = np.searchsorted(active, (gi + 1) * trials)
                count = int(draws[lo:hi].sum())
                if count:
                    positions[offset:offset + count] = rng.integers(
                        0, group_max[gi], size=count
                    )
                offset += count
            inside = positions < seg_sizes[candidate_seg]
            all_inside = bool(inside.all())
            gids = pool_flat[seg_base[candidate_seg] + positions]
            if not all_inside:
                gids = np.where(inside, gids, dummy)
            if self._arange is None or self._arange.size < total:
                grown = max(total, 2 * (0 if self._arange is None
                                        else self._arange.size))
                self._arange = np.arange(grown, dtype=np.int32)
            index = self._arange[:total]
            # Duplicate probes of one member within this round: the
            # last writer wins, the rest are dropped (they are surplus
            # -- the deficit recount below redraws if needed).  Probes
            # of members kept in an earlier round (``taken``; empty in
            # round one) and out-of-row probes (the dummy, whose
            # ``taken`` stays False) are masked out afterwards.
            slot[gids] = index
            winner_mask = slot[gids] == index
            if not all_inside:
                winner_mask &= inside
            if not first_round:
                winner_mask &= ~taken[gids]
            first_round = False
            winners = gids[winner_mask]
            winner_seg = candidate_seg[winner_mask]
            # Winners are in draw order and therefore segment-grouped;
            # keep each segment's first need[s] of them.
            winner_counts = np.bincount(winner_seg, minlength=n_segments)
            starts = np.concatenate([[0], np.cumsum(winner_counts)[:-1]])
            rank = np.arange(winners.size) - starts[winner_seg]
            keep = rank < need[winner_seg]
            kept = winners[keep]
            kept_seg = winner_seg[keep]
            taken[kept] = True
            actor_chunks.append(kept)
            seg_chunks.append(kept_seg)
            need -= np.bincount(kept_seg, minlength=n_segments)
        if not actor_chunks:
            return
        if len(actor_chunks) == 1:
            # Single-round fast path (the overwhelmingly common case):
            # winners are already segment-grouped in draw order.
            actors = actor_chunks[0]
        else:
            actors = np.concatenate(actor_chunks)
            seg = np.concatenate(seg_chunks)
            # Group by segment; the stable sort preserves draw order
            # within each segment, keeping the per-segment ordering
            # uniform (later rounds simply continue the probe stream).
            actors = actors[np.argsort(seg, kind="stable")]
        taken[actors] = False
        offset = 0
        for group, splits, take in batch_groups:
            count = int(take.sum())
            self._partition(
                plans, rng, group, actors[offset:offset + count],
                take, splits,
            )
            offset += count

    # ------------------------------------------------------------------
    # Independent-coin fallback (per-state probabilities summing > 1)
    # ------------------------------------------------------------------
    def _plan_fallback(
        self,
        plans: Dict[int, PlannedAction],
        rng: np.random.Generator,
        group: _CoinGroup,
        counts0: np.ndarray,
        pools: TrialMemberPools,
        messages: np.ndarray,
    ) -> None:
        """Legacy semantics for a state whose coin probabilities exceed 1.

        Such a state cannot be a multinomial split (the no-op remainder
        would be negative), so its actions keep fully independent
        ``Binomial(count, p)`` coins -- the pre-planner behavior, with
        possible actor overlap resolved by the engine's at-most-one-move
        rule (``disjoint_movers`` is False whenever this path exists).
        """
        actor_counts = counts0[:, group.sid]
        if not actor_counts.any():
            return
        for index, action in zip(group.indices, group.actions):
            probability = action.probability
            heads = rng.binomial(actor_counts, probability)
            width = self._msg_width[index]
            if width:
                messages += width * heads
            if self._push_analytic[index]:
                if heads.any():
                    self._plan_push(
                        plans, rng, index, action, heads, counts0, pools,
                    )
                continue
            match_probability = self._match_probability(counts0, action)
            if match_probability is not None:
                heads = rng.binomial(heads, match_probability)
            if action.kind == "tokenize":
                if heads.any():
                    plans[index] = PlannedAction(
                        action, _EMPTY, prefired=True,
                        tokens=heads.astype(np.int64),
                    )
                continue
            if not heads.any():
                continue
            # A one-action group: partitioning it is a plain forward.
            single = _CoinGroup(
                sid=group.sid, indices=[index], actions=[action],
                probabilities=np.array([probability]),
            )
            take = heads.astype(np.int64)
            selected = self._select_actors(
                rng, group.sid, take, probability, actor_counts, pools,
            )
            if selected is None:
                self._plan_dense(
                    plans, rng, [(single, heads[:, None], take)], pools
                )
            else:
                self._partition(
                    plans, rng, single, selected[0], take, heads[:, None]
                )
