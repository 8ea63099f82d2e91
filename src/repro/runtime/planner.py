"""Per-period planning for the batch engine: how many hosts move.

Every action of a :class:`~repro.synthesis.protocol.ProtocolSpec` is a
biased coin flipped independently by each member of its actor state
(a ``probability >= 1.0`` action is the coin that always lands heads).
The paper's system model (Section 3) specifies one *multi-way* coin per
actor per period: an actor in state ``s`` picks among ``s``'s actions
with their respective probabilities or does nothing, so the number of
actors firing each action is a **multinomial split** of the state's
occupancy.  Hosts in one state are exchangeable, so the whole period is
a step of the *census* Markov chain -- the ``(M, S)`` count matrix --
the object mean-field analysis of population protocols is about
(Bournez et al.; Chatzigiannakis & Spirakis) and that simulation of
huge populations steps directly (Kosowski & Uznanski, "Population
Protocols Are Fast").  :meth:`ActionPlanner.census` draws it: from the
period-start counts alone, every action's new movers per trial, in
declaration order, with count laws (table in docs/architecture.md):
one broadcast multinomial over every (group, trial) -- a binomial when
every coin has two sides; binomial condition thinning by the exact
peer-match probability; for a push, the number of *distinct* bins hit
by its surviving contacts thrown at the match state's members (drawn as
positions); for a tokenize, the tokens capped by the unmoved
token-state members; and the at-most-one-move rule as a hypergeometric
overlap with the hosts that already left the state this period.  No
host array exists, so its cost is independent of ``N``.

Per-action marginals match the serial engine's -- ``Binomial(count,
p * q)`` movers -- but actors fire *at most one* action of their state
per period, the paper's own actor model (the serial engine keeps
independent per-action coins with declaration-order conflict
resolution; the two agree to the ``O((p c)^2)`` order the normalizing
constant already bounds).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .sampling import (
    _action_width,
    already_taken,
    distinct_per_segment,
    distinct_throws,
    segment_ranks,
)

__all__ = ["ActionPlanner", "TrialMemberPools"]

#: One action's new movers: ``(compiled action, (M,) counts)``.
Move = Tuple[object, np.ndarray]


class TrialMemberPools:
    """Per-(state, trial) member pools in lazily allocated ``(M, n)`` rows.

    No engine uses these any more: the batch engine keeps counts only.
    The class stays because the frozen benchmark harness
    (``benchmarks/perf/workloads.py``) still times it; the next change
    to the benchmark drops those rows, and then the class.

    Row ``(s, m)`` holds the global ids of trial ``m``'s members of
    state ``s`` in its first ``sizes[s, m]`` slots, in arbitrary order.
    A positional index (``pos[gid]`` = the gid's column in its state's
    row) makes removals O(movers) swap-deletes.  Rows are allocated
    lazily: construction builds rows only for the tracked states that
    hold members, and a state that starts empty gets its zero-filled row
    at its first :meth:`add_many` or :meth:`slot`/:meth:`grouped`
    lookup.  Invariant: a tracked state without an allocated row has no
    members -- a state gains members only through :meth:`add_many`,
    which allocates.
    """

    def __init__(
        self,
        sids: Sequence[int],
        trials: int,
        n: int,
        states_flat: np.ndarray,
    ):
        self.trials = trials
        self.n = n
        #: The states these pools manage.  ``slots`` maps the subset
        #: with allocated rows to their row indices; the rest allocate
        #: on first reference.
        self.tracked = frozenset(int(sid) for sid in sids)
        self.slots: Dict[int, int] = {}
        # int32 gids: half the gather/scatter traffic of int64 ones;
        # batches are bounded far below 2**31 positions.
        self.pool = np.zeros((0, trials, n), dtype=np.int32)
        self._pool_flat = self.pool.reshape(-1)
        self.sizes = np.zeros((0, trials), dtype=np.int64)
        #: Column of each pooled gid within its state's row.  Entries of
        #: gids not currently pooled are stale and never read.
        self.pos = np.zeros(trials * n, dtype=np.int64)
        self._flag = np.zeros(trials * n, dtype=bool)
        if self.tracked:
            # One batch-wide occupancy count decides which states get
            # rows now; empty ones wait for their first reference.
            occupied = np.bincount(
                states_flat, minlength=max(self.tracked) + 1
            )
            for sid in sorted(self.tracked):
                if occupied[sid]:
                    self._allocate(sid)
                    self._build(sid, states_flat)

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

    def _build(self, sid: int, states_flat: np.ndarray) -> None:
        members = np.flatnonzero(states_flat == sid)
        slot = self.slots[sid]
        trials_of = members // self.n
        counts = np.bincount(trials_of, minlength=self.trials)
        cols = segment_ranks(counts)
        self.pool[slot].reshape(-1)[trials_of * self.n + cols] = members
        self.pos[members] = cols
        self.sizes[slot] = counts

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def grouped(self, sid: int) -> Tuple[np.ndarray, np.ndarray]:
        """All members of one state, flat and trial-grouped.

        Returns ``(grouped, bounds)``: trial ``m``'s members occupy
        ``grouped[bounds[m]:bounds[m + 1]]`` (within-trial order is the
        pool's arbitrary order).  One O(members) gather per call -- an
        inspection aid (consistency checks, tests, the perf harness);
        no period of a run reads it.
        """
        slot = self.slot(sid)
        sizes = self.sizes[slot]
        flat = np.repeat(np.arange(self.trials) * self.n, sizes)
        flat += segment_ranks(sizes)
        return (
            self.pool[slot].reshape(-1)[flat],
            np.concatenate([[0], np.cumsum(sizes)]),
        )

    # ------------------------------------------------------------------
    # Mutations (O(edited) each)
    # ------------------------------------------------------------------
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
        tail = self._pool_flat[
            np.repeat(active * n + new_sizes[active], tail_counts)
            + segment_ranks(tail_counts)
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
        cols = sizes_flat[seg] + segment_ranks(added)
        self._pool_flat[seg * n + cols] = gids
        self.pos[gids] = cols
        sizes_flat += added


@dataclass
class _StateGroup:
    """Some of one state's actions, in declaration order."""

    sid: int
    indices: List[int] = field(default_factory=list)
    actions: List[object] = field(default_factory=list)

    @property
    def width(self) -> int:
        return len(self.actions)

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([a.probability for a in self.actions], dtype=float)

    @property
    def psum(self) -> float:
        return float(self.probabilities.sum())


@dataclass
class _Step:
    """One action's row of the period program: plain data, built once."""

    action: object
    #: ``(group, column)`` of its multinomial heads; None for an action
    #: that fires every actor, and for an independent-coin fallback.
    cell: Optional[Tuple[int, int]] = None
    #: Columns of the same multinomial's earlier actor picks, which are
    #: disjoint from this one by construction.
    own: Tuple[int, ...] = ()
    #: Earlier actions whose movers this pick can land on: a different
    #: draw leaving the same state.  Empty: it never draws an overlap.
    overlaps: Tuple[int, ...] = ()
    #: Where its peer-match probabilities are kept (a view into the
    #: planner's ``q`` buffer for a cell), if it has a condition to thin.
    q: Optional[np.ndarray] = None
    #: An actor's own move that nothing overlaps and no later action of
    #: its state reads: its thinned heads are its movers.
    plain: bool = False
    #: A full push whose contact binomial is drawn in the thinning call.
    rides: bool = False


class ActionPlanner:
    """Plans one period of a compiled protocol: how many hosts move.

    Parameters
    ----------
    compiled:
        The engine's compiled action list (declaration order).
    trials, n:
        Batch dimensions (M trials of N hosts).

    The planner partitions the compiled actions statically:

    * ``probability >= 1.0`` actions with no per-actor condition to
      thin (flips, condition-less samples, pushes) involve every member
      of their state: their heads are the counts;
    * every other action joins its state's coin group, split by the
      multinomial and thinned by the count law (a ``probability >=
      1.0`` ``sample``/``anyof``/``tokenize`` is a group whose no-op
      remainder is 0) -- unless the state's probabilities sum above 1
      (impossible for synthesized specs, whose normalizing constant
      bounds the per-state total, but expressible by hand-built specs),
      in which case that state's actions keep independent
      ``Binomial(count, p)`` coins and may pick the same host twice,
      which the collision law then resolves like any other overlap.

    and lowers them, once, to a **period program** -- the thinning
    terms with kept views into the ``q`` buffer, the message-bearing
    cells, and one :class:`_Step` per action -- so that a period is its
    draws plus a fixed run of array operations (:meth:`describe` shows
    the program; docs/experiment.md says what a period of it costs).
    Lowering also picks the generator call each law is drawn by, from
    the program alone: a split whose coins all have two sides is a
    ``binomial``, and the first full push's contacts may be drawn in
    the thinning call.  Either way the same bits are consumed in the
    same order.
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
        self._failure = connection_failure_rate
        self._compiled = list(compiled)

        self.full_actions: List[Tuple[int, object]] = []
        self.coin_groups: List[_StateGroup] = []
        self.fallback_groups: List[_StateGroup] = []
        by_state: Dict[int, _StateGroup] = {}
        for index, action in enumerate(compiled):
            if action.probability <= 0.0:
                continue
            thinned = (
                action.kind in ("anyof", "tokenize")
                or len(action.required) > 0
            )
            if action.probability >= 1.0 and not thinned:
                self.full_actions.append((index, action))
                continue
            group = by_state.setdefault(
                action.actor, _StateGroup(sid=action.actor)
            )
            group.indices.append(index)
            group.actions.append(action)
        for sid in sorted(by_state):
            group = by_state[sid]
            (self.coin_groups if group.psum <= 1.0
             else self.fallback_groups).append(group)

        # The fused (G, 1, K) probability tensor: row g holds group g's
        # action probabilities, zero padding, and the no-op remainder
        # last, so one broadcast multinomial call serves every group.
        self._pvals: Optional[np.ndarray] = None
        width = max((g.width for g in self.coin_groups), default=0)
        if self.coin_groups:
            self._pvals = np.zeros((len(self.coin_groups), 1, width + 1))
            for g, group in enumerate(self.coin_groups):
                self._pvals[g, 0, :group.width] = group.probabilities
                self._pvals[g, 0, -1] = 1.0 - group.psum
        self._group_sids = np.array(
            [g.sid for g in self.coin_groups], dtype=np.int64
        )
        # Peer-contact widths: messages an actor of each action sends
        # per period (0 for flips).  Charged from the unthinned heads,
        # message accounting stays exact for trials whose movers were
        # thinned away -- their actors still send, they just cannot
        # convert anyone.
        self._msg_width = [_action_width(action) for action in compiled]
        # Protocols whose coins are all flips or pushes skip the
        # thinning draw statically.
        self._thinning = any(
            a.kind in ("sample", "anyof", "tokenize")
            for g in self.coin_groups for a in g.actions
        )
        self._lower(width)

    def _lower(self, width: int) -> None:
        """Build the period program :meth:`census` runs."""
        #: A surviving contact lands on one given peer with this chance.
        self._contact = (1.0 - self._failure) / (self.n - 1)
        #: When every group has one action each coin has two sides, and
        #: numpy's two-category multinomial is one ``binomial`` per row,
        #: row-major: a plain ``binomial`` over the ``(G, 1)`` heads
        #: probabilities gives the same numbers and generator state.
        #: (Contiguous: numpy checks a strided ``p`` in more calls.)
        self._binomial_split = (
            self._pvals[:, :, 0].copy() if width == 1 else None
        )
        # The (G, M, A) thinning probabilities, rewritten in place each
        # period; cells of unconditioned actions and padding stay 1.0.
        # They head a flat buffer whose last M slots hold a riding
        # push's contact probabilities (see the end of this method).
        shape = (len(self.coin_groups), self.trials, width)
        cells = shape[0] * shape[1] * shape[2]
        self._ride_p = np.ones(cells + self.trials)
        self._q = self._ride_p[:cells].reshape(shape)
        self._scratch = np.empty(self.trials)
        #: Per thinning cell ``(view into q, [(count column, minus
        #: self)], fan-out)``: the cell's exact peer-match probability
        #: is the product over its required states of
        #: ``clip((count - self) * contact, 0, 1)``, or for an any-of
        #: ``1 - (1 - that) ** fanout``.
        self._terms: List[Tuple[np.ndarray, list, int]] = []
        #: Per message-bearing cell ``(group, column, contacts)``.
        self._charges: List[Tuple[int, int, int]] = []
        steps: Dict[int, _Step] = {
            index: _Step(action) for index, action in self.full_actions
        }
        for g, group in enumerate(self.coin_groups):
            picked: Tuple[int, ...] = ()
            for a, (index, action) in enumerate(
                zip(group.indices, group.actions)
            ):
                steps[index] = step = _Step(
                    action, cell=(g, a),
                    q=self._term(self._q[g, :, a], action),
                )
                if self._msg_width[index]:
                    self._charges.append((g, a, self._msg_width[index]))
                if action.kind in ("flip", "sample", "anyof"):
                    step.own = picked
                    picked += (a,)
        for group in self.fallback_groups:
            for index, action in zip(group.indices, group.actions):
                steps[index] = _Step(
                    action, q=self._term(np.empty(self.trials), action)
                )
        self._steps = [steps[index] for index in sorted(steps)]
        self._fallback = [
            steps[i] for g in self.fallback_groups for i in g.indices
        ]
        # Who can land on whom: two different draws leaving one state
        # (a push or tokenize beside the state's own actions, a full
        # action beside a coin group, a fallback group).
        for step in self._steps:
            step.plain = step.action.kind in ("flip", "sample", "anyof")
        for at, step in enumerate(self._steps):
            earlier = [
                s for s in self._steps[:at]
                if s.action.edge_from == step.action.edge_from
            ]
            if step.action.kind != "tokenize":
                own = {(step.cell[0], a) for a in step.own}
                step.overlaps = tuple(
                    s.action.index for s in earlier if s.cell not in own
                )
            if step.overlaps or step.action.kind == "tokenize":
                # It reads what has left the state: they all report.
                for s in earlier + [step]:
                    s.plain = False
        # A full push's contact binomial reads period-start counts only.
        # When it is the first draw after the thinning call -- no
        # fallback coins between them, no earlier step that can draw --
        # its elements are appended to that call's: ``binomial`` draws
        # element by element, row-major, so one call over both consumes
        # the same bits in the same order (a trial that fired nobody,
        # ``n = 0``, draws nothing in either).
        self._ride: Optional[_Step] = None
        if self._thinning and not self._fallback:
            for step in self._steps:
                action = step.action
                if (action.kind == "push" and step.cell is None
                        and action.match != action.actor):
                    step.rides, self._ride = True, step
                    self._ride_n = np.empty(cells + self.trials, np.int64)
                    self._ride_heads = self._ride_n[:cells].reshape(shape)
                    #: Where the push's ``(M,)`` contacts and their
                    #: per-contact hit chance are written.
                    self._ride_tail = (
                        self._ride_n[cells:], self._ride_p[cells:]
                    )
                    break
                if action.kind in ("push", "tokenize") or step.overlaps:
                    break

    def _term(self, out: np.ndarray, action) -> Optional[np.ndarray]:
        """Lower one action's peer-match probability, kept in ``out``.

        Exact, not mean-field: peers are drawn uniformly from the
        ``n - 1`` other hosts (dead ones keep their slot but fail the
        alive check, so the matching mass is the *alive* count of each
        required state, minus the actor itself when it sits in that
        state), and every contact independently survives the
        connection-failure coin.  None means probability 1 (flips,
        condition-less samples) or an unthinnable kind (push).
        """
        if action.kind in ("sample", "tokenize"):
            states, fanout = [int(r) for r in action.required], 0
        elif action.kind == "anyof":
            states, fanout = [int(action.match)], action.fanout
        else:
            return None
        if not states:
            return None
        self._terms.append(
            (out, [(s, s == action.actor) for s in states], fanout)
        )
        return out

    def describe(self) -> List[Dict[str, object]]:
        """The period program as data: one row per compiled action.

        ``laws`` names the draws the action takes each period, in the
        order :meth:`census` makes them, by the generator call that
        draws them, and ``overlap`` the earlier actions whose movers its
        pick can land on -- empty when it can never reach the
        hypergeometric.
        """
        steps = {step.action.index: step for step in self._steps}
        split = (
            "multinomial split" if self._binomial_split is None
            else "binomial split"
        )
        rows = []
        for index, action in enumerate(self._compiled):
            step, laws = steps.get(index), []
            if step is not None:
                if step.cell is not None:
                    laws.append(split)
                elif step in self._fallback:
                    laws.append("independent-coin fallback")
                if step.q is not None:
                    laws.append("binomial thinning")
                if step.rides:
                    laws.append(
                        "distinct-bin push (contacts in the thinning call)"
                    )
                elif action.kind == "push":
                    laws.append("distinct-bin push")
                if action.kind == "tokenize":
                    if action.ttl is not None:
                        laws.append("ttl binomial")
                    laws.append("token cap")
            rows.append({
                "index": index, "kind": action.kind,
                "edge": (int(action.edge_from), int(action.target)),
                "laws": tuple(laws),
                "overlap": step.overlaps if step is not None else (),
            })
        return rows

    # ------------------------------------------------------------------
    # How many: the census pass
    # ------------------------------------------------------------------
    def census(
        self,
        rng: np.random.Generator,
        counts0: np.ndarray,
        alive_counts: np.ndarray,
    ) -> Tuple[List[Move], np.ndarray]:
        """Draw every action's new movers per trial from the counts alone.

        ``counts0`` is the period-start ``(M, S)`` alive-count matrix
        (read, never written).  Returns ``(moves, messages)``:
        ``(action, new)`` pairs in declaration order, ``new[m]`` hosts
        leaving ``action.edge_from`` for ``action.target`` in trial
        ``m`` (all-zero entries omitted), plus the period's exact
        per-trial peer-contact counts.

        *Proposals* come first -- the hosts each action would move on
        its own: multinomial heads thinned by the peer-match binomial,
        a push's distinct targets, a tokenize's fired tokens.  The
        at-most-one-move rule then runs in declaration order on counts:
        a proposal is a uniform subset of its source state, so the
        number of proposed hosts that already left the state this
        period is hypergeometric, and only the rest are new.  The picks
        of one multinomial are disjoint by construction, so a coin
        group's own earlier picks are excluded from that population --
        and an action the program knows nothing else can overlap
        (:attr:`_Step.plain`) moves its thinned heads as they are.
        """
        cols = counts0.T  # cols[s]: state s's (M,) column
        contact, scratch = self._contact, self._scratch
        for out, factors, fanout in self._terms:
            into = out
            for state, minus_self in factors:
                # Clipped into [0, 1]: a trial whose actor state is
                # empty can carry matching == -1 or n (no actor to
                # subtract), and its q is never exercised (zero heads
                # to thin).  A count that subtracts nobody is >= 0.
                if minus_self:
                    np.subtract(cols[state], 1, out=into)
                    np.multiply(into, contact, out=into)
                    np.maximum(into, 0.0, out=into)
                else:
                    np.multiply(cols[state], contact, out=into)
                np.minimum(into, 1.0, out=into)
                if into is scratch:
                    np.multiply(out, scratch, out=out)
                into = scratch
            if fanout:
                np.subtract(1.0, out, out=out)
                out **= fanout
                np.subtract(1.0, out, out=out)

        messages = np.zeros(self.trials, dtype=np.int64)
        fired: Dict[int, np.ndarray] = {}  # heads drawn outside the cells
        for index, action in self.full_actions:
            # Copied: ``new`` outlives this read of the caller's counts.
            fired[index] = heads = cols[action.actor].copy()
            if self._msg_width[index]:
                messages += self._msg_width[index] * heads
        ride, hits = self._ride, None
        if self._pvals is not None:
            occupancy = cols.take(self._group_sids, axis=0)
            if self._binomial_split is None:
                heads = rng.multinomial(occupancy, self._pvals)[:, :, :-1]
            else:
                heads = rng.binomial(
                    occupancy, self._binomial_split
                )[:, :, None]
            if ride is not None:
                # The thinning cells, then the riding push's contacts:
                # ``Binomial(fired * fanout, min(c_match * contact, 1))``.
                action = ride.action
                contacts, push_q = self._ride_tail
                np.copyto(self._ride_heads, heads)
                np.multiply(fired[action.index], action.fanout, out=contacts)
                np.multiply(cols[action.edge_from], contact, out=push_q)
                np.minimum(push_q, 1.0, out=push_q)
                drawn = rng.binomial(self._ride_n, self._ride_p)
                thinned = drawn[:self._q.size].reshape(self._q.shape)
                hits = drawn[self._q.size:]
            elif self._thinning:
                thinned = rng.binomial(heads, self._q)
            else:
                thinned = heads
            for g, a, width in self._charges:
                sent = heads[g, :, a]
                messages += sent if width == 1 else width * sent
            # One reduction answers every cell's "does anyone move".
            moved = np.logical_or.reduce(thinned, axis=1).tolist()
        for step in self._fallback:
            action = step.action
            coins = rng.binomial(cols[action.actor], action.probability)
            messages += self._msg_width[action.index] * coins
            fired[action.index] = (
                coins if step.q is None else rng.binomial(coins, step.q)
            )

        moves: List[Move] = []
        left: Dict[int, np.ndarray] = {}  # source state -> moved so far
        for step in self._steps:
            action = step.action
            if step.cell is None:
                take = fired[action.index]
                if not np.count_nonzero(take):
                    continue
            else:
                g, a = step.cell
                if not moved[g][a]:
                    continue
                take = thinned[g, :, a]
            if step.plain:
                moves.append((action, take))
                continue
            proposal = take  # known to move somebody
            source = action.edge_from
            members = cols[source]
            gone = left.get(source)
            if action.kind == "push":
                take = self._push_targets(
                    rng, action, take, members, hits if step.rides else None
                )
            if action.kind == "tokenize":
                unmoved = members if gone is None else members - gone
                if action.ttl is not None:
                    fraction = np.divide(
                        unmoved, alive_counts,
                        out=np.zeros(self.trials), where=alive_counts > 0,
                    )
                    take = rng.binomial(
                        take, 1.0 - (1.0 - fraction) ** action.ttl
                    )
                # Tokens route to unmoved members only; excess drops.
                new = np.minimum(take, unmoved)
            else:
                new = take
                if step.overlaps and gone is not None:
                    # Earlier movers this pick could land on.
                    taken = gone
                    for a in step.own:
                        taken = taken - thinned[g, :, a]
                    landed = already_taken(rng, taken, members - gone, take)
                    if landed is not None:
                        new = take - landed
            if new is proposal or np.count_nonzero(new):
                left[source] = new if gone is None else gone + new
                moves.append((action, new))
        return moves, messages

    def _push_targets(
        self,
        rng: np.random.Generator,
        action,
        heads: np.ndarray,
        members: np.ndarray,
        hits: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """How many distinct match-state members a push's contacts hit.

        A firing push actor's ``fanout`` contacts are iid uniform over
        its ``n - 1`` peers, each independently surviving the
        connection-failure coin; a contact *converts* its target iff
        the target is an alive member of the match state (``members``
        of them per trial; dead hosts keep their slot and fail the
        check).  With the match state disjoint from the actor state
        every contact hits with the same exact probability ``q = (1 -
        f) * c_match / (n - 1)``, so the surviving matched contacts are
        ``K ~ Binomial(heads * fanout, q)``, each landing on a uniform
        member: the movers are the distinct bins among ``K`` uniform
        positions ``< c_match`` -- the occupancy law, the serial
        engine's ``unique(targets[ok])`` without a host in sight.  A
        trial whose match state is empty draws nothing at all.  A
        riding push (:attr:`_Step.rides`) hands in ``hits``, ``K`` as
        the thinning call drew it.
        """
        if action.match == action.actor:
            return self._self_push_targets(rng, action, heads, members)
        if hits is None:
            q = members * self._contact  # >= 0: clipped from above only
            np.minimum(q, 1.0, out=q)
            hits = rng.binomial(heads * action.fanout, q)
        return distinct_throws(rng, members, hits)

    def _self_push_targets(
        self,
        rng: np.random.Generator,
        action,
        heads: np.ndarray,
        members: np.ndarray,
    ) -> np.ndarray:
        """The push law when the match state IS the actor state.

        Each actor excludes itself from its peers, so no single ``q``
        serves every contact (hand-built specs only; no registry
        protocol has one).  The contacts are drawn one by one instead,
        still in position space: the firing actors are bins ``0 ..
        heads - 1`` (any labelling will do, members are exchangeable),
        a contact lands on one of its thrower's ``c - 1`` fellow
        members when its peer slot is below ``c - 1``, and the bin
        skips the thrower.  Treating the hit set as a uniform subset
        afterwards is exact unless the push shares a multinomial with
        actor-moving actions of the same state, where it ignores an
        ``O(1 / heads)`` tilt of the targets away from the firing
        actors.
        """
        contacts = heads * action.fanout
        trial = np.repeat(np.arange(self.trials), contacts)
        thrower = segment_ranks(contacts) // action.fanout
        slots = rng.integers(0, self.n - 1, size=trial.size)
        ok = slots < members[trial] - 1
        if self._failure > 0.0:
            ok &= rng.random(trial.size) >= self._failure
        trial, slots, thrower = trial[ok], slots[ok], thrower[ok]
        return distinct_per_segment(
            trial, slots + (slots >= thrower), self.trials,
            int(members.max()),
        )
