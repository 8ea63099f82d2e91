"""Per-period planning for the batch engine: how many hosts move.

The paper's system model (Section 3) gives each actor one *multi-way*
coin per period: an actor in state ``s`` picks among ``s``'s actions
with their respective probabilities or does nothing.  Hosts in one
state are exchangeable, so the whole period is a step of the *census*
Markov chain -- the ``(M, S)`` count matrix -- the object mean-field
analysis of population protocols is about (Bournez et al.;
Chatzigiannakis & Spirakis) and that simulation of huge populations
steps directly (Kosowski & Uznanski).  :meth:`ActionPlanner.census`
draws it from the period-start counts alone: every action's new movers
per trial, in declaration order, through the count laws of
:mod:`repro.runtime.laws`.  No host array exists, so its cost is
independent of ``N``.  :meth:`ActionPlanner.limit` is the same period
at ``N -> infinity``: the exact round map.

Per-action marginals match the serial engine's -- ``Binomial(count,
p * q)`` movers -- but actors fire *at most one* action of their state
per period, the paper's own actor model (the serial engine keeps
independent per-action coins with declaration-order conflict
resolution; the two agree to the ``O((p c)^2)`` order the normalizing
constant already bounds).  A protocol outside that model -- a state
whose coins sum above 1, or a push whose contacts look for its own
actor state -- is refused by name (:func:`census_refusal`); the serial
tier runs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .laws import (
    BINOMIAL_SPLIT,
    MULTINOMIAL_SPLIT,
    OVERLAP,
    PUSH,
    RIDING_PUSH,
    THINNING,
    TOKEN_CAP,
    TTL_BINOMIAL,
    Law,
    ttl_reach,
)
from .sampling import segment_ranks

__all__ = ["ActionPlanner", "CensusError", "TrialMemberPools", "census_refusal"]

#: One action's new movers: ``(compiled action, (M,) counts)``.
Move = Tuple[object, np.ndarray]


class CensusError(RuntimeError):
    """Something a batch trial's census cannot run or answer: which
    hosts, or a protocol outside its one-coin-per-state model."""


def _full(action) -> bool:
    """Fires every member of its state: a ``probability >= 1.0`` action
    with no per-actor condition to thin (a flip, a condition-less
    sample, a push).  Every other action is a side of its state's coin."""
    return action.probability >= 1.0 and not (
        action.kind in ("anyof", "tokenize") or len(action.required) > 0
    )


def census_refusal(
    compiled: Sequence, state_names: Sequence[str]
) -> Optional[str]:
    """Why the census cannot draw these actions, or None when it can.

    The census draws one multi-way coin per actor state (paper Section
    3), and a push's contacts as throws at a state its actors are not
    in.  Synthesized specs always fit: their normalizing constant
    bounds each state's coin mass.  A hand-built state whose coins (the
    actions that do not fire every member) sum above 1 does not, nor
    does a push at its own actor state.  The answer is the refusal's
    message: the batch tier raises it as :class:`CensusError`, and
    ``Experiment(engine="auto")`` runs such a spec on the serial tier.
    """
    mass: Dict[int, float] = {}
    for action in compiled:
        sid = action.actor
        if action.kind == "push" and action.match == sid:
            reason = (
                f"a push of state {state_names[sid]} looks for its own "
                f"state (the census throws contacts at other states)"
            )
            break
        if action.probability > 0.0 and not _full(action):
            mass[sid] = mass.get(sid, 0.0) + action.probability
    else:
        over = [sid for sid in sorted(mass) if mass[sid] > 1.0 + 1e-12]
        if not over:
            return None
        reason = (
            f"state {state_names[over[0]]}'s coin mass {mass[over[0]]:g} "
            f"> 1 (the census draws one coin per state)"
        )
    return f'{reason}: run it with engine="serial" (engine="auto" does)'


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
    #: that fires every actor.
    cell: Optional[Tuple[int, int]] = None
    #: Columns of the same multinomial's earlier actor picks, which are
    #: disjoint from this one by construction.
    own: Tuple[int, ...] = ()
    #: Earlier actions whose movers this pick can land on: a different
    #: draw leaving the same state.  Empty: it never draws an overlap.
    overlaps: Tuple[int, ...] = ()
    #: Its thinning term of the planner's ``_terms`` (the view into the
    #: ``q`` buffer its peer-match probabilities are kept in first), if
    #: it has a condition to thin.
    term: Optional[tuple] = None
    #: An actor's own move that nothing overlaps and no later action of
    #: its state reads: its thinned heads are its movers.
    plain: bool = False
    #: The laws (:mod:`repro.runtime.laws`) it draws each period, in the
    #: order :meth:`ActionPlanner.census` draws them (a push's last).
    laws: Tuple[Law, ...] = ()


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
      remainder is 0).  The batch engine builds a planner only for a
      spec that fits (:func:`census_refusal`).

    and lowers them, once, to a **period program** -- the thinning
    terms with kept views into the ``q`` buffer, the message-bearing
    cells, and one :class:`_Step` per action -- so that a period is its
    draws plus a fixed run of array operations (:meth:`describe` shows
    the program; docs/experiment.md says what a period of it costs),
    each step holding the laws (:mod:`repro.runtime.laws`) it draws
    through.  A two-sided split is the binomial split, and the first
    full push's contacts may ride in the thinning call: either way the
    same bits are consumed in the same order.
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
        by_state: Dict[int, _StateGroup] = {}
        for index, action in enumerate(compiled):
            if action.probability <= 0.0:
                continue
            if _full(action):
                self.full_actions.append((index, action))
                continue
            group = by_state.setdefault(
                action.actor, _StateGroup(sid=action.actor)
            )
            group.indices.append(index)
            group.actions.append(action)
        self.coin_groups = [by_state[sid] for sid in sorted(by_state)]

        # The fused (G, 1, K) probability tensor: row g holds group g's
        # action probabilities, zero padding, and the no-op remainder
        # last, so one broadcast multinomial call serves every group.
        self._pvals: Optional[np.ndarray] = None
        width = max((g.width for g in self.coin_groups), default=0)
        if self.coin_groups:
            self._pvals = np.zeros((len(self.coin_groups), 1, width + 1))
            for g, group in enumerate(self.coin_groups):
                self._pvals[g, 0, :group.width] = group.probabilities
                # A sum rounded a hair above 1 leaves no remainder.
                self._pvals[g, 0, -1] = max(0.0, 1.0 - group.psum)
        self._group_sids = np.array(
            [g.sid for g in self.coin_groups], dtype=np.int64
        )
        # Protocols whose coins are all flips or pushes skip the
        # thinning draw statically: None.
        self._thinning: Optional[Law] = THINNING if any(
            a.kind in ("sample", "anyof", "tokenize")
            for g in self.coin_groups for a in g.actions
        ) else None
        self._lower(width)

    def _lower(self, width: int) -> None:
        """Build the period program :meth:`census` runs."""
        #: A surviving contact lands on one given peer with this chance.
        self._contact = (1.0 - self._failure) / (self.n - 1)
        #: The split law, its probabilities, and the index that cuts
        #: its draw to the ``(G, M, width)`` heads.  numpy's
        #: two-category multinomial is one ``binomial`` per row,
        #: row-major, so two-sided coins draw by a plain (contiguous:
        #: numpy checks a strided ``p`` in more calls) ``binomial``.
        if width == 1:
            self._split: Law = BINOMIAL_SPLIT
            self._split_p = self._pvals[:, :, 0].copy()
            self._split_cut: tuple = (Ellipsis, None)
        else:  # the no-op side is the last column: dropped
            self._split, self._split_p = MULTINOMIAL_SPLIT, self._pvals
            self._split_cut = (Ellipsis, slice(None, -1))
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
        #: Per message-bearing cell ``(group, column, contacts)``: an
        #: actor's peer contacts per period, charged from the unthinned
        #: heads, so message accounting stays exact for trials whose
        #: movers were thinned away -- their actors still send, they
        #: just cannot convert anyone.
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
                    term=self._term(self._q[g, :, a], action),
                )
                if action.messages_per_period:
                    self._charges.append((g, a, action.messages_per_period))
                if action.kind in ("flip", "sample", "anyof"):
                    step.own = picked
                    picked += (a,)
        self._steps = [steps[index] for index in sorted(steps)]
        # Who can land on whom: two different draws leaving one state
        # (a push or tokenize beside the state's own actions, a full
        # action beside a coin group).
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
        # earlier step that can draw between them -- its elements are
        # appended to that call's: ``binomial`` draws element by
        # element, row-major, so one call over both consumes the same
        # bits in the same order (a trial that fired nobody, ``n = 0``,
        # draws nothing in either).
        self._ride: Optional[_Step] = None
        if self._thinning is not None:
            for step in self._steps:
                action = step.action
                if action.kind == "push" and step.cell is None:
                    self._ride = step
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
        # What each step draws, in census order: the objects the census
        # draws through, which :meth:`describe` names.
        for step in self._steps:
            action = step.action
            tokens = action.kind == "tokenize"
            step.laws = tuple(law for law, drawn in (
                (self._split, step.cell is not None),
                (THINNING, step.term is not None),
                (RIDING_PUSH if step is self._ride else PUSH,
                 action.kind == "push"),
                (TTL_BINOMIAL, tokens and action.ttl is not None),
                (TOKEN_CAP, tokens),
            ) if drawn)

    def _term(self, out: np.ndarray, action) -> Optional[tuple]:
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
        return self._terms[-1]

    def describe(self) -> List[Dict[str, object]]:
        """The period program as data: one row per compiled action.

        ``laws`` names the laws the action draws each period
        (:attr:`_Step.laws`), in the order :meth:`census` draws them,
        and ``overlap`` the earlier actions whose movers its pick can
        land on -- empty when it can never reach the hypergeometric.
        """
        steps = {step.action.index: step for step in self._steps}
        rows = []
        for index, action in enumerate(self._compiled):
            step = steps.get(index)
            rows.append({
                "index": index, "kind": action.kind,
                "edge": (int(action.edge_from), int(action.target)),
                "laws": tuple(law.name for law in step.laws) if step else (),
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
        its own -- and then the at-most-one-move rule, in declaration
        order: the proposed hosts that already left the state this
        period (``laws.OVERLAP``; a coin group's own earlier picks are
        disjoint from it) are not new.  An action nothing can overlap
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
            if action.messages_per_period:
                messages += action.messages_per_period * heads
        ride, hits = self._ride, None
        if self._pvals is not None:
            occupancy = cols.take(self._group_sids, axis=0)
            heads = self._split.draw(rng)(
                occupancy, self._split_p
            )[self._split_cut]
            if ride is not None:
                # The thinning cells, then the riding push's contacts:
                # ``Binomial(fired * fanout, min(c_match * contact, 1))``.
                action = ride.action
                contacts, push_q = self._ride_tail
                np.copyto(self._ride_heads, heads)
                np.multiply(fired[action.index], action.fanout, out=contacts)
                np.multiply(cols[action.edge_from], contact, out=push_q)
                np.minimum(push_q, 1.0, out=push_q)
                drawn = self._thinning.draw(rng)(self._ride_n, self._ride_p)
                thinned = drawn[:self._q.size].reshape(self._q.shape)
                hits = drawn[self._q.size:]
            elif self._thinning is not None:
                thinned = self._thinning.draw(rng)(heads, self._q)
            else:
                thinned = heads
            for g, a, width in self._charges:
                sent = heads[g, :, a]
                messages += sent if width == 1 else width * sent
            # One reduction answers every cell's "does anyone move".
            moved = np.logical_or.reduce(thinned, axis=1).tolist()

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
                # The push law, its last: ``K`` matched contacts, each
                # hitting one of the ``members`` alive match-state hosts
                # with ``q = (1 - f) * members / (n - 1)``, then the
                # distinct bins among them.  A riding push's ``K`` came
                # with the thinning call.
                law, hit = step.laws[-1], hits
                if step is not ride:
                    q = members * contact  # >= 0: clipped from above only
                    np.minimum(q, 1.0, out=q)
                    hit = law.contacts(rng)(take * action.fanout, q)
                take = law.draw(rng, members, hit)
            if action.kind == "tokenize":
                unmoved = members if gone is None else members - gone
                if action.ttl is not None:
                    fraction = np.divide(
                        unmoved, alive_counts,
                        out=np.zeros(self.trials), where=alive_counts > 0,
                    )
                    take = TTL_BINOMIAL.draw(rng)(
                        take, ttl_reach(fraction, action.ttl)
                    )
                # Tokens route to unmoved members only; excess drops.
                new = TOKEN_CAP.draw(take, unmoved)
            else:
                new = take
                if step.overlaps and gone is not None:
                    # Earlier movers this pick could land on.
                    taken = gone
                    for a in step.own:
                        taken = taken - thinned[g, :, a]
                    landed = OVERLAP.draw(rng, taken, members - gone, take)
                    if landed is not None:
                        new = take - landed
            if new is proposal or np.count_nonzero(new):
                left[source] = new if gone is None else gone + new
                moves.append((action, new))
        return moves, messages

    # ------------------------------------------------------------------
    # The N -> infinity round: the census's mean
    # ------------------------------------------------------------------
    def limit(self, x: Sequence[float]) -> List[Tuple[object, float]]:
        """Every action's movers in the ``N -> infinity`` limit.

        ``x`` holds each state's period-start alive fraction.  Returns
        ``(action, moved)`` pairs in declaration order, ``moved`` the
        fraction of the hosts leaving ``action.edge_from`` for
        ``action.target``.  It walks the program as :meth:`census`
        does, taking each law's ``limit`` where the census draws it:
        counts are fractions here, so a contact finds a state with its
        fraction times ``1 - f``, and the actor's own ``-1`` vanishes.
        Iterated, it is the exact infinite-N round map
        (:func:`repro.analysis.mean_field.discrete_mean_field`).
        """
        contact, alive = 1.0 - self._failure, sum(x)
        thinned: Dict[Tuple[int, int], float] = {}
        left: Dict[int, float] = {}  # source state -> moved so far
        moves: List[Tuple[object, float]] = []
        for step in self._steps:
            action, source = step.action, step.action.edge_from
            take = x[action.actor]
            if step.cell is not None:
                g, a = step.cell
                take = self._split.limit(take, self._split_p[g, 0])
                if np.ndim(take):  # the multinomial's sides
                    take = take[a]
                if step.term is not None:
                    _, factors, fanout = step.term
                    q = math.prod(x[state] * contact for state, _ in factors)
                    if fanout:
                        q = 1.0 - (1.0 - q) ** fanout
                    take = THINNING.limit(take, q)
                thinned[step.cell] = take
            members, gone = x[source], left.get(source, 0.0)
            if action.kind == "push":
                hit = min(members * contact, 1.0)
                take = step.laws[-1].limit(members, take * action.fanout, hit)
            if action.kind == "tokenize":
                unmoved = members - gone
                if action.ttl is not None:
                    share = unmoved / alive if alive else 0.0
                    take = TTL_BINOMIAL.limit(take, ttl_reach(share, action.ttl))
                new = TOKEN_CAP.limit(take, unmoved)
            else:
                new = take
                if step.overlaps and gone:
                    taken = gone - sum(thinned[g, a] for a in step.own)
                    new = take - OVERLAP.limit(taken, members - gone, take)
            left[source] = gone + new
            moves.append((action, new))
        return moves
