"""Property-based tests for the live-service replay contract.

Hypothesis drives random event-stream/query interleavings through the
synchronous :class:`ServiceCore` (no event loop, memory-backed log) and
asserts the two contracts the live tier is built on:

* **replay bit-identity** -- re-applying any logged history through the
  same code reproduces the stream, the state tensors, both generators'
  states and the RNG-driven effects exactly;
* **query-snapshot consistency** -- queries are pure reads: they agree
  with the last stream row at every point and never perturb the
  history (interleaving them anywhere changes nothing);
* **the read contract** -- the core answers from the census of its last
  mutation, so after every step every answer must equal one recomputed
  from ``engine.states`` / ``engine.alive`` from scratch, and a caller
  that scribbles on an answer must not change the next one;
* **kept shares** -- the per-row shares ``convergence`` scans are the
  stream's own rows divided afresh, for any window and tolerance and
  across a restore from a snapshot;
* **application histories** -- any file-store history, refused events
  included, replays to the same files, hosts and generator.
"""

import tempfile

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.protocols.endemic import EndemicParams
from repro.runtime.rng import generator_state
from repro.service import (
    LiveConfig, LiveEngine, ServiceCore, replay_directory, replay_events,
)
from repro.service.core import QUERY_OPS
from repro.store import MemoryEventLog, MigratoryFileStore, load_snapshot

from service_helpers import (
    assert_answers_match_arrays,
    census_from_scratch,
    scribble,
)

N = 80

hosts = st.lists(
    st.integers(min_value=0, max_value=N - 1),
    min_size=1, max_size=6, unique=True,
)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("tick"), st.integers(min_value=1, max_value=3)),
        st.tuples(st.just("fail"), st.floats(
            min_value=0.0, max_value=0.5, allow_nan=False,
        )),
        st.tuples(st.just("leave"), hosts),
        st.tuples(st.just("join"), hosts),
        st.tuples(st.just("snapshot"), st.none()),
        st.tuples(st.just("query"), st.sampled_from(QUERY_OPS)),
    ),
    min_size=1, max_size=12,
)


def build_core(seed):
    config = LiveConfig(protocol="endemic", n=N, seed=seed)
    return ServiceCore(
        LiveEngine(config), log=MemoryEventLog(), retain_stream=True,
    )


def apply_operation(core, op, arg):
    if op == "tick":
        core.tick(arg)
    elif op == "fail":
        core.apply_event("fail", {"fraction": arg})
    elif op == "leave":
        core.apply_event("leave", {"hosts": arg})
    elif op == "join":
        core.apply_event("join", {"hosts": arg})
    elif op == "snapshot":
        core.snapshot_now()
    elif op == "query":
        core.query(arg)
    else:  # pragma: no cover - strategy and dispatch must stay in sync
        raise AssertionError(op)


class TestReplayBitIdentity:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        ops=operations,
        seed=st.integers(min_value=0, max_value=2**31),
        orderly_close=st.booleans(),
    )
    def test_any_history_replays_exactly(self, ops, seed, orderly_close):
        core = build_core(seed)
        core.start()
        for op, arg in ops:
            apply_operation(core, op, arg)
        if orderly_close:
            core.close()

        report = replay_events(core.log.events)
        assert report.ok, [str(m) for m in report.mismatches]
        assert report.replayed == len(core.log.events)
        assert report.core.stream == core.stream
        assert np.array_equal(
            report.core.live.engine.states, core.live.engine.states
        )
        assert np.array_equal(
            report.core.live.engine.alive, core.live.engine.alive
        )
        # The snapshot payloads agree too, generators included (they
        # sit in meta as MT19937 state): the replayed population would
        # keep agreeing period for period forever.
        original_arrays, original_meta = core.live.snapshot()
        replayed_arrays, replayed_meta = report.core.live.snapshot()
        for key in original_arrays:
            assert np.array_equal(original_arrays[key], replayed_arrays[key])
        for key in ("rng", "fault_rng"):
            assert replayed_meta[key] == original_meta[key]
        assert replayed_meta == original_meta


class TestQuerySnapshotConsistency:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=operations, seed=st.integers(min_value=0, max_value=2**31))
    def test_queries_agree_with_stream_tail(self, ops, seed):
        core = build_core(seed)
        core.start()
        for op, arg in ops:
            apply_operation(core, op, arg)
            tail = core.stream[-1]
            counts = core.query("counts")
            assert counts["period"] == tail.period == core.live.period
            assert counts["alive"] == tail.alive
            assert tuple(
                counts["counts"][s] for s in core.live.state_names
            ) == tail.counts
            majority = core.query("majority")
            by_count = dict(zip(core.live.state_names, tail.counts))
            assert majority["count"] == max(by_count.values())
            assert by_count[majority["leader"]] == majority["count"]

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=operations, seed=st.integers(min_value=0, max_value=2**31))
    def test_queries_are_pure(self, ops, seed):
        """Interleaved queries never perturb the logged history."""
        with_queries = build_core(seed)
        with_queries.start()
        without_queries = build_core(seed)
        without_queries.start()
        for op, arg in ops:
            apply_operation(with_queries, op, arg)
            for q in ("counts", "majority", "convergence"):
                with_queries.query(q)
            if op != "query":
                apply_operation(without_queries, op, arg)
        mutations = [e for e in with_queries.log.events]
        assert mutations == without_queries.log.events
        assert with_queries.stream == without_queries.stream


def convergence_from_stream(core, tol=0.02, window=None, stream=None):
    """The convergence answer from the retained stream's last rows."""
    stream = core.stream if stream is None else stream
    rows = stream[-core.history_window:][-(window or core.history_window):]
    rows = [r for r in rows if r.alive > 0]
    if len(rows) < 2:
        return {"window": len(rows), "max_delta_fraction": None,
                "settled": False}
    deltas = [
        max(r.counts[i] / r.alive for r in rows)
        - min(r.counts[i] / r.alive for r in rows)
        for i in range(len(core.live.state_names))
    ]
    return {"window": len(rows), "max_delta_fraction": max(deltas),
            "settled": max(deltas) <= tol}


class TestReadContract:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=operations, seed=st.integers(min_value=0, max_value=2**31))
    def test_every_answer_is_the_arrays_answer(self, ops, seed):
        core = build_core(seed)
        core.start()
        for op, arg in ops:
            apply_operation(core, op, arg)
            # The stream row first: convergence is judged from rows
            # that were each checked against the arrays when written.
            counts, alive = census_from_scratch(core)
            tail = core.stream[-1]
            assert tail.counts_dict(core.live.state_names) == counts
            assert tail.alive == alive
            assert_answers_match_arrays(core)
            expected = convergence_from_stream(core)
            answer = core.query("convergence")
            assert {k: answer[k] for k in expected} == expected
            assert core.query("convergence", {"tol": 0.02}) == answer

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=operations, seed=st.integers(min_value=0, max_value=2**31))
    def test_scribbling_on_an_answer_changes_nothing(self, ops, seed):
        scribbled = build_core(seed)
        scribbled.start()
        untouched = build_core(seed)
        untouched.start()
        for op, arg in ops:
            apply_operation(scribbled, op, arg)
            apply_operation(untouched, op, arg)
            for q in QUERY_OPS:
                scribble(scribbled.query(q))
                assert scribbled.query(q) == untouched.query(q)
        assert scribbled.log.events == untouched.log.events
        assert scribbled.stream == untouched.stream


class TestKeptShares:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        ops=operations,
        seed=st.integers(min_value=0, max_value=2**31),
        history_window=st.integers(min_value=1, max_value=8),
        restore_at=st.integers(min_value=0, max_value=12),
        window=st.integers(min_value=1, max_value=10),
        tol=st.one_of(
            st.integers(min_value=0, max_value=1),
            st.floats(min_value=0.0, max_value=0.2),
        ),
    )
    def test_kept_shares_are_the_streams_shares(
        self, ops, seed, history_window, restore_at, window, tol
    ):
        with tempfile.TemporaryDirectory() as directory:
            core = ServiceCore(
                LiveEngine(LiveConfig(protocol="endemic", n=N, seed=seed)),
                directory=directory, history_window=history_window,
                retain_stream=True,
            )
            core.start()
            earlier = []  # the stream before a restore
            for step, (op, arg) in enumerate(ops):
                if step == restore_at:
                    earlier = list(core.stream)
                    path = core.snapshot_now()
                    restored = ServiceCore.from_snapshot(
                        *load_snapshot(path),
                        log=MemoryEventLog(start_seq=core.log.next_seq),
                        history_window=history_window, retain_stream=True,
                    )
                    core.close()
                    core = restored
                apply_operation(core, op, arg)
                stream = earlier + core.stream
                assert list(core._shares) == [
                    tuple(c / r.alive for c in r.counts) if r.alive else None
                    for r in stream[-history_window:]
                ]
                for params in ({}, {"window": window, "tol": tol}):
                    expected = convergence_from_stream(
                        core, stream=stream, **params
                    )
                    answer = core.query("convergence", params)
                    assert {k: answer[k] for k in expected} == expected
            if not core.closed:
                core.close()


# ----------------------------------------------------------------------
# The file store's histories replay too, refusals included
# ----------------------------------------------------------------------
store_operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.sampled_from("abc")),
        st.tuples(st.just("remove"), st.sampled_from("abc")),
        st.tuples(st.just("tick"), st.integers(min_value=1, max_value=4)),
        st.tuples(st.just("crash"), st.lists(
            st.integers(min_value=-2, max_value=N + 1), max_size=5,
        )),
        st.tuples(st.just("recover"), st.lists(
            st.integers(min_value=0, max_value=N - 1), max_size=5,
        )),
        st.tuples(st.just("fail"), st.floats(min_value=0.0, max_value=0.6)),
        st.tuples(st.just("fetch"), st.sampled_from("abc")),
    ),
    min_size=1, max_size=14,
)


class TestFileStoreHistories:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=store_operations, seed=st.integers(0, 2**31))
    def test_any_history_replays_exactly(self, ops, seed):
        with tempfile.TemporaryDirectory() as directory:
            store = MigratoryFileStore(
                N, EndemicParams(alpha=0.05, gamma=0.2, b=2), seed=seed,
                directory=directory,
            )
            store.insert("a", initial_replicas=4)
            calls = {
                "insert": store.insert, "remove": store.remove,
                "tick": store.tick, "crash": store.crash_hosts,
                "recover": store.recover_hosts,
                "fail": store.crash_random_fraction,
                "fetch": lambda name: store.fetch(name, max_probes=8),
            }
            for op, arg in ops:
                events = store.core.log.next_seq
                try:
                    calls[op](arg)
                except (KeyError, ValueError):
                    # Refused: nothing was logged (and so nothing moved,
                    # or the replay below would diverge).
                    assert store.core.log.next_seq == events
            report = replay_directory(directory)
        assert report.ok, [str(m) for m in report.mismatches]
        assert report.replayed == store.core.log.next_seq
        clone = report.core.app
        assert clone._down_hosts == store._down_hosts
        assert clone.files.keys() == store.files.keys()
        for name in store.files:
            assert np.array_equal(clone.locate(name), store.locate(name))
        assert generator_state(clone.rng) == generator_state(store.rng)
