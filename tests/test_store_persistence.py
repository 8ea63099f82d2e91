"""Tests for the store persistence layer (snapshots + event log).

Covers the durability corners the live tier depends on:

* crash-mid-write (a leftover ``.tmp`` never shadows the real file),
* corrupt-snapshot rejection (corruption is XORed over a 64-byte
  window: a single flipped byte can land in unchecked zip padding and
  prove nothing),
* concurrent readers on a log that is still being appended to,
* bit-identical resume of the two store-layer services.
"""

import json
import pickle

import numpy as np
import pytest

from repro.protocols.endemic import EndemicParams
from repro.protocols.lv import lv_protocol
from repro.runtime.rng import generator_from_state, generator_state
from repro.runtime.round_engine import RoundEngine
from repro.store import (
    EVENTS_NAME,
    EventLog,
    EventLogError,
    MajorityService,
    MemoryEventLog,
    MigratoryFileStore,
    SnapshotError,
    load_snapshot,
    read_events,
    save_snapshot,
)


def corrupt_window(path, width=64):
    """XOR a 64-byte window in the middle of a file in place."""
    blob = bytearray(path.read_bytes())
    start = len(blob) // 2
    for i in range(start, min(start + width, len(blob))):
        blob[i] ^= 0xFF
    path.write_bytes(bytes(blob))


# ----------------------------------------------------------------------
# Snapshot primitives
# ----------------------------------------------------------------------
class TestSnapshots:
    def sample(self):
        arrays = {
            "states": np.arange(100, dtype=np.int8),
            "alive": np.ones(100, dtype=bool),
            "weights": np.linspace(0.0, 1.0, 7),
        }
        meta = {"kind": "test", "period": 42, "nested": {"a": [1, 2]}}
        return arrays, meta

    def test_round_trip_is_bitwise(self, tmp_path):
        arrays, meta = self.sample()
        path = save_snapshot(tmp_path / "snap.npz", arrays, meta)
        loaded, loaded_meta = load_snapshot(path)
        assert loaded_meta == meta
        assert set(loaded) == set(arrays)
        for name, array in arrays.items():
            assert loaded[name].dtype == array.dtype
            assert np.array_equal(loaded[name], array)

    def test_object_dtype_rejected(self, tmp_path):
        with pytest.raises(SnapshotError):
            save_snapshot(
                tmp_path / "bad.npz",
                {"oops": np.array([object()])},
                {},
            )

    def test_corrupt_window_rejected(self, tmp_path):
        arrays, meta = self.sample()
        path = save_snapshot(tmp_path / "snap.npz", arrays, meta)
        corrupt_window(path)
        with pytest.raises(SnapshotError):
            load_snapshot(path)

    def test_truncated_file_rejected(self, tmp_path):
        arrays, meta = self.sample()
        path = save_snapshot(tmp_path / "snap.npz", arrays, meta)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(SnapshotError):
            load_snapshot(path)

    def test_plain_npz_rejected(self, tmp_path):
        path = tmp_path / "plain.npz"
        np.savez(path, x=np.arange(3))
        with pytest.raises(SnapshotError):
            load_snapshot(path)

    def test_crash_mid_write_leaves_previous_intact(self, tmp_path):
        arrays, meta = self.sample()
        path = save_snapshot(tmp_path / "snap.npz", arrays, meta)
        # A crash between the tmp write and os.replace leaves a stray
        # .tmp file; the published snapshot must be untouched by it.
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_bytes(b"half-written garbage")
        loaded, loaded_meta = load_snapshot(path)
        assert loaded_meta == meta
        assert np.array_equal(loaded["states"], arrays["states"])

    def test_overwrite_is_atomic_replacement(self, tmp_path):
        arrays, meta = self.sample()
        path = save_snapshot(tmp_path / "snap.npz", arrays, meta)
        arrays2 = {"only": np.array([9, 9, 9])}
        save_snapshot(path, arrays2, {"kind": "second"})
        loaded, loaded_meta = load_snapshot(path)
        assert loaded_meta == {"kind": "second"}
        assert set(loaded) == {"only"}

    def test_generator_round_trip_preserves_buffered_state(self):
        rng = np.random.Generator(np.random.MT19937(99))
        # An odd number of 32-bit draws: MT19937 buffers no spare word
        # (its state is {key, pos}), and the round trip must continue
        # the stream exactly from wherever the draws left it.
        rng.integers(0, 2**32, size=7, dtype=np.uint32)
        state = json.loads(json.dumps(generator_state(rng)))
        clone = generator_from_state(state)
        assert np.array_equal(
            rng.integers(0, 2**32, size=64, dtype=np.uint32),
            clone.integers(0, 2**32, size=64, dtype=np.uint32),
        )
        assert np.array_equal(rng.random(16), clone.random(16))

    def test_generator_state_type_checked(self):
        pcg = np.random.Generator(np.random.PCG64(1))
        with pytest.raises(SnapshotError):
            generator_from_state(pcg.bit_generator.state)


# ----------------------------------------------------------------------
# The engine codec refuses a bad field before touching the engine
# ----------------------------------------------------------------------
def mt_state(**changes):
    state = generator_state(np.random.Generator(np.random.MT19937(5)))
    state.update(changes)
    return state


def to(value):
    return lambda _: value


def state_id(sid):
    def put(states):
        states = states.copy()
        states[0] = sid
        return states
    return put


#: At least one row per field the codec reads: (field, a function from
#: the good value to a bad one; None drops the field).
BAD_FIELDS = {
    "states-dtype": ("states", lambda states: states.astype(np.int16)),
    "states-shape": ("states", lambda states: states[:-1]),
    "states-id-high": ("states", state_id(3)),  # LV has 3 states
    "states-id-negative": ("states", state_id(-1)),
    "states-missing": ("states", to(None)),
    "alive-dtype": ("alive", lambda alive: alive.astype(np.uint8)),
    "alive-shape": ("alive", to(np.ones((2, 40), dtype=bool))),
    "period-negative": ("period", to(-1)),
    "period-float": ("period", to(3.0)),
    "total_messages-bool": ("total_messages", to(True)),
    "total_messages-string": ("total_messages", to("12")),
    "rng-pos-past-key": ("rng", to(mt_state(pos=625))),
    "rng-pos-huge": ("rng", to(mt_state(pos=10**6))),
    "rng-short-key": ("rng", to(mt_state(key=[1] * 623))),
    "rng-word-too-wide": ("rng", to(mt_state(key=[2**32] + [1] * 623))),
    "rng-float-words": ("rng", to(mt_state(key=[0.5] * 624))),
    "fault_rng-extra-field": ("fault_rng", to(dict(mt_state(), spare=0))),
    "fault_rng-pcg64": ("fault_rng", to(
        np.random.Generator(np.random.PCG64(1)).bit_generator.state
    )),
}


class TestEngineCodec:
    def engine(self, seed=3):
        spec = lv_protocol(p=0.05)
        return RoundEngine(spec, n=80, initial={"x": 40, "y": 40}, seed=seed)

    def test_restore_continues_the_stream(self):
        engine = self.engine()
        for _ in range(5):
            engine.step()
        arrays, meta = engine.snapshot()
        clone = self.engine(seed=99)
        clone.restore(arrays, json.loads(json.dumps(meta)))
        for _ in range(20):
            assert clone.step() == engine.step()
            assert np.array_equal(clone.states, engine.states)
        # The fault stream is restored as its own stream.
        assert np.array_equal(
            clone.crash_fraction(0.25), engine.crash_fraction(0.25)
        )
        assert clone.snapshot()[1] == engine.snapshot()[1]

    @pytest.mark.parametrize("case", sorted(BAD_FIELDS))
    def test_a_bad_field_is_refused_by_name(self, case):
        field, replace = BAD_FIELDS[case]
        engine = self.engine()
        engine.step()
        arrays, meta = engine.snapshot()
        holder = arrays if field in arrays else meta
        bad = replace(holder.pop(field))
        if bad is not None:
            holder[field] = bad
        target = self.engine(seed=11)
        before_arrays, before_meta = target.snapshot()
        with pytest.raises(SnapshotError, match=f"^{field}: "):
            target.restore(arrays, meta)
        after_arrays, after_meta = target.snapshot()
        assert after_meta == before_meta
        for key in before_arrays:
            assert np.array_equal(after_arrays[key], before_arrays[key])


# ----------------------------------------------------------------------
# Event log durability
# ----------------------------------------------------------------------
class TestEventLog:
    def test_append_read_round_trip(self, tmp_path):
        path = tmp_path / EVENTS_NAME
        log = EventLog(path)
        log.append("init", 0, {"config": {"n": 4}})
        log.append("tick", 1, {"counts": {"x": 4}})
        log.close()
        events, torn = read_events(path)
        assert not torn
        assert [e.kind for e in events] == ["init", "tick"]
        assert events[0].data == {"config": {"n": 4}}
        assert [e.seq for e in events] == [0, 1]

    def test_refuses_existing_file(self, tmp_path):
        path = tmp_path / EVENTS_NAME
        EventLog(path).close()
        with pytest.raises(FileExistsError):
            EventLog(path)

    def test_closed_log_rejects_appends(self, tmp_path):
        log = EventLog(tmp_path / EVENTS_NAME)
        log.close()
        with pytest.raises(EventLogError):
            log.append("tick", 0)

    def test_unknown_kind_rejected(self, tmp_path):
        log = EventLog(tmp_path / EVENTS_NAME)
        with pytest.raises(EventLogError):
            log.append("explode", 0)
        log.close()

    def test_concurrent_reader_sees_flushed_prefix(self, tmp_path):
        # A replay/monitoring process may read the log while the
        # service is still appending: every flushed record is visible
        # immediately, and growth between reads is append-only.
        path = tmp_path / EVENTS_NAME
        log = EventLog(path)
        log.append("init", 0, {})
        first, torn = read_events(path)
        assert not torn
        assert len(first) == 1
        log.append("tick", 1, {})
        log.append("tick", 2, {})
        second, torn = read_events(path)
        assert not torn
        assert len(second) == 3
        assert second[: len(first)] == first
        log.close()

    def test_torn_tail_dropped_and_reported(self, tmp_path):
        path = tmp_path / EVENTS_NAME
        log = EventLog(path)
        log.append("init", 0, {})
        log.append("tick", 1, {})
        log.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"seq": 2, "kind": "ti')
        events, torn = read_events(path)
        assert torn
        assert len(events) == 2
        with pytest.raises(EventLogError):
            read_events(path, tolerate_torn_tail=False)

    def test_unterminated_but_valid_final_line_is_torn(self, tmp_path):
        path = tmp_path / EVENTS_NAME
        log = EventLog(path)
        log.append("init", 0, {})
        log.close()
        record = {"seq": 1, "period": 1, "kind": "tick", "data": {}}
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record))  # flush cut before the newline
        events, torn = read_events(path)
        assert torn
        assert len(events) == 1

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / EVENTS_NAME
        log = EventLog(path)
        log.append("init", 0, {})
        log.append("tick", 1, {})
        log.close()
        lines = path.read_text().splitlines()
        lines[0] = lines[0][:-4]  # damage a non-final line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(EventLogError):
            read_events(path)

    def test_seq_gap_raises(self, tmp_path):
        path = tmp_path / EVENTS_NAME
        records = [
            {"seq": 0, "period": 0, "kind": "init", "data": {}},
            {"seq": 2, "period": 1, "kind": "tick", "data": {}},
        ]
        path.write_text(
            "".join(json.dumps(r) + "\n" for r in records)
        )
        with pytest.raises(EventLogError):
            read_events(path)

    def test_memory_log_start_seq_alignment(self):
        log = MemoryEventLog(start_seq=5)
        assert log.next_seq == 5
        event = log.append("tick", 9, {})
        assert event.seq == 5
        assert log.next_seq == 6


# ----------------------------------------------------------------------
# Bit-identical resume of the store services
# ----------------------------------------------------------------------
class TestMajorityServicePersistence:
    def test_resume_is_bit_identical(self, tmp_path):
        service = MajorityService(
            300, np.array([0] * 200 + [1] * 100), seed=7
        )
        service.corrupt(0.2, to_version=1)
        service.poll(max_periods=4000)
        path = service.save(tmp_path / "majority.npz")

        clone = MajorityService.load(path)
        assert clone.split() == service.split()
        assert clone.clock_periods == service.clock_periods
        assert clone.polls == service.polls
        # Resumed futures agree operation for operation: same corrupt
        # victims (RNG buffer restored), same poll outcome (seeded by
        # the restored poll count).
        assert clone.corrupt(0.15) == service.corrupt(0.15)
        assert np.array_equal(clone.versions, service.versions)
        assert clone.poll(max_periods=4000) == service.poll(max_periods=4000)
        assert clone.split() == service.split()

    def test_kind_checked(self, tmp_path):
        path = save_snapshot(
            tmp_path / "other.npz", {"x": np.arange(3)}, {"kind": "other"}
        )
        with pytest.raises(SnapshotError):
            MajorityService.load(path)

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        service = MajorityService(100, np.zeros(100, dtype=int), seed=1)
        path = service.save(tmp_path / "majority.npz")
        corrupt_window(path)
        with pytest.raises(SnapshotError):
            MajorityService.load(path)


class TestFileStorePersistence:
    def make_store(self):
        params = EndemicParams(alpha=0.01, gamma=0.1, b=2)
        store = MigratoryFileStore(n=400, params=params, seed=3)
        store.insert("a.txt")
        store.insert("b.txt", size_bytes=2048)
        store.tick(50)
        store.crash_random_fraction(0.1)
        store.tick(10)
        return store

    def test_resume_is_bit_identical(self, tmp_path):
        store = self.make_store()
        path = store.save(tmp_path / "filestore.npz")
        clone = MigratoryFileStore.load(path)

        for name in ("a.txt", "b.txt"):
            assert np.array_equal(clone.locate(name), store.locate(name))
        assert np.array_equal(
            clone.crash_random_fraction(0.1),
            store.crash_random_fraction(0.1),
        )
        store.tick(25)
        clone.tick(25)
        for name in ("a.txt", "b.txt"):
            assert np.array_equal(clone.locate(name), store.locate(name))
        a = store.fetch("a.txt")
        b = clone.fetch("a.txt")
        assert a.probes == b.probes
        assert a.found == b.found

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        store = self.make_store()
        path = store.save(tmp_path / "filestore.npz")
        corrupt_window(path)
        with pytest.raises(SnapshotError):
            MigratoryFileStore.load(path)

    def test_insert_counter_survives_a_restore(self, tmp_path):
        store = self.make_store()
        store.remove("a.txt")
        clone = MigratoryFileStore.load(store.save(tmp_path / "fs.npz"))
        for each in (store, clone):
            each.insert("c.txt")
            each.tick(10)
        assert np.array_equal(clone.locate("c.txt"), store.locate("c.txt"))
        assert not np.array_equal(store.locate("c.txt"), store.locate("b.txt"))


class TestOldFormatRefused:
    """The pickled-generator layout of each store writer is refused by
    name, never unpickled."""

    def test_majority_service(self, tmp_path):
        service = MajorityService(100, np.zeros(100, dtype=int), seed=1)
        path = service.save(tmp_path / "majority.npz")
        arrays, meta = load_snapshot(path)
        arrays["rng"] = np.frombuffer(pickle.dumps(service._rng), np.uint8)
        del meta["rng"]
        save_snapshot(path, arrays, meta)
        with pytest.raises(SnapshotError, match=r"old-format .*\(rng\)"):
            MajorityService.load(path)

    def test_file_store(self, tmp_path):
        store = TestFileStorePersistence().make_store()
        path = store.save(tmp_path / "filestore.npz")
        arrays, meta = load_snapshot(path)
        arrays["fetch_rng"] = np.frombuffer(
            pickle.dumps(store._fetch_rng), np.uint8
        )
        del meta["fetch_rng"]
        save_snapshot(path, arrays, meta)
        with pytest.raises(SnapshotError, match=r"old-format .*fetch_rng"):
            MigratoryFileStore.load(path)
