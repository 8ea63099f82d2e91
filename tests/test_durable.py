"""The one durable-write seam, ``repro.store.durable``.

Its steps are read off the recording shim of ``tests/crash_states.py``
(the OS calls, not the seam's own functions), and ``test_one_seam``
keeps every rename, truncation and fsync of ``src/repro`` inside it.
"""

import ast
import errno
import inspect
import os
from pathlib import Path

import pytest

from crash_states import Disk
from repro.service import LiveConfig, LiveEngine, ServiceCore
from repro.store import EVENTS_NAME, EventLog, EventLogError, read_events
from repro.store import durable

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
SEAM = SRC / "store" / "durable.py"


def _docstrings(tree):
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr):
            yield body[0].value


def test_one_seam():
    """Only ``store/durable.py`` renames, truncates or fsyncs a file,
    or names a ``.tmp`` sibling."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path == SEAM:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        docstrings = {id(node) for node in _docstrings(tree)}
        for node in ast.walk(tree):
            where = f"{path.relative_to(SRC)}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Attribute) and (
                isinstance(node.value, ast.Name) and node.value.id == "os"
                and node.attr in ("replace", "rename", "fsync", "fdatasync")
            ):
                found.append(f"{where} os.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [
                    f"{where} from os import {alias.name}"
                    for alias in node.names
                    if alias.name in ("replace", "rename", "fsync")
                ]
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ) and node.func.attr in ("truncate", "rename"):
                found.append(f"{where} .{node.func.attr}(")
            elif (
                isinstance(node, ast.Constant) and isinstance(node.value, str)
                and ".tmp" in node.value and id(node) not in docstrings
            ):
                found.append(f"{where} {node.value!r}")
    assert found == []


def test_the_seam_has_four_functions_and_no_options():
    public = [
        name for name, value in vars(durable).items()
        if inspect.isfunction(value) and not name.startswith("_")
        and value.__module__ == durable.__name__
    ]
    assert sorted(public) == ["append", "open_log", "sync", "write_atomic"]
    options = [
        (name, p.name) for name in public
        for p in inspect.signature(getattr(durable, name)).parameters.values()
        if p.kind == p.KEYWORD_ONLY
    ]
    assert options == []
    keywords = [
        p.name for p in inspect.signature(EventLog).parameters.values()
        if p.kind == p.KEYWORD_ONLY
    ]
    assert keywords == ["resume"]


def kinds(steps):
    return [(step[0], step[1]) for step in steps]


class TestWriteAtomic:
    def test_fills_syncs_replaces_then_syncs_the_directory(self, tmp_path):
        path = tmp_path / "file.bin"
        path.write_bytes(b"old")
        with Disk(tmp_path).installed() as disk:
            durable.write_atomic(path, lambda fh: fh.write(b"new bytes"))
        assert kinds(disk.steps) == [
            ("create", "file.bin.tmp"), ("write", "file.bin.tmp"),
            ("fsync", "file.bin.tmp"), ("rename", "file.bin.tmp"),
            ("dirsync", ""),
        ]
        assert path.read_bytes() == b"new bytes"

    @pytest.mark.parametrize("step", range(5))
    def test_a_refused_step_keeps_the_old_file_and_no_sibling(
        self, tmp_path, step
    ):
        path = tmp_path / "file.bin"
        path.write_bytes(b"old")
        with Disk(tmp_path, fail_at=step, fault=errno.ENOSPC).installed():
            with pytest.raises(OSError):
                durable.write_atomic(path, lambda fh: fh.write(b"new bytes"))
        # Refused before the rename: the old bytes; at the directory
        # fsync after it: the new ones.  Never a torn file or a .tmp.
        assert path.read_bytes() in (b"old", b"new bytes")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file.bin"]


def torn_log(directory):
    with EventLog(directory / EVENTS_NAME) as log:
        log.append("init", 0, {"x": 1})
        log.append("tick", 1, {"periods": 1})
    with open(directory / EVENTS_NAME, "ab") as fh:
        fh.write(b'{"seq": 2, "kind": "ti')
    return directory / EVENTS_NAME


class TestLog:
    def test_creation_refuses_an_existing_log(self, tmp_path):
        EventLog(tmp_path / EVENTS_NAME).close()
        with pytest.raises(FileExistsError, match="already exists"):
            EventLog(tmp_path / EVENTS_NAME)

    def test_an_append_is_one_write_and_no_sync(self, tmp_path):
        with Disk(tmp_path).installed() as disk:
            with EventLog(tmp_path / EVENTS_NAME) as log:
                log.append("init", 0)
                log.append("tick", 1, {"periods": 1})
        assert kinds(disk.steps) == [
            ("create", EVENTS_NAME), ("write", EVENTS_NAME),
            ("write", EVENTS_NAME),
        ]

    def test_sync_covers_the_file_and_its_name(self, tmp_path):
        with Disk(tmp_path).installed() as disk:
            with EventLog(tmp_path / EVENTS_NAME) as log:
                log.append("init", 0)
                log.sync()
        assert kinds(disk.steps)[-2:] == [
            ("fsync", EVENTS_NAME), ("dirsync", ""),
        ]

    def test_the_cut_is_synced_before_the_first_append(self, tmp_path):
        path = torn_log(tmp_path)
        with Disk(tmp_path).installed() as disk:
            with EventLog(path, resume=True) as log:
                assert log.next_seq == 2
                log.append("tick", 2, {"periods": 1})
        assert kinds(disk.steps) == [
            ("truncate", EVENTS_NAME), ("fsync", EVENTS_NAME),
            ("write", EVENTS_NAME),
        ]
        events, torn = read_events(path)
        assert [e.seq for e in events] == [0, 1, 2] and not torn

    def test_a_clean_log_resumes_without_a_cut(self, tmp_path):
        EventLog(tmp_path / EVENTS_NAME).close()
        with Disk(tmp_path).installed() as disk:
            EventLog(tmp_path / EVENTS_NAME, resume=True).close()
        assert disk.steps == []

    @pytest.mark.parametrize("fault", [errno.ENOSPC, errno.EIO])
    def test_a_refused_append_fails_the_log(self, tmp_path, fault):
        # Steps 0 and 1 create the log and write ``init``; step 2, the
        # tick's write, lands half its bytes and fails.
        with Disk(tmp_path, fail_at=2, fault=fault).installed():
            log = EventLog(tmp_path / EVENTS_NAME)
            log.append("init", 0)
            with pytest.raises(OSError):
                log.append("tick", 1, {"periods": 1})
            with pytest.raises(EventLogError, match="closed"):
                log.append("tick", 2, {"periods": 1})
            with pytest.raises(EventLogError, match="closed"):
                log.sync()
        # Nothing follows the refused record: the file is a prefix.
        events, _ = read_events(tmp_path / EVENTS_NAME)
        assert [e.kind for e in events] in (["init"], ["init", "tick"])


class TestNewDirectories:
    """A directory the seam creates is itself made durable: its name is
    fsynced into its parent, parents first."""

    @pytest.fixture
    def synced(self, monkeypatch):
        """Every directory fsynced, in order, by its path."""
        opened, synced = {}, []
        real_open, real_fsync = os.open, os.fsync

        def recording_open(path, flags, *args, **kwargs):
            fd = real_open(path, flags, *args, **kwargs)
            if os.path.isdir(path):
                opened[fd] = Path(path)
            return fd

        def recording_fsync(fd):
            real_fsync(fd)
            if fd in opened:
                synced.append(opened.pop(fd))

        monkeypatch.setattr(os, "open", recording_open)
        monkeypatch.setattr(os, "fsync", recording_fsync)
        return synced

    def test_each_new_directory_is_synced_into_its_parent(
        self, tmp_path, synced
    ):
        path = tmp_path / "a" / "b" / "file.bin"
        durable.write_atomic(path, lambda fh: fh.write(b"bytes"))
        assert synced == [tmp_path, tmp_path / "a", tmp_path / "a" / "b"]
        assert path.read_bytes() == b"bytes"

    def test_a_new_log_directory_is_synced_before_the_log(
        self, tmp_path, synced
    ):
        directory = tmp_path / "live" / "run"
        with EventLog(directory / EVENTS_NAME) as log:
            assert synced == [tmp_path, tmp_path / "live"]
            log.append("init", 0)
            log.sync()
        assert synced == [tmp_path, tmp_path / "live", directory]

    def test_a_directory_that_exists_costs_nothing_more(
        self, tmp_path, synced
    ):
        durable.write_atomic(tmp_path / "file.bin", lambda fh: fh.write(b""))
        EventLog(tmp_path / EVENTS_NAME).close()
        assert synced == [tmp_path]


def test_a_snapshot_follows_the_synced_log(tmp_path):
    with Disk(tmp_path).installed() as disk:
        core = ServiceCore(
            LiveEngine(LiveConfig("endemic", 50, seed=1)),
            directory=tmp_path,
        )
        core.start()
        core.tick()
        del disk.steps[:]
        core.snapshot_now()
        core.close()
    tmp = "snapshot-00000001.npz.tmp"
    writes = len(disk.steps) - 8
    assert writes > 0 and kinds(disk.steps) == [
        ("fsync", EVENTS_NAME), ("dirsync", ""), ("create", tmp),
        *[("write", tmp)] * writes, ("fsync", tmp), ("rename", tmp),
        ("dirsync", ""), ("write", EVENTS_NAME), ("write", EVENTS_NAME),
    ]
