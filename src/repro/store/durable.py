"""The one durability policy: every file that must survive a crash.

Snapshots, campaign tensors, the campaign manifest and the event log
all reach the disk through these four functions, and nothing else in
``repro`` renames, truncates or fsyncs a file
(``tests/test_durable.py::test_one_seam`` keeps it so):

* :func:`write_atomic` -- a whole file: filled beside its name as
  ``<name>.tmp``, fsynced, moved into place with ``os.replace``, then
  its directory fsynced.  After a crash the name holds the old file or
  the new one, never a torn one, and once it returns the new one stays;
* :func:`open_log` -- an append-only log: created (refusing a file
  that exists), or reopened with a torn tail cut off, the cut synced
  before anything is appended after it;
* :func:`append` -- one record: one write and one flush.  A killed
  process tears at most the final line; a power loss can also drop the
  suffix written since the last :func:`sync`;
* :func:`sync` -- the log up to its last append, then its directory
  (which makes a new log's name durable; later directory fsyncs find
  nothing to write).

A directory either of the first two creates (``serve --dir``'s, or
``--save-tensors``'s, parents included) has its name fsynced into its
parent as it is made: a fresh directory that a power loss could drop
would take its synced files with it.

The ordering rules that use them are their callers': a tensor is
durable before the manifest names it, and the log is synced up to a
snapshot's ``seq`` before the snapshot is written.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import IO, Callable, Optional


def _sync_directory(directory: os.PathLike) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _make_directory(directory: Path) -> None:
    """Create ``directory`` and its missing parents, each name synced
    into the directory that holds it."""
    if directory.is_dir():
        return
    _make_directory(directory.parent)
    directory.mkdir(exist_ok=True)
    _sync_directory(directory.parent)


def write_atomic(
    path: os.PathLike, write: Callable[[IO[bytes]], None]
) -> Path:
    """Replace ``path`` by what ``write(fh)`` puts in a fresh binary file."""
    path = Path(path)
    _make_directory(path.parent)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        # A full disk keeps no half-written sibling.
        tmp.unlink(missing_ok=True)
        raise
    _sync_directory(path.parent)
    return path


def open_log(path: os.PathLike, keep: Optional[int] = None) -> IO[str]:
    """A text handle appending to ``path``.

    With ``keep=None`` the file is created and must not exist; otherwise
    it must, and whatever follows its first ``keep`` bytes is cut and
    the cut synced.
    """
    _make_directory(Path(path).parent)
    fh = open(path, "x" if keep is None else "a", encoding="utf-8")
    if keep is not None and fh.tell() != keep:
        fh.truncate(keep)
        os.fsync(fh.fileno())
    return fh


def append(fh: IO[str], line: str) -> None:
    """Write one whole record and hand it to the OS."""
    fh.write(line)
    fh.flush()


def sync(fh: IO[str]) -> None:
    """Make everything appended to ``fh`` durable, its name included."""
    fh.flush()
    os.fsync(fh.fileno())
    _sync_directory(Path(fh.name).parent)
