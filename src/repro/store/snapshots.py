"""Checksummed, atomically-written state snapshots.

A snapshot is one ``.npz`` holding named arrays plus a JSON metadata
blob, sealed by a SHA-256 digest over both.  The write goes through
the repo-standard tmp + ``os.replace`` dance, so a crash mid-write
leaves either the previous snapshot or none -- never a half-written
file -- and the digest turns silent corruption (truncated zip, bit
rot, hand editing) into a loud :class:`SnapshotError` at load time
instead of a wrong replay.

The format is deliberately dumb: plain numpy arrays and a JSON dict.
``ServiceCore``, the one writer, decides what goes in through two
shared codecs, ``RoundEngine.snapshot`` and
``repro.runtime.rng.generator_state`` (generators as MT19937
``{key, pos}`` in the metadata; nothing is ever unpickled).
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from pathlib import Path
from typing import Any, Dict, Mapping, Tuple

import numpy as np

from ..runtime.rng import SnapshotError

_ARRAY_PREFIX = "array."
_META_KEY = "__meta_json__"
_DIGEST_KEY = "__sha256__"

#: Array names (after any ``population{i}.`` prefix) that only the
#: retired pickled-generator layout wrote.
_PICKLED_GENERATORS = ("rng", "fault_rng")


def require_kind(
    arrays: Mapping[str, np.ndarray], meta: Mapping[str, Any], kind: str
) -> None:
    """Refuse a snapshot of another kind, or in the pickled-generator layout.

    The old layout has no opt-in reader: the event log is the source of
    truth, so such a service directory replays from genesis.
    """
    pickled = sorted(
        name for name in arrays
        if name.rpartition(".")[2] in _PICKLED_GENERATORS
    )
    if pickled:
        raise SnapshotError(
            f"old-format {meta.get('kind')!r} snapshot: its generators are "
            f"pickled ({', '.join(pickled)}) and are not read; replay from "
            f"genesis instead (the event log is the source of truth)"
        )
    if meta.get("kind") != kind:
        raise SnapshotError(
            f"snapshot kind {meta.get('kind')!r}, expected {kind!r}"
        )


def _digest(arrays: Mapping[str, np.ndarray], meta_json: str) -> str:
    """SHA-256 over array names, dtypes, shapes, bytes and metadata."""
    h = hashlib.sha256()
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        h.update(name.encode("utf-8"))
        h.update(array.dtype.str.encode("ascii"))
        h.update(repr(array.shape).encode("ascii"))
        h.update(array.tobytes())
    h.update(meta_json.encode("utf-8"))
    return h.hexdigest()


def save_snapshot(
    path: os.PathLike,
    arrays: Mapping[str, np.ndarray],
    meta: Mapping[str, Any],
) -> Path:
    """Atomically write ``arrays`` + ``meta`` to ``path`` (.npz)."""
    path = Path(path)
    payload: Dict[str, np.ndarray] = {}
    for name, array in arrays.items():
        array = np.asarray(array)
        if array.dtype == object:
            raise SnapshotError(f"array {name!r}: object dtype not allowed")
        payload[_ARRAY_PREFIX + name] = array
    meta_json = json.dumps(dict(meta), sort_keys=True)
    payload[_META_KEY] = np.frombuffer(
        meta_json.encode("utf-8"), dtype=np.uint8
    )
    digest = _digest(
        {k[len(_ARRAY_PREFIX):]: v for k, v in payload.items()
         if k.startswith(_ARRAY_PREFIX)},
        meta_json,
    )
    payload[_DIGEST_KEY] = np.frombuffer(
        digest.encode("ascii"), dtype=np.uint8
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        np.savez(fh, **payload)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


def load_snapshot(
    path: os.PathLike,
) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Load and verify a snapshot; returns ``(arrays, meta)``.

    Raises :class:`SnapshotError` for anything short of a pristine
    file: unreadable zip, missing keys, digest mismatch.
    """
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as bundle:
            keys = set(bundle.files)
            if _META_KEY not in keys or _DIGEST_KEY not in keys:
                raise SnapshotError(f"{path}: not a snapshot (missing keys)")
            arrays = {
                key[len(_ARRAY_PREFIX):]: bundle[key]
                for key in keys
                if key.startswith(_ARRAY_PREFIX)
            }
            meta_json = bundle[_META_KEY].tobytes().decode("utf-8")
            stored_digest = bundle[_DIGEST_KEY].tobytes().decode("ascii")
    except SnapshotError:
        raise
    except (OSError, ValueError, zipfile.BadZipFile, KeyError) as exc:
        raise SnapshotError(f"{path}: unreadable snapshot: {exc}") from exc
    if _digest(arrays, meta_json) != stored_digest:
        raise SnapshotError(f"{path}: checksum mismatch (corrupt snapshot)")
    try:
        meta = json.loads(meta_json)
    except json.JSONDecodeError as exc:  # digest passed => impossible unless
        raise SnapshotError(f"{path}: bad metadata JSON") from exc  # forged
    return arrays, meta
