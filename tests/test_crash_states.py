"""Every crash state and injected I/O error recovers or refuses by name.

Three uninterrupted runs are recorded under the shim of
``tests/crash_states.py``: a ``repro serve`` lifetime with two
snapshots, a ``MigratoryFileStore`` session killed mid-append and
resumed, and a two-point sharded campaign saving tensors.  Every disk
a crash can leave, and every disk a failed step leaves, must recover
to a prefix of its run or be refused by a named exception.  The
exhaustive rows are ``heavy`` (CI's ``heavy`` job); tier-1 runs a
slice of each.
"""

import os

import pytest

from crash_states import RUNS, check_crash_states, check_faults
from crash_states import crash_states as states_of
from repro.campaign.runner import MANIFEST_NAME
from repro.store import EventLog, durable

#: The tier-1 slice: every 4th crash state and every 8th failed step.
STATE_EVERY, FAULT_EVERY = 4, 8


@pytest.mark.heavy
@pytest.mark.parametrize("name", sorted(RUNS))
def test_every_crash_state_recovers_or_refuses(name, tmp_path):
    count, findings = check_crash_states(RUNS[name](), tmp_path)
    assert count > 20 and [str(f) for f in findings] == []


@pytest.mark.heavy
@pytest.mark.parametrize("name", sorted(RUNS))
def test_every_failed_step_recovers_or_refuses(name, tmp_path):
    count, findings = check_faults(RUNS[name](), tmp_path)
    assert count > 20 and [str(f) for f in findings] == []


@pytest.mark.parametrize("name", sorted(RUNS))
def test_a_slice_of_crash_states_recovers_or_refuses(name, tmp_path):
    _, findings = check_crash_states(RUNS[name](), tmp_path, STATE_EVERY)
    assert [str(f) for f in findings] == []


@pytest.mark.parametrize("name", sorted(RUNS))
def test_a_slice_of_failed_steps_recovers_or_refuses(name, tmp_path):
    _, findings = check_faults(RUNS[name](), tmp_path, FAULT_EVERY)
    assert [str(f) for f in findings] == []


# ----------------------------------------------------------------------
# The model and the check have teeth
# ----------------------------------------------------------------------
def test_the_model_tears_unsynced_lines_and_reverts_unsynced_names():
    steps = [
        ("create", "log.jsonl"), ("write", "log.jsonl", b"a\n"),
        ("fsync", "log.jsonl"), ("dirsync", ""),
        ("write", "log.jsonl", b"a\nbb\n"),
        ("create", "x.tmp"), ("write", "x.tmp", b"data"),
        ("rename", "x.tmp", "x"),
    ]
    states = states_of(steps)
    logs = {state.get("log.jsonl") for state in states}
    # Cut at each line end and in the middle of each unsynced line.
    assert logs == {None, b"", b"a", b"a\n", b"a\nb", b"a\nbb\n"}
    # The rename persists or not; x's unsynced bytes lost, torn or kept.
    assert {state.get("x") for state in states} == {
        None, b"", b"da", b"data",
    }
    assert {"x.tmp", "x"} not in [set(state) for state in states]


def hand_rolled_write(path, write):
    """tmp + rename, no fsync anywhere: a writer beside the seam."""
    with open(path.with_name(path.name + ".tmp"), "wb") as fh:
        write(fh)
    os.replace(path.with_name(path.name + ".tmp"), path)
    return path


def test_a_writer_without_fsync_trusts_a_torn_tensor(tmp_path, monkeypatch):
    monkeypatch.setattr(durable, "write_atomic", hand_rolled_write)
    _, findings = check_crash_states(
        RUNS["campaign"](), tmp_path, STATE_EVERY
    )
    assert any(
        "trusts a torn tensor" in f.why and MANIFEST_NAME in f.state
        for f in findings
    )


def test_a_snapshot_ahead_of_its_log_is_found(tmp_path, monkeypatch):
    monkeypatch.setattr(EventLog, "sync", lambda self: None)
    _, findings = check_crash_states(RUNS["serve"](), tmp_path, 32)
    assert any(
        f.recovery == "order" and "the log holds" in f.why for f in findings
    )
