"""Batch-mode draw streams pinned across commits.

Batch mode is only *statistically* equivalent to the serial engine, so
nothing else in tier-1 notices when a refactor of the planner, the
pools or the engine shifts a draw.  These crc32 goldens do: one count
tensor per action family (flip/sample coins, anyof, analytic push,
token routing) at a fixed seed.  A mismatch means batch-mode results
changed for every seeded user -- either revert, or re-capture the
goldens and say so in CHANGES.md.

Those four pin the census stream (``batch-protocol``), and
``massive-failure`` the registry scenario's fault stream besides.

numpy does not promise ``Generator`` stream stability across feature
releases, so the goldens are keyed by numpy ``major.minor`` and an
unknown numpy skips instead of failing.
"""

import zlib

import numpy as np
import pytest

from test_batch_engine import token_spec

from repro.experiment import RunPoint, Scenario
from repro.protocols.endemic import EndemicParams, figure1_protocol
from repro.protocols.epidemic import push_pull_protocol
from repro.protocols.lv import lv_protocol
from repro.runtime import BatchRoundEngine

ENDEMIC = EndemicParams(alpha=0.01, gamma=0.1, b=2)

#: name -> (spec factory, n, trials, initial, periods, seed)
CASES = {
    "endemic": (
        lambda: figure1_protocol(ENDEMIC), 400, 6,
        ENDEMIC.equilibrium_counts(400), 40, 101,
    ),
    "lv": (
        lambda: lv_protocol(p=0.05), 300, 8,
        {"x": 180, "y": 120, "z": 0}, 60, 202,
    ),
    "epidemic-push-pull": (
        push_pull_protocol, 500, 5, {"x": 490, "y": 10}, 12, 303,
    ),
    "token": (
        token_spec, 300, 6, {"x": 150, "y": 75, "z": 75}, 25, 404,
    ),
}

#: numpy "major.minor" -> case name -> crc32 of the int64 count tensor.
GOLDENS = {
    "2.4": {
        "endemic": 829222868,
        "lv": 149629386,
        "epidemic-push-pull": 2693238901,
        "token": 4180697466,
        "massive-failure": 1989464138,
    },
}


def count_tensor_crc(name: str) -> int:
    factory, n, trials, initial, periods, seed = CASES[name]
    engine = BatchRoundEngine(
        factory(), n=n, trials=trials, initial=initial, seed=seed
    )
    tensor = engine.run(periods).recorder.count_tensor()
    return zlib.crc32(np.ascontiguousarray(tensor, dtype=np.int64).tobytes())


def golden(name: str) -> int:
    version = ".".join(np.__version__.split(".")[:2])
    if version not in GOLDENS:
        pytest.skip(f"no batch-stream goldens for numpy {version}")
    return GOLDENS[version][name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_batch_stream_is_pinned(name):
    assert count_tensor_crc(name) == golden(name)


def test_massive_failure_stream_is_pinned():
    """The registry's ``massive-failure`` hook on the ``endemic`` case.

    Half the alive hosts crash at the horizon's midpoint; the victims'
    per-state counts are one multivariate hypergeometric over the
    census on the trial's fault stream, so the count tensor pins the
    fault stream as well as the census one.
    """
    factory, n, trials, initial, periods, seed = CASES["endemic"]
    engine = BatchRoundEngine(
        factory(), n=n, trials=trials, initial=initial, seed=seed
    )
    context = RunPoint(
        "endemic", n, 0.0, "massive-failure", trials, periods, seed
    )
    faults = Scenario.named("massive-failure").hook_factory(context)
    tensor = engine.run(
        periods, hook_factories=[faults]
    ).recorder.count_tensor()
    crc = zlib.crc32(np.ascontiguousarray(tensor, dtype=np.int64).tobytes())
    assert crc == golden("massive-failure")
