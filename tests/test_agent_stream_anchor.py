"""Agent-tier streams pinned across commits.

The agent tier is held to the other tiers only statistically, so a
change to the DES kernel, the network or the agents that moves one
draw, reorders two same-time callbacks or runs a process one step too
many passes every other test.  These crc32 goldens do not: each row
digests one run's count tensor, its transition counts and its network
counters.  A mismatch means agent-tier results changed for every
seeded user -- either revert, or re-capture the row and say so in
CHANGES.md.

The rows cover every action kind an agent executes (flip, sample,
any-of pull, push, oracle and TTL tokens), the network's loss, latency
and clock drift, partial membership, and the stock fault hooks
(a massive failure, crash-only noise, crash-recovery noise).

numpy does not promise ``Generator`` stream stability across feature
releases, so the goldens are keyed by numpy ``major.minor`` and an
unknown numpy skips instead of failing.
"""

import zlib

import numpy as np
import pytest

from repro.protocols.endemic import EndemicParams, figure1_protocol
from repro.protocols.epidemic import (
    pull_protocol, push_protocol, push_pull_protocol,
)
from repro.protocols.lv import lv_protocol
from repro.runtime import (
    AgentSimulation, CrashRecoveryNoise, LatencyModel, MassiveFailure,
    PartialMembership,
)
from repro.runtime.overlay import random_regular_overlay
from repro.runtime.rng import make_generator
from repro.synthesis import ProtocolSpec, TokenizeAction

ENDEMIC = EndemicParams(alpha=0.05, gamma=0.2, b=2)
N = 300


def token_spec(ttl):
    """``w`` emits a token every period; a ``z`` that receives it moves to ``u``."""
    return ProtocolSpec(
        name="token", states=("w", "z", "u"),
        actions=(
            TokenizeAction(
                actor_state="w", probability=1.0, target_state="u",
                required_states=(), token_state="z", ttl=ttl,
            ),
        ),
    )


def endemic(options=dict):
    return figure1_protocol(ENDEMIC), ENDEMIC.equilibrium_counts(N), options


def epidemic(factory):
    return factory(), {"x": N - 5, "y": 5}, dict


#: name -> (spec, initial, AgentSimulation options, hooks, periods, seed);
#: options and hooks are factories, so a row that runs twice starts from
#: fresh generators.
CASES = {
    "endemic": (*endemic(), (), 30, 11),
    "endemic-lossy-drifting": (
        *endemic(lambda: dict(
            loss_rate=0.1, latency=LatencyModel(base=0.05, jitter_mean=0.1),
            clock_drift_std=0.1,
        )),
        (), 30, 12,
    ),
    "endemic-massive-failure": (
        *endemic(), (lambda: MassiveFailure(at_period=10, fraction=0.5),),
        30, 13,
    ),
    "endemic-crash-only": (
        *endemic(), (lambda: CrashRecoveryNoise(0.02, 0.0, seed=5),), 30, 14,
    ),
    "endemic-crash-recovery": (
        *endemic(), (lambda: CrashRecoveryNoise(0.05, 0.5, seed=6),), 30, 15,
    ),
    "pull": (*epidemic(pull_protocol), (), 15, 21),
    "push": (*epidemic(push_protocol), (), 15, 22),
    "push-pull": (*epidemic(push_pull_protocol), (), 15, 23),
    "lv": (
        lv_protocol(p=0.05), {"x": 160, "y": 110, "z": 30}, dict, (), 30, 31,
    ),
    "token-oracle": (
        token_spec(None), {"w": 30, "z": 150, "u": 120}, dict, (), 10, 41,
    ),
    "token-ttl": (
        token_spec(4), {"w": 30, "z": 150, "u": 120}, dict, (), 10, 42,
    ),
    "partial-membership": (
        *endemic(lambda: dict(membership=PartialMembership(
            random_regular_overlay(N, seed=51), make_generator(52)
        ))),
        (), 30, 53,
    ),
}

#: numpy "major.minor" -> case name -> crc32 of the run's digest.
GOLDENS = {
    "2.4": {
        "endemic": 2667711173,
        "endemic-crash-only": 3062637453,
        "endemic-crash-recovery": 1158060129,
        "endemic-lossy-drifting": 903671177,
        "endemic-massive-failure": 889817940,
        "lv": 2103656886,
        "partial-membership": 742581419,
        "pull": 2132542556,
        "push": 2845896681,
        "push-pull": 3454495909,
        "token-oracle": 1020238645,
        "token-ttl": 2390913818,
    },
}


def run_digest(name: str) -> int:
    spec, initial, options, hooks, periods, seed = CASES[name]
    sim = AgentSimulation(spec, N, initial, seed=seed, **options())
    tensor = sim.run(periods, hooks=[make() for make in hooks]).count_tensor()
    network = sim.network
    return zlib.crc32(b"".join([
        np.ascontiguousarray(tensor, dtype=np.int64).tobytes(),
        repr(sorted(sim.transition_counts.items())).encode(),
        repr((network.contacts_attempted, network.contacts_failed)).encode(),
    ]))


def golden(name: str) -> int:
    version = ".".join(np.__version__.split(".")[:2])
    if version not in GOLDENS:
        pytest.skip(f"no agent-stream goldens for numpy {version}")
    return GOLDENS[version][name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_agent_stream_is_pinned(name):
    assert run_digest(name) == golden(name)
