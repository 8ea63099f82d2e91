"""Epidemic protocols (the paper's motivating example, Section 1).

Equation (0) synthesizes to the canonical *pull* epidemic: every
susceptible process periodically contacts one uniformly random peer and
becomes infected if the peer is infected.  The analysis predicts
``x(t) -> 0`` with convergence in ``O(log N)`` rounds -- the shape the
EPID bench verifies.

Also provided: the *push* variant (infectives contact peers and infect
them) and push-pull, which are not derived in the paper but are the
classic Demers et al. family the paper situates itself against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..odes import library
from ..synthesis import ProtocolSpec, PushAction, SampleAction, synthesize
from ..runtime import BatchMetricsRecorder, RoundEngine


def pull_protocol(rate: float = 1.0) -> ProtocolSpec:
    """The canonical pull epidemic synthesized from equation (0)."""
    return synthesize(library.epidemic(rate), name="epidemic-pull")


def push_protocol() -> ProtocolSpec:
    """Push epidemic: infectives convert one random peer per period.

    Hand-built variant (not a pure output of the mapping): mean-field
    rate matches ``x' = -xy`` to first order.
    """
    return ProtocolSpec(
        name="epidemic-push",
        states=("x", "y"),
        actions=(
            PushAction(
                actor_state="y",
                probability=1.0,
                target_state="y",
                match_state="x",
                fanout=1,
            ),
        ),
        source=library.push_epidemic(),
        exact_mean_field=False,
    )


def push_pull_protocol() -> ProtocolSpec:
    """Push-pull epidemic: both directions each period (rate ~2xy)."""
    pull = pull_protocol()
    push = push_protocol()
    return ProtocolSpec(
        name="epidemic-push-pull",
        states=("x", "y"),
        actions=pull.actions + push.actions,
        source=library.epidemic(2.0),
        exact_mean_field=False,
    )


@dataclass
class SpreadResult:
    """Outcome of one epidemic spread measurement."""

    n: int
    rounds_to_threshold: Optional[int]
    final_susceptible: int
    recorder: BatchMetricsRecorder

    @property
    def completed(self) -> bool:
        return self.rounds_to_threshold is not None


def measure_spread(
    protocol: ProtocolSpec,
    n: int,
    *,
    initial_infected: int = 1,
    threshold: int = 1,
    max_rounds: Optional[int] = None,
    seed: Optional[int] = None,
) -> SpreadResult:
    """Run an epidemic until susceptibles drop to ``threshold``.

    Returns the number of protocol periods taken (the paper:
    ``O(log N)`` rounds to ``x ~= O(1)``).
    """
    if max_rounds is None:
        max_rounds = max(50, 10 * int(math.ceil(math.log2(max(2, n)))))
    engine = RoundEngine(
        protocol,
        n=n,
        initial={"x": n - initial_infected, "y": initial_infected},
        seed=seed,
    )
    result = engine.run(
        max_rounds, record_initial=False,
        stop=lambda running: running.counts()["x"] <= threshold,
    )
    susceptible = engine.counts()["x"]
    # A run of no rounds reached nothing, whatever it started from.
    reached = engine.period > 0 and susceptible <= threshold
    return SpreadResult(
        n=n,
        rounds_to_threshold=engine.period if reached else None,
        final_susceptible=susceptible,
        recorder=result.recorder,
    )


def theoretical_rounds(n: int, rate: float = 1.0) -> float:
    """Mean-field prediction of rounds until one susceptible remains.

    Integrating ``x' = -rate*x*(1-x)`` from ``x0 = 1 - 1/n`` down to
    ``1/n`` gives ``t = 2*ln(n-1)/rate`` -- logarithmic in ``n``, the
    paper's ``O(log N)`` claim with an explicit constant.
    """
    if n < 3:
        return 0.0
    return 2.0 * math.log(n - 1) / rate
