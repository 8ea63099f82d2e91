"""TTL-adjusted mean-field analysis of tokenized protocols (Section 6).

The paper's Tokenizing technique needs a way to route a generated token
to a process in the required state.  The membership-oracle variant is
exact; the random-walk alternative gives each token an integer TTL, so
a token dies unrouted with probability ``(1 - x)^ttl`` where ``x`` is
the fraction of processes it may move.  The paper notes that "the
behavior of the protocol may be different from the original equation
system.  However, the new behavior can still be analyzed by modifying
the original equation system with multiplicative terms in tokenized
actions that account for the likelihood of the generated token being
effective."

The round map (:func:`repro.analysis.mean_field.discrete_mean_field`)
is that modified analysis: its token step delivers with the ttl
binomial's ``p``, :func:`repro.runtime.laws.ttl_reach`.  The modified
field is no longer polynomial (so it cannot itself be synthesized), but
it can be iterated and compared against simulation -- which the
ABLATE-3 bench and the token tests do.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Mapping

import numpy as np

from ..synthesis.actions import TokenizeAction
from ..synthesis.protocol import ProtocolSpec
from .mean_field import discrete_mean_field


def compare_ttl_models(
    spec: ProtocolSpec,
    simulated_fractions: Mapping[str, np.ndarray],
    initial_fractions: Mapping[str, float],
) -> Dict[str, float]:
    """RMS error of the simulation against adjusted vs unadjusted models.

    Returns ``{"adjusted": err, "unadjusted": err}``: the round map of
    ``spec``, and of ``spec`` with oracle routing (every tokenize
    ``ttl=None``).  For a TTL protocol the adjusted model should win,
    demonstrating the paper's claim that the deviation is analyzable.
    """
    oracle = replace(spec, actions=tuple(
        replace(a, ttl=None) if isinstance(a, TokenizeAction) else a
        for a in spec.actions
    ))
    some_series = next(iter(simulated_fractions.values()))
    periods = len(some_series) - 1

    def rms(model: ProtocolSpec) -> float:
        series = discrete_mean_field(model, initial_fractions, periods)
        worst = 0.0
        for state, simulated in simulated_fractions.items():
            diff = np.asarray(simulated) - series[state][: len(simulated)]
            worst = max(worst, float(np.sqrt(np.mean(diff**2))))
        return worst

    return {"adjusted": rms(spec), "unadjusted": rms(oracle)}
