"""Synthesis layer: equation systems -> distributed protocols.

Implements the paper's core contribution: the term-to-action mapping of
Section 3 (Flipping, One-Time-Sampling), the Tokenizing extension of
Section 6, failure compensation, normalizing-constant selection, and
the resulting :class:`~repro.synthesis.protocol.ProtocolSpec` state
machines with their message-complexity accounting.
"""

from .actions import (
    Action,
    AnyOfSampleAction,
    FlipAction,
    PushAction,
    SampleAction,
    TokenizeAction,
    transition_edges,
)
from .errors import (
    ConstantTermError,
    NormalizationError,
    NotCompleteError,
    NotPartitionableError,
    NotRestrictedError,
    SynthesisError,
)
from .mapper import choose_normalizer, failure_compensation, synthesize
from .protocol import ProtocolSpec

__all__ = [
    "Action",
    "FlipAction",
    "SampleAction",
    "AnyOfSampleAction",
    "PushAction",
    "TokenizeAction",
    "transition_edges",
    "ProtocolSpec",
    "synthesize",
    "choose_normalizer",
    "failure_compensation",
    "SynthesisError",
    "NotCompleteError",
    "NotPartitionableError",
    "NotRestrictedError",
    "ConstantTermError",
    "NormalizationError",
]
