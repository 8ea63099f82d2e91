"""One run record, :class:`RunPoint`, and its one path to an ensemble.

A campaign grid expands into points and an
:class:`~repro.experiment.experiment.Experiment` builds one; either
way :meth:`RunPoint.ensemble` turns it into the
:class:`~repro.runtime.parallel.EnsembleExecutor` that runs it, so a
campaign point and the experiment with the same point agree bit for
bit.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from ..runtime.parallel import TIERS, EnsembleExecutor
from ..runtime.round_engine import initial_state_vector
from .scenario import Scenario

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .protocol import Protocol

#: What a field's annotation (a string, under ``from __future__ import
#: annotations``) asks of its value, as ``(type, noun)``.
_KINDS = {
    "str": (str, "a name"),
    "int": (numbers.Integral, "an integer"),
    "float": (numbers.Real, "a number"),
}

#: The fields ``to_dict`` writes only when they differ from their defaults.
_OPTIONAL = ("engine", "initial", "member_log_state")


def _without_legacy_mode(data: Dict) -> Dict:
    """Drop the ``mode`` key that specs and points used to serialize.

    Older spec files, result JSON, manifests and ``.npz``
    ``point_json`` carry ``"mode": "batch"``, which selected the only
    engine that remains.  Any other value named an engine that is
    gone; running batch instead would change every number the file
    promises, so it is an error.
    """
    if "mode" not in data:
        return data
    if data["mode"] != "batch":
        raise ValueError(
            f"campaign mode {data['mode']!r} is no longer supported (the "
            f"lockstep mode was removed); for bit-identical seeded trials "
            f"use `python -m repro run --engine serial`"
        )
    return {key: value for key, value in data.items() if key != "mode"}


@dataclass(frozen=True)
class RunPoint:
    """One fully-determined protocol run: a campaign cell or an experiment.

    ``protocol`` and ``scenario`` are names (or the labels of an
    experiment's own handle and scenario), so a point is plain,
    hashable data.  ``shards`` cuts the batch tier's trial axis into
    independently seeded sub-ensembles and is part of the point's
    identity.  ``initial`` (counts or fractions; ``None`` keeps the
    protocol's own start) is stored as sorted ``(state, value)`` pairs.
    Every field is checked when the point is built: a bad one is a
    ``ValueError`` naming it, before any work unit runs.
    """

    protocol: str
    n: int
    loss_rate: float
    scenario: str
    trials: int
    periods: int
    seed: int
    stride: int = 1
    shards: int = 1
    engine: str = "batch"
    initial: Optional[Tuple[Tuple[str, float], ...]] = None
    member_log_state: Optional[str] = None

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            kind, noun = _KINDS.get(f.type, (object, ""))
            if noun and (isinstance(value, bool) or not isinstance(value, kind)):
                raise ValueError(f"{f.name} must be {noun}, got {value!r}")
        for broken, message in (
            (self.n < 2, f"group size must be >= 2, got {self.n}"),
            (not 0.0 <= self.loss_rate < 1.0,
             f"loss rate must lie in [0, 1), got {self.loss_rate}"),
            (self.trials < 1, f"trials must be >= 1, got {self.trials}"),
            (self.periods < 1, f"periods must be >= 1, got {self.periods}"),
            (self.seed < 0, f"seed must be >= 0, got {self.seed}"),
            (self.stride < 1, f"stride must be >= 1, got {self.stride}"),
            (self.engine not in TIERS,
             f"engine must be one of {TIERS}, got {self.engine!r}"),
            (self.engine != "batch" and self.shards != 1,
             f"shards apply to the batch tier only; the {self.engine} "
             f"tier runs one unit per trial, got shards={self.shards}"),
            (not 1 <= self.shards <= self.trials,
             f"shards must lie in [1, trials={self.trials}], "
             f"got {self.shards}"),
        ):
            if broken:
                raise ValueError(message)
        if self.initial is not None:
            pairs = tuple(sorted(dict(self.initial).items()))
            if not all(isinstance(v, numbers.Real) for _, v in pairs):
                raise ValueError(f"initial must map states to numbers, "
                                 f"got {dict(pairs)!r}")
            object.__setattr__(self, "initial", pairs)

    @property
    def label(self) -> str:
        return (
            f"{self.protocol}/n={self.n}/f={self.loss_rate:g}/{self.scenario}"
        )

    def to_dict(self) -> Dict:
        """The point as JSON data: a batch point from the protocol's own
        start writes exactly the nine fields points always wrote."""
        data = {
            f.name: getattr(self, f.name) for f in fields(self)
            if f.name not in _OPTIONAL or getattr(self, f.name) != f.default
        }
        if "initial" in data:
            data["initial"] = dict(self.initial)
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "RunPoint":
        """A point read from a file, checked: an unknown or missing key
        is a ``ValueError`` naming it, like a bad value."""
        if not isinstance(data, dict):
            raise ValueError(f"a point must be an object, got {data!r}")
        data = _without_legacy_mode(data)
        unknown = sorted(set(data) - set(cls.__dataclass_fields__))
        if unknown:
            raise ValueError(f"unknown point field(s) {unknown}")
        try:
            return cls(**data)
        except TypeError as exc:  # a missing field, or initial not a map
            raise ValueError(f"invalid point: {exc}") from None

    def ensemble(
        self,
        protocol: Optional["Protocol"] = None,
        hook_factories: Optional[Sequence] = None,
        *,
        workers: int = 1,
        backend: str = "pool",
        track_transitions: bool = False,
    ) -> Tuple[EnsembleExecutor, Dict]:
        """The point's executor and its :meth:`EnsembleExecutor.units`
        options: the one path from a run to its work units.

        ``protocol`` and ``hook_factories`` default to the registry
        protocol and scenario the point names; an experiment passes its
        own handle and hooks.  The protocol is resolved here, so units
        carry the spec and no worker looks a name up, and a bad start
        is a ``ValueError`` here, not a failed work unit.
        """
        if protocol is None:
            # Lazy import: the campaign package imports repro.experiment.
            from ..campaign.registry import resolve_protocol

            protocol = resolve_protocol(self.protocol)
        if hook_factories is None:
            hook_factories = [Scenario.named(self.scenario).hook_factory(self)]
        resolved = protocol.resolve(self.n)
        initial = (
            dict(self.initial) if self.initial is not None
            else resolved.initial
        )
        initial_state_vector(resolved.spec.states, self.n, initial)
        executor = EnsembleExecutor(
            resolved.spec, n=self.n, trials=self.trials, initial=initial,
            seed=self.seed, connection_failure_rate=self.loss_rate,
            shards=self.shards, workers=workers, backend=backend,
            engine=self.engine,
        )
        return executor, dict(
            periods=self.periods, stride=self.stride,
            track_transitions=track_transitions,
            member_log_state=self.member_log_state,
            hook_factories=hook_factories,
        )
