"""Campaign grids: declarative specs and their expanded parameter points.

A :class:`CampaignSpec` is plain data -- the cross product of protocol
names, group sizes, connection-loss rates and failure scenarios, plus
the per-point trial count and horizon.  :meth:`CampaignSpec.expand`
produces one :class:`~repro.experiment.point.RunPoint` per grid cell
with a deterministic seed spawned from the campaign's base seed, so
re-expanding the same spec always yields the same seeds and any point
can be replayed later.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from itertools import product
from pathlib import Path
from typing import Dict, List, TYPE_CHECKING, Union

from ..experiment.point import RunPoint, _without_legacy_mode
from ..runtime.rng import spawn_seeds
from .registry import available_protocols, available_scenarios

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..experiment.protocol import Protocol


@dataclass
class CampaignSpec:
    """A declarative experiment campaign (the grid, not its results).

    The ``protocols`` axis accepts registered names, paths to equations
    files (resolved through
    :func:`~repro.campaign.registry.resolve_protocol`, ``# param:``
    directives honored), and ready
    :class:`~repro.experiment.protocol.Protocol` handles -- handles are
    auto-registered under their label at expansion, so the expanded
    points remain plain name-referencing data.
    """

    name: str = "campaign"
    protocols: List[Union[str, "Protocol"]] = field(
        default_factory=lambda: ["epidemic-pull"]
    )
    group_sizes: List[int] = field(default_factory=lambda: [1000])
    loss_rates: List[float] = field(default_factory=lambda: [0.0])
    scenarios: List[str] = field(default_factory=lambda: ["none"])
    trials: int = 16
    periods: int = 200
    base_seed: int = 0
    stride: int = 1
    shards: int = 1

    def validate(self) -> None:
        """Check the grid's axes.  Each value's own rules (group size,
        loss rate, trials, periods, stride, shards) are the points',
        checked as :meth:`expand` builds them."""
        if not self.protocols or not self.group_sizes \
                or not self.loss_rates or not self.scenarios:
            raise ValueError("every grid axis needs at least one value")
        from ..experiment.protocol import Protocol

        registered = set(available_protocols())
        unknown = sorted(
            entry for entry in self.protocols
            if isinstance(entry, str)
            and entry not in registered
            and not Path(entry).is_file()
        )
        if unknown:
            raise ValueError(
                f"unknown protocols {unknown}: neither registered "
                f"names (available: {available_protocols()}) nor "
                f"equations files"
            )
        for entry in self.protocols:
            if not isinstance(entry, (str, Protocol)):
                raise ValueError(
                    f"protocol axis entries must be names, equations "
                    f"file paths or Protocol handles, got "
                    f"{type(entry).__name__}"
                )
        unknown = set(self.scenarios) - set(available_scenarios())
        if unknown:
            raise ValueError(
                f"unknown scenarios {sorted(unknown)}; "
                f"available: {available_scenarios()}"
            )

    def _protocol_names(self) -> List[str]:
        """The protocols axis as plain names, registering handles.

        :class:`Protocol` handles register under their label, so
        expanded points reference them by name exactly like built-ins.
        A label that is already registered to a *different* protocol is
        an error: silently replacing it would retarget every other
        spec's and replay's points that resolve that name
        (re-expanding a spec with the same handle stays idempotent).
        """
        from ..experiment.protocol import Protocol
        from .registry import (
            ProtocolHandleBuilder,
            protocol_builder,
            register_protocol,
        )

        names: List[str] = []
        for entry in self.protocols:
            if isinstance(entry, Protocol):
                if entry.source == "named":
                    # Registry-born handles already resolve through the
                    # registry; nothing to register.
                    names.append(entry.label)
                    continue
                try:
                    existing = protocol_builder(entry.label)
                except KeyError:
                    existing = None
                if existing is not None and not (
                    isinstance(existing, ProtocolHandleBuilder)
                    and existing.handle is entry
                ):
                    raise ValueError(
                        f"protocol handle label {entry.label!r} collides "
                        f"with an existing registration; rename the "
                        f"handle (Protocol.from_spec(..., name=...)) or "
                        f"register it explicitly first"
                    )
                register_protocol(entry.label, ProtocolHandleBuilder(entry))
                names.append(entry.label)
            else:
                names.append(entry)
        return names

    def expand(self) -> List[RunPoint]:
        """The grid cells, each with its spawned deterministic seed."""
        self.validate()
        cells = list(product(
            self._protocol_names(), self.group_sizes, self.loss_rates,
            self.scenarios,
        ))
        seeds = spawn_seeds(self.base_seed, len(cells))
        return [
            RunPoint(
                protocol=protocol,
                n=n,
                loss_rate=loss_rate,
                scenario=scenario,
                trials=self.trials,
                periods=self.periods,
                seed=seed,
                stride=self.stride,
                shards=self.shards,
            )
            for (protocol, n, loss_rate, scenario), seed in zip(cells, seeds)
        ]

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        data = asdict(self)
        # Protocol handles serialize by label (asdict cannot descend
        # into them); replaying such a spec requires the handle (or an
        # equally named protocol) to be registered again.
        data["protocols"] = [
            entry if isinstance(entry, str) else entry.label
            for entry in self.protocols
        ]
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "CampaignSpec":
        return cls(**_without_legacy_mode(data))

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        return cls.from_dict(json.loads(text))
