"""One continuously-advancing protocol population.

:class:`LiveEngine` wraps a :class:`~repro.runtime.round_engine.RoundEngine`
behind the three things the live tier needs:

* a *replayable identity* -- :class:`LiveConfig` is plain data (a
  registry protocol name plus numbers), so the ``init`` event in the
  log reconstructs the exact same engine, seeds included;
* a *membership vocabulary* -- ``join`` / ``leave`` / ``fail`` events
  map onto the maximal-membership semantics the engines already have
  (join = recover with volatile state lost, leave = crash-stop,
  fail = crash a random fraction drawn from the engine's own fault
  stream, so replay re-draws the same victims);
* *checkpointing* -- ``snapshot``/``restore`` are the config plus the
  engine's own codec (``RoundEngine.snapshot``/``restore``, generators
  as MT19937 state), in the checksummed format of
  :mod:`repro.store.snapshots`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from ..experiment.protocol import Protocol
from ..store.snapshots import require_kind
from ..runtime.round_engine import RoundEngine

LIVE_SNAPSHOT_KIND = "live-engine"


@dataclass(frozen=True)
class LiveConfig:
    """Replayable construction recipe for a live population.

    ``protocol`` must be a campaign-registry name (not an equations
    file path): the log has to reconstruct the engine on a different
    machine, so the recipe may reference only names the code resolves.
    """

    protocol: str
    n: int
    seed: int
    loss_rate: float = 0.0
    initial: Optional[Mapping[str, float]] = None

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"population must be >= 2, got {self.n}")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(
                f"loss rate must lie in [0, 1), got {self.loss_rate}"
            )
        if self.initial is not None:
            object.__setattr__(self, "initial", dict(self.initial))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "protocol": self.protocol,
            "n": self.n,
            "seed": self.seed,
            "loss_rate": self.loss_rate,
            "initial": None if self.initial is None else dict(self.initial),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "LiveConfig":
        return cls(
            protocol=str(payload["protocol"]),
            n=int(payload["n"]),
            seed=int(payload["seed"]),
            loss_rate=float(payload.get("loss_rate", 0.0)),
            initial=payload.get("initial"),
        )


class LiveEngine:
    """A protocol population that advances period by period, forever."""

    def __init__(self, config: LiveConfig):
        self.config = config
        self.protocol = Protocol.named(config.protocol)
        resolved = self.protocol.resolve(config.n)
        initial = (
            dict(config.initial) if config.initial is not None
            else resolved.initial
        )
        self.engine = RoundEngine(
            resolved.spec,
            n=config.n,
            initial=initial,
            seed=config.seed,
            connection_failure_rate=config.loss_rate,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def period(self) -> int:
        return self.engine.period

    @property
    def state_names(self) -> Tuple[str, ...]:
        return tuple(self.engine.state_names)

    def counts(self) -> Dict[str, int]:
        return self.engine.counts()

    def fractions(self) -> Dict[str, float]:
        return self.engine.fractions()

    def alive_count(self) -> int:
        return self.engine.alive_count()

    def equilibrium_fractions(self) -> Optional[Dict[str, float]]:
        return self.protocol.equilibrium_fractions(self.config.n)

    # ------------------------------------------------------------------
    # Mutation (only the service core calls these)
    # ------------------------------------------------------------------
    def advance(self, periods: int = 1) -> None:
        for _ in range(int(periods)):
            self.engine.step()

    def apply(self, kind: str, data: Mapping[str, Any]) -> Dict[str, Any]:
        """Apply one membership event; returns an effect summary.

        ``fail`` with a ``fraction`` draws victims from the engine's
        own fault stream, so the effect is a pure function of the
        engine state -- replaying the same event at the same state
        kills the same hosts.

        Every field is validated before any array is touched: a
        rejected event leaves the engine exactly as it was.
        """
        if kind == "join":
            hosts = self._hosts(data)
            state = data.get("state")
            if state is not None and state not in self.engine.state_names:
                raise ValueError(
                    f"unknown join state {state!r}; protocol states are "
                    f"{list(self.engine.state_names)}"
                )
            self.engine.recover(hosts, state=state)
            return {"joined": len(hosts)}
        if kind == "leave":
            hosts = self._hosts(data)
            self.engine.crash(hosts)
            return {"left": len(hosts)}
        if kind == "fail":
            if "fraction" in data:
                fraction = float(data["fraction"])
                victims = self.engine.crash_fraction(fraction)
                return {"failed": int(len(victims))}
            hosts = self._hosts(data)
            self.engine.crash(hosts)
            return {"failed": len(hosts)}
        raise ValueError(f"unknown membership event kind {kind!r}")

    def _hosts(self, data: Mapping[str, Any]) -> np.ndarray:
        try:
            hosts = np.asarray(
                [int(h) for h in data["hosts"]], dtype=np.int64
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"event needs a 'hosts' list: {dict(data)!r}") from exc
        if hosts.size and (hosts.min() < 0 or hosts.max() >= self.config.n):
            raise ValueError(
                f"host ids must lie in [0, {self.config.n}), got {hosts}"
            )
        return hosts

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot(self) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
        """(arrays, meta) for :func:`repro.store.snapshots.save_snapshot`."""
        arrays, meta = self.engine.snapshot()
        meta.update(kind=LIVE_SNAPSHOT_KIND, config=self.config.to_dict())
        return arrays, meta

    @classmethod
    def restore(
        cls,
        arrays: Mapping[str, np.ndarray],
        meta: Mapping[str, Any],
    ) -> "LiveEngine":
        require_kind(arrays, meta, LIVE_SNAPSHOT_KIND)
        live = cls(LiveConfig.from_dict(meta["config"]))
        live.engine.restore(arrays, meta)
        return live

    # ------------------------------------------------------------------
    # Forking (what-if ensembles; see Experiment.from_live)
    # ------------------------------------------------------------------
    def fork_state(self) -> Dict[str, Any]:
        """The live state as a batch-ensemble starting point.

        The fork models the *alive* population: the ensemble size is
        the current alive count and the initial mix is the current
        state census, so "what happens from here under M independent
        futures" is exactly what the batch tier answers.
        """
        counts = self.counts()
        return {
            "protocol": self.config.protocol,
            "n": self.alive_count(),
            "initial": {s: float(c) for s, c in counts.items()},
            "loss_rate": self.config.loss_rate,
            "period": self.period,
        }
