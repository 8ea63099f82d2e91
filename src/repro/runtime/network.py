"""Unreliable asynchronous network model for the DES agent simulator.

The paper's system model assumes an asynchronous network that "can drop
messages or connections".  This module models point-to-point contacts
with configurable latency distributions and a per-connection failure
probability; it is used by :mod:`repro.runtime.agent` for the
high-fidelity (non-synchronous) simulations that check the round-engine
results are not artifacts of synchrony.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

import numpy as np

from .des import Environment


class ContactFailed(Exception):
    """The contact attempt failed (loss, or target crashed)."""


@dataclass
class LatencyModel:
    """Round-trip latency distribution for contacts.

    ``base`` plus an exponential tail of mean ``jitter_mean`` -- a
    common model of wide-area RPC latency.  All values are expressed in
    protocol-period units (e.g. 0.01 = 1% of a period).
    """

    base: float = 0.01
    jitter_mean: float = 0.02

    def draw(self, rng: np.random.Generator) -> float:
        jitter = rng.exponential(self.jitter_mean) if self.jitter_mean > 0 else 0.0
        return self.base + jitter


class Network:
    """Point-to-point contact fabric between registered endpoints.

    Endpoints register a synchronous ``handler(payload) -> reply``;
    a process yields :meth:`contact`'s result, and after a latency draw
    is resumed with the reply, or has :class:`ContactFailed` thrown in
    when the connection drops (probability ``loss_rate``) or the
    destination is not registered/alive.

    The handler runs at *delivery* time, so the reply reflects the
    target's state when the message arrives -- the asynchronous-reality
    detail the synchronous round engine abstracts away.
    """

    def __init__(
        self,
        env: Environment,
        rng: np.random.Generator,
        loss_rate: float = 0.0,
        latency: Optional[LatencyModel] = None,
    ):
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss rate must lie in [0, 1), got {loss_rate}")
        self.env = env
        self.rng = rng
        self.loss_rate = loss_rate
        self.latency = latency or LatencyModel()
        self._endpoints: Dict[int, Callable[[Any], Any]] = {}
        self.contacts_attempted = 0
        self.contacts_failed = 0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, address: int, handler: Callable[[Any], Any]) -> None:
        """Attach an endpoint; replaces any previous handler."""
        self._endpoints[address] = handler

    def unregister(self, address: int) -> None:
        """Detach an endpoint (crashed host): future contacts fail."""
        self._endpoints.pop(address, None)

    # ------------------------------------------------------------------
    # Contacts
    # ------------------------------------------------------------------
    def contact(
        self, destination: int, payload: Any
    ) -> Callable[[Callable[..., None]], None]:
        """Initiate a round-trip contact, for a process to yield.

        The latency and the loss are drawn now.  The kernel hands the
        returned callable the process's ``resume``, which delivery
        calls with the reply, or with :class:`ContactFailed` if the
        connection drops or the destination is unregistered **at
        delivery time**.
        """
        self.contacts_attempted += 1
        delay = self.latency.draw(self.rng)
        dropped = self.rng.random() < self.loss_rate

        def start(resume: Callable[..., None]) -> None:
            def deliver() -> None:
                handler = self._endpoints.get(destination)
                if dropped or handler is None:
                    self.contacts_failed += 1
                    resume(error=ContactFailed(destination))
                    return
                try:
                    reply = handler(payload)
                except Exception as exc:  # endpoint bug: surface as failure
                    self.contacts_failed += 1
                    resume(error=ContactFailed(f"handler error: {exc!r}"))
                    return
                resume(reply)

            self.env.schedule(delay, deliver)

        return start

    def fire_and_forget(self, destination: int, payload: Any) -> None:
        """One-way message (used by push-style actions and tokens)."""
        self.contacts_attempted += 1
        dropped = self.rng.random() < self.loss_rate
        delay = self.latency.draw(self.rng)

        def deliver() -> None:
            handler = self._endpoints.get(destination)
            if dropped or handler is None:
                self.contacts_failed += 1
                return
            handler(payload)

        self.env.schedule(delay, deliver)
