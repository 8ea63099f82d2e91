"""Per-process protocol agents for the asynchronous simulator.

Each :class:`Agent` runs one process of a synthesized protocol as a DES
coroutine: its protocol period starts at an arbitrary phase, ticks with
its own (possibly drifting) clock, and all sampling happens through
RPC-style contacts over the unreliable :class:`~repro.runtime.network.Network`.
State queries reflect the *target's state at message delivery time* --
the asynchronous reality that the paper's analysis abstracts into
synchronized rounds (and which the agent simulator exists to validate).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional, Tuple

from ..synthesis.actions import (
    Action,
    AnyOfSampleAction,
    FlipAction,
    PushAction,
    SampleAction,
    TokenizeAction,
)
from .network import ContactFailed

if TYPE_CHECKING:
    from .agent_sim import AgentSimulation

# Message vocabulary (payload tuples on the wire).
STATE_QUERY = "state?"
PUSH_CONVERT = "push"
TOKEN = "token"


class Agent:
    """One process executing a protocol spec asynchronously.

    Parameters
    ----------
    simulation:
        The owning :class:`~repro.runtime.agent_sim.AgentSimulation`
        (provides membership sampling, token oracle and counters).
    agent_id:
        This process's address.
    state:
        Initial protocol state name.
    period:
        Nominal protocol period duration.
    clock_factor:
        Multiplier on the period modeling this process's clock speed
        (1.0 = perfect clock); results hold for the group average.
    phase:
        Offset of the first period start (periods start at arbitrary
        times at different processes -- paper Section 3.1).
    """

    def __init__(
        self,
        simulation: "AgentSimulation",
        agent_id: int,
        state: str,
        period: float,
        clock_factor: float = 1.0,
        phase: float = 0.0,
    ):
        self.sim = simulation
        self.id = agent_id
        self.state = state
        self.period = period * clock_factor
        self.phase = phase
        self.alive = True
        self.transitions = 0
        #: The running protocol loop (:meth:`run`), which a revival closes.
        self.loop: Optional[Generator] = None

    # ------------------------------------------------------------------
    # Message handling (runs at delivery time)
    # ------------------------------------------------------------------
    def handle(self, payload: Tuple) -> Any:
        kind = payload[0]
        if kind == STATE_QUERY:
            return self.state
        if kind == PUSH_CONVERT:
            _, match_state, target_state = payload
            if self.alive and self.state == match_state:
                self._transition(target_state, edge_from=match_state)
            return None
        if kind == TOKEN:
            _, token_state, target_state, ttl = payload
            if self.alive and self.state == token_state:
                self._transition(target_state, edge_from=token_state)
                return True
            if ttl is not None and ttl > 1:
                # Forward along the random walk with decremented TTL.
                peer = int(self.sim.sample_peer(self.id))
                self.sim.network.fire_and_forget(
                    peer, (TOKEN, token_state, target_state, ttl - 1)
                )
            return False
        raise ValueError(f"unknown payload {payload!r}")

    def _transition(self, new_state: str, edge_from: Optional[str] = None) -> None:
        edge = (edge_from or self.state, new_state)
        self.state = new_state
        self.transitions += 1
        self.sim.note_transition(edge)

    # ------------------------------------------------------------------
    # The periodic protocol loop (a DES process)
    # ------------------------------------------------------------------
    def run(self):
        yield self.phase
        while True:
            yield self.period
            if not self.alive:
                return
            state_at_tick = self.state
            for action in self.sim.spec.actions_of(state_at_tick):
                if self.state != state_at_tick:
                    break  # already transitioned this period
                yield from self._execute(action)

    def _execute(self, action: Action):
        rng = self.sim.rng
        if isinstance(action, FlipAction):
            if rng.random() < action.probability:
                self._transition(action.target_state)
            return

        if isinstance(action, SampleAction):
            if rng.random() >= action.probability:
                return
            matched = yield from self._check_pattern(action.required_states)
            if matched:
                self._transition(action.target_state)
            return

        if isinstance(action, AnyOfSampleAction):
            if rng.random() >= action.probability:
                return
            for _ in range(action.fanout):
                reply = yield from self._query_random_peer()
                if reply == action.match_state:
                    self._transition(action.target_state)
                    return
            return

        if isinstance(action, PushAction):
            if rng.random() >= action.probability:
                return
            for _ in range(action.fanout):
                peer = int(self.sim.sample_peer(self.id))
                self.sim.network.fire_and_forget(
                    peer, (PUSH_CONVERT, action.match_state, action.target_state)
                )
            return

        if isinstance(action, TokenizeAction):
            if rng.random() >= action.probability:
                return
            matched = yield from self._check_pattern(action.required_states)
            if not matched:
                return
            if action.ttl is None:
                # Membership-oracle routing: deliver to a current member
                # of the token state, if any exists (else drop).
                recipient = self.sim.oracle_member(action.token_state)
                if recipient is not None:
                    self.sim.network.fire_and_forget(
                        recipient,
                        (TOKEN, action.token_state, action.target_state, None),
                    )
            else:
                peer = int(self.sim.sample_peer(self.id))
                self.sim.network.fire_and_forget(
                    peer,
                    (TOKEN, action.token_state, action.target_state, action.ttl),
                )
            return

        raise TypeError(f"agent cannot execute action kind {action.kind}")

    def _check_pattern(self, required_states: Tuple[str, ...]):
        """Contact one peer per required state; all must match."""
        for needed in required_states:
            reply = yield from self._query_random_peer()
            if reply != needed:
                return False
        return True

    def _query_random_peer(self):
        peer = int(self.sim.sample_peer(self.id))
        try:
            reply = yield self.sim.network.contact(peer, (STATE_QUERY,))
        except ContactFailed:
            return None
        return reply
