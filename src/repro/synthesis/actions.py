"""Protocol actions: the building blocks of synthesized state machines.

Section 3.1 of the paper maps equation terms onto two kinds of periodic
probabilistic actions -- *Flipping* and *One-Time-Sampling* -- and
Section 6 adds *Tokenizing*.  The endemic case study (Figure 1) uses two
additional hand-optimized variants, *any-of sampling* (a receptive
contacts ``b`` targets and reacts if any is a stasher) and *push*
(a stasher converts sampled receptives), which the errata notes is "a
variant of that obtained through the methodology".  All five are modeled
here as frozen dataclasses; engines compile them to vectorized kernels.

Every action is executed once per protocol period by each process that
is currently in ``actor_state``.  The common semantics:

1. flip a local biased coin (``probability`` heads chance);
2. optionally sample processes uniformly at random from the maximal
   membership (crashed targets make the contact fail);
3. if the action's condition holds, perform the transition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..odes.term import Term


@dataclass(frozen=True)
class Action:
    """Base class for protocol actions.

    Attributes
    ----------
    actor_state:
        State whose processes execute the action each period.
    probability:
        Heads probability of the local biased coin (``p * c`` in the
        paper's notation, after any failure compensation).
    target_state:
        State the actor (or, for push/tokenize, the affected process)
        transitions into when the action fires.
    source_term:
        The equation term this action realizes (None for hand-written
        actions).
    """

    actor_state: str
    probability: float
    target_state: str
    source_term: Optional[Term] = None

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"action probability must lie in [0, 1], got {self.probability}"
            )

    @property
    def kind(self) -> str:
        return type(self).__name__

    @property
    def messages_per_period(self) -> int:
        """Sampling messages the actor sends out per period."""
        return 0

    def describe(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError


@dataclass(frozen=True)
class FlipAction(Action):
    """Flipping (Section 3.1): realize a ``-c*x`` term of ``f_x``.

    A process in ``actor_state`` tosses a coin with heads probability
    ``p*c`` each period and transitions to ``target_state`` on heads.
    """

    def describe(self) -> str:
        return (
            f"[{self.actor_state}] flip coin (heads prob {self.probability:g}); "
            f"on heads -> {self.target_state}"
        )


@dataclass(frozen=True)
class SampleAction(Action):
    """One-Time-Sampling (Section 3.1).

    Realizes ``-c * x^{i_x} * prod(y^{i_y})`` in ``f_x`` with
    ``i_x >= 1``.  The actor samples ``len(required_states)`` processes
    uniformly at random; the j-th sampled process must currently be in
    ``required_states[j]`` (first ``i_x - 1`` entries are the actor's
    own state, the rest the lexicographic expansion of the other
    variables), and the local coin must fall heads.
    """

    required_states: Tuple[str, ...] = ()

    def describe(self) -> str:
        if not self.required_states:
            return FlipAction.describe(self)  # degenerate: no sampling
        targets = ", ".join(self.required_states)
        return (
            f"[{self.actor_state}] sample {len(self.required_states)} target(s); "
            f"if states match ({targets}) and coin heads "
            f"(prob {self.probability:g}) -> {self.target_state}"
        )

    @property
    def messages_per_period(self) -> int:
        return len(self.required_states)


@dataclass(frozen=True)
class AnyOfSampleAction(Action):
    """Endemic variant (Figure 1, action (iii)): pull with fan-out.

    The actor samples ``fanout`` targets; if *any* of them is in
    ``match_state`` (and the coin falls heads), the actor transitions.
    Mean-field rate: ``x * (1 - (1 - y)^fanout) ~= fanout * x * y`` for
    small ``y`` -- the paper's ``beta = N(1 - (1 - b/N)^2) ~= 2b``
    argument is the two-sided version of this approximation.
    """

    match_state: str = ""
    fanout: int = 1

    def __post_init__(self):
        super().__post_init__()
        if self.fanout < 1:
            raise ValueError(f"fanout must be >= 1, got {self.fanout}")
        if not self.match_state:
            raise ValueError("match_state is required")

    def describe(self) -> str:
        return (
            f"[{self.actor_state}] sample {self.fanout} target(s); if any is in "
            f"state {self.match_state} (coin prob {self.probability:g}) "
            f"-> {self.target_state}"
        )

    @property
    def messages_per_period(self) -> int:
        return self.fanout


@dataclass(frozen=True)
class PushAction(Action):
    """Endemic variant (Figure 1, action (iv)): push with fan-out.

    The actor samples ``fanout`` targets; every sampled process that is
    currently in ``match_state`` transitions to ``target_state`` (the
    actor itself does not change state).  Used by stashers to hand out
    replicas; doubling the effective contact rate lets the protocol run
    with ``b = beta / 2``.
    """

    match_state: str = ""
    fanout: int = 1

    def __post_init__(self):
        super().__post_init__()
        if self.fanout < 1:
            raise ValueError(f"fanout must be >= 1, got {self.fanout}")
        if not self.match_state:
            raise ValueError("match_state is required")

    def describe(self) -> str:
        return (
            f"[{self.actor_state}] sample {self.fanout} target(s); any target in "
            f"state {self.match_state} transitions -> {self.target_state} "
            f"(coin prob {self.probability:g})"
        )

    @property
    def messages_per_period(self) -> int:
        return self.fanout


@dataclass(frozen=True)
class TokenizeAction(Action):
    """Tokenizing (Section 6): realize ``-c*T`` in ``f_x`` with ``i_x = 0``.

    A process in ``actor_state`` (the chosen host variable ``w`` with
    ``i_w >= 1``) runs a one-time-sampling check; when it fires, instead
    of transitioning itself it creates a token and forwards it to a
    process in ``token_state`` (= ``x``), which then transitions to
    ``target_state``.  If no process is in ``token_state`` the token is
    dropped.

    ``ttl`` models the random-walk delivery alternative: a token
    survives ``ttl`` forwarding hops looking for a target, so delivery
    succeeds with probability ``1 - (1 - x)^ttl``; ``ttl=None`` models
    the membership-oracle variant (delivery always succeeds while a
    target exists).
    """

    required_states: Tuple[str, ...] = ()
    token_state: str = ""
    ttl: Optional[int] = None

    def __post_init__(self):
        super().__post_init__()
        if not self.token_state:
            raise ValueError("token_state is required")
        if self.ttl is not None and self.ttl < 1:
            raise ValueError(f"ttl must be >= 1 or None, got {self.ttl}")

    def describe(self) -> str:
        targets = ", ".join(self.required_states) or "none"
        route = "membership oracle" if self.ttl is None else f"random walk (TTL {self.ttl})"
        return (
            f"[{self.actor_state}] sample ({targets}); on match + heads "
            f"(prob {self.probability:g}) send token via {route} to a process in "
            f"{self.token_state}, which -> {self.target_state}"
        )

    @property
    def messages_per_period(self) -> int:
        # Sampling messages; token forwarding counted separately by engines.
        return len(self.required_states)


def transition_edges(action: Action) -> Tuple[Tuple[str, str], ...]:
    """The (from_state, to_state) edges an action can cause."""
    if isinstance(action, PushAction):
        return ((action.match_state, action.target_state),)
    if isinstance(action, TokenizeAction):
        return ((action.token_state, action.target_state),)
    return ((action.actor_state, action.target_state),)
