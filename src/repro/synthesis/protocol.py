"""Protocol specifications: the synthesized state machines.

A :class:`ProtocolSpec` is the output of the framework: a set of states
(one per equation variable) plus periodic probabilistic actions.  It
knows its own provenance (the source equation system and the
normalizing constant ``p``), can compute the paper's message-complexity
bound (Section 3), reconstruct the mean-field ODE it models (the
equivalence self-check behind Theorems 1 and 5), and render itself as an
ASCII state machine in the spirit of the paper's Figures 1 and 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..odes.system import EquationSystem
from ..odes.term import COEFF_RTOL, Term, combine_like_terms
from .actions import (
    Action,
    AnyOfSampleAction,
    FlipAction,
    PushAction,
    SampleAction,
    TokenizeAction,
    transition_edges,
)
from .errors import SynthesisError


@dataclass(frozen=True)
class ProtocolSpec:
    """A synthesized distributed protocol.

    Attributes
    ----------
    name:
        Protocol label.
    states:
        Ordered state names (mirror the equation variables).
    actions:
        All periodic actions.
    normalizer:
        The paper's normalizing constant ``p``.  One protocol period
        corresponds to ``p`` time units of the source equations (coin
        biases are ``p * c``), so simulated period ``n`` maps to ODE
        time ``t = p * n``.
    source:
        The equation system the protocol was synthesized from (None for
        hand-written protocols).
    exact_mean_field:
        True when every action's mean rate matches its source term
        exactly (pure Flip/Sample/Tokenize); False when fan-out variants
        (any-of / push) make the match first-order only.
    failure_rate:
        The per-connection failure probability ``f`` the protocol was
        compensated for (Section 3): coin biases carry an extra
        ``(1/(1-f))^(|T|-1)`` factor, so that *on a network that loses
        contacts with probability f* the effective dynamics match the
        source equations.  Run engines with
        ``connection_failure_rate=failure_rate`` to realize this.
    """

    name: str
    states: Tuple[str, ...]
    actions: Tuple[Action, ...]
    normalizer: float = 1.0
    source: Optional[EquationSystem] = None
    exact_mean_field: bool = True
    failure_rate: float = 0.0

    def __post_init__(self):
        if len(set(self.states)) != len(self.states):
            raise SynthesisError(f"duplicate states in {self.states!r}")
        known = set(self.states)
        for action in self.actions:
            involved = {action.actor_state, action.target_state}
            if isinstance(action, (AnyOfSampleAction, PushAction)):
                involved.add(action.match_state)
            if isinstance(action, (SampleAction, TokenizeAction)):
                involved.update(action.required_states)
            if isinstance(action, TokenizeAction):
                involved.add(action.token_state)
            unknown = involved - known
            if unknown:
                raise SynthesisError(
                    f"action {action.describe()!r} references unknown states "
                    f"{sorted(unknown)}"
                )
        if not 0 < self.normalizer <= 1:
            raise SynthesisError(
                f"normalizer p must lie in (0, 1], got {self.normalizer}"
            )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def time_scale(self) -> float:
        """ODE time units per protocol period (= ``p``)."""
        return self.normalizer

    def actions_of(self, state: str) -> Tuple[Action, ...]:
        """Actions executed by processes in ``state``."""
        return tuple(a for a in self.actions if a.actor_state == state)

    def edges(self) -> List[Tuple[str, str]]:
        """All distinct (from, to) transition edges."""
        seen = []
        for action in self.actions:
            for edge in transition_edges(action):
                if edge not in seen:
                    seen.append(edge)
        return seen

    def periods_for_time(self, t: float) -> int:
        """Number of protocol periods spanning ``t`` ODE time units."""
        return max(1, round(t / self.time_scale))

    def time_for_periods(self, periods: float) -> float:
        """ODE time corresponding to a number of protocol periods."""
        return periods * self.time_scale

    # ------------------------------------------------------------------
    # Message complexity (paper, Section 3)
    # ------------------------------------------------------------------
    def messages_per_period(self, state: str) -> int:
        """Sampling messages sent per period by a process in ``state``."""
        return sum(a.messages_per_period for a in self.actions_of(state))

    def message_complexity(self) -> Dict[str, int]:
        """Per-state message counts; the paper's bound says the count
        for state ``x`` equals ``sum_T (|T| - 1)`` over the negative
        terms ``T`` of ``f_x`` -- i.e. total variable occurrences minus
        the number of negative terms."""
        return {s: self.messages_per_period(s) for s in self.states}

    def paper_message_bound(self) -> Dict[str, int]:
        """The Section 3 bound computed from the source equations.

        Computed over the simplified source; exact when the simplified
        system partitions without term splitting (the paper's setting,
        where the written terms *are* the pairs).  When splitting is
        needed (a merged ``-2T`` pairing with two ``+T`` inflows), the
        realized message count can exceed this merged-form figure.

        Returns an empty mapping when the protocol has no source system.
        """
        if self.source is None:
            return {}
        bound = {}
        for state in self.states:
            negatives = self.source.simplified().negative_terms_of(state)
            bound[state] = sum(t.occurrences - 1 for t in negatives)
        return bound

    # ------------------------------------------------------------------
    # Mean-field reconstruction (equivalence self-check)
    # ------------------------------------------------------------------
    def mean_field_system(self, effective: bool = True) -> EquationSystem:
        """Reconstruct the ODE system the protocol models, from actions.

        With ``effective=True`` (default), sampling rates are discounted
        by the probability that all contacts survive the lossy network
        the protocol was compensated for (``(1-f)^k`` for ``k``
        contacts), i.e. the dynamics *as realized* on that network.  For
        pure Flip/Sample/Tokenize(oracle) protocols the effective system
        must equal ``p *`` the simplified source system -- the
        constructive content of Theorems 1 and 5.  Fan-out variants
        contribute their first-order rates.
        """
        flows: Dict[str, List[Term]] = {s: [] for s in self.states}
        for action in self.actions:
            term = _first_order_term(action)
            if effective and self.failure_rate > 0.0:
                contacts = 0
                if isinstance(action, (SampleAction, TokenizeAction)):
                    contacts = len(action.required_states)
                term = term.scaled((1.0 - self.failure_rate) ** contacts)
            for src, dst in transition_edges(action):
                flows[src].append(term.scaled(-1.0))
                flows[dst].append(term)
        equations = {s: combine_like_terms(flows[s]) for s in self.states}
        return EquationSystem(self.states, equations, name=f"{self.name}-mean-field")

    def verify_equivalence(self, rtol: float = COEFF_RTOL) -> bool:
        """Check mean-field reconstruction against the scaled source.

        Only meaningful for exact protocols with a source system.
        """
        if self.source is None:
            raise SynthesisError("protocol has no source system to verify against")
        if not self.exact_mean_field:
            raise SynthesisError(
                "protocol uses fan-out variants; equivalence is first-order only"
            )
        expected = self.source.simplified().scaled(self.normalizer)
        return self.mean_field_system().equivalent_to(expected, rtol=rtol)

    # ------------------------------------------------------------------
    # Rendering (Figures 1 and 3 style)
    # ------------------------------------------------------------------
    def render(self) -> str:
        """ASCII state machine: states, then per-state action lists."""
        lines = [f"protocol {self.name!r}  (p = {self.normalizer:g})"]
        lines.append("states: " + "  ".join(f"[{s}]" for s in self.states))
        for state in self.states:
            actions = self.actions_of(state)
            if not actions:
                continue
            lines.append(f"  state {state}:")
            for action in actions:
                lines.append(f"    - {action.describe()}")
        orphaned = [
            s for s in self.states
            if not self.actions_of(s)
            and all(s not in edge for edge in self.edges())
        ]
        if orphaned:
            lines.append(f"  (absorbing states: {', '.join(orphaned)})")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.render()


def _first_order_term(action: Action) -> Term:
    """The inflow term (positive) contributed by one action, first order."""
    exponents: Dict[str, int] = {}

    def bump(state: str, by: int = 1) -> None:
        exponents[state] = exponents.get(state, 0) + by

    coefficient = action.probability
    if isinstance(action, FlipAction):
        bump(action.actor_state)
    elif isinstance(action, TokenizeAction):
        bump(action.actor_state)
        for s in action.required_states:
            bump(s)
        # Oracle delivery moves a process of token_state; the rate does
        # not itself multiply by token_state's fraction (delivery is
        # certain while any target exists).
    elif isinstance(action, SampleAction):
        bump(action.actor_state)
        for s in action.required_states:
            bump(s)
    elif isinstance(action, AnyOfSampleAction):
        bump(action.actor_state)
        bump(action.match_state)
        coefficient *= action.fanout
    elif isinstance(action, PushAction):
        bump(action.actor_state)
        bump(action.match_state)
        coefficient *= action.fanout
    else:  # pragma: no cover - future action kinds
        raise SynthesisError(f"unknown action kind {action.kind}")
    return Term(coefficient, exponents)
