"""Endemic replication: Case Study I (paper Section 4.1).

The endemic protocol solves the *responsibility migration* problem --
keeping a small, constantly moving subgroup of processes responsible
for an object (e.g. storing a file replica).  It is derived from the
endemic equations (1), an SIRS-style system:

    x' = -beta*x*y + alpha*z      (receptive)
    y' =  beta*x*y - gamma*y      (stash: holds a replica)
    z' =  gamma*y  - alpha*z      (averse: recently deleted, refuses)

Two protocol realizations are provided:

* :func:`figure1_protocol` -- the paper's Figure 1 variant: stash
  processes flip out at rate ``gamma``, averse at rate ``alpha``;
  receptives pull from ``b`` random targets (any stasher infects), and
  stashers push to ``b`` random targets (action (iv)); with
  ``b = beta/2`` the effective contact rate is
  ``beta = N(1-(1-b/N)^2) ~= 2b``.
* :func:`pure_protocol` -- the unmodified Section 3 mapping (One-Time-
  Sampling with a normalizing constant), exact in mean field.

:class:`EndemicParams` carries the closed-form equilibrium (2), the
perturbation quantities (sigma, tau, Delta) of the Theorem 3 proof, and
parameter-selection helpers (e.g. choosing ``alpha`` for a target
stasher population ``y_inf = c*log2(N)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..odes import library
from ..odes.system import EquationSystem
from ..synthesis import (
    AnyOfSampleAction,
    FlipAction,
    ProtocolSpec,
    PushAction,
    synthesize,
)

#: State names, in the paper's order.
RECEPTIVE, STASH, AVERSE = "x", "y", "z"


@dataclass(frozen=True)
class EndemicParams:
    """Endemic protocol parameters and their closed-form consequences.

    ``alpha`` and ``gamma`` are per-period probabilities in (0, 1];
    ``b`` is the per-period contact fan-out, so the effective contact
    rate is ``beta = 2b`` (fraction notation; the errata's count
    notation is ``beta = 2b/N``).
    """

    alpha: float
    gamma: float
    b: int

    def __post_init__(self):
        if not 0 < self.alpha <= 1:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not 0 < self.gamma <= 1:
            raise ValueError(f"gamma must lie in (0, 1], got {self.gamma}")
        if self.b < 1:
            raise ValueError(f"b must be >= 1, got {self.b}")
        if self.beta <= self.gamma:
            raise ValueError(
                f"need beta > gamma (beta=2b={self.beta}, gamma={self.gamma})"
            )

    @property
    def beta(self) -> float:
        """Effective contact rate ``2b`` (pull + push, fraction form)."""
        return 2.0 * self.b

    # ------------------------------------------------------------------
    # Equilibria (paper equation (2), fraction notation)
    # ------------------------------------------------------------------
    def equilibrium(self) -> Dict[str, float]:
        """The non-trivial (safe) equilibrium fractions."""
        x = self.gamma / self.beta
        y = (1.0 - x) / (1.0 + self.gamma / self.alpha)
        z = (1.0 - x) / (1.0 + self.alpha / self.gamma)
        return {RECEPTIVE: x, STASH: y, AVERSE: z}

    def equilibrium_counts(self, n: int) -> Dict[str, float]:
        """Equilibrium in process counts for a group of size ``n``."""
        return {k: v * n for k, v in self.equilibrium().items()}

    def exists(self) -> bool:
        """Non-trivial equilibrium exists iff ``gamma/beta < 1``.

        (Count notation: ``N > gamma/beta``, Theorem 3's condition.)
        """
        return self.gamma / self.beta < 1.0

    # ------------------------------------------------------------------
    # Perturbation analysis (paper equations (3)-(5))
    # ------------------------------------------------------------------
    def sigma(self) -> float:
        """``sigma = beta*y_inf = (beta - gamma) / (1 + gamma/alpha)``."""
        return (self.beta - self.gamma) / (1.0 + self.gamma / self.alpha)

    def trace(self) -> float:
        """``tau = -(sigma + alpha)`` -- always negative (Theorem 3)."""
        return -(self.sigma() + self.alpha)

    def determinant(self) -> float:
        """``Delta = sigma*(gamma + alpha)`` -- always positive."""
        return self.sigma() * (self.gamma + self.alpha)

    def discriminant(self) -> float:
        """``tau^2 - 4*Delta = (sigma - alpha)^2 - 4*sigma*gamma``.

        Negative: stable spiral (damped oscillation).  Positive: stable
        node.  Zero: degenerate node.
        """
        sigma = self.sigma()
        return (sigma - self.alpha) ** 2 - 4.0 * sigma * self.gamma

    def eigenvalues(self) -> Tuple[complex, complex]:
        """Eigenvalues of the matrix A of equation (4)."""
        tau, delta = self.trace(), self.determinant()
        disc = complex(tau * tau - 4.0 * delta)
        root = disc ** 0.5
        return ((tau + root) / 2.0, (tau - root) / 2.0)

    def perturbation_matrix(self) -> np.ndarray:
        """The 2x2 matrix A of equation (4)."""
        sigma = self.sigma()
        return np.array(
            [[-(sigma + self.alpha), -sigma * (self.gamma + self.alpha)],
             [1.0, 0.0]]
        )

    def spiral(self) -> bool:
        """True when the safe equilibrium is a stable spiral."""
        return self.discriminant() < 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def system(self) -> EquationSystem:
        """The endemic equation system (1) with these rates."""
        return library.endemic(alpha=self.alpha, gamma=self.gamma, b=self.b)


def figure1_protocol(params: EndemicParams) -> ProtocolSpec:
    """The paper's Figure 1 endemic protocol (with action (iv)).

    One protocol period = one time unit of equations (1) with
    ``beta = 2b`` (the errata notes this protocol is a variant of the
    §3 mapping; its mean field matches to first order in ``y``).
    """
    actions = (
        # (i) gamma*y: stash -> averse (delete the replica).
        FlipAction(
            actor_state=STASH, probability=params.gamma, target_state=AVERSE
        ),
        # (ii) alpha*z: averse -> receptive.
        FlipAction(
            actor_state=AVERSE, probability=params.alpha, target_state=RECEPTIVE
        ),
        # (iii) beta*x*y pull: receptive contacts b targets; any stasher
        # among them infects it (object transfer).
        AnyOfSampleAction(
            actor_state=RECEPTIVE,
            probability=1.0,
            target_state=STASH,
            match_state=STASH,
            fanout=params.b,
        ),
        # (iv) beta*x*y push: stasher contacts b targets; receptive
        # targets immediately turn stashers (object transfer).
        PushAction(
            actor_state=STASH,
            probability=1.0,
            target_state=STASH,
            match_state=RECEPTIVE,
            fanout=params.b,
        ),
    )
    return ProtocolSpec(
        name="endemic-replication",
        states=(RECEPTIVE, STASH, AVERSE),
        actions=actions,
        normalizer=1.0,
        source=params.system(),
        exact_mean_field=False,
    )


def pure_protocol(params: EndemicParams, p: Optional[float] = None) -> ProtocolSpec:
    """The unmodified Section 3 mapping of equations (1).

    Exact in mean field; the normalizing constant slows the protocol
    down by a factor ``p`` relative to :func:`figure1_protocol`.
    """
    return synthesize(params.system(), p=p, name="endemic-pure")


# ----------------------------------------------------------------------
# Parameter selection helpers (Section 4.1.3, "Probabilistic Safety")
# ----------------------------------------------------------------------
def alpha_for_target_stashers(
    n: int, target_stashers: float, gamma: float, b: int
) -> float:
    """Choose ``alpha`` so the equilibrium stasher count hits a target.

    From ``y_inf = (1 - gamma/(2b)) / (1 + gamma/alpha)`` (fractions):
    solve for ``alpha`` given ``y_inf = target_stashers / n``.
    """
    x_inf = gamma / (2.0 * b)
    y_frac = target_stashers / n
    if not 0 < y_frac < 1.0 - x_inf:
        raise ValueError(
            f"target {target_stashers} infeasible for n={n}, gamma={gamma}, b={b}"
        )
    ratio = (1.0 - x_inf) / y_frac - 1.0  # = gamma / alpha
    if ratio <= 0:
        raise ValueError("target too large; would need alpha < 0")
    alpha = gamma / ratio
    if alpha > 1.0:
        raise ValueError(f"required alpha={alpha} exceeds 1; lower the target")
    return alpha


def stasher_birth_rate(params: EndemicParams, n: int) -> float:
    """New stashers per period at equilibrium (= ``gamma * Y_inf``).

    At equilibrium each stasher creates new stashers at rate
    ``beta * x_inf = gamma``, so births balance deaths.  With the
    Figure 8 configuration this is the "one stasher created every
    40.6 seconds" quantity.
    """
    return params.gamma * params.equilibrium_counts(n)[STASH]
