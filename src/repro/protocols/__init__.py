"""The paper's case-study protocols and comparison baselines.

* :mod:`~repro.protocols.epidemic` -- the motivating pull epidemic
  (equation 0) plus push / push-pull variants.
* :mod:`~repro.protocols.endemic` -- endemic migratory replication
  (Case Study I, Figure 1), equilibrium and perturbation formulas,
  parameter selection.
* :mod:`~repro.protocols.lv` -- the LV majority-selection protocol
  (Case Study II, Figure 3), convergence detection and accuracy
  measurement.
* :mod:`~repro.protocols.baselines` -- static/reactive replication and
  the simple hand-off strawman (Section 4.1) for comparison benches.
"""

from .baselines import PlacementResult, SimpleHandoff, StaticReplication
from .endemic import (
    AVERSE,
    RECEPTIVE,
    STASH,
    EndemicParams,
    alpha_for_target_stashers,
    figure1_protocol,
    pure_protocol,
    stasher_birth_rate,
)
from .epidemic import (
    SpreadResult,
    measure_spread,
    pull_protocol,
    push_protocol,
    push_pull_protocol,
    theoretical_rounds,
)
from .lv import (
    ONE,
    UNDECIDED,
    ZERO,
    LVEnsemble,
    LVMajority,
    MajorityEnsembleOutcome,
    MajorityOutcome,
    expected_convergence_periods,
    lv_protocol,
)

__all__ = [
    "pull_protocol",
    "push_protocol",
    "push_pull_protocol",
    "measure_spread",
    "theoretical_rounds",
    "SpreadResult",
    "EndemicParams",
    "figure1_protocol",
    "pure_protocol",
    "alpha_for_target_stashers",
    "stasher_birth_rate",
    "RECEPTIVE",
    "STASH",
    "AVERSE",
    "LVMajority",
    "LVEnsemble",
    "MajorityOutcome",
    "MajorityEnsembleOutcome",
    "lv_protocol",
    "expected_convergence_periods",
    "ZERO",
    "ONE",
    "UNDECIDED",
    "StaticReplication",
    "SimpleHandoff",
    "PlacementResult",
]
