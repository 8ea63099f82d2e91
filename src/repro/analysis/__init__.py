"""Analysis toolkit: nonlinear-dynamics techniques for protocols.

Implements the analytical machinery of Sections 4.1.3 and 4.2.2:
perturbation analysis and Theorem 3's closed forms
(:mod:`~repro.analysis.linearize`, :mod:`~repro.analysis.stability`;
the stability classifier itself is :mod:`repro.odes.equilibria`'s),
convergence complexity (:mod:`~repro.analysis.convergence`),
probabilistic safety / replica longevity (:mod:`~repro.analysis.safety`),
fairness and untraceability statistics (:mod:`~repro.analysis.fairness`),
and the simulation-vs-mean-field comparison harness
(:mod:`~repro.analysis.mean_field`).
"""

from .convergence import (
    ConvergenceMeasurement,
    decay_rate_estimate,
    endemic_case,
    endemic_displacement,
    first_period_below,
    lv_majority_fraction,
    lv_minority_fraction,
    lv_periods_to_minority,
)
from .fairness import (
    FairnessReport,
    analyze_member_log,
    attack_window_decay,
    jain_index,
)
from .linearize import (
    endemic_closed_form_matrix,
    perturb,
)
from .mean_field import (
    TrajectoryComparison,
    compare_trajectory,
    discrete_mean_field,
)
from .safety import (
    ExtinctionTrial,
    LongevityEstimate,
    RealityCheck,
    expected_longevity_periods,
    expected_longevity_years,
    extinction_probability,
    measure_extinction,
    replicas_for_extinction_probability,
)
from .tokens import compare_ttl_models
from .stability import endemic_stability

__all__ = [
    "perturb",
    "endemic_closed_form_matrix",
    "endemic_stability",
    "endemic_case",
    "endemic_displacement",
    "lv_minority_fraction",
    "lv_majority_fraction",
    "lv_periods_to_minority",
    "first_period_below",
    "decay_rate_estimate",
    "ConvergenceMeasurement",
    "extinction_probability",
    "expected_longevity_periods",
    "expected_longevity_years",
    "replicas_for_extinction_probability",
    "measure_extinction",
    "ExtinctionTrial",
    "LongevityEstimate",
    "RealityCheck",
    "jain_index",
    "analyze_member_log",
    "attack_window_decay",
    "FairnessReport",
    "compare_trajectory",
    "discrete_mean_field",
    "compare_ttl_models",
    "TrajectoryComparison",
]
