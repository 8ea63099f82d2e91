"""ODE layer: equation systems, taxonomy, rewriting, integration.

This subpackage implements everything the paper's framework needs on
the mathematical side:

* :mod:`~repro.odes.term` / :mod:`~repro.odes.system` -- polynomial
  terms and equation systems ``dX/dt = f(X)``.
* :mod:`~repro.odes.parser` -- text-to-system parsing.
* :mod:`~repro.odes.classify` -- the Section 2 taxonomy (complete,
  completely partitionable, polynomial, restricted polynomial).
* :mod:`~repro.odes.partition` -- the ``(+T, -T)`` term pairing that
  becomes protocol transitions.
* :mod:`~repro.odes.rewrite` -- the Section 7 rewriting techniques.
* :mod:`~repro.odes.integrate` / :mod:`~repro.odes.equilibria` /
  :mod:`~repro.odes.phase` -- mean-field integration, equilibrium
  finding and phase-portrait generation (the analysis substrate for
  Figures 2, 4 and 7).
* :mod:`~repro.odes.library` -- the paper's named systems.
"""

from .classify import TaxonomyReport, classify, is_complete, is_completely_partitionable, is_polynomial, is_restricted_polynomial
from .equilibria import Equilibrium, classify_point, find_equilibria
from .integrate import Trajectory, integrate
from .parser import ParseError, parse_system
from .partition import PartitionResult, TermPair, partition_terms
from .phase import FIGURE2_STARTS, FIGURE4_STARTS, PhasePortrait, phase_portrait
from .rewrite import (
    auto_rewrite,
    denormalize,
    expand_constants,
    linear_ode_to_system,
    make_complete,
    multiply_terms_by_total,
    normalize,
    split_for_partition,
    to_restricted,
)
from .system import EquationSystem, SystemError, build_system
from .term import Term, combine_like_terms

from . import library

__all__ = [
    "EquationSystem",
    "SystemError",
    "build_system",
    "Term",
    "combine_like_terms",
    "parse_system",
    "ParseError",
    "classify",
    "TaxonomyReport",
    "is_complete",
    "is_polynomial",
    "is_restricted_polynomial",
    "is_completely_partitionable",
    "partition_terms",
    "PartitionResult",
    "TermPair",
    "make_complete",
    "normalize",
    "denormalize",
    "linear_ode_to_system",
    "expand_constants",
    "multiply_terms_by_total",
    "to_restricted",
    "split_for_partition",
    "auto_rewrite",
    "integrate",
    "Trajectory",
    "find_equilibria",
    "classify_point",
    "Equilibrium",
    "phase_portrait",
    "PhasePortrait",
    "FIGURE2_STARTS",
    "FIGURE4_STARTS",
    "library",
]
