"""Theorem 3 in executable form.

The paper's proof classifies the non-trivial endemic equilibrium by the
trace and determinant of the matrix ``A`` of equation (4).  Here ``A``
is built from its closed form and labelled by the one stability
classifier, :func:`repro.odes.equilibria.classify_eigenvalues`, whose
two-dimensional labels are exactly the proof's trace-determinant chart;
the record renders the paper's tau and Delta.
"""

from __future__ import annotations

from ..odes import library
from ..odes.equilibria import Equilibrium
from .linearize import endemic_closed_form_matrix


def endemic_stability(alpha: float, gamma: float, beta: float) -> Equilibrium:
    """The non-trivial endemic equilibrium with the paper's operator ``A``.

    For ``alpha, gamma > 0`` and ``gamma/beta < 1`` it always has
    ``tau < 0 < Delta`` -- stable (spiral or node depending on the sign
    of ``tau^2 - 4 Delta``).
    """
    x = gamma / beta
    return Equilibrium(
        system=library.endemic(alpha=alpha, gamma=gamma, beta=beta),
        point={
            "x": x,
            "y": (1.0 - x) / (1.0 + gamma / alpha),
            "z": (1.0 - x) / (1.0 + alpha / gamma),
        },
        operator=endemic_closed_form_matrix(alpha, gamma, beta),
    )
