"""Perturbation analysis around equilibria (paper Section 4.1.3).

The paper studies self-correction of the endemic equilibrium by
perturbing ``(x, y, z) = (x_inf(1+u), y_inf(1+v), z_inf(1+w))`` and
reducing the linearized dynamics to the 2x2 system ``T' = A T`` of
equation (4), whose trace and determinant decide stability (Theorem 3).
This module holds the paper's closed forms and the perturbation
helpers; the numeric linearization of any system at any equilibrium is
:func:`repro.odes.equilibria.classify_point`'s reduced operator, which
the tests check against these closed forms.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np


def perturb(
    point: Mapping[str, float], relative: Mapping[str, float]
) -> Dict[str, float]:
    """The paper's perturbation: ``x0 = x_inf * (1 + u)`` per variable."""
    out = {}
    for name, value in point.items():
        out[name] = value * (1.0 + relative.get(name, 0.0))
    return out


def endemic_closed_form_matrix(
    alpha: float, gamma: float, beta: float
) -> np.ndarray:
    """The paper's matrix A (equation 4) in fraction notation.

    ``sigma = (beta - gamma) / (1 + gamma/alpha)`` (= ``beta * y_inf``);
    ``A = [[-(sigma+alpha), -sigma*(gamma+alpha)], [1, 0]]``.
    It is similar to the Jacobian on the simplex tangent space at the
    non-trivial equilibrium (same trace, determinant and eigenvalues),
    which the tests verify against :func:`repro.odes.classify_point`.
    """
    sigma = (beta - gamma) / (1.0 + gamma / alpha)
    return np.array([[-(sigma + alpha), -sigma * (gamma + alpha)], [1.0, 0.0]])

