"""Equation rewriting techniques (paper Section 7).

These transforms bring arbitrary polynomial systems into the *mappable*
form required by the synthesizer: complete, and either restricted
polynomial (Flipping + One-Time-Sampling suffice, Theorem 1) or plain
polynomial (Tokenizing also needed, Theorem 5 as corrected by the
errata).

Implemented techniques:

* :func:`make_complete` -- add a slack variable ``z = 1 - sum(x)`` whose
  derivative balances the system ("Rewriting an equation into a
  Complete form").
* :func:`normalize` -- rescale a system written in absolute counts so
  the variables become fractions summing to one ("Normalizing").
* :func:`linear_ode_to_system` -- reduce a higher-order linear ODE in a
  single variable to a first-order system ("Mapping Differential
  equations of higher Orders"), reproducing the paper's
  ``x'' + x' = x`` example.
* :func:`expand_constants` -- rewrite a bare constant ``+/- c`` as
  ``+/- c * sum(v)``, valid on the simplex (Section 6, Tokenizing).
* :func:`multiply_terms_by_total` / :func:`to_restricted` -- the
  degree-raising substitution ``1 = sum(v)`` that turns the raw
  Lotka-Volterra competition system (eq. 6) into the restricted
  partitionable form (eq. 7).
* :func:`split_for_partition` -- split terms so a complete system
  partitions pairwise (the rewrite behind open question (5)).

All simplex-based rewrites (``expand_constants``, degree raising)
preserve the dynamics only on the invariant set ``sum(v) = 1``, which is
exactly where protocol state fractions live.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .partition import PartitionResult, partition_terms
from .system import EquationSystem, SystemError
from .term import Term


def _fresh_variable(existing: Sequence[str], base: str = "z") -> str:
    """Pick a slack-variable name not colliding with existing ones."""
    if base not in existing:
        return base
    index = 1
    while f"{base}{index}" in existing:
        index += 1
    return f"{base}{index}"


def make_complete(system: EquationSystem, slack: Optional[str] = None) -> EquationSystem:
    """Complete a system by adding ``slack' = -sum_x f_x``.

    This is the paper's completion rewrite: introduce ``z`` not in X with
    ``z = 1 - sum(x)`` and give it the balancing equation, the negated
    :meth:`~EquationSystem.divergence`.  If the system is already
    complete it is returned unchanged (simplified).
    """
    residual = system.divergence()
    system = system.simplified()
    if not residual:
        return system
    slack = slack or _fresh_variable(system.variables)
    if slack in system.variables:
        raise SystemError(f"slack variable {slack!r} already exists")
    equations = {v: system.equations[v] for v in system.variables}
    equations[slack] = tuple(t.negated() for t in residual)
    return EquationSystem(
        tuple(system.variables) + (slack,), equations, name=system.name
    )


def normalize(system: EquationSystem, total: float) -> EquationSystem:
    """Rescale a count-denominated system onto the unit simplex.

    If the original variables ``X`` satisfy ``sum(X) = total`` and obey
    ``dX/dt = f(X)``, the fractions ``x = X / total`` obey a polynomial
    system whose term coefficients pick up a factor ``total^(degree-1)``.
    The paper's example: ``X' = -(1/N) X Y`` normalizes to ``x' = -x y``.
    """
    if total <= 0:
        raise SystemError(f"total must be positive, got {total}")
    equations = {}
    for var in system.variables:
        equations[var] = tuple(
            t.scaled(total ** (t.degree - 1)) for t in system.equations[var]
        )
    return EquationSystem(system.variables, equations, name=system.name)


def denormalize(system: EquationSystem, total: float) -> EquationSystem:
    """Inverse of :func:`normalize` (fractions back to counts)."""
    if total <= 0:
        raise SystemError(f"total must be positive, got {total}")
    equations = {}
    for var in system.variables:
        equations[var] = tuple(
            t.scaled(total ** (1 - t.degree)) for t in system.equations[var]
        )
    return EquationSystem(system.variables, equations, name=system.name)


def linear_ode_to_system(
    coefficients: Sequence[float],
    variable: str = "x",
    complete: bool = True,
) -> EquationSystem:
    """Reduce ``x^(k) = c_0 x + c_1 x' + ... + c_{k-1} x^(k-1)``.

    New variables ``u1 .. u_{k-1}`` stand for the successive derivatives
    (the paper: "introducing new variables for higher order terms").
    With ``complete=True`` a balancing slack variable is appended, which
    reproduces the paper's worked example: ``x'' + x' = x`` becomes
    ``x' = u; u' = x - u; z' = -x``.
    """
    order = len(coefficients)
    if order < 1:
        raise SystemError("need at least one coefficient (order >= 1)")
    names = [variable] + [f"u{i}" for i in range(1, order)]
    equations: Dict[str, List[Term]] = {}
    for i in range(order - 1):
        equations[names[i]] = [Term(1.0, {names[i + 1]: 1})]
    last_terms = [
        Term(c, {names[i]: 1}) for i, c in enumerate(coefficients) if c != 0
    ]
    equations[names[order - 1]] = last_terms
    system = EquationSystem(names, equations, name=f"{variable}-order-{order}")
    if order == 1:
        system = EquationSystem(
            [variable],
            {variable: [Term(coefficients[0], {variable: 1})]},
            name=system.name,
        )
    if complete:
        system = make_complete(system)
    return system.simplified()


def expand_constants(system: EquationSystem) -> EquationSystem:
    """Rewrite each constant term ``+/- c`` as ``+/- c * sum(v)``.

    Valid on the simplex (``sum(v) = 1``).  This is the preparatory step
    named in Section 6: after expansion, every term contains at least
    one variable and can be tokenized.
    """
    equations = {}
    for var in system.variables:
        new_terms: List[Term] = []
        for term in system.equations[var]:
            if term.is_constant():
                new_terms.extend(
                    term.times_variable(v) for v in system.variables
                )
            else:
                new_terms.append(term)
        equations[var] = tuple(new_terms)
    return EquationSystem(system.variables, equations, name=system.name).simplified()


def multiply_terms_by_total(
    system: EquationSystem,
    selector: Callable[[str, Term], bool],
) -> EquationSystem:
    """Multiply selected terms by ``sum(v) (= 1)``, raising their degree.

    This is the substitution that turns the raw LV competition equations
    (eq. 6, after completion) into the restricted partitionable form
    (eq. 7): the ``+3x`` term of ``x'`` becomes ``3x(x + y + z)`` and the
    quadratic pieces cancel, leaving ``+3xz - 3xy``.
    """
    equations = {}
    for var in system.variables:
        new_terms: List[Term] = []
        for term in system.equations[var]:
            if selector(var, term):
                new_terms.extend(
                    term.times_variable(v) for v in system.variables
                )
            else:
                new_terms.append(term)
        equations[var] = tuple(new_terms)
    return EquationSystem(system.variables, equations, name=system.name).simplified()


def to_restricted(
    system: EquationSystem, max_iterations: int = 6
) -> EquationSystem:
    """Try to eliminate token-requiring terms by degree raising.

    A term is an *offender* when it is a bare constant, or a negative
    term of ``f_x`` lacking a factor of ``x``.  Each iteration collects
    the offending monomials and multiplies, by ``sum(v)``, **every term
    with that monomial in every equation**.  Raising uniformly per
    monomial is what preserves symbolic completeness (each monomial's
    signed coefficient sum is redistributed identically), and the
    cancellations after simplification are what make the rewrite
    converge for systems like LV: applied to the completed equation (6)
    this produces exactly equation (7).

    Returns the first restricted-polynomial equivalent found; if the
    iteration budget runs out, returns the last attempt (callers can
    still map it with Tokenizing).
    """
    from .classify import is_restricted_polynomial  # local import, avoids cycle

    current = system.simplified()
    for _ in range(max_iterations):
        if is_restricted_polynomial(current):
            return current
        offending_monomials = set()
        for var in current.variables:
            for term in current.equations[var]:
                if term.is_constant() or (
                    term.sign < 0 and term.exponent_of(var) < 1
                ):
                    offending_monomials.add(term.monomial)

        def selected(
            _var: str, term: Term, monomials=frozenset(offending_monomials)
        ) -> bool:
            return term.monomial in monomials

        rewritten = multiply_terms_by_total(current, selected)
        if rewritten.equivalent_to(current):
            break  # no progress; stop early
        current = rewritten
    return current


def split_for_partition(
    system: EquationSystem,
) -> Tuple[EquationSystem, PartitionResult]:
    """Split terms so a complete system partitions pairwise.

    Returns the rewritten system (with split terms materialized in the
    equations, e.g. ``+12xy`` as ``+6xy + 6xy``) together with the
    partition.  Raises :class:`SystemError` when the system is not
    complete (splitting cannot fix incompleteness).
    """
    from .classify import is_complete  # local import avoids a cycle

    if not is_complete(system):
        raise SystemError(
            f"{system.name!r} is not complete; apply make_complete first"
        )
    partition = partition_terms(system, allow_splitting=True)
    if not partition.is_partitionable:
        raise SystemError(
            f"{system.name!r} could not be partitioned even with splitting"
        )
    equations: Dict[str, List[Term]] = {v: [] for v in system.variables}
    for pair in partition.pairs:
        equations[pair.source].append(pair.term)
        equations[pair.target].append(pair.term.negated())
    rewritten = EquationSystem(system.variables, equations, name=system.name)
    return rewritten, partition


def auto_rewrite(system: EquationSystem, slack: Optional[str] = None) -> EquationSystem:
    """One-call pipeline: complete, de-tokenize if possible, simplify.

    The returned system is guaranteed complete; it is restricted
    polynomial whenever the degree-raising rewrite can achieve that
    (as it can for the LV equations), and otherwise remains mappable
    through Tokenizing as long as it partitions (with splitting).
    """
    completed = make_complete(system, slack=slack)
    restricted = to_restricted(expand_constants(completed))
    return restricted.simplified()
