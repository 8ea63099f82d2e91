"""Static verification of protocol specifications.

The paper's equations-to-protocol mapping has correctness
preconditions that used to be discovered at runtime (or not at all):

* **mass** -- the per-state transition probability mass must not
  exceed 1: a process leaves its state at most once per period, so the
  coin biases of its *self-moving* actions must admit a single
  multinomial draw.  Push and tokenize actions move *other* processes
  and do not compete for the actor's own transition (they are summed
  separately as informational coin mass).  Synthesized specs meet it
  by construction: the normalizer bounds each state's total.
* **conservation** -- every action moves exactly one process from its
  edge source to its edge target, so the spec conserves population by
  construction; what can break is the *source system* (a ``+2xy``
  against a ``-xy``), which the spec then cannot realize faithfully.
  The check is the classifier's completeness test: all right-hand
  sides must sum to zero symbolically
  (:meth:`~repro.odes.system.EquationSystem.divergence`).
* **reachability** -- the action graph must touch every declared
  state: isolated states, states whose equations have dynamics but
  whose actions never move them, unintended absorbing states, and
  actions that cannot do anything (zero bias, self-loop edges).
* **mean-field consistency** -- for exact protocols, the spec's
  reconstructed :meth:`ProtocolSpec.mean_field_system` must match the
  source system scaled by the normalizer, term for term
  (:meth:`~repro.odes.system.EquationSystem.difference`); a mismatch
  lists each variable's residual monomials.
* **engine** -- the spec must lower to the engines' integer action
  form (``round_engine._compile``), which refuses more states than an
  int8 id can name, and is warned about when the batch tier's census
  refuses it (:func:`repro.runtime.planner.census_refusal`: a
  hand-built state whose coins sum above 1, a push at its own actor
  state), which the serial tier then runs.
* **equilibrium** -- what every equilibrium of the mean-field ODE on
  the simplex is, from the spectrum of its reduced operator
  (:func:`repro.odes.find_equilibria`): its label and spectral
  abscissa, the decay rate Theorem 3 bounds.  A system with no
  attracting equilibrium has no operating point for the protocol to
  settle on, whatever its text says (Chatzigiannakis & Spirakis), and
  is warned about.

Everything here is pure and static: no engine runs, no RNG.
"""

from __future__ import annotations

import itertools
import re
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union
import warnings

from ..odes import auto_rewrite, classify, find_equilibria, parse_system
from ..odes.equilibria import MAX_EQUILIBRIUM_VARIABLES
from ..odes.parser import ParseError
from ..odes.system import EquationSystem
from ..odes.term import COEFF_RTOL, Term
from ..synthesis import synthesize
from ..synthesis.actions import (
    Action,
    PushAction,
    SampleAction,
    TokenizeAction,
    transition_edges,
)
from ..synthesis.errors import NormalizationError, SynthesisError
from ..synthesis.protocol import ProtocolSpec
from .findings import (
    Finding,
    ProtocolCheckWarning,
    Severity,
    SpecCheckError,
    error_findings,
)

#: Slack on probability-mass sums (floating-point accumulation).
MASS_TOLERANCE = 1e-9

#: Modes for the embedded verification hook.
CHECK_MODES = ("off", "warn", "strict")

#: ``# param-range: name = lo .. hi [name = lo .. hi ...]`` directives.
_RANGE_DIRECTIVE = re.compile(
    r"^\s*#\s*param-range(?P<colon>:)?\s+(?P<body>.+)$", re.IGNORECASE
)
_RANGE_BINDING = re.compile(
    r"(?P<name>[A-Za-z_][A-Za-z_0-9]*)\s*=\s*"
    r"(?P<lo>[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\s*"
    r"\.\.\s*"
    r"(?P<hi>[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)"
)

#: Corner-sweep budget for the range analysis (2^8 ranged parameters).
MAX_RANGED_PARAMETERS = 8

#: ``# declare: name [name ...]`` -- states the protocol is *supposed*
#: to use; the verifier flags declared-but-unrealized ones.
_DECLARE_DIRECTIVE = re.compile(
    r"^\s*#\s*declare(?P<colon>:)?\s+(?P<body>.+)$", re.IGNORECASE
)
_STATE_NAME = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")


def parse_declare_directives(text: str) -> List[str]:
    """Extract ``# declare: state ...`` names from equations text."""
    out: List[str] = []
    for line in text.splitlines():
        match = _DECLARE_DIRECTIVE.match(line)
        if not match:
            continue
        names = match.group("body").replace(",", " ").split()
        if not all(_STATE_NAME.match(n) for n in names):
            if match.group("colon"):
                raise ValueError(
                    f"malformed declare directive {line.strip()!r}; "
                    f"expected '# declare: state [state ...]'"
                )
            continue
        for name in names:
            if name not in out:
                out.append(name)
    return out


def parse_param_range_directives(text: str) -> Dict[str, Tuple[float, float]]:
    """Extract ``# param-range: name = lo .. hi`` bindings.

    Companion to ``# param:`` (which supplies the *default* binding):
    a range declares the box over which the spec verifier must certify
    the probability-mass precondition, not just at the defaults.
    """
    out: Dict[str, Tuple[float, float]] = {}
    for line in text.splitlines():
        match = _RANGE_DIRECTIVE.match(line)
        if not match:
            continue
        body = match.group("body")
        bindings = _RANGE_BINDING.findall(body)
        leftover = _RANGE_BINDING.sub("", body).replace(",", "").strip()
        if not bindings or leftover:
            if match.group("colon"):
                raise ValueError(
                    f"malformed param-range directive {line.strip()!r}; "
                    f"expected '# param-range: name = lo .. hi ...'"
                )
            continue
        for name, lo, hi in bindings:
            low, high = float(lo), float(hi)
            if not low <= high:
                raise ValueError(
                    f"param-range for {name}: empty interval "
                    f"[{low}, {high}]"
                )
            out[name] = (low, high)
    return out


def _moves_actor(action: Action) -> bool:
    """Does this action transition the actor itself (vs a peer)?"""
    return not isinstance(action, (PushAction, TokenizeAction))


def _referenced_states(action: Action) -> set:
    involved = {action.actor_state, action.target_state}
    if isinstance(action, (SampleAction, TokenizeAction)):
        involved.update(action.required_states)
    if isinstance(action, TokenizeAction):
        involved.add(action.token_state)
    match = getattr(action, "match_state", None)
    if match:
        involved.add(match)
    return involved


def self_moving_mass(spec: ProtocolSpec, state: str) -> float:
    """Total per-period probability that a member of ``state`` leaves it."""
    return sum(
        a.probability for a in spec.actions_of(state) if _moves_actor(a)
    )


# ----------------------------------------------------------------------
# Individual rule passes
# ----------------------------------------------------------------------
def _check_mass(spec: ProtocolSpec) -> List[Finding]:
    findings: List[Finding] = []
    for state in spec.states:
        moving = self_moving_mass(spec, state)
        if moving > 1.0 + MASS_TOLERANCE:
            findings.append(Finding(
                Severity.ERROR, "mass", f"state {state}",
                f"self-transition probability mass {moving:g} > 1: the "
                f"multinomial per-period transition model is violated "
                f"(an actor can leave its state at most once per period)",
            ))
        total = sum(a.probability for a in spec.actions_of(state))
        if moving <= 1.0 + MASS_TOLERANCE and total > 1.0 + MASS_TOLERANCE:
            findings.append(Finding(
                Severity.INFO, "coin-mass", f"state {state}",
                f"total coin mass {total:g} > 1 (self-moving part "
                f"{moving:g} is fine): push and tokenize actions move "
                f"peers, not the actor",
            ))
    return findings


def _check_compiles(spec: ProtocolSpec) -> List[Finding]:
    """What every engine refuses at construction is an ERROR here too,
    and what only the batch tier refuses a WARNING."""
    from ..runtime.planner import census_refusal
    from ..runtime.round_engine import _compile

    try:
        compiled = _compile(spec)
    except ValueError as exc:
        return [Finding(Severity.ERROR, "engine", "spec", str(exc))]
    refusal = census_refusal(compiled, spec.states)
    if refusal is not None:
        return [Finding(Severity.WARNING, "engine", "spec", refusal)]
    return []


def _check_conservation(
    spec: ProtocolSpec, system: Optional[EquationSystem]
) -> List[Finding]:
    findings: List[Finding] = []
    if system is None:
        findings.append(Finding(
            Severity.INFO, "conservation", "spec",
            "no source system: action effects conserve population by "
            "construction (1-for-1 edge moves); nothing further to check",
        ))
        return findings
    residual = system.divergence()
    if residual:
        findings.append(Finding(
            Severity.ERROR, "conservation", "source system",
            f"right-hand sides do not sum to zero (residual "
            f"{_rendered(residual)}): "
            f"the actions' 1-for-1 population moves cannot realize a "
            f"non-conserving system; apply make_complete (Section 7) "
            f"first",
        ))
    return findings


def _rendered(terms: Sequence[Term]) -> str:
    """Residual terms as ``+0.03*x*y -0.1*z^2`` (a constant is ``*1``)."""
    return " ".join(
        f"{t.coefficient:+g}*"
        + ("*".join(v if e == 1 else f"{v}^{e}" for v, e in t.exponents) or "1")
        for t in terms
    )


def _check_graph(
    spec: ProtocolSpec, system: Optional[EquationSystem]
) -> List[Finding]:
    findings: List[Finding] = []
    edges = spec.edges()
    inbound = {s: [] for s in spec.states}
    outbound = {s: [] for s in spec.states}
    for src, dst in edges:
        if src != dst:
            outbound[src].append(dst)
            inbound[dst].append(src)
    referenced = set()
    for action in spec.actions:
        referenced |= _referenced_states(action)
    simplified = system.simplified() if system is not None else None

    for state in spec.states:
        has_in, has_out = bool(inbound[state]), bool(outbound[state])
        dynamic = bool(
            simplified is not None
            and simplified.equations.get(state, ())
        )
        if not has_in and not has_out:
            if dynamic:
                findings.append(Finding(
                    Severity.ERROR, "dead-state", f"state {state}",
                    f"the source equations give {state} nonzero dynamics "
                    f"but no action ever moves a process into or out of "
                    f"it",
                ))
            elif state in referenced:
                findings.append(Finding(
                    Severity.WARNING, "dead-state", f"state {state}",
                    f"{state} is only read by action conditions; no "
                    f"action ever moves a process into or out of it, so "
                    f"its population is frozen at the initial count",
                ))
            else:
                findings.append(Finding(
                    Severity.ERROR, "unreachable-state", f"state {state}",
                    f"{state} is declared but no action references it: "
                    f"it is unreachable dead weight in the state machine",
                ))
        elif has_in and not has_out:
            outflow = bool(
                simplified is not None
                and simplified.negative_terms_of(state)
            )
            if outflow:
                findings.append(Finding(
                    Severity.WARNING, "absorbing-state", f"state {state}",
                    f"{state} is absorbing in the action graph but the "
                    f"source equations predict outflow from it "
                    f"(negative terms of f_{state} are unrealized)",
                ))
            else:
                findings.append(Finding(
                    Severity.INFO, "absorbing-state", f"state {state}",
                    f"{state} is absorbing (in-edges, no out-edges); "
                    f"fine when intended (e.g. an epidemic's infected "
                    f"state)",
                ))
        elif has_out and not has_in:
            inflow = bool(
                simplified is not None
                and any(
                    t.coefficient > 0
                    for t in simplified.equations.get(state, ())
                )
            )
            severity = Severity.WARNING if inflow else Severity.INFO
            detail = (
                f"the source equations predict inflow into {state} "
                f"(positive terms of f_{state} are unrealized)"
                if inflow else
                f"fine when intended (e.g. an epidemic's susceptible "
                f"state)"
            )
            findings.append(Finding(
                severity, "transient-state", f"state {state}",
                f"{state} is never entered (out-edges, no in-edges); "
                + detail,
            ))

    for index, action in enumerate(spec.actions):
        location = f"action {index} ({action.kind})"
        if action.probability == 0.0:
            findings.append(Finding(
                Severity.WARNING, "dead-action", location,
                f"coin bias is 0, the action can never fire: "
                f"{action.describe()}",
            ))
        if all(src == dst for src, dst in transition_edges(action)):
            findings.append(Finding(
                Severity.WARNING, "dead-action", location,
                f"every edge is a self-loop, firing changes nothing: "
                f"{action.describe()}",
            ))
    return findings


def _check_mean_field(
    spec: ProtocolSpec, system: Optional[EquationSystem], rtol: float
) -> List[Finding]:
    if system is None:
        return []
    if not spec.exact_mean_field:
        return [Finding(
            Severity.INFO, "mean-field", "spec",
            "fan-out variants (any-of / push) match the source "
            "equations to first order only; the term-for-term "
            "equivalence check does not apply",
        )]
    expected = system.simplified().scaled(spec.normalizer)
    residuals = spec.mean_field_system().difference(expected, rtol)
    if not residuals:
        return []
    mismatches = [
        f"f_{variable}: residual {_rendered(terms)}"
        for variable, terms in residuals.items()
    ]
    return [Finding(
        Severity.ERROR, "mean-field", "spec",
        "the reconstructed mean-field system does not match "
        f"normalizer * source ({'; '.join(mismatches[:6])})",
    )]


#: The labels with a zero eigenvalue, and what each one means.
_FLAT = {
    "non-hyperbolic": "(a zero eigenvalue): the linearization does not "
                      "decide stability there",
    "unstable non-hyperbolic": "(a zero eigenvalue beside a growing one): "
                               "repelling, whatever the zero one does",
}


def _check_equilibria(
    spec: ProtocolSpec, system: Optional[EquationSystem]
) -> List[Finding]:
    if system is None:
        system = spec.mean_field_system(effective=False)
    try:
        equilibria = find_equilibria(system)
    except (ArithmeticError, ValueError) as exc:
        too_large = system.dimension > MAX_EQUILIBRIUM_VARIABLES
        return [Finding(
            Severity.INFO if too_large else Severity.WARNING,
            "equilibrium", "spec",
            str(exc) if too_large else f"the equilibrium solve failed ({exc})",
        )]
    findings = [
        Finding(
            Severity.INFO, "equilibrium", f"equilibrium {e.coordinates()}",
            f"{e.classification}, spectral abscissa {e.abscissa:.4g}",
        )
        for e in equilibria if e.classification not in _FLAT
    ]
    # A continuum of fixed points comes back as however many samples of
    # it the starts converged to: one finding per label covers them.
    for label, verdict in _FLAT.items():
        flat = [e for e in equilibria if e.classification == label]
        if flat:
            findings.append(Finding(
                Severity.INFO, "equilibrium",
                f"equilibrium {flat[0].coordinates()}"
                + (f" and {len(flat) - 1} more" if len(flat) > 1 else ""),
                f"{label} {verdict}",
            ))
    if not any(e.stable for e in equilibria):
        findings.append(Finding(
            Severity.WARNING, "equilibrium", "spec",
            f"none of the {len(equilibria)} equilibria on the simplex is "
            f"attracting, so the protocol has no operating point to "
            f"self-stabilize to",
        ))
    return findings


# ----------------------------------------------------------------------
# The verifier entry points
# ----------------------------------------------------------------------
def _check_rules(
    spec: ProtocolSpec,
    reference: Optional[EquationSystem],
    rtol: float = COEFF_RTOL,
) -> List[Finding]:
    """The rules that can produce ERROR findings."""
    findings: List[Finding] = []
    findings.extend(_check_mass(spec))
    findings.extend(_check_conservation(spec, reference))
    findings.extend(_check_graph(spec, reference))
    findings.extend(_check_mean_field(spec, reference, rtol))
    findings.extend(_check_compiles(spec))
    return findings


def check_spec(
    spec: ProtocolSpec,
    system: Optional[EquationSystem] = None,
    *,
    rtol: float = COEFF_RTOL,
) -> List[Finding]:
    """Run every static rule on one spec; return all findings.

    ``system`` overrides ``spec.source`` as the reference equation
    system (e.g. the pre-synthesis parse); the equilibrium rule falls
    back to the spec's reconstructed mean field when neither is given.
    """
    reference = system if system is not None else spec.source
    return (_check_rules(spec, reference, rtol)
            + _check_equilibria(spec, reference))


def verify_spec(
    spec: ProtocolSpec,
    system: Optional[EquationSystem] = None,
    *,
    mode: str = "warn",
    label: Optional[str] = None,
) -> List[Finding]:
    """The embedded hook: check and warn/raise according to ``mode``.

    ``"warn"`` (default) emits one :class:`ProtocolCheckWarning` when
    ERROR-severity findings exist; ``"strict"`` raises
    :class:`SpecCheckError`; ``"off"`` skips the check entirely.  Only
    the rules that can produce errors run: the equilibrium rule never
    does, and the run resolves its equilibrium separately.
    """
    if mode not in CHECK_MODES:
        raise ValueError(
            f"check mode must be one of {CHECK_MODES}, got {mode!r}"
        )
    if mode == "off":
        return []
    findings = _check_rules(
        spec, system if system is not None else spec.source
    )
    errors = error_findings(findings)
    if errors:
        name = label or spec.name
        if mode == "strict":
            raise SpecCheckError(findings, label=name)
        warnings.warn(
            ProtocolCheckWarning(
                f"protocol {name!r} failed static verification "
                f"({len(errors)} error(s)):\n"
                + "\n".join(f.render() for f in errors)
                + "\n(run `python -m repro check spec` for the full "
                f"report, or pass check='strict'/'off')"
            ),
            stacklevel=3,
        )
    return findings


def check_equations(
    source: Union[str, Path],
    *,
    parameters: Optional[Mapping[str, float]] = None,
    p: Optional[float] = None,
    failure_rate: float = 0.0,
    tokenize: bool = True,
    rewrite: bool = True,
    name: Optional[str] = None,
) -> Tuple[Optional[ProtocolSpec], List[Finding]]:
    """Verify an equations text or file end to end.

    Parses (honoring ``# param:`` defaults), checks conservation of
    the *written* system, rewrites if needed, synthesizes, runs
    :func:`check_spec` on the result, and -- when the file declares
    ``# param-range:`` boxes -- certifies the probability-mass
    precondition over the whole declared parameter box, not just the
    defaults.  Parse and synthesis failures become ERROR findings
    instead of exceptions, so callers always get a report.
    """
    from ..experiment.protocol import parse_param_directives

    path: Optional[Path] = None
    if isinstance(source, Path):
        path = source
    elif "\n" not in source and "'" not in source:
        try:
            if Path(source).is_file():
                path = Path(source)
        except (OSError, ValueError):
            path = None
    text = path.read_text() if path is not None else str(source)
    label = name or (path.stem if path is not None else "equations")

    findings: List[Finding] = []
    try:
        bound = dict(parse_param_directives(text))
        ranges = parse_param_range_directives(text)
        declared = parse_declare_directives(text)
    except ValueError as exc:
        findings.append(Finding(
            Severity.ERROR, "parse", label, str(exc)
        ))
        return None, findings
    bound.update(parameters or {})

    try:
        system = parse_system(text, parameters=bound, name=label)
    except ParseError as exc:
        findings.append(Finding(
            Severity.ERROR, "parse", label, str(exc)
        ))
        return None, findings

    residual = system.divergence()
    if residual:
        rendered = _rendered(residual)
        if rewrite:
            findings.append(Finding(
                Severity.WARNING, "conservation", label,
                f"equations as written do not conserve population "
                f"(residual {rendered}); a slack state absorbs the "
                f"imbalance via the completion rewrite",
            ))
        else:
            findings.append(Finding(
                Severity.ERROR, "conservation", label,
                f"equations do not conserve population (residual "
                f"{rendered}) and rewriting is disabled",
            ))
            return None, findings

    if rewrite and not classify(system).mappable:
        try:
            system = auto_rewrite(system)
        except (SynthesisError, ValueError) as exc:
            findings.append(Finding(
                Severity.ERROR, "rewrite", label,
                f"system is not mappable and auto_rewrite failed: {exc}",
            ))
            return None, findings

    try:
        spec = synthesize(
            system, p=p, failure_rate=failure_rate, tokenize=tokenize,
            name=label,
        )
    except SynthesisError as exc:
        rule = "mass" if isinstance(exc, NormalizationError) else "synthesis"
        findings.append(Finding(
            Severity.ERROR, rule, label, f"synthesis failed: {exc}"
        ))
        return None, findings

    missing = [s for s in declared if s not in spec.states]
    if missing:
        import dataclasses

        spec = dataclasses.replace(
            spec, states=spec.states + tuple(missing)
        )

    findings.extend(check_spec(spec, system))
    if ranges:
        findings.extend(_check_param_ranges(
            text, label=label, defaults=bound, ranges=ranges,
            pinned_p=p if p is not None else spec.normalizer,
            failure_rate=failure_rate, tokenize=tokenize, rewrite=rewrite,
        ))
    return spec, findings


# ----------------------------------------------------------------------
# Symbolic parameter-range analysis
# ----------------------------------------------------------------------
def _sympy_right_hand_sides(text: str) -> List["object"]:
    """Parse the equations text into sympy expressions (one per line).

    The grammar is the framework's polynomial subset, which sympy's
    parser accepts directly once ``^`` is treated as exponentiation.
    """
    import sympy
    from sympy.parsing.sympy_parser import (
        convert_xor,
        parse_expr,
        standard_transformations,
    )

    transformations = standard_transformations + (convert_xor,)
    expressions = []
    for line in text.splitlines():
        stripped = line.split("#", 1)[0].strip()
        if not stripped or "=" not in stripped:
            continue
        _, _, rhs = stripped.partition("=")
        # Pin every identifier to a plain Symbol: rate names like
        # ``beta``/``gamma`` must not resolve to sympy's special
        # functions.
        local = {
            name: sympy.Symbol(name)
            for name in re.findall(r"[A-Za-z_][A-Za-z_0-9]*", rhs)
        }
        expressions.append(parse_expr(
            rhs, transformations=transformations, local_dict=local,
        ))
    return expressions


def _is_multilinear(text: str, ranged: Sequence[str]) -> bool:
    """True when every RHS is degree <= 1 in each ranged parameter.

    Multilinearity is what makes the corner sweep *exact*: a
    multilinear function on a box attains its extrema at the corners,
    so checking every corner certifies the whole box.
    """
    import sympy

    for rhs in _sympy_right_hand_sides(text):
        expanded = sympy.expand(rhs)
        for parameter in ranged:
            if sympy.degree(expanded, sympy.Symbol(parameter)) > 1:
                return False
    return True


def _check_param_ranges(
    text: str,
    *,
    label: str,
    defaults: Mapping[str, float],
    ranges: Mapping[str, Tuple[float, float]],
    pinned_p: float,
    failure_rate: float,
    tokenize: bool,
    rewrite: bool,
) -> List[Finding]:
    """Certify the mass precondition over the declared parameter box.

    Re-synthesizes at every corner of the box with the normalizer
    pinned to the default-point choice (the ``p`` the deployed
    protocol actually runs with), and checks per-state self-transition
    mass at each corner.  When the equations are multilinear in the
    ranged parameters -- verified with sympy -- the corners are the
    extrema, so a clean sweep certifies the whole box; otherwise the
    midpoint is probed too and only a WARNING-grade certificate is
    possible.
    """
    findings: List[Finding] = []
    ranged = sorted(ranges)
    if len(ranged) > MAX_RANGED_PARAMETERS:
        findings.append(Finding(
            Severity.WARNING, "mass-range", label,
            f"{len(ranged)} ranged parameters exceed the corner-sweep "
            f"budget ({MAX_RANGED_PARAMETERS}); only the first "
            f"{MAX_RANGED_PARAMETERS} are swept",
        ))
        ranged = ranged[:MAX_RANGED_PARAMETERS]

    try:
        multilinear = _is_multilinear(text, ranged)
    except Exception as exc:  # sympy missing or parse drift
        multilinear = False
        findings.append(Finding(
            Severity.WARNING, "mass-range", label,
            f"could not establish multilinearity symbolically "
            f"({exc}); treating the box as non-multilinear",
        ))

    corners = list(itertools.product(
        *[(ranges[name][0], ranges[name][1]) for name in ranged]
    ))
    probes = [dict(zip(ranged, corner)) for corner in corners]
    if not multilinear:
        probes.append({
            name: 0.5 * (ranges[name][0] + ranges[name][1])
            for name in ranged
        })

    violations = 0
    for probe in probes:
        bound = dict(defaults)
        bound.update(probe)
        where = ", ".join(f"{k}={bound[k]:g}" for k in ranged)
        try:
            system = parse_system(text, parameters=bound, name=label)
            if rewrite and not classify(system).mappable:
                system = auto_rewrite(system)
            spec = synthesize(
                system, p=pinned_p, failure_rate=failure_rate,
                tokenize=tokenize, name=label,
            )
        except (ParseError, SynthesisError, ValueError) as exc:
            violations += 1
            findings.append(Finding(
                Severity.ERROR, "mass-range", f"{label} at {where}",
                f"synthesis with the deployed normalizer p={pinned_p:g} "
                f"fails inside the declared parameter box: {exc}",
            ))
            continue
        for state in spec.states:
            moving = self_moving_mass(spec, state)
            if moving > 1.0 + MASS_TOLERANCE:
                violations += 1
                findings.append(Finding(
                    Severity.ERROR, "mass-range",
                    f"{label} at {where}",
                    f"state {state}: self-transition mass {moving:g} > 1 "
                    f"inside the declared parameter box",
                ))

    if violations == 0:
        box = ", ".join(
            f"{name} in [{ranges[name][0]:g}, {ranges[name][1]:g}]"
            for name in ranged
        )
        if multilinear:
            findings.append(Finding(
                Severity.INFO, "mass-range", label,
                f"probability mass <= 1 certified over {box} "
                f"(multilinear in the ranged parameters, so the "
                f"{len(corners)} corner extrema cover the whole box)",
            ))
        else:
            findings.append(Finding(
                Severity.WARNING, "mass-range", label,
                f"corners and midpoint of {box} pass, but the "
                f"equations are not multilinear in the ranged "
                f"parameters: interior maxima are not excluded",
            ))
    return findings
