"""Spec verifier (`repro.check.spec_checks`) tests.

Covers the acceptance gates: every registry protocol passes, each
seeded mutation class (probability mass > 1, non-conserving source,
unreachable state) is flagged with the right rule, plus the embedded
warn/strict hooks and the ``# param-range`` / ``# declare``
directives.  A hypothesis suite generates valid chain protocols and
asserts the verifier is quiet on them and loud on their mutations.
"""

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.registry import available_protocols, resolve_protocol
from repro.check import (
    ProtocolCheckWarning,
    Severity,
    SpecCheckError,
    check_equations,
    check_spec,
    error_findings,
    has_errors,
    parse_declare_directives,
    parse_param_range_directives,
    render_findings,
    self_moving_mass,
    verify_spec,
)
from repro.check.spec_checks import MASS_TOLERANCE
from repro.experiment import Experiment, Protocol
from repro.odes import parse_system
from repro.synthesis.actions import FlipAction, SampleAction
from repro.synthesis.protocol import ProtocolSpec


def rules_of(findings, severity=None):
    return {
        f.rule for f in findings
        if severity is None or f.severity == severity
    }


# ----------------------------------------------------------------------
# Registry acceptance: every registered protocol verifies cleanly
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", available_protocols())
def test_registry_protocol_passes(name):
    spec = resolve_protocol(name).resolve(1000).spec
    findings = check_spec(spec)
    assert not error_findings(findings), render_findings(findings, name)


def test_endemic_coin_mass_is_info_not_error():
    # Figure 1's y state runs flip(gamma) + push(1.0): total coin mass
    # 1.01 > 1 is legitimate (push moves peers, not the actor) and must
    # come out as the INFO coin-mass note, not a mass error.
    spec = resolve_protocol("endemic").resolve(1000).spec
    findings = check_spec(spec)
    assert self_moving_mass(spec, "y") <= 1.0
    info = [f for f in findings if f.rule == "coin-mass"]
    assert len(info) == 1 and info[0].severity == Severity.INFO


# ----------------------------------------------------------------------
# Mutation class 1: probability mass > 1
# ----------------------------------------------------------------------
def spec_with_mass(p1, p2):
    return ProtocolSpec(
        name="mass-mutant",
        states=("a", "b", "c"),
        actions=(
            FlipAction(actor_state="a", probability=p1, target_state="b"),
            FlipAction(actor_state="a", probability=p2, target_state="c"),
            FlipAction(actor_state="b", probability=0.1, target_state="a"),
            FlipAction(actor_state="c", probability=0.1, target_state="a"),
        ),
        source=None,
        exact_mean_field=False,
    )


def test_mass_violation_flagged():
    findings = check_spec(spec_with_mass(0.7, 0.6))
    errors = error_findings(findings)
    assert rules_of(errors) == {"mass"}
    assert any("state a" in f.location for f in errors)


def test_mass_ok_not_flagged():
    findings = check_spec(spec_with_mass(0.7, 0.3))
    assert not error_findings(findings)


# ----------------------------------------------------------------------
# Mutation class 2: non-conserving source system
# ----------------------------------------------------------------------
NONCONSERVING = "x' = -0.4*x*y\ny' = 0.8*x*y\n"


def test_nonconserving_flagged_without_rewrite():
    spec, findings = check_equations(NONCONSERVING, rewrite=False)
    assert spec is None
    assert rules_of(error_findings(findings)) == {"conservation"}


def test_nonconserving_warned_with_rewrite():
    spec, findings = check_equations(NONCONSERVING, rewrite=True)
    conservation = [f for f in findings if f.rule == "conservation"]
    assert conservation and conservation[0].severity == Severity.WARNING


def test_rescaled_rates_keep_the_verdict():
    # Rescaling time (every rate times 1e-9) changes no verdict: the
    # rewrite adds the same slack state, and synthesis succeeds.
    def verdict(factor):
        text = f"x' = -{0.1 * factor!r}*x*y\ny' = {0.05 * factor!r}*x*y\n"
        spec, findings = check_equations(text)
        return spec.states, {(f.rule, f.severity) for f in findings}

    states, rules = verdict(1.0)
    assert states == ("x", "y", "z")
    assert ("conservation", Severity.WARNING) in rules
    assert not any(severity == Severity.ERROR for _, severity in rules)
    assert verdict(1e-9) == (states, rules)


def test_near_conserving_system_is_complete():
    # A net of 5e-10 on a coefficient of 1 is float noise: complete,
    # mappable as written, and no conservation finding anywhere.
    text = ("x' = -x*y + 0.1*z\ny' = 1.0000000005*x*y - 0.2*y\n"
            "z' = 0.2*y - 0.1*z\n")
    spec, findings = check_equations(text)
    assert spec.states == ("x", "y", "z")
    assert "conservation" not in rules_of(findings)
    assert not error_findings(findings)


def test_nonconserving_source_on_spec():
    system = parse_system(NONCONSERVING)
    spec = spec_with_mass(0.2, 0.2)
    findings = check_spec(spec, system)
    assert "conservation" in rules_of(error_findings(findings))


# ----------------------------------------------------------------------
# Mutation class 3: unreachable / dead states
# ----------------------------------------------------------------------
def test_unreachable_state_flagged():
    spec = spec_with_mass(0.2, 0.2)
    import dataclasses

    mutant = dataclasses.replace(spec, states=spec.states + ("ghost",))
    findings = check_spec(mutant)
    errors = error_findings(findings)
    assert rules_of(errors) == {"unreachable-state"}
    assert any("ghost" in f.location for f in errors)


def test_declare_directive_flags_unreachable():
    text = "# declare: w\nx' = -0.4*x*y\ny' = 0.4*x*y\n"
    spec, findings = check_equations(text)
    assert "unreachable-state" in rules_of(error_findings(findings))


def test_dead_state_with_dynamics_is_error():
    # The source says b has dynamics, but no action ever moves it.
    system = parse_system("a' = -0.2*a*b\nb' = 0.2*a*b\n")
    spec = ProtocolSpec(
        name="dead-mutant",
        states=("a", "b"),
        actions=(
            FlipAction(actor_state="a", probability=0.1, target_state="a"),
        ),
        source=system,
        exact_mean_field=False,
    )
    findings = check_spec(spec)
    assert "dead-state" in rules_of(error_findings(findings))


def test_dead_action_warned():
    spec = ProtocolSpec(
        name="noop",
        states=("a", "b"),
        actions=(
            FlipAction(actor_state="a", probability=0.0, target_state="b"),
            FlipAction(actor_state="b", probability=0.5, target_state="b"),
        ),
        source=None,
        exact_mean_field=False,
    )
    findings = check_spec(spec)
    dead = [f for f in findings if f.rule == "dead-action"]
    assert len(dead) == 2
    assert all(f.severity == Severity.WARNING for f in dead)


def test_absorbing_state_against_source_outflow():
    # b absorbs in the action graph while the equations predict outflow.
    system = parse_system("a' = -0.3*a*b + 0.1*b\nb' = 0.3*a*b - 0.1*b\n")
    spec = ProtocolSpec(
        name="absorbing-mutant",
        states=("a", "b"),
        actions=(
            SampleAction(
                actor_state="a", probability=0.3, target_state="b",
                required_states=("b",),
            ),
        ),
        source=system,
        exact_mean_field=False,
    )
    findings = check_spec(spec)
    absorbing = [f for f in findings if f.rule == "absorbing-state"]
    assert absorbing and absorbing[0].severity == Severity.WARNING


# ----------------------------------------------------------------------
# Mean-field consistency
# ----------------------------------------------------------------------
def test_mean_field_mismatch_flagged_symbolically():
    spec = resolve_protocol("lv").resolve(100).spec
    assert spec.exact_mean_field
    import dataclasses

    tampered = dataclasses.replace(
        spec,
        actions=spec.actions[:1] + tuple(
            dataclasses.replace(a, probability=min(1.0, a.probability * 2))
            for a in spec.actions[1:]
        ),
    )
    findings = check_spec(tampered)
    assert "mean-field" in rules_of(error_findings(findings))
    # Each variable's residual monomials, derived - expected: z's
    # doubled sample into x leaves +0.03*x*z in f_x.
    [finding] = [f for f in findings if f.rule == "mean-field"]
    assert "f_x: residual +0.03*x*z;" in finding.message
    assert "f_z: residual +0.03*x*y -0.03*x*z -0.03*y*z" in finding.message


def test_mean_field_exact_passes_symbolically():
    spec = resolve_protocol("lv").resolve(100).spec
    findings = check_spec(spec)
    assert "mean-field" not in rules_of(error_findings(findings))


# ----------------------------------------------------------------------
# Directive parsing + param-range certification
# ----------------------------------------------------------------------
def test_parse_param_range_directives():
    text = "# param-range: beta = 0.5 .. 2  gamma = 1e-3 .. 1e-1\n"
    assert parse_param_range_directives(text) == {
        "beta": (0.5, 2.0), "gamma": (1e-3, 1e-1),
    }


def test_parse_param_range_rejects_empty_interval():
    with pytest.raises(ValueError):
        parse_param_range_directives("# param-range: beta = 2 .. 1\n")


def test_parse_declare_directives():
    assert parse_declare_directives("# declare: w, v\n") == ["w", "v"]


def test_param_range_certified_when_multilinear():
    text = (
        "# param: beta = 2\n"
        "# param-range: beta = 0.5 .. 2\n"
        "x' = -beta*x*y\ny' = beta*x*y\n"
    )
    spec, findings = check_equations(text)
    assert not error_findings(findings)
    certificates = [f for f in findings if f.rule == "mass-range"]
    assert len(certificates) == 1
    assert certificates[0].severity == Severity.INFO
    assert "multilinear" in certificates[0].message


def test_param_range_violation_flagged():
    # p is chosen for beta=2; the declared box reaches beta=600 where
    # the pinned normalizer drives coin biases far above 1.
    text = (
        "# param: beta = 2\n"
        "# param-range: beta = 0.5 .. 600\n"
        "x' = -beta*x*y\ny' = beta*x*y\n"
    )
    spec, findings = check_equations(text)
    assert "mass-range" in rules_of(error_findings(findings))


def test_param_range_nonlinear_gets_warning_certificate():
    text = (
        "# param: beta = 1\n"
        "# param-range: beta = 0.5 .. 1\n"
        "x' = -beta*beta*x*y\ny' = beta*beta*x*y\n"
    )
    spec, findings = check_equations(text)
    assert not error_findings(findings)
    certificates = [f for f in findings if f.rule == "mass-range"]
    assert certificates and certificates[0].severity == Severity.WARNING


# ----------------------------------------------------------------------
# Embedded hooks: verify_spec / Protocol / Experiment
# ----------------------------------------------------------------------
def test_verify_spec_warn_mode_warns():
    with pytest.warns(ProtocolCheckWarning):
        verify_spec(spec_with_mass(0.7, 0.6), mode="warn")


def test_verify_spec_strict_mode_raises():
    with pytest.raises(SpecCheckError) as info:
        verify_spec(spec_with_mass(0.7, 0.6), mode="strict")
    assert any(f.rule == "mass" for f in info.value.findings)


def test_verify_spec_off_mode_skips():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert verify_spec(spec_with_mass(0.7, 0.6), mode="off") == []


def test_verify_spec_clean_spec_silent():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        findings = verify_spec(spec_with_mass(0.2, 0.2), mode="warn")
    assert not has_errors(findings)


def test_verify_spec_rejects_unknown_mode():
    with pytest.raises(ValueError):
        verify_spec(spec_with_mass(0.2, 0.2), mode="loud")


def test_from_equations_checks_by_default():
    with warnings.catch_warnings():
        warnings.simplefilter("error", ProtocolCheckWarning)
        Protocol.from_equations(
            "x' = -0.4*x*y\ny' = 0.4*x*y\n", name="clean"
        )


def test_experiment_strict_mode_raises_on_bad_spec():
    protocol = Protocol.from_spec(
        spec_with_mass(0.7, 0.6), {"a": 0.8, "b": 0.1, "c": 0.1},
    )
    experiment = Experiment(
        protocol, n=50, trials=1, periods=2, seed=1, check="strict",
    )
    with pytest.raises(SpecCheckError):
        experiment.run()


def test_experiment_warn_mode_still_runs():
    protocol = Protocol.from_spec(
        spec_with_mass(0.7, 0.6), {"a": 0.8, "b": 0.1, "c": 0.1},
    )
    experiment = Experiment(protocol, n=50, trials=1, periods=2, seed=1)
    with pytest.warns(ProtocolCheckWarning):
        result = experiment.run()
    assert result is not None


def test_experiment_rejects_unknown_check_mode():
    with pytest.raises(ValueError):
        Experiment("lv", n=50, check="paranoid")


def test_protocol_verify_caches_per_n():
    protocol = Protocol.named("lv")
    first = protocol.verify(100)
    assert protocol.verify(100) is first


# ----------------------------------------------------------------------
# The equilibrium rule: what every equilibrium on the simplex is
# ----------------------------------------------------------------------
def equilibrium_findings(findings):
    return {
        f.location: (f.severity, f.message)
        for f in findings if f.rule == "equilibrium"
    }


def test_lv_equilibria_are_each_named():
    spec = resolve_protocol("lv").resolve(1000).spec
    found = equilibrium_findings(check_spec(spec))
    assert found == {
        "equilibrium (x=0.333333, y=0.333333, z=0.333333)": (
            Severity.INFO, "saddle point, spectral abscissa 1"),
        "equilibrium (x=1, y=0, z=0)": (
            Severity.INFO, "stable node, spectral abscissa -3"),
        "equilibrium (x=0, y=1, z=0)": (
            Severity.INFO, "stable node, spectral abscissa -3"),
        "equilibrium (x=0, y=0, z=1)": (
            Severity.INFO, "unstable node, spectral abscissa 3"),
    }


def test_no_attracting_equilibrium_warns():
    # Rock-paper-scissors: a center ringed by three saddle corners.
    spec, findings = check_equations(
        "x' = x*y - x*z\ny' = y*z - x*y\nz' = x*z - y*z\n"
    )
    assert spec is not None and not error_findings(findings)
    warnings_ = [
        f for f in findings
        if f.rule == "equilibrium" and f.severity == Severity.WARNING
    ]
    assert len(warnings_) == 1
    assert "none of the 4 equilibria" in warnings_[0].message


def test_a_continuum_of_equilibria_is_one_finding_per_label():
    # x + z fixed along y = 0: the starts land on many points of it,
    # and y grows where x > z, so that half of the line repels.
    spec, findings = check_equations(
        "x' = -0.5*x*y\ny' = 0.5*x*y - 0.5*y*z\nz' = 0.5*y*z\n"
    )
    flat = {
        f.message.split(" (")[0]: f for f in findings
        if f.rule == "equilibrium" and "non-hyperbolic" in f.message
    }
    assert sorted(flat) == ["non-hyperbolic", "unstable non-hyperbolic"]
    assert all("more" in f.location for f in flat.values())


def test_equilibrium_rule_skips_oversized_systems():
    states = tuple(f"s{i}" for i in range(17))
    spec = ProtocolSpec(
        name="wide", states=states, source=None, exact_mean_field=False,
        actions=tuple(
            FlipAction(actor_state=s, probability=0.5,
                       target_state=states[(i + 1) % len(states)])
            for i, s in enumerate(states)
        ),
    )
    (finding,) = equilibrium_findings(check_spec(spec)).values()
    assert finding == (
        Severity.INFO, "not solved: 17 variables exceed "
        "MAX_EQUILIBRIUM_VARIABLES = 16",
    )


def test_embedded_hook_does_not_solve_for_equilibria(monkeypatch):
    import repro.check.spec_checks as spec_checks

    def refuse(system):
        raise AssertionError("verify_spec solved for equilibria")

    monkeypatch.setattr(spec_checks, "find_equilibria", refuse)
    spec = resolve_protocol("lv").resolve(1000).spec
    assert not error_findings(verify_spec(spec, mode="strict"))


# ----------------------------------------------------------------------
# Hypothesis: valid chain protocols pass; mutations are flagged
# ----------------------------------------------------------------------
state_names = st.integers(2, 5).map(
    lambda k: tuple(f"s{i}" for i in range(k))
)


@st.composite
def chain_specs(draw):
    """A valid ring protocol: every state flips to the next one."""
    states = draw(state_names)
    probabilities = [
        draw(st.floats(0.01, 1.0, allow_nan=False)) for _ in states
    ]
    actions = tuple(
        FlipAction(
            actor_state=states[i],
            probability=probabilities[i],
            target_state=states[(i + 1) % len(states)],
        )
        for i in range(len(states))
    )
    return ProtocolSpec(
        name="chain", states=states, actions=actions,
        source=None, exact_mean_field=False,
    )


@settings(max_examples=25, deadline=None)
@given(chain_specs())
def test_generated_valid_specs_pass(spec):
    assert not error_findings(check_spec(spec))


@settings(max_examples=25, deadline=None)
@given(chain_specs(), st.floats(0.5, 1.0, allow_nan=False))
def test_generated_mass_mutants_flagged(spec, extra):
    import dataclasses

    victim = spec.states[0]
    bump = FlipAction(
        actor_state=victim, probability=extra,
        target_state=spec.states[-1],
    )
    mutant = dataclasses.replace(spec, actions=spec.actions + (bump,))
    if self_moving_mass(mutant, victim) <= 1.0 + MASS_TOLERANCE:
        return  # mutation did not push the state over the edge
    assert "mass" in rules_of(error_findings(check_spec(mutant)))


@settings(max_examples=25, deadline=None)
@given(chain_specs())
def test_generated_unreachable_mutants_flagged(spec):
    import dataclasses

    mutant = dataclasses.replace(spec, states=spec.states + ("orphan",))
    findings = check_spec(mutant)
    assert "unreachable-state" in rules_of(error_findings(findings))


@settings(max_examples=25, deadline=None)
@given(st.floats(0.05, 0.45, allow_nan=False))
def test_generated_nonconserving_sources_flagged(rate):
    text = f"x' = -{rate}*x*y\ny' = {2 * rate}*x*y\n"
    spec, findings = check_equations(text, rewrite=False)
    assert rules_of(error_findings(findings)) == {"conservation"}


# ----------------------------------------------------------------------
# Reporting plumbing
# ----------------------------------------------------------------------
def test_render_findings_sorts_and_summarizes():
    findings = check_spec(spec_with_mass(0.7, 0.6))
    report = render_findings(findings, label="mutant")
    lines = report.splitlines()
    assert lines[0].startswith("ERROR")
    assert "mutant:" in lines[-1]


def test_spec_check_error_message_lists_errors():
    try:
        verify_spec(spec_with_mass(0.7, 0.6), mode="strict")
    except SpecCheckError as exc:
        assert "mass" in str(exc)
    else:  # pragma: no cover
        pytest.fail("strict mode did not raise")
