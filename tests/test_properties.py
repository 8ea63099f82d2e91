"""Property-based tests (hypothesis) for core invariants.

The generators build random *pair-structured* systems -- sets of
``(-T, +T)`` couples -- which are complete and completely partitionable
by construction, exactly the class Theorem 1/5 covers.  From there the
tests check the framework end to end: classification, rewriting,
synthesis, mean-field reconstruction, and simulation conservation laws.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiment import Experiment, Protocol
from repro.odes import is_complete, make_complete, normalize, denormalize
from repro.odes.parser import parse_system
from repro.odes.partition import partition_terms, reconstruct_system
from repro.odes.system import EquationSystem
from repro.odes.term import Term, combine_like_terms
from repro.runtime import (
    BatchMetricsRecorder,
    RoundEngine,
    spawn_seeds,
)
from repro.synthesis import synthesize

VARIABLES = ("x", "y", "z", "w")

coefficients = st.floats(
    min_value=0.05, max_value=5.0, allow_nan=False, allow_infinity=False
)


@st.composite
def monomials(draw, variables):
    """A non-constant monomial over the given variables (degree <= 3)."""
    exponents = {}
    degree = draw(st.integers(min_value=1, max_value=3))
    for _ in range(degree):
        var = draw(st.sampled_from(variables))
        exponents[var] = exponents.get(var, 0) + 1
    return exponents


@st.composite
def pair_systems(draw, restricted=True):
    """A random complete, completely partitionable system.

    With ``restricted=True`` the negative term of every pair lives in
    an equation whose variable appears in the monomial (Flip/Sample
    suffice); otherwise sources are arbitrary (Tokenizing may be
    needed).
    """
    n_vars = draw(st.integers(min_value=2, max_value=4))
    variables = VARIABLES[:n_vars]
    n_pairs = draw(st.integers(min_value=1, max_value=5))
    equations = {v: [] for v in variables}
    seen_monomials = set()
    for _ in range(n_pairs):
        monomial = draw(monomials(variables))
        # Distinct monomials keep the written pairs identical to the
        # simplified partition (the paper's message bound presumes the
        # written terms *are* the pairs).
        key = tuple(sorted(monomial.items()))
        if key in seen_monomials:
            continue
        seen_monomials.add(key)
        coefficient = draw(coefficients)
        if restricted:
            source = draw(st.sampled_from(sorted(monomial)))
        else:
            source = draw(st.sampled_from(variables))
        target = draw(
            st.sampled_from([v for v in variables if v != source])
        )
        equations[source].append(Term(-coefficient, monomial))
        equations[target].append(Term(coefficient, monomial))
    return EquationSystem(variables, equations, name="random-pairs")


def render_system(system: EquationSystem) -> str:
    """Render a system the way a scientist would write it.

    Coefficients use ``repr`` (shortest exact round-trip form), powers
    use ``^``, and negative terms render as ``- |c|*...`` -- the same
    surface syntax ``parse_system`` documents, so parsing the rendered
    text must reproduce the system exactly, not approximately.
    """
    lines = []
    for variable in system.variables:
        terms = system.equations[variable]
        if not terms:
            lines.append(f"{variable}' = 0")
            continue
        parts = []
        for index, term in enumerate(terms):
            monomial = "*".join(
                v if k == 1 else f"{v}^{k}"
                for v, k in sorted(dict(term.exponents).items())
            )
            magnitude = repr(abs(term.coefficient))
            body = f"{magnitude}*{monomial}" if monomial else magnitude
            if index == 0:
                parts.append(body if term.coefficient >= 0 else f"-{body}")
            else:
                sign = "+" if term.coefficient >= 0 else "-"
                parts.append(f"{sign} {body}")
        lines.append(f"{variable}' = " + " ".join(parts))
    return "\n".join(lines)


def count_trajectory(spec, n, initial, periods, seed):
    """Run one serial engine; return the (periods+1, states) tensor."""
    engine = RoundEngine(spec, n=n, initial=initial, seed=seed)
    recorder = BatchMetricsRecorder(spec.states, 1)
    engine.run(periods, recorder=recorder)
    return recorder.count_tensor()[0]


class TestTermAlgebra:
    @given(c=coefficients, pieces=st.integers(min_value=1, max_value=7))
    def test_split_preserves_coefficient(self, c, pieces):
        term = Term(-c, {"x": 1, "y": 2})
        total = sum(p.coefficient for p in term.split(pieces))
        assert total == pytest.approx(-c)

    @given(c=coefficients)
    def test_negation_involution(self, c):
        term = Term(c, {"x": 2})
        assert term.negated().negated() == term

    @given(st.lists(coefficients, min_size=1, max_size=6))
    def test_combine_like_terms_sums(self, cs):
        terms = [Term(c, {"x": 1}) for c in cs]
        merged = combine_like_terms(terms)
        assert len(merged) == 1
        assert merged[0].coefficient == pytest.approx(sum(cs))


class TestSystemInvariants:
    @given(system=pair_systems())
    def test_pair_systems_complete(self, system):
        assert is_complete(system)

    @given(system=pair_systems())
    def test_divergence_zero_on_simplex(self, system):
        point = np.full(system.dimension, 1.0 / system.dimension)
        assert abs(system.divergence_sum(point)) < 1e-9

    @given(system=pair_systems(), total=st.floats(min_value=0.5, max_value=1e4))
    def test_normalize_roundtrip(self, system, total):
        roundtrip = denormalize(normalize(system, total), total)
        assert roundtrip.equivalent_to(system, rtol=1e-6)

    @given(system=pair_systems(restricted=False))
    def test_make_complete_idempotent(self, system):
        assert make_complete(system).equivalent_to(system)

    @given(system=pair_systems())
    def test_partition_reconstruction(self, system):
        result = partition_terms(system, allow_splitting=True)
        assert result.is_partitionable
        rebuilt = reconstruct_system(list(system.variables), result.pairs)
        assert rebuilt.equivalent_to(system, rtol=1e-6)


class TestSynthesisTheorems:
    @given(system=pair_systems(restricted=True))
    def test_theorem1_restricted_systems_synthesize(self, system):
        spec = synthesize(system)
        assert spec.verify_equivalence(rtol=1e-6)
        # No tokens needed for restricted systems.
        assert all(a.kind != "TokenizeAction" for a in spec.actions)

    @given(system=pair_systems(restricted=False))
    def test_theorem5_general_systems_synthesize(self, system):
        spec = synthesize(system, tokenize=True)
        assert spec.verify_equivalence(rtol=1e-6)

    @given(system=pair_systems())
    def test_message_bound_respected(self, system):
        spec = synthesize(system)
        bound = spec.paper_message_bound()
        for state, sent in spec.message_complexity().items():
            assert sent <= bound[state] + 1e-9

    @given(system=pair_systems(restricted=True), f=st.floats(min_value=0.0, max_value=0.6))
    def test_failure_compensation_effective_field(self, system, f):
        spec = synthesize(system, failure_rate=f)
        expected = system.simplified().scaled(spec.normalizer)
        assert spec.mean_field_system(effective=True).equivalent_to(
            expected, rtol=1e-6
        )


class TestParserRoundTrip:
    """The full front door: text -> system -> spec -> engine.

    Everything a user types reaches the runtime through this chain, so
    the round trip is checked at all three layers: exact algebraic
    equivalence after parsing, mean-field reconstruction after
    synthesis, and bit-identical simulation from the parsed spec.
    """

    @given(system=pair_systems(restricted=False))
    def test_render_parse_exact(self, system):
        parsed = parse_system(
            render_system(system), variables=list(system.variables)
        )
        # repr() coefficients round-trip exactly through float(), so
        # this tolerance is slack for bookkeeping, not for parsing.
        assert parsed.equivalent_to(system, rtol=1e-12)

    @given(system=pair_systems(restricted=True))
    def test_parsed_synthesis_mean_field(self, system):
        parsed = parse_system(
            render_system(system), variables=list(system.variables)
        )
        spec = synthesize(parsed)
        expected = system.simplified().scaled(spec.normalizer)
        assert spec.mean_field_system().equivalent_to(expected, rtol=1e-6)

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        system=pair_systems(restricted=True),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_parsed_spec_drives_identical_engine(self, system, seed):
        spec_direct = synthesize(system)
        spec_parsed = synthesize(parse_system(
            render_system(system), variables=list(system.variables)
        ))
        assert spec_parsed.states == spec_direct.states
        n = 60
        initial = {system.variables[0]: n}
        direct = count_trajectory(spec_direct, n, initial, 6, seed)
        parsed = count_trajectory(spec_parsed, n, initial, 6, seed)
        assert np.array_equal(direct, parsed)


class TestSerialFacade:
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        system=pair_systems(restricted=True),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_serial_facade_matches_round_engine_bitwise(self, system, seed):
        # The serial tier promises M seeded RoundEngine runs bit for
        # bit, for *every* synthesizable protocol -- not just the
        # families test_batch_engine enumerates by hand.
        spec = synthesize(system)
        n, trials, periods = 60, 3, 6
        initial = {system.variables[0]: n}
        tensor = Experiment(
            Protocol.from_spec(spec, initial), n, trials=trials,
            periods=periods, seed=seed, engine="serial", check="off",
        ).run().count_tensor()
        for m, trial_seed in enumerate(spawn_seeds(seed, trials)):
            expected = count_trajectory(spec, n, initial, periods, trial_seed)
            assert np.array_equal(tensor[m], expected)


class TestEngineInvariants:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        system=pair_systems(restricted=True),
        seed=st.integers(min_value=0, max_value=2**31),
        n=st.integers(min_value=10, max_value=200),
    )
    def test_round_engine_conserves_processes(self, system, seed, n):
        spec = synthesize(system)
        initial = {system.variables[0]: n}
        engine = RoundEngine(spec, n=n, initial=initial, seed=seed)
        for _ in range(5):
            engine.step()
            counts = engine.counts()
            assert sum(counts.values()) == n
            assert engine.states.min() >= 0
            assert engine.states.max() < len(spec.states)

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        system=pair_systems(restricted=True),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_transitions_match_count_deltas(self, system, seed):
        spec = synthesize(system)
        n = 120
        even = {v: n // len(system.variables) for v in system.variables}
        even[system.variables[0]] += n - sum(even.values())
        engine = RoundEngine(spec, n=n, initial=even, seed=seed)
        before = engine.counts()
        transitions = engine.step()
        after = engine.counts()
        for state in spec.states:
            inflow = sum(c for (src, dst), c in transitions.items() if dst == state)
            outflow = sum(c for (src, dst), c in transitions.items() if src == state)
            assert after[state] - before[state] == inflow - outflow
