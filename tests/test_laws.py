"""The census's count laws (``repro.runtime.laws``) against their draws.

Each law is defined once: its ``name`` is what the period program
prints, its ``draw`` what the census calls, and its ``pmf`` and
``mean`` the exact law at finite ``N`` the tests compare draws against.
Pinned here:

1. **The references are laws** -- every ``pmf`` sums to 1 and every
   ``mean`` is its ``pmf``'s first moment, at three small parameter
   points per law.
2. **The draws follow them** -- a few thousand draws per law fit its
   ``pmf`` by chi-squared in tier-1, and 10^5 draws at each of the
   three points under ``heavy``.
3. **The census draws what the program names** -- a period draws
   through exactly the law objects ``describe()`` renders, and
   ``check complexity``'s program table is pinned as text
   (``tests/data/period_programs.json``) for every registry protocol
   and every ``examples/*.txt``.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from statutil import assert_pmf_fits
from test_batch_engine import token_spec
from test_period_program import crowded_spec, named, ride_spec

from repro.campaign.registry import available_protocols
from repro.runtime import BatchRoundEngine, laws

ROOT = Path(__file__).resolve().parents[1]

#: Three small parameter points per law, in ``pmf``'s argument order.
POINTS = {
    laws.BINOMIAL_SPLIT: [(7, 0.3), (12, 0.05), (2, 0.9)],
    laws.MULTINOMIAL_SPLIT: [
        (5, (0.2, 0.3, 0.5)), (8, (0.1, 0.6, 0.3)),
        (4, (0.25, 0.15, 0.2, 0.4)),
    ],
    laws.THINNING: [(9, 0.6), (3, 0.5), (20, 0.1)],
    # (bins, contacts, q): every contact hits at q = 1.
    laws.PUSH: [(6, 5, 1.0), (10, 12, 0.4), (3, 8, 0.2)],
    laws.RIDING_PUSH: [(4, 9, 0.7), (12, 6, 1.0), (2, 3, 0.5)],
    # p = 1 - (1 - unmoved / alive) ** ttl
    laws.TTL_BINOMIAL: [
        (6, 1 - (1 - 0.25) ** 3), (10, 1 - (1 - 0.1) ** 2), (4, 0.5),
    ],
    laws.TOKEN_CAP: [(5, 3), (2, 7), (4, 4)],
    # (taken, rest, take)
    laws.OVERLAP: [(4, 9, 6), (12, 5, 10), (3, 20, 2)],
}
CASES = [
    pytest.param(law, params, id=f"{law.name}-{i}")
    for law, points in POINTS.items() for i, params in enumerate(points)
]


def sample(law, rng, size, params) -> np.ndarray:
    """``size`` draws of one element of ``law`` at ``params``, as the
    census calls its ``draw``; a multinomial's rows are its heads."""
    def full(value):
        return np.full(size, value, dtype=np.int64)

    if law is laws.MULTINOMIAL_SPLIT:
        n, pvals = params
        return law.draw(rng)(full(n), np.array(pvals))[:, :-1]
    if law in (laws.PUSH, laws.RIDING_PUSH):
        bins, contacts, q = params
        hits = law.contacts(rng)(full(contacts), q)
        return law.draw(rng, full(bins), hits)
    if law is laws.TOKEN_CAP:
        tokens, unmoved = params
        return law.draw(full(tokens), full(unmoved))
    if law is laws.OVERLAP:
        taken, rest, take = params
        landed = law.draw(rng, full(taken), full(rest), full(take))
        return full(0) if landed is None else landed
    n, p = params
    return law.draw(rng)(full(n), p)


def outcomes(law, pmf, drawn) -> np.ndarray:
    """Each draw's flat index into ``pmf``."""
    if law is laws.MULTINOMIAL_SPLIT:
        return np.ravel_multi_index(tuple(drawn.T), pmf.shape)
    return drawn


def assert_draws_fit(law, params, size, seed, comparisons):
    pmf = law.pmf(*params)
    drawn = sample(law, np.random.default_rng(seed), size, params)
    assert_pmf_fits(
        outcomes(law, pmf, drawn), pmf.ravel(), comparisons=comparisons,
        context=f"{law.name} at {params}",
    )


# ----------------------------------------------------------------------
# 1. The references are laws
# ----------------------------------------------------------------------
def test_the_table_holds_every_law_once():
    assert set(POINTS) == set(laws.LAWS)
    assert len({law.name for law in laws.LAWS}) == len(laws.LAWS)


@pytest.mark.parametrize("law, params", CASES)
def test_pmf_sums_to_one(law, params):
    pmf = law.pmf(*params)
    assert (pmf >= 0.0).all()
    assert abs(pmf.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("law, params", CASES)
def test_mean_is_the_pmfs_first_moment(law, params):
    pmf = law.pmf(*params)
    # The first moment of each axis: a multinomial's is per side.
    moment = np.array([
        (pmf.sum(axis=tuple(a for a in range(pmf.ndim) if a != axis))
         @ np.arange(pmf.shape[axis]))
        for axis in range(pmf.ndim)
    ])
    mean = np.atleast_1d(law.mean(*params))
    np.testing.assert_allclose(moment, mean, rtol=1e-9, atol=0.0)


# ----------------------------------------------------------------------
# 2. The draws follow them
# ----------------------------------------------------------------------
@pytest.mark.parametrize("law", laws.LAWS, ids=lambda law: law.name)
def test_draws_fit_the_pmf(law):
    assert_draws_fit(
        law, POINTS[law][0], size=4_000, seed=11,
        comparisons=len(laws.LAWS),
    )


@pytest.mark.heavy
@pytest.mark.parametrize("law, params", CASES)
def test_draws_fit_the_pmf_at_full_size(law, params):
    assert_draws_fit(
        law, params, size=100_000, seed=12, comparisons=len(CASES)
    )


# ----------------------------------------------------------------------
# 3. The census draws what the program names
# ----------------------------------------------------------------------
REGISTRY = available_protocols()


def drawn_laws(monkeypatch, spec, n, initial, periods=30):
    """``(named, drawn)``: the laws ``describe()`` renders, and those
    the census drew through over ``periods`` periods."""
    drawn = set()

    def spy(law, attribute):
        call = getattr(law, attribute)

        def recorded(*args):
            drawn.add(law)
            return call(*args)

        monkeypatch.setattr(law, attribute, recorded)

    for law in laws.LAWS:
        spy(law, "draw")
        if law.contacts is not None:
            spy(law, "contacts")
    engine = BatchRoundEngine(spec, n=n, trials=4, initial=initial, seed=2)
    engine.run(periods)
    rows = engine._planner.describe()
    named = {
        law for law in laws.LAWS for row in rows if law.name in row["laws"]
    }
    if any(row["overlap"] for row in rows):
        named.add(laws.OVERLAP)
    return named, drawn


@pytest.mark.parametrize("case", [
    *REGISTRY, "token", "token-ttl", "crowded", "ride",
])
def test_a_period_draws_through_the_laws_it_names(monkeypatch, case):
    if case in REGISTRY:
        spec, n, initial = named(case)
    elif case.startswith("token"):
        spec, n = token_spec(), 600
        if case == "token-ttl":
            spec = dataclasses.replace(spec, actions=tuple(
                dataclasses.replace(a, ttl=3) if a.kind == "tokenize" else a
                for a in spec.actions
            ))
        initial = {"x": 200, "y": 200, "z": 200}
    else:
        spec = crowded_spec() if case == "crowded" else ride_spec()
        n, initial = 600, {"a": 200, "m": 200, "t": 200}
    named_laws, drawn = drawn_laws(monkeypatch, spec, n, initial)
    assert drawn <= named_laws, drawn - named_laws
    # Everything named is drawn, but an overlap some periods never need.
    assert named_laws - drawn <= {laws.OVERLAP}, named_laws - drawn


PROGRAMS = json.loads(
    (ROOT / "tests" / "data" / "period_programs.json").read_text()
)


def test_the_pinned_programs_cover_every_target():
    examples = sorted(
        f"examples/{path.name}" for path in (ROOT / "examples").glob("*.txt")
    )
    assert sorted(PROGRAMS) == sorted([*REGISTRY, *examples])


@pytest.mark.parametrize("target", sorted(PROGRAMS))
def test_check_complexity_prints_the_pinned_program(
    target, capsys, monkeypatch
):
    from repro.__main__ import main

    monkeypatch.chdir(ROOT)
    assert main(["check", "complexity", target]) == 0
    out = capsys.readouterr().out
    table = out[out.index("batch period program"):].splitlines()
    assert table == PROGRAMS[target]
