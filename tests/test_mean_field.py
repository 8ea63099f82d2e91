"""Tests for the simulation-vs-analysis harness (repro.analysis.mean_field)
and the exact infinite-N round map it iterates."""

import functools
import math

import numpy as np
import pytest
import statutil
from test_tokens import token_system

from repro.analysis.mean_field import compare_trajectory, discrete_mean_field
from repro.campaign.registry import available_protocols, protocol_builder
from repro.odes import library
from repro.protocols.endemic import EndemicParams, figure1_protocol
from repro.runtime import BatchRoundEngine
from repro.runtime.laws import LAWS, PUSH, RIDING_PUSH
from repro.synthesis import synthesize


class TestTrajectoryComparison:
    def test_epidemic_tracks_discrete_map(self):
        # p = 1: the synchronous protocol is the discrete map
        # X_{n+1} = X_n + f(X_n); the continuous ODE runs visibly
        # faster at such coarse steps, so the exact reference is the
        # discrete one.
        spec = synthesize(library.epidemic())
        comparison = compare_trajectory(
            spec, n=20000, initial_counts={"x": 19000, "y": 1000},
            periods=25, seed=3, reference="discrete",
        )
        assert comparison.worst_rms_fraction_error() < 0.02

    def test_epidemic_small_p_tracks_ode(self):
        # As p shrinks, the discrete map converges to the ODE.
        spec = synthesize(library.epidemic(), p=0.1)
        comparison = compare_trajectory(
            spec, n=20000, initial_counts={"x": 19000, "y": 1000},
            periods=250, seed=3, reference="ode",
        )
        assert comparison.worst_rms_fraction_error() < 0.02

    def test_error_shrinks_with_n(self):
        spec = synthesize(library.lv(), p=0.05)
        errors = []
        for n in (500, 32000):
            comparison = compare_trajectory(
                spec, n=n, initial_counts={"x": 0.55 * n, "y": 0.45 * n, "z": 0},
                periods=120, seed=4,
            )
            errors.append(comparison.worst_rms_fraction_error())
        assert errors[1] < errors[0]

    def test_requires_source(self):
        from repro.synthesis import FlipAction, ProtocolSpec

        spec = ProtocolSpec(
            name="manual", states=("a", "b"),
            actions=(FlipAction("a", 0.5, "b"),),
        )
        with pytest.raises(ValueError):
            compare_trajectory(spec, 100, {"a": 100}, periods=5)

    def test_compensated_protocol_on_lossy_network(self):
        """Section 3 failure compensation: with connection failures and
        the compensated coin bias, the protocol still tracks the
        original equations."""
        f = 0.3
        spec = synthesize(library.lv(), p=0.01, failure_rate=f)
        comparison = compare_trajectory(
            spec, n=20000, initial_counts={"x": 12000, "y": 8000, "z": 0},
            periods=250, seed=5, connection_failure_rate=f,
        )
        assert comparison.worst_rms_fraction_error() < 0.03

    def test_uncompensated_protocol_drifts_on_lossy_network(self):
        """Control for the test above: without compensation the lossy
        run visibly lags the source equations."""
        f = 0.5
        spec = synthesize(library.lv(), p=0.01)
        lossy = compare_trajectory(
            spec, n=20000, initial_counts={"x": 12000, "y": 8000, "z": 0},
            periods=250, seed=5, connection_failure_rate=f,
        )
        clean = compare_trajectory(
            spec, n=20000, initial_counts={"x": 12000, "y": 8000, "z": 0},
            periods=250, seed=5,
        )
        assert lossy.worst_rms_fraction_error() > 2 * clean.worst_rms_fraction_error()


# ----------------------------------------------------------------------
# The round map: the census's laws at N -> infinity
# ----------------------------------------------------------------------
#: Synthesized exact specs as the tests and the EQUIV bench run them:
#: (spec builder, start, periods, connection failure rate).
EXACT_RUNS = {
    "epidemic": (lambda: synthesize(library.epidemic()),
                 {"x": 0.99, "y": 0.01}, 30, 0.0),
    "sis": (lambda: synthesize(library.sis(beta=0.8, gamma=0.2)),
            {"s": 0.9, "i": 0.1}, 120, 0.0),
    "lv": (lambda: synthesize(library.lv(), p=0.01),
           {"x": 0.6, "y": 0.4, "z": 0.0}, 250, 0.0),
    "endemic pure": (
        lambda: synthesize(library.endemic(alpha=0.01, gamma=0.1, b=2)),
        {"x": 0.5, "y": 0.5, "z": 0.0}, 250, 0.0),
    "tokenized": (lambda: synthesize(token_system()),
                  {"x": 0.5, "y": 0.25, "z": 0.25}, 120, 0.0),
    "lv compensated": (
        lambda: synthesize(library.lv(), p=0.01, failure_rate=0.3),
        {"x": 0.6, "y": 0.4, "z": 0.0}, 250, 0.3),
}

#: The registry ensembles the map is held to.
N, TRIALS, PERIODS = 100_000, 32, 20


def _series(spec, start, periods, failure=0.0):
    """``discrete_mean_field`` as a ``(periods + 1, S)`` array."""
    series = discrete_mean_field(spec, start, periods, failure)
    return np.stack([series[s] for s in spec.states], axis=1)


@functools.lru_cache(maxsize=None)
def _registry_run(name):
    """``(map, fractions)``: the map from the registry start, and a
    32-trial batch ensemble's ``(PERIODS + 1, TRIALS, S)`` fractions."""
    spec, initial = protocol_builder(name)(N)
    start = {s: initial.get(s, 0.0) / N for s in spec.states}
    batch = BatchRoundEngine(
        spec, n=N, trials=TRIALS, initial=initial, seed=54
    )
    counts = [batch.counts_matrix()]
    for _ in range(PERIODS):
        batch.step()
        counts.append(batch.counts_matrix())
    return _series(spec, start, PERIODS), np.stack(counts) / N


def _assert_tracks(name, periods):
    """The ensemble mean of each state at each period is the map's,
    inside the standard error of the mean; a period where every trial
    reads the same count must be within one host of the map."""
    expected, fractions = _registry_run(name)
    cells = len(periods) * expected.shape[1]
    for t in periods:
        for s in range(expected.shape[1]):
            samples = fractions[t, :, s]
            if np.ptp(samples) == 0.0:
                assert abs(samples[0] - expected[t, s]) * N < 1.0
                continue
            statutil.assert_mean_close(
                samples, expected[t, s], comparisons=cells,
                context=f"{name} period {t} state {s}",
            )


class TestRoundMap:
    def test_each_law_limit_is_its_mean_scaled_up(self):
        # Homogeneous of degree 1 in the counts: the limit is the mean.
        # The push's finite mean is not, and tends to its limit.
        assert all(
            law.limit is law.mean for law in LAWS
            if law not in (PUSH, RIDING_PUSH)
        )
        bins, contacts, q = 0.3, 0.5, 0.3
        gaps = [
            abs(PUSH.mean(k * bins, k * contacts, q) / k
                - PUSH.limit(bins, contacts, q))
            for k in (10, 100, 1000)
        ]
        assert gaps[1] < gaps[0] / 5 and gaps[2] < gaps[1] / 5
        assert PUSH.limit(0.0, contacts, q) == 0.0

    @pytest.mark.parametrize("name", sorted(EXACT_RUNS))
    def test_a_synthesized_exact_period_is_one_euler_step(self, name):
        # Homogeneous laws and one-contact coins: the round is x + p f(x)
        # along the whole run, the failure discount included.
        build, start, periods, failure = EXACT_RUNS[name]
        spec = build()
        system = spec.mean_field_system(effective=True)
        series = _series(spec, start, periods, failure)
        for now, after in zip(series, series[1:]):
            assert np.abs(after - (now + system.rhs(now))).max() <= 1e-15

    def test_the_synthesized_endemic_fixes_the_closed_form(self):
        spec = synthesize(library.endemic(alpha=0.01, gamma=0.1, b=2))
        closed = EndemicParams(alpha=0.01, gamma=0.1, b=2).equilibrium()
        series = discrete_mean_field(spec, closed, periods=50)
        assert {s: series[s][-1] for s in closed} == closed

    @pytest.mark.parametrize("name", available_protocols())
    def test_tracks_the_batch_ensemble_mean(self, name):
        _assert_tracks(name, range(1, PERIODS + 1))

    def test_epidemic_push_pull_stays_in_the_simplex(self):
        # A susceptible host stays one only if its pull misses (x) and
        # no push lands (e^-y): x' = x^2 e^-(1 - x).  A regression row:
        # the first-order map x + f(x) leaves the simplex here (x =
        # -0.091 at period 5).
        expected, _ = _registry_run("epidemic-push-pull")
        x = expected[0, 0]
        for t in range(1, PERIODS + 1):
            x = x * x * math.exp(-(1.0 - x))
            assert expected[t, 0] == pytest.approx(x, rel=1e-12)
        assert expected[4:7, 0] == pytest.approx(
            [0.4655, 0.1270, 0.0067], abs=1e-4
        )
        _assert_tracks("epidemic-push-pull", range(4, 7))

    def test_figure1_receptive_point_sits_above_the_closed_form(self):
        # b = 2, gamma = 0.1, alpha = 1e-3: a receptive host is infected
        # with 1 - (1 - y)^2 e^-2y (its pull, then the pushes), not 4y.
        params = EndemicParams(alpha=1e-3, gamma=0.1, b=2)
        spec = figure1_protocol(params)
        closed = params.equilibrium()
        fixed = _series(spec, closed, 2000)[-1]
        # The map's fixed point solves the same balance by bisection:
        # x (1 - (1 - y)^2 e^-2y) = gamma y, z = gamma y / alpha.
        lo, hi = 0.0, 1.0 / (1.0 + params.gamma / params.alpha)
        for _ in range(200):
            y = (lo + hi) / 2
            x = 1.0 - y - params.gamma * y / params.alpha
            infected = x * (1.0 - (1.0 - y) ** 2 * math.exp(-2.0 * y))
            lo, hi = (y, hi) if infected > params.gamma * y else (lo, y)
        assert fixed[:2] == pytest.approx([x, y], rel=1e-12)
        assert fixed[0] / closed["x"] - 1.0 == pytest.approx(0.0170, abs=5e-5)

        # The batch tier's equilibrium window reads the map, and rejects
        # the closed form: each trial's window mean is one sample.
        n, trials, burn, window = 1_000_000, 16, 50, 200
        batch = BatchRoundEngine(
            spec, n=n, trials=trials, seed=3,
            initial=dict(zip(spec.states, fixed * n)),
        )
        receptive = np.zeros(trials)
        for period in range(burn + window):
            batch.step()
            if period >= burn:
                receptive += batch.counts_matrix()[:, 0]
        receptive /= window * n
        statutil.assert_mean_close(
            receptive, fixed[0], comparisons=2, context="receptive window"
        )
        stderr = receptive.std(ddof=1) / math.sqrt(trials)
        z = (receptive.mean() - closed["x"]) / stderr
        assert abs(z) > statutil.z_bound(2)

    def test_higher_order_demo_stays_in_the_simplex(self):
        # Its tokens route to z and move at most its members, where the
        # first-order map x + f(x) reads z = -0.667 at period 2.
        spec = synthesize(library.higher_order_demo())
        starts = [np.full(3, 1 / 3)] + list(
            np.random.default_rng(7).dirichlet(np.ones(3), size=5)
        )
        for start in starts:
            series = _series(spec, dict(zip(spec.states, start)), 200)
            assert series.min() >= -1e-12 and series.max() <= 1.0 + 1e-12
            assert series.sum(axis=1) == pytest.approx(1.0, abs=1e-12)
