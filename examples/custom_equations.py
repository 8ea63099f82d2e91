#!/usr/bin/env python3
"""Designing your own protocol from equations you wrote.

The framework's promise is that *any* suitable equation system can be
turned into a protocol.  This demo does it three times, with systems
that are not in the paper:

1. a SIRS rumor model written as text, mapped directly;
2. the raw Lotka-Volterra competition equations (6), which need the
   full Section 7 rewriting pipeline (completion + degree raising)
   before they map -- the library does it automatically;
3. a system with a term that has no factor of its own variable, forcing
   the Section 6 Tokenizing technique, run both with oracle routing and
   with TTL random-walk routing to show the TTL approximation error.

Run:  python examples/custom_equations.py
"""

from repro.analysis.mean_field import compare_trajectory
from repro.experiment import Experiment, Protocol
from repro.odes import classify, library, parse_system
from repro.synthesis import synthesize


def sirs_rumor() -> None:
    print("=" * 70)
    print("1. SIRS rumor model (direct mapping, via the facade)")
    protocol = Protocol.from_equations(
        """
        s' = -0.6*s*i + 0.05*r     # hear the rumor; forget immunity
        i' =  0.6*s*i - 0.2*i      # spread; lose interest
        r' =  0.2*i   - 0.05*r
        """,
        name="sirs-rumor",
        initial={"s": 0.995, "i": 0.005, "r": 0.0},
    )
    system = protocol.system()
    print(classify(system).render())
    n = 20_000
    spec = protocol.resolve(n).spec
    print(spec.render())
    result = Experiment(
        protocol, n=n, trials=4, periods=spec.periods_for_time(200.0),
        seed=11,
    ).run()
    print(f"simulated equilibrium (ensemble mean): "
          f"{result.mean_final_counts()}")
    # The facade's equilibrium check compares the stationary window
    # against the closed-form stable equilibrium of the source ODE.
    print(result.equilibrium_check().render())
    print()


def raw_lotka_volterra() -> None:
    print("=" * 70)
    print("2. raw LV competition (rewriting pipeline)")
    raw = parse_system(
        "x' = 3*x - 3*x^2 - 6*x*y\n"
        "y' = 3*y - 3*y^2 - 6*x*y",
        name="lv-raw",
    )
    print("before rewriting:", classify(raw).mapping_technique)
    # Protocol.from_equations applies auto_rewrite when the system is
    # not directly mappable -- the slack state z appears by itself.
    protocol = Protocol.from_equations(
        "x' = 3*x - 3*x^2 - 6*x*y\n"
        "y' = 3*y - 3*y^2 - 6*x*y",
        name="lv-raw", p=0.01,
        initial={"x": 0.56, "y": 0.44, "z": 0.0},
    )
    mappable = protocol.system()
    print("after auto_rewrite:")
    print(mappable.render())
    print("matches the paper's equation (7):",
          mappable.equivalent_to(library.lv()))
    n = 10_000
    # One trial: Experiment auto-selects the serial RoundEngine tier.
    result = Experiment(protocol, n=n, periods=1500, seed=12).run()
    print(f"56/44 vote at N={n} ({result.engine} engine): "
          f"final {result.mean_final_counts()}")
    print()


def tokenizing_demo() -> None:
    print("=" * 70)
    print("3. Tokenizing (Section 6), oracle vs TTL random walk")
    system = parse_system(
        """
        x' = -0.3*x + 0.4*x*y
        y' =  0.3*x - 0.5*y
        z' =  0.5*y - 0.4*x*y     # -0.4xy has no factor of z: tokens!
        """,
        name="token-demo",
    )
    print(classify(system).render())
    print("  worst RMS fraction error vs the source equations / the round map:")
    for label, ttl in (("membership oracle", None), ("TTL=3 random walk", 3)):
        protocol = synthesize(system, token_ttl=ttl)
        errors = [
            compare_trajectory(
                protocol, n=30_000,
                initial_counts={"x": 15_000, "y": 7_500, "z": 7_500},
                periods=120, seed=13, reference=reference,
            ).worst_rms_fraction_error()
            for reference in ("ode", "discrete")
        ]
        print(f"  {label}: {errors[0]:.4f} / {errors[1]:.4f}")
    print("  (the TTL walk drops tokens that fail to find a target, so")
    print("   its dynamics deviate from the source equations -- exactly")
    print("   the limitation Section 6 discusses -- and the round map,")
    print("   whose token step delivers with 1 - (1 - x)^ttl, is the")
    print("   modified analysis the paper proposes)")


def main() -> None:
    sirs_rumor()
    raw_lotka_volterra()
    tokenizing_demo()


if __name__ == "__main__":
    main()
