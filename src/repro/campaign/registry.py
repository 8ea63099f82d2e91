"""Named protocols and failure scenarios for campaign grids.

A campaign references protocols and scenarios by *name* so that specs
are plain data (JSON-serializable, diffable, replayable).  The two
registries below map those names to builders; both can be extended at
runtime with :func:`register_protocol` / :func:`register_scenario`
before a campaign is run.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Tuple, Union

from ..protocols.endemic import EndemicParams, figure1_protocol
from ..protocols.epidemic import pull_protocol, push_protocol, push_pull_protocol
from ..protocols.lv import lv_protocol
from ..runtime.churn import ChurnReplayer, generate_trace
from ..runtime.failures import CrashRecoveryNoise, MassiveFailure
from ..runtime.rng import spawn_seeds
from ..synthesis.protocol import ProtocolSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..experiment.protocol import Protocol
    from .grid import CampaignPoint

#: name -> builder(n) -> (spec, initial distribution)
ProtocolBuilder = Callable[[int], Tuple[ProtocolSpec, Mapping[str, float]]]

#: name -> builder(point, trial, seed) -> list of fresh hooks for one trial
ScenarioBuilder = Callable[["CampaignPoint", int, int], List[Callable]]

#: Entropy domain separating scenario streams from protocol streams.
_SCENARIO_DOMAIN = 0x5C3A


def _epidemic_initial(n: int) -> Dict[str, float]:
    # 1% infected: past the knife-edge single-seed regime, so ensemble
    # means track the mean-field trajectory.
    seeds = max(1, n // 100)
    return {"x": n - seeds, "y": seeds}


def _build_epidemic_pull(n: int):
    return pull_protocol(), _epidemic_initial(n)


def _build_epidemic_push(n: int):
    return push_protocol(), _epidemic_initial(n)


def _build_epidemic_push_pull(n: int):
    return push_pull_protocol(), _epidemic_initial(n)


#: The endemic configuration used for campaign cells: equilibrium
#: stash population ~= n/101, stable at a few hundred hosts and up.
_ENDEMIC_PARAMS = EndemicParams(alpha=1e-4, gamma=1e-2, b=2)


def _build_endemic(n: int):
    return figure1_protocol(_ENDEMIC_PARAMS), _ENDEMIC_PARAMS.equilibrium_counts(n)


def _build_lv(n: int):
    zeros = int(0.6 * n)
    return lv_protocol(p=0.01), {"x": zeros, "y": n - zeros, "z": 0}


def _build_lv_close(n: int):
    # The accuracy regime near the saddle (Section 4.2): a 52/48 split,
    # where majority selection is hardest and the w.h.p. guarantee is
    # weakest.  Campaign grids over this entry (large M, trial-axis
    # sharding) are how the fig7/fig8-family accuracy ensembles run at
    # scale on the batch engine.
    zeros = int(round(0.52 * n))
    return lv_protocol(p=0.01), {"x": zeros, "y": n - zeros, "z": 0}


_PROTOCOLS: Dict[str, ProtocolBuilder] = {
    "epidemic-pull": _build_epidemic_pull,
    "epidemic-push": _build_epidemic_push,
    "epidemic-push-pull": _build_epidemic_push_pull,
    "endemic": _build_endemic,
    "lv": _build_lv,
    "lv-close": _build_lv_close,
}


def register_protocol(name: str, builder: ProtocolBuilder) -> None:
    """Register (or replace) a named protocol builder."""
    _PROTOCOLS[name] = builder


def available_protocols() -> List[str]:
    return sorted(_PROTOCOLS)


def protocol_builder(name: str) -> ProtocolBuilder:
    """The raw registered builder behind a protocol name."""
    try:
        return _PROTOCOLS[name]
    except KeyError:
        raise KeyError(
            f"unknown protocol {name!r}; available: {available_protocols()}"
        ) from None


def resolve_protocol(name: Union[str, "Protocol"]) -> "Protocol":
    """Resolve a protocol reference to a :class:`repro.experiment.Protocol`.

    The canonical resolution path: campaigns and the ``run`` CLI hand
    these handles to :class:`~repro.experiment.experiment.Experiment`
    (or call ``handle.resolve(n)``) instead of unpacking raw builder
    tuples.  Accepts, in order of precedence:

    * a ready :class:`~repro.experiment.protocol.Protocol` handle
      (returned unchanged);
    * a registered protocol name;
    * a path to an equations file (``# param:`` directives honored) --
      so campaign grids can sweep equations-file protocols without
      registering them first.
    """
    # Lazy import: repro.experiment.Protocol.named resolves through
    # this registry.
    from ..experiment.protocol import Protocol

    if isinstance(name, Protocol):
        return name
    if name in _PROTOCOLS:
        return Protocol.named(name)
    if Path(name).is_file():
        return Protocol.from_equations(Path(name))
    raise KeyError(
        f"unknown protocol {name!r}: neither a registered name "
        f"(available: {available_protocols()}) nor an equations file"
    )


class ProtocolHandleBuilder:
    """Adapter presenting a :class:`Protocol` handle as a registry builder.

    Campaign grids that carry handle objects register them under their
    label through this wrapper (see ``CampaignSpec.expand``), so points
    stay plain name-referencing data.  Picklability follows the
    handle's resolver: file- and registry-born handles ship to pool
    workers; closure-built ones fall back to the serial path with the
    usual warning.
    """

    def __init__(self, handle: "Protocol"):
        self.handle = handle

    def __call__(self, n: int) -> Tuple[ProtocolSpec, Mapping[str, float]]:
        resolved = self.handle.resolve(n)
        return resolved.spec, resolved.initial


# ----------------------------------------------------------------------
# Failure scenarios
# ----------------------------------------------------------------------
def _scenario_none(point, trial, seed):
    return []


def _scenario_massive_failure(point, trial, seed):
    # Half the hosts crash halfway through the horizon (Figure 5's
    # stress pattern, scaled to the point's horizon).
    return [MassiveFailure(at_period=max(1, point.periods // 2), fraction=0.5)]


def _scenario_crash_recovery(point, trial, seed):
    # Background churn: ~0.2% of hosts crash per period, crashed hosts
    # return at 5% per period (Section 1's crash-recovery model).
    return [CrashRecoveryNoise(crash_rate=0.002, recovery_rate=0.05, seed=seed)]


def _scenario_churn(point, trial, seed):
    # Overnet-calibrated availability trace, 10 periods per hour.
    trace = generate_trace(
        point.n,
        duration_hours=max(1.0, point.periods / 10.0),
        mean_session_hours=2.0,
        seed=seed,
        initial_online_fraction=0.5,
    )
    return [ChurnReplayer(trace, periods_per_hour=10.0)]


_SCENARIOS: Dict[str, ScenarioBuilder] = {
    "none": _scenario_none,
    "massive-failure": _scenario_massive_failure,
    "crash-recovery": _scenario_crash_recovery,
    "churn": _scenario_churn,
}

#: Import-time snapshots.  Worker processes under the ``spawn`` start
#: method re-import this module and get exactly these; any deviation --
#: a new name or a built-in name re-registered to a different builder
#: -- must be shipped over explicitly (see :func:`custom_entries`).
_BUILTIN_PROTOCOLS = dict(_PROTOCOLS)
_BUILTIN_SCENARIOS = dict(_SCENARIOS)


def custom_entries() -> Tuple[
    Dict[str, ProtocolBuilder], Dict[str, ScenarioBuilder]
]:
    """Runtime registrations that differ from the import-time registry.

    Compared by identity, not name, so replacing a built-in builder
    counts as custom and reaches pool workers too.
    """
    return (
        {k: v for k, v in _PROTOCOLS.items()
         if _BUILTIN_PROTOCOLS.get(k) is not v},
        {k: v for k, v in _SCENARIOS.items()
         if _BUILTIN_SCENARIOS.get(k) is not v},
    )


def install_entries(
    protocols: Dict[str, ProtocolBuilder],
    scenarios: Dict[str, ScenarioBuilder],
) -> None:
    """Re-register custom builders (worker-process initializer)."""
    _PROTOCOLS.update(protocols)
    _SCENARIOS.update(scenarios)


def register_scenario(name: str, builder: ScenarioBuilder) -> None:
    """Register (or replace) a named failure scenario."""
    _SCENARIOS[name] = builder


def available_scenarios() -> List[str]:
    return sorted(_SCENARIOS)


def scenario_builder(name: str) -> ScenarioBuilder:
    """The raw registered builder behind a scenario name."""
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; "
            f"available: {available_scenarios()}"
        ) from None


def scenario_seeds(seed: int, trials: int) -> List[int]:
    """The per-trial scenario seed family for a run rooted at ``seed``.

    Scenario randomness draws from a seed family domain-separated from
    the engine's protocol streams, so adding or changing a scenario
    never perturbs the protocol's own sampling sequence.  Campaigns and
    :class:`repro.experiment.Scenario` share this family, so an
    experiment and a campaign point with the same parameters inject
    identical faults.
    """
    return spawn_seeds((seed, _SCENARIO_DOMAIN), trials)
