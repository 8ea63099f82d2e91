"""Declarative experiment campaigns over protocol ensembles.

The paper's evaluation is a *grid* of experiments -- protocol x group
size x loss rate x failure scenario, each repeated over many trials --
and the repository's benches each hand-roll one cell of that grid.
This package makes the grid a first-class object:

* :mod:`~repro.campaign.grid` -- :class:`CampaignSpec` (the declarative
  grid) expands to :class:`~repro.experiment.RunPoint` parameter
  points, each with a deterministic spawned seed; specs and results
  round-trip through JSON.
* :mod:`~repro.campaign.registry` -- named protocol builders (epidemic
  pull/push/push-pull, endemic replication, LV majority) and failure
  scenarios (massive failure, crash-recovery noise, Overnet-style
  churn) that campaigns reference by name; both registries are
  extensible at runtime.
* :mod:`~repro.campaign.runner` -- executes each point's ensemble
  (:meth:`~repro.experiment.RunPoint.ensemble`, the path an
  :class:`~repro.experiment.Experiment` runs), fans points out across
  worker processes, and records every seed so any point can be
  replayed bit-for-bit later.

Command line::

    python -m repro campaign --protocol lv --n 1000 --n 4000 \
        --scenario none --scenario massive-failure \
        --trials 16 --periods 500 --out results.json
    python -m repro campaign --config campaign.json --workers 4
    python -m repro campaign --dry-run        # print the expanded grid
    python -m repro campaign --replay results.json
"""

from .grid import CampaignSpec
from .registry import (
    available_protocols,
    available_scenarios,
    protocol_builder,
    register_protocol,
    register_scenario,
    resolve_protocol,
    scenario_builder,
    scenario_seeds,
)
from .runner import (
    MANIFEST_NAME,
    CampaignResult,
    PointResult,
    load_manifest,
    replay_point,
    run_campaign,
    run_point,
    verify_replay,
)

__all__ = [
    "CampaignSpec",
    "CampaignResult",
    "PointResult",
    "run_campaign",
    "run_point",
    "replay_point",
    "verify_replay",
    "load_manifest",
    "MANIFEST_NAME",
    "resolve_protocol",
    "protocol_builder",
    "register_protocol",
    "register_scenario",
    "scenario_builder",
    "scenario_seeds",
    "available_protocols",
    "available_scenarios",
]
