"""repro.experiment: the declarative equations-to-results facade.

The paper's promise is *equations in, protocol out*.  This package is
the single public API that delivers it end to end, over every engine
tier the runtime provides:

* :class:`~repro.experiment.protocol.Protocol` -- one handle for the
  three ways protocols come into existence: parsed+synthesized from
  equations (:meth:`Protocol.from_equations`), resolved from the
  campaign registry (:meth:`Protocol.named`), or wrapped around a
  hand-built spec (:meth:`Protocol.from_spec`).
* :class:`~repro.experiment.scenario.Scenario` -- one fault-injection
  contract normalized across the engines' divergent hook conventions.
* :class:`~repro.experiment.point.RunPoint` -- the one run record:
  every field that fixes a run's numbers, checked when it is built; a
  campaign cell and an experiment are both a point.
* :class:`~repro.experiment.experiment.Experiment` -- the runner:
  selects the engine tier (serial for ``trials == 1``, batch
  otherwise) into its point and executes it.
* :class:`~repro.experiment.result.ExperimentResult` -- one result
  surface subsuming ``RunResult`` / ``BatchRunResult`` /
  ``BatchMetricsRecorder`` access: count tensors, reducers, transition
  tensors, and the equilibrium comparison against the source ODE.

Quickstart::

    from repro.experiment import Experiment, Protocol

    protocol = Protocol.from_equations("examples/endemic.txt")
    result = Experiment(protocol, n=10_000, trials=16, periods=200,
                        seed=7).run()
    print(result.render_summary())
    print(result.equilibrium_check().render())

Command line::

    python -m repro run examples/endemic.txt --n 10000 --trials 16
    python -m repro run endemic --n 10000 --trials 16 \
        --scenario massive-failure
"""

from .experiment import ENGINES, Experiment
from .protocol import (
    Protocol,
    ResolvedProtocol,
    load_equations,
    parse_param_directives,
)
from .point import RunPoint
from .result import EquilibriumCheck, EquilibriumCheckRow, ExperimentResult
from .scenario import Scenario

__all__ = [
    "Experiment",
    "ExperimentResult",
    "Protocol",
    "ResolvedProtocol",
    "Scenario",
    "RunPoint",
    "EquilibriumCheck",
    "EquilibriumCheckRow",
    "ENGINES",
    "load_equations",
    "parse_param_directives",
]
