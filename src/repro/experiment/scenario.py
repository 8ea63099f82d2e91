"""One scenario contract over every engine tier.

The runtime grew two hook conventions: :class:`~repro.runtime.round_engine.RoundEngine`
takes a flat list of per-period hooks (``hook(engine)``), while
:class:`~repro.runtime.batch_engine.BatchRoundEngine` takes *hook
factories* (``factory(trial) -> hook(view)``), and the campaign
registry adds a third (``builder(point, trial, seed) -> hooks``).  A
:class:`Scenario` normalizes all of them: it produces the per-trial
hook list for a run point, with scenario randomness drawn from a
seed family domain-separated from the engines' protocol streams and
indexed by *global* trial.  Experiments and campaign points both run
as :class:`~repro.runtime.parallel.EnsembleExecutor` units handed one
such factory, so an :class:`~repro.experiment.experiment.Experiment`
and a campaign point with identical parameters inject identical
faults at *any* shard count, and a batch-tier ``Experiment(...,
workers=K)`` is bitwise the point with ``shards=K``.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Union

from ..runtime.churn import ChurnReplayer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .point import RunPoint

#: A per-trial hook list builder: ``(point, trial, seed) -> hooks``.
TrialHooksBuilder = Callable[["RunPoint", int, int], List[Callable]]


class Scenario:
    """A named or custom failure scenario, engine-agnostic.

    Use :meth:`named` for registry scenarios (``massive-failure``,
    ``crash-recovery``, ``churn``, ...), :meth:`from_trial_hooks` for a
    quick per-trial factory, or construct directly with a full
    ``(point, trial, seed) -> hooks`` builder.
    """

    def __init__(self, label: str, builder: TrialHooksBuilder):
        self.label = label
        self._builder = builder

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Scenario({self.label!r})"

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def named(cls, name: str) -> "Scenario":
        """A scenario from the campaign registry, by name."""
        # Lazy import: the campaign package imports repro.experiment.
        from ..campaign.registry import scenario_builder

        return cls(name, scenario_builder(name))

    @classmethod
    def from_trial_hooks(
        cls,
        factory: Callable[[int], Union[Callable, Sequence[Callable]]],
        label: str = "custom",
    ) -> "Scenario":
        """Wrap a plain per-trial hook factory (the batch-engine idiom).

        ``factory(trial)`` returns one hook or a sequence of hooks;
        stateful stock hooks must be constructed fresh per call, as for
        :meth:`BatchRoundEngine.run`'s ``hook_factories``.  The builder
        pickles whenever ``factory`` does, so a module-level factory
        fans out to workers.
        """
        return cls(label, functools.partial(_hooks_of_factory, factory))

    @classmethod
    def normalize(
        cls, scenario: Union[None, str, "Scenario", Callable]
    ) -> Optional["Scenario"]:
        """Coerce the ``Experiment(scenario=...)`` argument.

        Accepts None (no faults), a registry name, a ready
        :class:`Scenario`, or a per-trial hook factory.
        """
        if scenario is None:
            return None
        if isinstance(scenario, Scenario):
            return scenario
        if isinstance(scenario, str):
            return cls.named(scenario)
        if callable(scenario):
            return cls.from_trial_hooks(scenario)
        raise TypeError(
            f"scenario must be None, a name, a Scenario or a per-trial "
            f"hook factory, got {type(scenario).__name__}"
        )

    # ------------------------------------------------------------------
    # Hook production
    # ------------------------------------------------------------------
    def trial_seeds(self, point: RunPoint) -> List[int]:
        """The domain-separated scenario seed family for a point."""
        from ..campaign.registry import scenario_seeds

        return scenario_seeds(point.seed, point.trials)

    def hooks_for(self, point: RunPoint, trial: int, seed: int) -> List[Callable]:
        """Fresh hooks for one trial (hooks are stateful; never reuse)."""
        return list(self._builder(point, trial, seed))

    def hook_factory(self, point: RunPoint) -> "ScenarioHookFactory":
        """An ensemble ``hook_factories`` entry for this scenario (any tier).

        Returns one composite hook per trial (``None`` for a trial the
        scenario gives no hooks), so multi-hook scenarios fit the
        single-factory slot.  The factory is a plain object
        (not a closure), so named scenarios can cross process
        boundaries -- :class:`~repro.runtime.parallel.EnsembleExecutor`
        ships it to pool workers whenever the underlying builder
        pickles (registry builders are module-level functions and do).
        """
        return ScenarioHookFactory(self, point)


class _CompositeHook:
    """One per-trial hook running a scenario's hook list in order."""

    def __init__(self, hooks: List[Callable]):
        self._hooks = hooks

    def __call__(self, view) -> None:
        for hook in self._hooks:
            hook(view)


class ScenarioHookFactory:
    """Picklable per-trial hook factory for one scenario + point.

    Trial indices are *global* (0..trials-1): the scenario seed family
    is derived from the point, so the hooks a trial receives are
    identical whether the ensemble runs in one engine or sharded
    across processes by an executor handed this one factory -- an
    experiment's or a campaign point's.
    """

    def __init__(self, scenario: Scenario, point: RunPoint):
        self.scenario = scenario
        self.point = point
        # The seed family, derived by the first trial built in each
        # process, and hooks built before their trial asked
        # (asks_hosts), handed out once.  Neither is pickled (see
        # __getstate__): a work unit's payload does not grow with the
        # number of trials.
        self._seeds: Optional[List[int]] = None
        self._ahead: Dict[int, List[Callable]] = {}

    def asks_hosts(self) -> bool:
        """Whether the trials' hooks ask *which* hosts, judged on trial
        0's, which its call then gets.

        A hook asks when its ``asks_hosts`` is true, and a
        :class:`~repro.runtime.churn.ChurnReplayer` beside another hook
        asks which hosts its trace has up.  Hooks that say neither act
        by counts; the batch tier refuses by name any that turns out to
        ask.
        """
        if 0 not in self._ahead:
            self._ahead[0] = self._build(0)
        hooks = self._ahead[0]
        return any(getattr(hook, "asks_hosts", False) for hook in hooks) or (
            len(hooks) > 1
            and any(isinstance(hook, ChurnReplayer) for hook in hooks)
        )

    def __call__(self, trial: int) -> Optional[Callable]:
        hooks = self._ahead.pop(trial, None) or self._build(trial)
        return _CompositeHook(hooks) if hooks else None

    def _build(self, trial: int) -> List[Callable]:
        if self._seeds is None:
            self._seeds = self.scenario.trial_seeds(self.point)
        return self.scenario.hooks_for(self.point, trial, self._seeds[trial])

    def __getstate__(self):
        return {**self.__dict__, "_seeds": None, "_ahead": {}}


def _hooks_of_factory(factory, point, trial: int, seed: int) -> List[Callable]:
    """:meth:`Scenario.from_trial_hooks`'s builder: ``factory(trial)`` as a list."""
    hooks = factory(trial)
    if callable(hooks):
        return [hooks]
    return list(hooks)
