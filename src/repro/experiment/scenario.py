"""One scenario contract over every engine tier.

The runtime grew two hook conventions: :class:`~repro.runtime.round_engine.RoundEngine`
takes a flat list of per-period hooks (``hook(engine)``), while
:class:`~repro.runtime.batch_engine.BatchRoundEngine` takes *hook
factories* (``factory(trial) -> hook(view)``), and the campaign
registry adds a third (``builder(point, trial, seed) -> hooks``).  A
:class:`Scenario` normalizes all of them: it produces the per-trial
hook list for a run context, with scenario randomness drawn from a
seed family domain-separated from the engines' protocol streams (the
same family the campaign runner uses, so an
:class:`~repro.experiment.experiment.Experiment` and a campaign point
with identical parameters inject identical faults).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Union

#: A per-trial hook list builder: ``(context, trial, seed) -> hooks``.
#: ``context`` duck-types a campaign point (``n``, ``trials``,
#: ``periods``, ``seed``, ``loss_rate``, ``scenario``...).
TrialHooksBuilder = Callable[[object, int, int], List[Callable]]


@dataclass(frozen=True)
class RunContext:
    """The campaign-point-shaped description of one experiment run.

    Scenario builders (including every registry scenario) receive this
    as their ``point`` argument; it carries exactly the fields they
    read.  ``protocol`` and ``scenario`` are labels, not objects, so a
    context is plain data.
    """

    protocol: str
    n: int
    loss_rate: float
    scenario: str
    trials: int
    periods: int
    seed: int
    stride: int = 1

    @property
    def label(self) -> str:
        return (
            f"{self.protocol}/n={self.n}/f={self.loss_rate:g}/{self.scenario}"
        )


class Scenario:
    """A named or custom failure scenario, engine-agnostic.

    Use :meth:`named` for registry scenarios (``massive-failure``,
    ``crash-recovery``, ``churn``, ...), :meth:`from_trial_hooks` for a
    quick per-trial factory, or construct directly with a full
    ``(context, trial, seed) -> hooks`` builder.
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
        :meth:`BatchRoundEngine.run`'s ``hook_factories``.
        """

        def builder(context, trial, seed):
            hooks = factory(trial)
            if callable(hooks):
                return [hooks]
            return list(hooks)

        return cls(label, builder)

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
    def trial_seeds(self, context: RunContext) -> List[int]:
        """The domain-separated scenario seed family for a context."""
        from ..campaign.registry import scenario_seeds

        return scenario_seeds(context.seed, context.trials)

    def hooks_for(self, context: RunContext, trial: int, seed: int) -> List[Callable]:
        """Fresh hooks for one trial (hooks are stateful; never reuse)."""
        return list(self._builder(context, trial, seed))

    def hook_factory(self, context: RunContext) -> Callable[[int], Callable]:
        """A batch-engine ``hook_factories`` entry for this scenario.

        Returns one composite hook per trial (``None`` for a trial the
        scenario gives no hooks), so multi-hook scenarios fit the
        single-factory slot.  The factory is a plain object
        (not a closure), so named scenarios can cross process
        boundaries -- :class:`~repro.runtime.parallel.ShardedBatchExecutor`
        ships it to pool workers whenever the underlying builder
        pickles (registry builders are module-level functions and do).
        """
        return ScenarioHookFactory(self, context)


class _CompositeHook:
    """One per-trial hook running a scenario's hook list in order."""

    def __init__(self, hooks: List[Callable]):
        self._hooks = hooks

    def __call__(self, view) -> None:
        for hook in self._hooks:
            hook(view)


class ScenarioHookFactory:
    """Picklable per-trial hook factory for one scenario + context.

    Trial indices are *global* (0..trials-1): the scenario seed family
    is derived once from the context, so the hooks a trial receives are
    identical whether the ensemble runs in one engine or sharded
    across processes.
    """

    def __init__(self, scenario: Scenario, context: RunContext):
        self._scenario = scenario
        self._context = context
        self._seeds = scenario.trial_seeds(context)

    def __call__(self, trial: int) -> Optional[Callable]:
        hooks = self._scenario.hooks_for(
            self._context, trial, self._seeds[trial]
        )
        return _CompositeHook(hooks) if hooks else None
