"""Protocol handles: one way to hold "a protocol plus how to start it".

Before this module existed a protocol could come into existence three
ways, each with its own calling convention:

* parse an equations file and run it through ``odes.parser`` ->
  ``odes.rewrite`` -> ``synthesis.synthesize`` by hand;
* look a name up in the campaign registry and call the builder, getting
  a raw ``(spec, initial)`` tuple back;
* construct a :class:`~repro.synthesis.protocol.ProtocolSpec` directly
  (the ``repro.protocols`` case studies) and carry the initial
  distribution around separately.

A :class:`Protocol` unifies them: however it was created, it resolves
to a ``(spec, initial counts)`` pair for a concrete group size via
:meth:`Protocol.resolve`, and knows the analytic equilibrium the
source equations predict (the reference for
:meth:`~repro.experiment.result.ExperimentResult.equilibrium_check`).

Equations files may embed default parameter bindings as directives::

    # param: beta = 4  gamma = 0.5
    x' = -beta*x*y + ...

so that ``python -m repro run equations.txt`` works with no flags;
explicit ``parameters`` (CLI ``--param``) override file directives.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Union

from ..odes import Equilibrium, auto_rewrite, classify, find_equilibria, parse_system
from ..odes.system import EquationSystem
from ..synthesis import synthesize
from ..synthesis.protocol import ProtocolSpec

#: ``# param: name = value [name = value ...]`` directive lines in an
#: equations file.  The colon is optional, but only the explicit
#: ``# param:`` form is *required* to parse -- a colon-less line whose
#: body is not a clean binding list is an ordinary comment that merely
#: starts with the word "param", not a malformed directive.
_PARAM_DIRECTIVE = re.compile(
    r"^\s*#\s*param(?P<colon>:)?\s+(?P<body>.+)$", re.IGNORECASE
)
_BINDING = re.compile(
    r"(?P<name>[A-Za-z_][A-Za-z_0-9]*)\s*=\s*"
    r"(?P<value>[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)"
)


def parse_param_directives(text: str) -> Dict[str, float]:
    """Extract ``# param: name=value`` bindings from equations text."""
    out: Dict[str, float] = {}
    for line in text.splitlines():
        match = _PARAM_DIRECTIVE.match(line)
        if not match:
            continue
        body = match.group("body")
        bindings = _BINDING.findall(body)
        leftover = _BINDING.sub("", body).replace(",", "").strip()
        if not bindings or leftover:
            if match.group("colon"):
                raise ValueError(
                    f"malformed param directive {line.strip()!r}; expected "
                    f"'# param: name = value [name = value ...]'"
                )
            continue
        for name, value in bindings:
            out[name] = float(value)
    return out


def load_equations(
    source: Union[str, Path],
    *,
    parameters: Optional[Mapping[str, float]] = None,
    name: Optional[str] = None,
) -> EquationSystem:
    """Parse an equations text or file: the directive-aware loader.

    ``source`` is equation text or a path to an equations file.
    ``# param:`` directives supply default rate bindings, ``parameters``
    override them, and the system is named ``name``, else the file's
    stem, else ``"equations"``.  Every front door (the CLI commands,
    :meth:`Protocol.from_equations`) reads a file through here.
    """
    path: Optional[Path] = None
    if isinstance(source, Path):
        path = source
    elif "\n" not in source and "'" not in source:
        try:
            if Path(source).is_file():
                path = Path(source)
        except (OSError, ValueError):
            path = None
    text = path.read_text() if path is not None else str(source)
    bound = parse_param_directives(text)
    bound.update(parameters or {})
    label = name or (path.stem if path is not None else "equations")
    return parse_system(text, parameters=bound, name=label)


@dataclass(frozen=True)
class ResolvedProtocol:
    """A protocol pinned to a concrete group size: ready to run."""

    spec: ProtocolSpec
    #: Initial distribution as counts summing to ``n`` (or fractions
    #: summing to 1 -- both forms are accepted by every engine).
    initial: Mapping[str, float]
    n: int


class Protocol:
    """A handle on a protocol, however it came into existence.

    Construct with one of the three classmethods --
    :meth:`from_equations`, :meth:`named`, :meth:`from_spec` -- then
    hand it to :class:`~repro.experiment.experiment.Experiment` (or
    call :meth:`resolve` yourself to get the raw ``(spec, initial)``).
    """

    def __init__(
        self,
        label: str,
        resolver: Callable[[int], ResolvedProtocol],
        *,
        source: str,
        system: Optional[EquationSystem] = None,
    ):
        self.label = label
        #: How the handle was made: ``"equations"``, ``"named"`` or
        #: ``"spec"``.
        self.source = source
        self._resolver = resolver
        self._system = system
        self._resolved: Dict[int, ResolvedProtocol] = {}
        self._verified: Dict[int, list] = {}
        self._equilibria: Optional[List[Equilibrium]] = None

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Protocol({self.label!r}, source={self.source!r})"

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_equations(
        cls,
        source: Union[str, Path],
        *,
        parameters: Optional[Mapping[str, float]] = None,
        p: Optional[float] = None,
        failure_rate: float = 0.0,
        tokenize: bool = True,
        rewrite: bool = True,
        initial: Optional[Mapping[str, float]] = None,
        name: Optional[str] = None,
        check: str = "warn",
    ) -> "Protocol":
        """Parse + (auto-rewrite) + synthesize an equations text or file.

        ``source`` is either equation text or a path to an equations
        file (one equation per line; ``# param:`` directives supply
        default rate bindings, overridden by ``parameters``).  When the
        parsed system is not directly mappable and ``rewrite`` is true,
        the Section 7 ``auto_rewrite`` pipeline is applied first.

        ``initial`` fixes the starting distribution (counts or
        fractions over the *synthesized* states).  Without it the
        protocol starts at the system's stable equilibrium when one
        exists (the paper's experimental convention), else with the
        whole group in the first state and one process in the second.

        ``check`` runs the :mod:`repro.check` spec verifier on the
        synthesized result: ``"warn"`` (default) emits a
        ``ProtocolCheckWarning`` on ERROR-severity findings,
        ``"strict"`` raises ``SpecCheckError``, ``"off"`` skips it.
        """
        system = load_equations(source, parameters=parameters, name=name)
        label = system.name
        if rewrite and not classify(system).mappable:
            system = auto_rewrite(system)
        spec = synthesize(
            system, p=p, failure_rate=failure_rate, tokenize=tokenize,
            name=label,
        )
        if check != "off":
            from ..check import verify_spec

            verify_spec(spec, system, mode=check, label=label)
        explicit = dict(initial) if initial is not None else None

        def resolver(n: int) -> ResolvedProtocol:
            if explicit is not None:
                return ResolvedProtocol(spec=spec, initial=explicit, n=n)
            handle_initial = handle.equilibrium_fractions()
            if handle_initial is None:
                first, second = spec.states[0], spec.states[1]
                handle_initial = {first: n - 1, second: 1}
            return ResolvedProtocol(spec=spec, initial=handle_initial, n=n)

        handle = cls(label, resolver, source="equations", system=system)
        return handle

    @classmethod
    def named(cls, name: str) -> "Protocol":
        """Resolve a campaign-registry protocol name to a handle.

        The registry's builders take the group size, so resolution is
        deferred until :meth:`resolve` is called with a concrete ``n``.
        """
        # Imported lazily: repro.campaign imports this module's
        # Protocol for its own resolution path.
        from ..campaign.registry import protocol_builder

        builder = protocol_builder(name)  # fail fast on unknown names

        def resolver(n: int) -> ResolvedProtocol:
            spec, initial = builder(n)
            return ResolvedProtocol(spec=spec, initial=initial, n=n)

        return cls(name, resolver, source="named")

    @classmethod
    def from_spec(
        cls,
        spec: ProtocolSpec,
        initial: Mapping[str, float],
        *,
        name: Optional[str] = None,
    ) -> "Protocol":
        """Wrap a hand-built spec plus its initial distribution."""
        fixed = dict(initial)

        def resolver(n: int) -> ResolvedProtocol:
            return ResolvedProtocol(spec=spec, initial=fixed, n=n)

        return cls(
            name or spec.name, resolver, source="spec", system=spec.source
        )

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolve(self, n: int) -> ResolvedProtocol:
        """The ``(spec, initial counts)`` pair for a group of size ``n``."""
        got = self._resolved.get(n)
        if got is None:
            got = self._resolver(n)
            self._resolved[n] = got
        return got

    def verify(self, n: int, *, mode: str = "warn") -> list:
        """Statically verify the resolved spec (``repro.check`` rules).

        ``mode`` is ``"warn"`` (emit one ``ProtocolCheckWarning`` on
        ERROR findings), ``"strict"`` (raise
        :class:`repro.check.SpecCheckError`) or ``"off"``.  Findings
        are cached per group size, so repeated experiments on one
        handle check once.
        """
        if mode == "off":
            return []
        cached = self._verified.get(n)
        if cached is None:
            from ..check import verify_spec

            cached = verify_spec(
                self.resolve(n).spec, mode=mode, label=self.label,
            )
            self._verified[n] = cached
        elif mode == "strict":
            from ..check import SpecCheckError, error_findings

            if error_findings(cached):
                raise SpecCheckError(cached, label=self.label)
        return cached

    def system(self, n: int = 2) -> Optional[EquationSystem]:
        """The mean-field ODE behind the protocol.

        The source equations when the handle was built from them (or
        the spec carries them); otherwise the spec's reconstructed
        mean-field system.  ``n`` is only used to resolve the spec for
        registry-named handles.
        """
        if self._system is not None:
            return self._system
        spec = self.resolve(n).spec
        if spec.source is not None:
            return spec.source
        try:
            return spec.mean_field_system(effective=False)
        except Exception:
            return None

    # ------------------------------------------------------------------
    # Analytic equilibrium (the closed-form reference)
    # ------------------------------------------------------------------
    def equilibria(self, n: int = 2) -> List[Equilibrium]:
        """Every labelled equilibrium of the source ODE on the simplex.

        ``find_equilibria`` order (nearest the barycenter first), solved
        once per handle.  Empty when no mean-field system is recoverable
        or the solve blows up numerically (LinAlgError is a ValueError).
        """
        if self._equilibria is None:
            system = self.system(n)
            found: List[Equilibrium] = []
            if system is not None:
                try:
                    found = find_equilibria(system)
                except (ArithmeticError, ValueError):
                    pass
            self._equilibria = found
        return self._equilibria

    def equilibrium(self, n: int = 2) -> Optional[Equilibrium]:
        """The stable equilibrium the protocol is graded against.

        When the system has several the one closest to the simplex
        barycenter; None when none is stable.
        """
        for equilibrium in self.equilibria(n):
            if equilibrium.stable:
                return equilibrium
        return None

    def equilibrium_fractions(self, n: int = 2) -> Optional[Dict[str, float]]:
        """The fractions of :meth:`equilibrium`, if there is one."""
        graded = self.equilibrium(n)
        return None if graded is None else graded.point

    def equilibrium_counts(self, n: int) -> Optional[Dict[str, float]]:
        """Stable-equilibrium state counts for a group of size ``n``.

        Only states of the resolved spec are reported (a rewrite can
        introduce slack variables; those are included -- they are real
        protocol states -- but equation variables dropped by a rewrite
        are not).
        """
        fractions = self.equilibrium_fractions(n)
        if fractions is None:
            return None
        states = self.resolve(n).spec.states
        return {s: fractions.get(s, 0.0) * n for s in states}
