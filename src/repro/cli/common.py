"""What the commands share: flags, the target resolver, the error rule.

Three decisions live here and nowhere else in ``repro.cli``:

* a flag that means the same thing on more than one command is declared
  once, on one of the parent parsers below, and a command takes it by
  listing the parent in ``add_parser(..., parents=[...])``;
* :func:`resolve_target` says what a command-line target is (an existing
  file is an equations file, anything else must be a registered protocol
  name), and :func:`load_system` / :func:`load_protocol` are the one way
  an equations file is read (``# param:`` defaults, ``--param``
  overrides, named after the file's stem);
* an input error is ``raise CliError(message)``; only ``main()`` prints
  it (one stderr line) and turns it into exit status 1.  Verdicts -- a
  FAILed equilibrium check, a replay mismatch, recorded unit failures --
  are results, not errors, and stay explicit ``return 1``.
"""

import argparse
from pathlib import Path
from typing import Callable, Dict, List, Optional

from ..campaign import available_protocols
from ..experiment import Protocol, load_equations
from ..odes.system import EquationSystem
from ..runtime.exec import BACKENDS, ON_ERROR_MODES, FaultPolicy

class CliError(Exception):
    """Bad input: ``main()`` prints the message and exits with status 1."""


def parse_bindings(pairs: List[str], kind: str) -> Dict[str, float]:
    """A repeatable ``--<kind> NAME=VALUE`` flag's values as a dict."""
    out: Dict[str, float] = {}
    for pair in pairs:
        name, equals, value = pair.partition("=")
        if not equals:
            raise CliError(f"--{kind} expects name=value, got {pair!r}")
        try:
            out[name.strip()] = float(value)
        except ValueError:
            raise CliError(f"--{kind} {name}: {value!r} is not a number")
    return out


def render_failure_provenance(record: Dict) -> str:
    """One line per persisted UnitFailure, naming who lost the unit.

    Cluster-backend failures carry provenance (which worker died, how
    many re-dispatches the unit survived, how many heartbeat intervals
    were missed); pool/serial failures leave those fields empty and
    render without them -- legacy manifests predating the fields parse
    the same way.
    """
    label = record.get("label") or f"unit {record.get('index', '?')}"
    parts = [f"{label}: {record.get('error', 'unknown error')}"]
    attempts = record.get("attempts")
    if attempts:
        parts.append(f"after {attempts} attempt(s)")
    worker = record.get("worker", "")
    if worker:
        detail = [f"last worker {worker}"]
        redispatches = record.get("redispatches", 0)
        if redispatches:
            detail.append(f"re-dispatched {redispatches}x")
        misses = record.get("heartbeat_misses", 0)
        if misses:
            detail.append(f"{misses} heartbeat miss(es)")
        parts.append(f"[{', '.join(detail)}]")
    return " ".join(parts)


# ----------------------------------------------------------------------
# Shared flags: one declaration per meaning
# ----------------------------------------------------------------------
def _parent(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
    return argparse.ArgumentParser(add_help=False, parents=list(parents))


#: ``--param``: rate bindings for an equations file.
PARAMS = _parent()
PARAMS.add_argument("--param", action="append", default=[],
                    metavar="NAME=VALUE",
                    help="bind a rate symbol (overrides '# param:' "
                         "directives in the file)")

#: The equations-file positional plus ``--param`` (see :func:`load_system`).
EQUATIONS = _parent(PARAMS)
EQUATIONS.add_argument("equations", help="file with one equation per line")

#: ``--p``: the synthesis normalizer.
NORMALIZER = _parent()
NORMALIZER.add_argument("--p", type=float, default=None,
                        help="normalizing constant (equations targets; "
                             "default: auto)")

#: ``--p`` and ``--failure-rate``: what ``synthesize()`` takes.
SYNTHESIS = _parent(NORMALIZER)
SYNTHESIS.add_argument("--failure-rate", type=float, default=0.0,
                       help="per-connection failure rate f to compensate")

#: Fault policy and executor backend of a fanned-out run (see
#: :func:`fault_policy`; ``args.backend`` goes to the runner as is).
EXECUTION = _parent()
EXECUTION.add_argument("--on-error", choices=ON_ERROR_MODES, default="raise",
                       help="work-unit fault policy on the execution layer "
                            "(agent and batch tiers): raise aborts on the "
                            "first unit failure, retry re-runs the same "
                            "payload with capped backoff (bitwise identical), "
                            "skip keeps the surviving trials and reports the "
                            "losses")
EXECUTION.add_argument("--retries", type=int, default=2,
                       help="extra attempts per work unit under "
                            "--on-error retry/skip (default 2)")
EXECUTION.add_argument("--unit-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="wall-clock bound per work-unit attempt; an "
                            "expired attempt fails like any other fault")
EXECUTION.add_argument("--backend", choices=BACKENDS, default="pool",
                       help="work-unit executor: pool (default) is the local "
                            "process pool; cluster fans units across "
                            "process-isolated socket workers with heartbeats, "
                            "dead-worker re-dispatch and elastic join (python "
                            "-m repro worker) -- results are bitwise "
                            "identical either way")
EXECUTION.add_argument("--heartbeat", type=float, default=None,
                       metavar="SECONDS",
                       help="cluster backend: expected interval "
                            "between worker heartbeats (default 0.5)")
EXECUTION.add_argument("--heartbeat-misses", type=int, default=None,
                       metavar="COUNT",
                       help="cluster backend: silent heartbeat intervals "
                            "before a worker is declared dead and its unit "
                            "re-dispatched (default 4)")
EXECUTION.add_argument("--max-dispatches", type=int, default=None,
                       metavar="COUNT",
                       help="cluster backend: workers a unit may be "
                            "dispatched to before its loss counts as the "
                            "unit's own terminal failure (default 3)")


def fault_policy(args) -> FaultPolicy:
    """The :class:`FaultPolicy` the :data:`EXECUTION` flags describe."""
    overrides = {
        field: value for field, value in (
            ("heartbeat_seconds", args.heartbeat),
            ("heartbeat_misses", args.heartbeat_misses),
            ("max_dispatches", args.max_dispatches),
        ) if value is not None
    }
    try:
        return FaultPolicy(
            on_error=args.on_error, retries=args.retries,
            timeout_seconds=args.unit_timeout, **overrides,
        )
    except ValueError as exc:
        raise CliError(f"invalid fault policy: {exc}")


# ----------------------------------------------------------------------
# Targets: an equations file, or a registered protocol name
# ----------------------------------------------------------------------
def resolve_target(target: str) -> Optional[Path]:
    """What a command-line target names.

    An existing file is an equations file (its path is returned);
    otherwise the target must be a registered protocol name (``None``
    is returned and :meth:`Protocol.named` will find it).
    """
    if Path(target).is_file():
        return Path(target)
    if target in available_protocols():
        return None
    raise CliError(
        f"{target!r} is neither an equations file nor a registered "
        f"protocol; available: {', '.join(available_protocols())}"
    )


def _read(path: Path, build: Callable, args, **options):
    """``build(path, parameters=<--param>, ...)``, failures as CliError."""
    parameters = parse_bindings(args.param, "param")
    try:
        return build(path, parameters=parameters, **options)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}")
    except ValueError as exc:  # ParseError, SynthesisError, a bad directive
        raise CliError(f"{path}: {exc}")


def load_system(args) -> EquationSystem:
    """The parsed equations file of an :data:`EQUATIONS` command."""
    return _read(Path(args.equations), load_equations, args)


def load_protocol(target: str, args, *, failure_rate: float) -> Protocol:
    """The :class:`Protocol` handle behind ``target`` (file or name)."""
    path = resolve_target(target)
    if path is None:
        return Protocol.named(target)
    return _read(path, Protocol.from_equations, args, p=args.p,
                 failure_rate=failure_rate)
