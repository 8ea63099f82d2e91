"""Static analysis for the protocol framework.

Three coordinated, engine-free analyses:

* :mod:`repro.check.spec_checks` -- verify a :class:`ProtocolSpec` (or
  an equations file) against the paper's derivation preconditions:
  probability mass, conservation, reachability, mean-field
  consistency, and parameter-range certificates.
* :mod:`repro.check.complexity` -- the symbolic per-period message
  model derived from the spec, with a cross-check API against
  measured engine ``total_messages``.
* :mod:`repro.check.lint` -- the determinism linter enforcing the
  bitwise-reproducibility contract over ``src/repro``.

All three report through :class:`repro.check.Finding` records and are
surfaced by ``python -m repro check [spec|lint|complexity]``.
"""

from .findings import (
    Finding,
    ProtocolCheckWarning,
    Severity,
    SpecCheckError,
    error_findings,
    has_errors,
    render_findings,
)
from .complexity import (
    MessageModel,
    SymbolicMessageModel,
    message_model,
    symbolic_message_model,
)
from .spec_checks import (
    check_equations,
    check_spec,
    parse_declare_directives,
    parse_param_range_directives,
    self_moving_mass,
    verify_spec,
)
from .lint import (
    DEFAULT_ALLOWLIST,
    AllowlistEntry,
    lint_paths,
    load_allowlist,
)

__all__ = [
    "AllowlistEntry",
    "DEFAULT_ALLOWLIST",
    "Finding",
    "MessageModel",
    "ProtocolCheckWarning",
    "Severity",
    "SpecCheckError",
    "SymbolicMessageModel",
    "check_equations",
    "check_spec",
    "error_findings",
    "has_errors",
    "lint_paths",
    "load_allowlist",
    "message_model",
    "parse_declare_directives",
    "parse_param_range_directives",
    "render_findings",
    "self_moving_mass",
    "symbolic_message_model",
    "verify_spec",
]
