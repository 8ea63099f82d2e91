"""Determinism linter (`repro.check.lint`) tests.

Each rule is exercised on small synthetic files (including the alias
forms the AST normalizer must see through), the allowlist machinery is
covered, and the acceptance gate -- ``src/repro`` lints clean under the
shipped allowlist -- is asserted directly.
"""

import ast
import textwrap
from pathlib import Path

import pytest

import repro.check.lint as lint_mod
from repro.check import DEFAULT_ALLOWLIST, Severity, lint_paths, load_allowlist

REPO_SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


@pytest.fixture()
def fake_repo(tmp_path, monkeypatch):
    """Pretend tmp_path is the repo root so relative paths are stable."""
    monkeypatch.setattr(lint_mod, "_REPO_ROOT", tmp_path)
    return tmp_path


def lint_snippet(fake_repo, code, rel="src/repro/example.py"):
    file = fake_repo / rel
    file.parent.mkdir(parents=True, exist_ok=True)
    file.write_text(textwrap.dedent(code))
    return lint_paths([file])


def rules_of(findings):
    return [f.rule for f in findings]


# ----------------------------------------------------------------------
# unseeded-rng / rng-construction
# ----------------------------------------------------------------------
def test_unseeded_default_rng(fake_repo):
    findings = lint_snippet(fake_repo, """\
        import numpy as np
        rng = np.random.default_rng()
    """)
    assert rules_of(findings) == ["unseeded-rng"]
    assert findings[0].severity == Severity.ERROR
    assert "example.py:2" in findings[0].location


def test_explicit_none_seed_is_unseeded(fake_repo):
    findings = lint_snippet(fake_repo, """\
        import numpy as np
        rng = np.random.default_rng(None)
    """)
    assert rules_of(findings) == ["unseeded-rng"]


def test_seeded_construction_flagged_as_rng_construction(fake_repo):
    findings = lint_snippet(fake_repo, """\
        import numpy as np
        rng = np.random.default_rng(123)
    """)
    assert rules_of(findings) == ["rng-construction"]


def test_nested_constructor_reported_once(fake_repo):
    findings = lint_snippet(fake_repo, """\
        import numpy as np
        rng = np.random.Generator(np.random.MT19937(7))
    """)
    assert rules_of(findings) == ["rng-construction"]


def test_legacy_module_functions_flagged(fake_repo):
    findings = lint_snippet(fake_repo, """\
        import numpy as np
        np.random.seed(0)
        x = np.random.rand(3)
    """)
    assert rules_of(findings) == ["unseeded-rng", "unseeded-rng"]


def test_from_import_alias_seen_through(fake_repo):
    findings = lint_snippet(fake_repo, """\
        from numpy.random import default_rng as mk
        rng = mk(5)
    """)
    assert rules_of(findings) == ["rng-construction"]


def test_numpy_random_module_alias_seen_through(fake_repo):
    findings = lint_snippet(fake_repo, """\
        import numpy.random as nr
        from numpy import random as npr
        a = nr.default_rng()
        b = npr.SeedSequence()
    """)
    assert rules_of(findings) == ["unseeded-rng", "unseeded-rng"]


def test_stdlib_random_flagged(fake_repo):
    findings = lint_snippet(fake_repo, """\
        import random
        from random import choice
        a = random.random()
        b = choice([1, 2])
    """)
    assert rules_of(findings) == ["unseeded-rng", "unseeded-rng"]


def test_sanctioned_rng_module_exempt(fake_repo):
    findings = lint_snippet(fake_repo, """\
        import numpy as np
        def make_generator(seed):
            return np.random.Generator(np.random.MT19937(seed))
    """, rel="src/repro/runtime/rng.py")
    assert findings == []


def test_unrelated_calls_not_flagged(fake_repo):
    findings = lint_snippet(fake_repo, """\
        import numpy as np
        x = np.arange(10)
        y = x.sum()
    """)
    assert findings == []


# ----------------------------------------------------------------------
# wall-clock
# ----------------------------------------------------------------------
def test_wall_clock_flagged(fake_repo):
    findings = lint_snippet(fake_repo, """\
        import time
        import datetime
        a = time.time()
        b = datetime.datetime.now()
    """)
    assert rules_of(findings) == ["wall-clock", "wall-clock"]


def test_wall_clock_from_imports(fake_repo):
    findings = lint_snippet(fake_repo, """\
        from time import time
        from datetime import datetime, date
        a = time()
        b = datetime.utcnow()
        c = date.today()
    """)
    assert rules_of(findings) == ["wall-clock"] * 3


def test_perf_counter_allowed(fake_repo):
    findings = lint_snippet(fake_repo, """\
        import time
        t0 = time.perf_counter()
        dt = time.monotonic()
    """)
    assert findings == []


# ----------------------------------------------------------------------
# set-iteration
# ----------------------------------------------------------------------
def test_set_iteration_warned_outside_hot_paths(fake_repo):
    findings = lint_snippet(fake_repo, """\
        def f(items):
            for x in set(items):
                pass
            return [y for y in {1, 2, 3}]
    """)
    assert rules_of(findings) == ["set-iteration", "set-iteration"]
    assert all(f.severity == Severity.WARNING for f in findings)


def test_set_iteration_error_in_hot_paths(fake_repo):
    findings = lint_snippet(fake_repo, """\
        def f(a, b):
            for x in a | set(b):
                pass
    """, rel="src/repro/runtime/fast.py")
    assert rules_of(findings) == ["set-iteration"]
    assert findings[0].severity == Severity.ERROR


def test_sorted_set_iteration_allowed(fake_repo):
    findings = lint_snippet(fake_repo, """\
        def f(items):
            for x in sorted(set(items)):
                pass
    """)
    assert findings == []


# ----------------------------------------------------------------------
# parse failures
# ----------------------------------------------------------------------
def test_syntax_error_reported_as_parse_finding(fake_repo):
    findings = lint_snippet(fake_repo, "def broken(:\n")
    assert rules_of(findings) == ["parse"]
    assert findings[0].severity == Severity.ERROR


# ----------------------------------------------------------------------
# allowlist
# ----------------------------------------------------------------------
BAD = """\
    import numpy as np
    def build():
        return np.random.default_rng(9)
"""


def write_allowlist(fake_repo, *lines):
    path = fake_repo / "allow.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_allowlist_suppresses_matching_site(fake_repo):
    file = fake_repo / "src/repro/example.py"
    file.parent.mkdir(parents=True, exist_ok=True)
    file.write_text(textwrap.dedent(BAD))
    allow = write_allowlist(
        fake_repo,
        "src/repro/example.py::rng-construction::build  # legit",
    )
    assert lint_paths([file], allowlist_path=allow) == []


def test_allowlist_wildcard_qualname(fake_repo):
    file = fake_repo / "src/repro/example.py"
    file.parent.mkdir(parents=True, exist_ok=True)
    file.write_text(textwrap.dedent(BAD))
    allow = write_allowlist(
        fake_repo,
        "src/repro/example.py::rng-construction::*  # legit",
    )
    assert lint_paths([file], allowlist_path=allow) == []


def test_allowlist_wrong_scope_does_not_suppress(fake_repo):
    file = fake_repo / "src/repro/example.py"
    file.parent.mkdir(parents=True, exist_ok=True)
    file.write_text(textwrap.dedent(BAD))
    allow = write_allowlist(
        fake_repo,
        "src/repro/example.py::rng-construction::other  # wrong scope",
    )
    findings = lint_paths([file], allowlist_path=allow)
    assert "rng-construction" in rules_of(findings)
    assert "stale-allowlist" in rules_of(findings)


def test_stale_entries_only_reported_for_linted_paths(fake_repo):
    file = fake_repo / "src/repro/clean.py"
    file.parent.mkdir(parents=True, exist_ok=True)
    file.write_text("x = 1\n")
    allow = write_allowlist(
        fake_repo,
        "src/repro/clean.py::wall-clock::gone  # stale, same path",
        "src/repro/other.py::wall-clock::gone  # stale, not linted",
    )
    findings = lint_paths([file], allowlist_path=allow)
    assert rules_of(findings) == ["stale-allowlist"]
    assert findings[0].severity == Severity.INFO
    assert "clean.py" in findings[0].message


def test_malformed_allowlist_rejected(fake_repo):
    allow = write_allowlist(fake_repo, "just-one-field  # nope")
    with pytest.raises(ValueError):
        load_allowlist(allow)


def test_allowlist_parses_shipped_file():
    entries = load_allowlist(DEFAULT_ALLOWLIST)
    assert entries
    assert all(e.justification for e in entries)


# ----------------------------------------------------------------------
# Acceptance: the tree itself lints clean with the shipped allowlist
# ----------------------------------------------------------------------
def test_src_repro_lints_clean():
    findings = lint_paths([REPO_SRC], allowlist_path=DEFAULT_ALLOWLIST)
    assert findings == [], "\n".join(f.render() for f in findings)


# ----------------------------------------------------------------------
# The places that still unpickle bytes, pinned by name
# ----------------------------------------------------------------------
#: Every ``pickle.loads`` call under src/repro, by file and enclosing
#: scope.  exec.py's two read pipes from the process's own forks;
#: cluster.py's three read a socket (the HMAC handshake is to guard
#: them).  Snapshots unpickle nothing.
ALLOWED_PICKLE_LOADS = {
    ("runtime/exec.py", "_pool_worker"): 1,
    ("runtime/exec.py", "_run_pool"): 1,
    ("runtime/cluster.py", "recv_message"): 1,
    ("runtime/cluster.py", "MessageBuffer.pop"): 1,
    ("runtime/cluster.py", "WorkerSession._starting"): 1,
}


class _PickleLoads(ast.NodeVisitor):
    def __init__(self, rel):
        self.rel, self.scope, self.sites = rel, [], []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter

    def visit_Import(self, node):
        for alias in node.names:
            if alias.name == "pickle" and alias.asname:
                self.sites.append((self.rel, f"import pickle as {alias.asname}"))

    def visit_ImportFrom(self, node):
        if node.module == "pickle":
            self.sites.append((self.rel, "from pickle import ..."))

    def visit_Call(self, node):
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name) and func.value.id == "pickle"
            and func.attr in ("loads", "load", "Unpickler")
        ):
            self.sites.append((self.rel, ".".join(self.scope)))
        self.generic_visit(node)


def test_pickle_loads_sites_are_pinned():
    sites = {}
    for path in sorted(REPO_SRC.rglob("*.py")):
        visitor = _PickleLoads(path.relative_to(REPO_SRC).as_posix())
        visitor.visit(ast.parse(path.read_text()))
        for site in visitor.sites:
            sites[site] = sites.get(site, 0) + 1
    assert sites == ALLOWED_PICKLE_LOADS
