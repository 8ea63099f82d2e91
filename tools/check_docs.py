#!/usr/bin/env python3
"""Documentation presence and link check (CI gate, stdlib only).

Verifies that the repository's entry-point documentation exists, that
every *relative* markdown link in it resolves to a real file or
directory, and that load-bearing sections (the ones other docs and
error messages point at) are still present under a recognizable
heading.  External links (http/https/mailto) and pure in-page anchors
are not checked.

Run from anywhere:  python tools/check_docs.py
Exit status 0 = all good, 1 = missing docs or dangling links.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Documentation that must exist for the repo to count as documented.
REQUIRED_DOCS = (
    "README.md",
    "docs/architecture.md",
    "docs/campaigns.md",
    "docs/experiment.md",
    "docs/service.md",
    "docs/static-analysis.md",
    "benchmarks/results/README.md",
)

#: Markdown files whose links are validated.
CHECKED_FOR_LINKS = REQUIRED_DOCS + (
    "ROADMAP.md",
    "PAPER.md",
)

#: Headings (any level) that must appear in the named doc.  Substring
#: match against heading lines, so retitling around the key phrase is
#: fine; deleting the section is not.
REQUIRED_SECTIONS = (
    ("docs/architecture.md", "The serial-vs-batch contract"),
    ("docs/architecture.md", "The distributed backend"),
    ("docs/architecture.md", "The execution layer"),
    ("docs/architecture.md", "Import policy"),
    ("docs/architecture.md", "Command line"),
    ("docs/campaigns.md", "The cluster backend"),
    ("docs/campaigns.md", "Checkpointing and resume"),
    ("docs/campaigns.md", "Fault policy"),
)

#: Inline markdown links: [text](target).  Deliberately simple -- docs
#: here do not use reference-style links or angle-bracket targets.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)


def missing_required(root: Path = REPO_ROOT) -> List[str]:
    """Required doc files that do not exist."""
    return [name for name in REQUIRED_DOCS if not (root / name).is_file()]


def dangling_links(root: Path = REPO_ROOT) -> List[Tuple[str, str]]:
    """(file, target) pairs whose relative link target does not exist."""
    bad: List[Tuple[str, str]] = []
    for name in CHECKED_FOR_LINKS:
        path = root / name
        if not path.is_file():
            continue  # reported by missing_required
        for target in _LINK.findall(path.read_text()):
            if "://" in target or target.startswith(("mailto:", "#")):
                continue
            relative = target.split("#", 1)[0]
            if not relative:
                continue
            if not (path.parent / relative).exists():
                bad.append((name, target))
    return bad


def missing_sections(root: Path = REPO_ROOT) -> List[Tuple[str, str]]:
    """(file, section) pairs whose required heading is gone."""
    bad: List[Tuple[str, str]] = []
    for name, section in REQUIRED_SECTIONS:
        path = root / name
        if not path.is_file():
            continue  # reported by missing_required
        headings = _HEADING.findall(path.read_text())
        if not any(section in heading for heading in headings):
            bad.append((name, section))
    return bad


def main() -> int:
    failures = 0
    for name in missing_required():
        print(f"MISSING: {name}")
        failures += 1
    for name, target in dangling_links():
        print(f"DANGLING LINK: {name}: ({target})")
        failures += 1
    for name, section in missing_sections():
        print(f"MISSING SECTION: {name}: {section!r}")
        failures += 1
    if failures:
        print(f"{failures} documentation problem(s)")
        return 1
    print(
        f"docs ok: {len(REQUIRED_DOCS)} required files present, "
        f"links in {len(CHECKED_FOR_LINKS)} files resolve, "
        f"{len(REQUIRED_SECTIONS)} required sections found"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
