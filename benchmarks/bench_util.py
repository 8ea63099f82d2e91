"""Shared helpers for benchmark harnesses (tables, reports, scaling)."""

from __future__ import annotations

import datetime
import os
import platform
from pathlib import Path

import numpy as np

from repro.viz import format_table

__all__ = ["bench_scale", "scaled", "format_table", "provenance", "report"]

RESULTS_DIR = Path(__file__).parent / "results"

#: Artifact names written by report() in this process; conftest's
#: fail-marker hook only stamps artifacts this run actually produced.
WRITTEN_THIS_RUN = set()


def bench_scale() -> float:
    """Global scale factor for group sizes / horizons.

    Set ``REPRO_BENCH_SCALE`` in (0, 1] to shrink the experiments for a
    quick pass; 1.0 (default) reproduces the paper-scale runs.
    """
    value = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    if not 0.0 < value <= 1.0:
        raise ValueError(f"REPRO_BENCH_SCALE must lie in (0, 1], got {value}")
    return value


def scaled(quantity: float, minimum: int = 1) -> int:
    """Scale an N/periods quantity by the global bench scale."""
    return max(minimum, int(round(quantity * bench_scale())))


def provenance() -> str:
    """One-line run-provenance record embedded in every artifact.

    Reduced-scale runs must be self-identifying: the scale factor is the
    first field, so an artifact produced at REPRO_BENCH_SCALE < 1 can
    never pass for a paper-scale reproduction (see results/README.md).

    Set ``SOURCE_DATE_EPOCH`` to pin the ``generated=`` date, so a
    rerun that reproduces identical results yields byte-identical
    artifacts (no date-only churn when diffing against the committed
    copies).
    """
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        today = datetime.datetime.fromtimestamp(
            int(epoch), tz=datetime.timezone.utc
        ).date().isoformat()
    else:
        today = datetime.date.today().isoformat()
    return (
        f"provenance: REPRO_BENCH_SCALE={bench_scale():g}"
        f"  python={platform.python_version()}"
        f"  numpy={np.__version__}"
        f"  generated={today}"
    )


def report(name: str, text: str) -> None:
    """Print a bench report and persist it under benchmarks/results/.

    Every artifact gets a provenance footer (scale factor, toolchain,
    date). This overwrites ``results/<name>.txt`` unconditionally; the
    committed copies are canonical paper-scale (scale 1.0) passing runs
    -- do not commit output from reduced-scale or failing runs.
    """
    body = f"{text}\n\n{provenance()}\n"
    print(f"\n=== {name} ===\n{body}")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(body)
    WRITTEN_THIS_RUN.add(name)
