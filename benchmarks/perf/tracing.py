"""Harness-side spans: the traced run's only instrument.

Nothing under ``src/repro`` is instrumented.  The harness wraps each
call it makes into a public function of a layer in a span, keeps the
spans in memory and writes them as JSONL when the run ends.  A span is
``{id, parent, workload, rep, name, start, end}``; ``parent`` links it
to the span that was open when it began, so one journey is one tree.

A layer's *self time* is its span minus the part its child spans
cover.  The self times of a tree therefore sum to the root span unless
siblings overlap or a span is orphaned, which :meth:`Tracer.accounted`
checks (the harness is single-threaded, so they never should).
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Optional

__all__ = ["Tracer"]


class Tracer:
    """In-memory span recorder for one workload's traced journeys."""

    def __init__(self, workload: str):
        self.workload = workload
        self.rep = 0
        #: ``[id, parent, rep, name, start, end]`` per span, in begin order.
        self.spans: List[list] = []
        self._stack: List[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([index, parent, self.rep, name, perf_counter(), None])
        self._stack.append(index)
        return index

    def end(self) -> float:
        """Close the innermost open span; returns its duration."""
        now = perf_counter()
        span = self.spans[self._stack.pop()]
        span[5] = now
        return now - span[4]

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end()

    # ------------------------------------------------------------------
    # Reading the tree
    # ------------------------------------------------------------------
    def duration(self, index: int) -> float:
        return self.spans[index][5] - self.spans[index][4]

    def self_times(self, root: int) -> Dict[str, List[float]]:
        """Self time of every span under ``root`` (inclusive), by name."""
        covered: Dict[int, float] = defaultdict(float)
        members = {root}
        for index, parent, _rep, _name, start, end in self.spans[root + 1:]:
            if parent in members:
                members.add(index)
                covered[parent] += end - start
        by_name: Dict[str, List[float]] = defaultdict(list)
        for index in sorted(members):
            by_name[self.spans[index][3]].append(
                self.duration(index) - covered[index]
            )
        return by_name

    def durations(self, root: int, name: str) -> List[float]:
        """Durations of the spans called ``name`` directly under ``root``."""
        return [
            end - start
            for _i, parent, _rep, span_name, start, end in self.spans
            if parent == root and span_name == name
        ]

    def accounted(self, root: int) -> float:
        """Sum of self times under ``root`` as a share of its duration."""
        total = sum(sum(v) for v in self.self_times(root).values())
        return total / self.duration(root)

    # ------------------------------------------------------------------
    def dump(self, path, scale: Optional[str] = None) -> int:
        """Append the spans to ``path`` as JSONL; returns the span count."""
        with open(path, "a", encoding="utf-8") as handle:
            for index, parent, rep, name, start, end in self.spans:
                record = {
                    "id": index, "parent": parent, "workload": self.workload,
                    "rep": rep, "name": name, "start": start, "end": end,
                }
                if scale is not None:
                    record["scale"] = scale
                handle.write(json.dumps(record) + "\n")
        return len(self.spans)
