"""Overlay graphs for partial-membership experiments.

The paper's footnote 1 notes that full membership can be reduced to a
logarithmic-size view using well-known techniques (e.g. SWIM-style
membership services).  These helpers build the corresponding overlay
graphs with networkx and expose them as neighbor arrays for
:class:`repro.runtime.membership.PartialMembership`.

The partial-membership ablation bench uses these to show that the
synthesized protocols behave near-identically when sampling over a
connected ``O(log n)``-degree random overlay instead of the full group.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np


def _networkx():
    """networkx, imported by the first overlay built (docs/architecture.md)."""
    try:
        import networkx
    except ImportError as exc:
        raise ImportError(
            "repro.runtime.overlay builds its graphs with networkx, which is "
            "not installed; `pip install networkx` (the 'overlay' extra)"
        ) from exc
    return networkx


def log_degree(n: int, factor: float = 2.0, minimum: int = 3) -> int:
    """A connectivity-safe logarithmic view size for ``n`` processes."""
    return max(minimum, int(math.ceil(factor * math.log2(max(2, n)))))


def random_regular_overlay(
    n: int, degree: Optional[int] = None, seed: Optional[int] = None
) -> List[np.ndarray]:
    """A random regular overlay graph, as per-process neighbor arrays.

    Random regular graphs of degree >= 3 are expanders with high
    probability, so uniform sampling over neighborhoods approximates
    uniform sampling over the group well -- which is why the protocols
    tolerate partial views.
    """
    nx = _networkx()
    degree = degree if degree is not None else log_degree(n)
    if degree >= n:
        raise ValueError(f"degree {degree} must be < n={n}")
    if (degree * n) % 2:
        degree += 1  # regular graphs need an even degree sum
    graph = nx.random_regular_graph(degree, n, seed=seed)
    return _neighbor_arrays(graph, n)


def erdos_renyi_overlay(
    n: int, mean_degree: Optional[float] = None, seed: Optional[int] = None
) -> List[np.ndarray]:
    """An Erdos-Renyi overlay with the given expected degree.

    Isolated vertices (possible at low degrees) are patched by wiring
    them to a uniformly random peer, so the result is usable as a
    membership view.
    """
    nx = _networkx()
    mean_degree = mean_degree if mean_degree is not None else float(log_degree(n))
    probability = min(1.0, mean_degree / max(1, n - 1))
    graph = nx.fast_gnp_random_graph(n, probability, seed=seed)
    rng = np.random.default_rng(seed)
    for node in range(n):
        if graph.degree(node) == 0:
            peer = int(rng.integers(0, n - 1))
            peer += peer >= node
            graph.add_edge(node, peer)
    return _neighbor_arrays(graph, n)


def overlay_stats(neighbors: List[np.ndarray]) -> dict:
    """Connectivity diagnostics of an overlay (degree stats, diameter)."""
    nx = _networkx()
    graph = nx.Graph()
    graph.add_nodes_from(range(len(neighbors)))
    for node, peers in enumerate(neighbors):
        graph.add_edges_from((node, int(p)) for p in peers)
    degrees = [d for _, d in graph.degree()]
    connected = nx.is_connected(graph)
    return {
        "n": len(neighbors),
        "mean_degree": float(np.mean(degrees)),
        "min_degree": int(np.min(degrees)),
        "max_degree": int(np.max(degrees)),
        "connected": connected,
        "components": nx.number_connected_components(graph),
    }


def _neighbor_arrays(graph, n: int) -> List[np.ndarray]:
    return [
        np.fromiter((int(p) for p in graph.neighbors(node)), dtype=np.int64)
        for node in range(n)
    ]
