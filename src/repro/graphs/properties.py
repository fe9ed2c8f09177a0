"""Basic structural statistics of workload graphs.

Used by the experiment harness to annotate result tables (the paper's bounds
are parameterised by ``n`` and the maximum degree Δ) and by tests that need
to reason about component structure.

Works on networkx graphs and on CSR-backed graphs
(:class:`repro.graphs.csr.CSRGraphView`) alike: CSR inputs take an
array-at-a-time path — degrees are one subtraction over the offsets array,
the histogram is one ``bincount``, and connected components come from
min-label propagation with pointer compression — so annotating a large
sweep graph costs no per-node Python at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import networkx as nx
import numpy as np

from repro.graphs.csr import CSRGraph, CSRGraphView


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics for a workload graph."""

    nodes: int
    edges: int
    max_degree: int
    average_degree: float
    components: int
    largest_component: int

    def as_dict(self) -> Dict[str, float]:
        """Return the statistics as a plain dictionary."""
        return {
            "nodes": self.nodes,
            "edges": self.edges,
            "max_degree": self.max_degree,
            "average_degree": round(self.average_degree, 3),
            "components": self.components,
            "largest_component": self.largest_component,
        }


def _as_csr(graph) -> Optional[CSRGraph]:
    """Return the backing :class:`CSRGraph` when *graph* is CSR-based."""
    if isinstance(graph, CSRGraphView):
        return graph.csr
    if isinstance(graph, CSRGraph):
        return graph
    return None


def _csr_component_labels(csr: CSRGraph):
    """Per-node component labels (lowest member index) for *csr*.

    Min-label propagation: every node repeatedly adopts the smallest label
    in its closed neighbourhood, with full pointer compression
    (``comp = comp[comp]`` to a fixed point) between sweeps, so even a
    path graph converges in O(log n) compression steps per sweep rather
    than one sweep per hop.
    """
    offsets, neighbors, _, _ = csr.as_arrays()
    n = csr.n
    comp = np.arange(n, dtype=np.int64)
    if neighbors.size == 0:
        return comp
    nonempty = (offsets[1:] - offsets[:-1]) > 0
    starts = offsets[:-1][nonempty]
    while True:
        candidate = comp.copy()
        candidate[nonempty] = np.minimum(
            candidate[nonempty],
            np.minimum.reduceat(comp[neighbors], starts))
        while True:
            compressed = candidate[candidate]
            if np.array_equal(compressed, candidate):
                break
            candidate = compressed
        if np.array_equal(candidate, comp):
            return comp
        comp = candidate


def _csr_component_counts(csr: CSRGraph) -> List[int]:
    """Connected-component sizes of *csr* (unordered)."""
    if csr.n == 0:
        return []
    _, counts = np.unique(_csr_component_labels(csr), return_counts=True)
    return [int(count) for count in counts]


def graph_stats(graph) -> GraphStats:
    """Compute :class:`GraphStats` for *graph* (networkx or CSR-backed)."""
    csr = _as_csr(graph)
    if csr is not None:
        offsets = csr.as_arrays()[0]
        degrees = offsets[1:] - offsets[:-1]
        counts = _csr_component_counts(csr)
        return GraphStats(
            nodes=csr.n,
            edges=csr.m,
            max_degree=int(degrees.max()) if csr.n else 0,
            average_degree=(2.0 * csr.m / csr.n) if csr.n else 0.0,
            components=len(counts),
            largest_component=max(counts, default=0),
        )
    n = graph.number_of_nodes()
    m = graph.number_of_edges()
    degrees = [d for _, d in graph.degree()]
    components = list(nx.connected_components(graph)) if n else []
    return GraphStats(
        nodes=n,
        edges=m,
        max_degree=max(degrees) if degrees else 0,
        average_degree=(2.0 * m / n) if n else 0.0,
        components=len(components),
        largest_component=max((len(c) for c in components), default=0),
    )


def component_sizes(graph) -> List[int]:
    """Return connected-component sizes in decreasing order."""
    csr = _as_csr(graph)
    if csr is not None:
        return sorted(_csr_component_counts(csr), reverse=True)
    return sorted((len(c) for c in nx.connected_components(graph)), reverse=True)


def degree_histogram(graph) -> Dict[int, int]:
    """Return ``{degree: count}`` for *graph*."""
    csr = _as_csr(graph)
    if csr is not None:
        offsets = csr.as_arrays()[0]
        degrees = offsets[1:] - offsets[:-1]
        counts = np.bincount(degrees) if csr.n else np.empty(0, int)
        return {int(degree): int(count)
                for degree, count in enumerate(counts) if count}
    histogram: Dict[int, int] = {}
    for _, degree in graph.degree():
        histogram[degree] = histogram.get(degree, 0) + 1
    return dict(sorted(histogram.items()))
