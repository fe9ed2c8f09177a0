"""Workload graph generators.

All generators return a simple undirected :class:`networkx.Graph` whose nodes
are labelled ``0 .. n-1`` and are fully determined by their ``seed``
argument.  Most wrap a networkx builder; ``gnp_graph`` samples in numpy
but replays ``nx.gnp_random_graph``'s random stream, so its graphs are
identical to the networkx builder's, edge order included.  The families cover the settings the paper's introduction and
related-work sections discuss: general graphs (Erdős–Rényi), battery-powered
wireless / sensor networks (random geometric graphs), bounded-degree and
regular topologies, trees, and a few adversarial shapes used in tests.
"""

from __future__ import annotations

import math
from typing import Optional

import networkx as nx
import numpy as np

from repro.errors import ConfigurationError, UnknownFamilyError
from repro.rng import SeedLike, make_rng, python_mt19937

#: Pairs drawn per numpy call in :func:`gnp_graph`; bounds its peak memory.
GNP_CHUNK_PAIRS = 1 << 16


def _normalize(graph: nx.Graph) -> nx.Graph:
    """Relabel nodes to ``0..n-1`` and drop self-loops / parallel edges."""
    graph = nx.Graph(graph)
    graph.remove_edges_from(nx.selfloop_edges(graph))
    return nx.convert_node_labels_to_integers(graph, ordering="sorted")


def empty_graph(n: int) -> nx.Graph:
    """Return ``n`` isolated nodes (every node is in any MIS)."""
    graph = nx.empty_graph(n)
    return _normalize(graph)


def path_graph(n: int) -> nx.Graph:
    """Return the path on ``n`` nodes (diameter ``n - 1``)."""
    return _normalize(nx.path_graph(n))


def cycle_graph(n: int) -> nx.Graph:
    """Return the cycle on ``n`` nodes."""
    return _normalize(nx.cycle_graph(n))


def complete_graph(n: int) -> nx.Graph:
    """Return the clique on ``n`` nodes (any MIS is a single node)."""
    return _normalize(nx.complete_graph(n))


def star_graph(n: int) -> nx.Graph:
    """Return a star with one hub and ``n - 1`` leaves.

    Raises :class:`networkx.NetworkXError` for ``n < 1``, as the networkx
    builders do for a size they reject.
    """
    if n < 1:
        raise nx.NetworkXError("star graph needs at least 1 node")
    return _normalize(nx.star_graph(n - 1))


def complete_bipartite_graph(a: int, b: int) -> nx.Graph:
    """Return ``K_{a,b}`` (the two sides are the only two MISs)."""
    return _normalize(nx.complete_bipartite_graph(a, b))


def grid_graph(rows: int, cols: int) -> nx.Graph:
    """Return the ``rows x cols`` grid."""
    return _normalize(nx.grid_2d_graph(rows, cols))


def random_tree(n: int, seed: SeedLike = None) -> nx.Graph:
    """Return a uniformly random labelled tree on ``n`` nodes.

    Raises :class:`networkx.NetworkXError` for ``n < 1``, as the networkx
    builders do for a size they reject.
    """
    rng = make_rng(seed)
    if n <= 0:
        raise nx.NetworkXError("tree needs at least 1 node")
    if n <= 2:
        return path_graph(n)
    # Random Prüfer sequence.
    sequence = [rng.randrange(n) for _ in range(n - 2)]
    graph = nx.from_prufer_sequence(sequence)
    return _normalize(graph)


def binary_tree(depth: int) -> nx.Graph:
    """Return the complete binary tree of the given *depth*."""
    return _normalize(nx.balanced_tree(2, depth))


def gnp_graph(n: int, p: Optional[float] = None, seed: SeedLike = None,
              expected_degree: Optional[float] = None) -> nx.Graph:
    """Return an Erdős–Rényi ``G(n, p)`` graph.

    Exactly one of *p* and *expected_degree* must be provided; the latter sets
    ``p = expected_degree / (n - 1)``.
    """
    if (p is None) == (expected_degree is None):
        raise ValueError("provide exactly one of p / expected_degree")
    if p is None:
        p = min(1.0, expected_degree / max(1, n - 1))
    graph_seed = make_rng(seed).randrange(2**31)
    if n < 2 or p <= 0 or p >= 1:  # draws nothing
        return nx.gnp_random_graph(n, p, seed=graph_seed)
    # nx.gnp_random_graph tests ``random() < p`` once per pair in
    # combinations order; replay that exact stream in numpy, in chunks.
    draws = python_mt19937(graph_seed)
    rows = np.arange(n - 1, dtype=np.int64)
    row_start = rows * (2 * n - rows - 1) // 2
    pairs = n * (n - 1) // 2
    sources, targets = [], []
    for base in range(0, pairs, GNP_CHUNK_PAIRS):
        size = min(GNP_CHUNK_PAIRS, pairs - base)
        pair = base + np.flatnonzero(draws.random(size) < p)
        row = np.searchsorted(row_start, pair, side="right") - 1
        sources.extend(row.tolist())
        targets.extend((pair - row_start[row] + row + 1).tolist())
    graph = nx.empty_graph(n)
    graph.add_edges_from(zip(sources, targets))
    return graph


def random_geometric(n: int, radius: Optional[float] = None,
                     seed: SeedLike = None,
                     expected_degree: float = 8.0) -> nx.Graph:
    """Return a random geometric graph on the unit square.

    This is the classic model of a wireless sensor network — the motivating
    setting for the sleeping model.  When *radius* is omitted it is chosen so
    that the expected degree is roughly *expected_degree*.
    """
    if radius is None:
        radius = math.sqrt(expected_degree / (math.pi * max(1, n - 1)))
    if n <= 0:
        return empty_graph(0)
    rng = make_rng(seed)
    return nx.random_geometric_graph(n, radius, seed=rng.randrange(2**31))


def random_regular(n: int, degree: int, seed: SeedLike = None) -> nx.Graph:
    """Return a random *degree*-regular graph (``n * degree`` must be even)."""
    rng = make_rng(seed)
    graph = nx.random_regular_graph(degree, n, seed=rng.randrange(2**31))
    return _normalize(graph)


def barabasi_albert(n: int, attachments: int = 3, seed: SeedLike = None) -> nx.Graph:
    """Return a Barabási–Albert preferential-attachment (power-law) graph."""
    rng = make_rng(seed)
    graph = nx.barabasi_albert_graph(n, attachments, seed=rng.randrange(2**31))
    return _normalize(graph)


def caveman(cliques: int, clique_size: int, rewire: float = 0.1,
            seed: SeedLike = None) -> nx.Graph:
    """Return a relaxed-caveman graph: dense clusters with sparse rewiring."""
    rng = make_rng(seed)
    graph = nx.relaxed_caveman_graph(cliques, clique_size, rewire,
                                     seed=rng.randrange(2**31))
    return _normalize(graph)


def bounded_degree_graph(n: int, max_degree: int, seed: SeedLike = None) -> nx.Graph:
    """Return a random graph whose maximum degree is at most *max_degree*.

    Built by sampling random candidate edges and keeping those that do not
    violate the degree cap; used by the Lemma 3 shattering experiments, which
    are parameterised by the maximum degree Δ.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    rng = make_rng(seed)
    graph = nx.empty_graph(n)
    degrees = {v: 0 for v in range(n)}
    attempts = 4 * n * max(1, max_degree)
    for _ in range(attempts):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or graph.has_edge(u, v):
            continue
        if degrees[u] >= max_degree or degrees[v] >= max_degree:
            continue
        graph.add_edge(u, v)
        degrees[u] += 1
        degrees[v] += 1
    return _normalize(graph)


#: Registry of named graph families used by the CLI and the sweep harness.
FAMILIES = {
    "gnp": lambda n, seed=None: gnp_graph(n, expected_degree=8.0, seed=seed),
    "gnp_dense": lambda n, seed=None: gnp_graph(n, expected_degree=32.0, seed=seed),
    "rgg": lambda n, seed=None: random_geometric(n, seed=seed),
    "tree": lambda n, seed=None: random_tree(n, seed=seed),
    "path": lambda n, seed=None: path_graph(n),
    "cycle": lambda n, seed=None: cycle_graph(n),
    "regular": lambda n, seed=None: random_regular(n, degree=6, seed=seed),
    "powerlaw": lambda n, seed=None: barabasi_albert(n, seed=seed),
    "caveman": lambda n, seed=None: caveman(max(2, n // 8), 8, seed=seed),
    "clique": lambda n, seed=None: complete_graph(n),
    "star": lambda n, seed=None: star_graph(n),
}


def to_csr(graph: nx.Graph):
    """Convert *graph* to flat CSR arrays (:class:`repro.graphs.csr.CSRGraph`).

    This is the same conversion ``build_network(graph)`` applies, so a
    graph converted here simulates byte-identically to the networkx graph
    it came from.
    """
    from repro.graphs.csr import CSRGraph

    return CSRGraph.from_graph(graph)


def build_csr(name: str, n: int, seed: SeedLike = None):
    """Generate family *name* and return it as CSR arrays directly.

    This is what the worker's shared-memory graph cache serialises: the
    generators above return networkx graphs (gnp's is sampled in numpy,
    the rest come from ``nx`` builders), but everything downstream of the
    cache only ever sees the flat arrays.
    """
    return to_csr(by_name(name, n, seed=seed))


def by_name(name: str, n: int, seed: SeedLike = None) -> nx.Graph:
    """Return the graph family *name* instantiated with *n* nodes.

    Raises :class:`repro.errors.UnknownFamilyError` (a
    :class:`ConfigurationError` that is also a :class:`KeyError`) for an
    unregistered name, so the CLI renders the message cleanly instead of
    printing a repr-quoted ``KeyError``.  A size the family's builder
    rejects (a negative *n*, ``tree`` or ``star`` with no node, or
    ``regular``'s degree 6 not below *n*) raises
    :class:`ConfigurationError` naming the family and *n*.
    """
    if name not in FAMILIES:
        raise UnknownFamilyError(
            f"unknown graph family '{name}'; known: {sorted(FAMILIES)}"
        )
    try:
        return FAMILIES[name](n, seed=seed)
    except nx.NetworkXError as error:
        raise ConfigurationError(
            f"cannot build graph family '{name}' with n={n}: {error}"
        ) from error
