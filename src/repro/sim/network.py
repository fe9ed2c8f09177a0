"""Port-numbered anonymous network over flat CSR arrays.

The network fixes, for every node, an arbitrary but deterministic numbering
of its incident edges (its *ports*): port ``p`` of node ``i`` leads to the
``p``-th smallest neighbour index, with indices taken in ``graph.nodes``
order.  Protocols address neighbours only by port number; the mapping from
ports to graph nodes lives here and is used by the runner to route messages
and by the harness to translate protocol outputs back to graph node labels.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.graphs.csr import CSRGraph, CSRGraphView


class Network:
    """An anonymous, port-numbered view of a :class:`CSRGraph`.

    The arrival ports were precomputed when the CSR arrays were built, so
    construction is O(1) even when the arrays live in a shared-memory
    segment mapped by a worker slot process.  Use :func:`build_network`
    to simulate a networkx graph.
    """

    def __init__(self, csr: "CSRGraph | CSRGraphView") -> None:
        if isinstance(csr, CSRGraphView):
            self._view = csr
            self._csr = csr.csr
        elif isinstance(csr, CSRGraph):
            self._csr = csr
            self._view = csr.view()
        else:
            raise ConfigurationError(
                "Network takes a CSRGraph or CSRGraphView; use "
                f"build_network() for a {type(csr).__name__}")
        self._index_of: Optional[Dict[Any, int]] = None

    # ------------------------------------------------------------------ #
    # Size / lookup helpers
    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> CSRGraphView:
        """The underlying graph view (not copied)."""
        return self._view

    @property
    def size(self) -> int:
        """Number of nodes."""
        return self._csr.n

    @property
    def edge_count(self) -> int:
        """Number of edges."""
        return self._csr.m

    def labels(self) -> List[Any]:
        """Graph node labels in simulator index order."""
        return list(self._csr.labels)

    def label_of(self, index: int) -> Any:
        """Return the graph label of simulator index *index*."""
        return self._csr.labels[index]

    def index_of(self, label: Any) -> int:
        """Return the simulator index of graph node *label*."""
        if self._index_of is None:
            self._index_of = {node: index for index, node
                              in enumerate(self._csr.labels)}
        return self._index_of[label]

    def degree(self, index: int) -> int:
        """Return the degree of the node with simulator index *index*."""
        return self._csr.degree(index)

    def neighbor_via_port(self, index: int, port: int) -> int:
        """Return the simulator index reached from *index* through *port*."""
        degree = self._csr.degree(index)
        if not 0 <= port < degree:
            raise ConfigurationError(
                f"node {self.label_of(index)} has ports 0..{degree - 1}, "
                f"got {port}"
            )
        return self._csr.neighbors[self._csr.offsets[index] + port]

    def port_towards(self, index: int, neighbor_index: int) -> int:
        """Return the port of *index* leading to *neighbor_index*."""
        row = self._csr.neighbor_row(index)
        port = bisect_left(row, neighbor_index)
        if port >= len(row) or row[port] != neighbor_index:
            raise ConfigurationError(
                f"nodes {self.label_of(index)} and "
                f"{self.label_of(neighbor_index)} are not adjacent"
            )
        return port

    def max_degree(self) -> int:
        """Return the maximum degree of the network (0 for edgeless graphs)."""
        if self._csr.n == 0:
            return 0
        offsets = self._csr.as_arrays()[0]
        return int((offsets[1:] - offsets[:-1]).max())

    def csr_tables(self) -> Tuple[Sequence[int], Sequence[int],
                                  Sequence[int]]:
        """The flat ``(offsets, neighbors, arrivals)`` routing arrays.

        Port ``p`` of node ``u`` reaches ``neighbors[offsets[u] + p]``,
        which receives ``u``'s messages on port
        ``arrivals[offsets[u] + p]``.
        """
        csr = self._csr
        return (csr.offsets, csr.neighbors, csr.arrivals)


def build_network(graph: Any) -> Network:
    """Build the :class:`Network` for *graph*.

    CSR-backed graphs (:class:`CSRGraphView` / :class:`CSRGraph`) are
    wrapped without copying; a networkx graph is converted once with
    :meth:`CSRGraph.from_graph`, which rejects directed graphs,
    multigraphs, self-loops and non-integer node labels.
    """
    if isinstance(graph, (CSRGraphView, CSRGraph)):
        return Network(graph)
    return Network(CSRGraph.from_graph(graph))
