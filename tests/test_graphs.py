"""Tests for workload graph generators and statistics."""

from __future__ import annotations

import math

import networkx as nx
import pytest

from repro.graphs import generators, properties
from repro.rng import make_rng


class TestGenerators:
    @pytest.mark.parametrize("name", sorted(generators.FAMILIES))
    def test_family_produces_simple_graph(self, name):
        graph = generators.by_name(name, 32, seed=1)
        assert isinstance(graph, nx.Graph)
        assert not graph.is_directed()
        assert list(graph.nodes) == list(range(graph.number_of_nodes()))
        assert not list(nx.selfloop_edges(graph))

    def test_unknown_family_rejected(self):
        # UnknownFamilyError is still a KeyError, so historical callers
        # catching the mapping miss keep working.
        with pytest.raises(KeyError):
            generators.by_name("nope", 10)

    @pytest.mark.parametrize("name, n", [
        ("gnp", -1), ("gnp_dense", -1), ("path", -1), ("cycle", -1),
        ("clique", -1), ("regular", 0), ("regular", 5), ("powerlaw", 3),
        ("tree", 0), ("tree", -3), ("star", 0), ("star", -3),
    ])
    def test_size_the_builder_rejects_is_a_configuration_error(self, name,
                                                               n):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError) as excinfo:
            generators.by_name(name, n, seed=1)
        assert str(excinfo.value).startswith(
            f"cannot build graph family '{name}' with n={n}: ")
        assert isinstance(excinfo.value.__cause__, nx.NetworkXError)

    def test_unknown_family_error_type_and_rendering(self):
        from repro.errors import ConfigurationError, UnknownFamilyError

        with pytest.raises(UnknownFamilyError) as excinfo:
            generators.by_name("nope", 10)
        error = excinfo.value
        assert isinstance(error, ConfigurationError)  # CLI renders these
        # str() must be the plain message, not KeyError's repr-quoted form.
        message = str(error)
        assert message.startswith("unknown graph family 'nope'")
        assert "known:" in message and "gnp" in message
        assert not message.startswith('"')

    def test_gnp_requires_exactly_one_density_parameter(self):
        with pytest.raises(ValueError):
            generators.gnp_graph(10)
        with pytest.raises(ValueError):
            generators.gnp_graph(10, p=0.5, expected_degree=3)

    def test_gnp_expected_degree(self):
        graph = generators.gnp_graph(600, expected_degree=10.0, seed=2)
        average = 2 * graph.number_of_edges() / graph.number_of_nodes()
        assert 7.0 < average < 13.0

    def test_gnp_seed_reproducible(self):
        a = generators.gnp_graph(80, p=0.1, seed=5)
        b = generators.gnp_graph(80, p=0.1, seed=5)
        assert sorted(a.edges) == sorted(b.edges)

    def test_path_cycle_shapes(self):
        assert generators.path_graph(10).number_of_edges() == 9
        assert generators.cycle_graph(10).number_of_edges() == 10

    def test_complete_graph_edges(self):
        graph = generators.complete_graph(8)
        assert graph.number_of_edges() == 8 * 7 // 2

    def test_star_graph_shape(self):
        graph = generators.star_graph(9)
        degrees = sorted(d for _, d in graph.degree())
        assert degrees == [*([1] * 8), 8]

    def test_complete_bipartite(self):
        graph = generators.complete_bipartite_graph(3, 4)
        assert graph.number_of_nodes() == 7
        assert graph.number_of_edges() == 12

    def test_grid_graph(self):
        graph = generators.grid_graph(4, 5)
        assert graph.number_of_nodes() == 20
        assert graph.number_of_edges() == 4 * 4 + 3 * 5

    def test_random_tree_is_tree(self):
        graph = generators.random_tree(40, seed=3)
        assert nx.is_tree(graph)

    def test_random_tree_tiny(self):
        assert generators.random_tree(1).number_of_nodes() == 1
        assert generators.random_tree(2).number_of_edges() == 1

    def test_binary_tree(self):
        graph = generators.binary_tree(3)
        assert nx.is_tree(graph)
        assert graph.number_of_nodes() == 15

    def test_random_geometric_connectedish(self):
        graph = generators.random_geometric(200, seed=4, expected_degree=12)
        average = 2 * graph.number_of_edges() / graph.number_of_nodes()
        assert average > 4

    def test_random_regular_degree(self):
        graph = generators.random_regular(20, degree=4, seed=5)
        assert all(d == 4 for _, d in graph.degree())

    def test_bounded_degree_respects_cap(self):
        graph = generators.bounded_degree_graph(300, max_degree=5, seed=6)
        assert max(d for _, d in graph.degree()) <= 5

    def test_bounded_degree_zero(self):
        graph = generators.bounded_degree_graph(10, max_degree=0, seed=1)
        assert graph.number_of_edges() == 0

    def test_bounded_degree_negative_rejected(self):
        with pytest.raises(ValueError):
            generators.bounded_degree_graph(10, max_degree=-1)

    def test_barabasi_albert(self):
        graph = generators.barabasi_albert(100, attachments=2, seed=7)
        assert graph.number_of_nodes() == 100
        assert nx.is_connected(graph)

    def test_caveman(self):
        graph = generators.caveman(4, 5, seed=8)
        assert graph.number_of_nodes() == 20


def _layout(graph):
    """Everything a consumer can observe of a graph, in iteration order."""
    return (list(graph.nodes(data=True)), graph.graph,
            [(node, list(graph.adj[node].items())) for node in graph])


def _graph_seed(seed):
    return make_rng(seed).randrange(2**31)


def _gnp_densities(n):
    degree_scale = max(1, n - 1)
    sparse = [0, 1e-9, 8 / degree_scale, 32 / degree_scale]
    # Dense graphs at n=1500 hold ~10^6 edges: slow to build and compare.
    return sparse if n > 300 else sparse + [0.5, 1 - 2**-30, 1]


class TestNetworkxIdentity:
    """gnp and rgg return exactly what the networkx builders return.

    ``gnp_graph`` samples in numpy and neither generator relabels its
    output, so both are pinned against ``_normalize`` applied to the
    networkx builder on the same derived seed: node order, node data,
    graph attributes and every node's adjacency order.
    """

    @pytest.mark.parametrize("seed", [0, 2**31 - 1])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 64, 300, 1500])
    def test_gnp_matches_networkx(self, n, seed):
        for p in _gnp_densities(n):
            expected = generators._normalize(
                nx.gnp_random_graph(n, p, seed=_graph_seed(seed)))
            assert _layout(generators.gnp_graph(n, p=p, seed=seed)) == \
                _layout(expected), (n, p, seed)

    @pytest.mark.parametrize("p", [2 / 63, 32 / 63, 1 - 2**-30])
    def test_gnp_matches_networkx_across_chunk_boundaries(self, monkeypatch,
                                                          p):
        monkeypatch.setattr(generators, "GNP_CHUNK_PAIRS", 7)
        expected = generators._normalize(
            nx.gnp_random_graph(64, p, seed=_graph_seed(3)))
        assert _layout(generators.gnp_graph(64, p=p, seed=3)) == \
            _layout(expected)

    def test_gnp_expected_degree_matches_networkx(self):
        expected = generators._normalize(
            nx.gnp_random_graph(400, 8 / 399, seed=_graph_seed(9)))
        graph = generators.gnp_graph(400, expected_degree=8.0, seed=9)
        assert _layout(graph) == _layout(expected)

    @pytest.mark.parametrize("seed", [0, 7, 2**31 - 1])
    @pytest.mark.parametrize("n", [1, 2, 17, 300, 1500])
    def test_random_geometric_matches_networkx(self, n, seed):
        radius = math.sqrt(8.0 / (math.pi * max(1, n - 1)))
        expected = generators._normalize(
            nx.random_geometric_graph(n, radius, seed=_graph_seed(seed)))
        graph = generators.random_geometric(n, seed=seed)
        assert _layout(graph) == _layout(expected)
        assert all("pos" in data for _, data in graph.nodes(data=True))

    def test_random_geometric_zero_nodes_is_empty(self):
        graph = generators.random_geometric(0, seed=1)
        assert isinstance(graph, nx.Graph)
        assert graph.number_of_nodes() == 0


class TestProperties:
    def test_graph_stats(self, small_gnp):
        stats = properties.graph_stats(small_gnp)
        assert stats.nodes == small_gnp.number_of_nodes()
        assert stats.edges == small_gnp.number_of_edges()
        assert stats.max_degree == max(d for _, d in small_gnp.degree())
        assert stats.as_dict()["nodes"] == stats.nodes

    def test_graph_stats_empty(self):
        stats = properties.graph_stats(nx.Graph())
        assert stats.nodes == 0
        assert stats.average_degree == 0.0

    def test_component_sizes(self, disconnected_graph):
        sizes = properties.component_sizes(disconnected_graph)
        assert sum(sizes) == disconnected_graph.number_of_nodes()
        assert sizes == sorted(sizes, reverse=True)

    def test_degree_histogram(self):
        graph = generators.star_graph(5)
        histogram = properties.degree_histogram(graph)
        assert histogram == {1: 4, 4: 1}
