"""Tests for Algorithm VT-MIS (Lemma 10)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import networkx as nx

from repro.algorithms.common import mis_from_result
from repro.algorithms.vt_mis import assign_sequential_ids, vt_mis_protocol
from repro.core.mis import greedy_mis_from_order, is_maximal_independent_set
from repro.core.virtual_tree import communication_set
from repro.graphs import generators
from repro.sim import run_protocol


def run_vt_mis(graph, order, trace=False, message_bit_limit=None):
    """Run VT-MIS with IDs assigned along *order*; return (mis, result)."""
    local_inputs = assign_sequential_ids(graph.nodes, seed_order=order)
    result = run_protocol(
        graph,
        vt_mis_protocol,
        inputs={"id_bound": len(order)},
        local_inputs=local_inputs,
        seed=1,
        trace=trace,
        message_bit_limit=message_bit_limit,
    )
    return mis_from_result(result), result


class TestCorrectness:
    def test_matches_sequential_lfmis_on_path(self):
        graph = generators.path_graph(12)
        order = list(range(12))
        mis, _ = run_vt_mis(graph, order)
        assert mis == greedy_mis_from_order(graph, order)

    def test_matches_sequential_lfmis_on_random_orders(self, small_gnp):
        import random

        for seed in range(5):
            order = list(small_gnp.nodes)
            random.Random(seed).shuffle(order)
            mis, _ = run_vt_mis(small_gnp, order)
            assert mis == greedy_mis_from_order(small_gnp, order)

    def test_output_is_mis(self, any_small_graph):
        order = list(any_small_graph.nodes)
        mis, _ = run_vt_mis(any_small_graph, order)
        assert is_maximal_independent_set(any_small_graph, mis)

    def test_clique_elects_smallest_id(self, clique):
        order = list(clique.nodes)
        mis, _ = run_vt_mis(clique, order)
        assert mis == {order[0]}

    def test_isolated_nodes_all_join(self):
        graph = generators.empty_graph(6)
        mis, _ = run_vt_mis(graph, list(graph.nodes))
        assert mis == set(graph.nodes)

    def test_disconnected_graph(self, disconnected_graph):
        order = list(disconnected_graph.nodes)
        mis, _ = run_vt_mis(disconnected_graph, order)
        assert mis == greedy_mis_from_order(disconnected_graph, order)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=30),
           st.randoms(use_true_random=False))
    def test_lfmis_equivalence_property(self, n, rng):
        graph = nx.gnp_random_graph(n, 0.3, seed=rng.randrange(2**31))
        order = list(graph.nodes)
        rng.shuffle(order)
        mis, _ = run_vt_mis(graph, order)
        assert mis == greedy_mis_from_order(graph, order)


class TestComplexity:
    def test_awake_complexity_is_logarithmic(self):
        graph = generators.gnp_graph(96, expected_degree=6, seed=3)
        order = list(graph.nodes)
        _, result = run_vt_mis(graph, order)
        n = graph.number_of_nodes()
        assert result.metrics.awake_complexity <= math.ceil(math.log2(n)) + 1

    def test_round_complexity_is_linear_in_id_bound(self):
        graph = generators.gnp_graph(48, expected_degree=5, seed=4)
        order = list(graph.nodes)
        _, result = run_vt_mis(graph, order)
        assert result.metrics.round_complexity <= len(order)

    def test_nodes_awake_exactly_in_their_communication_set(self):
        graph = generators.cycle_graph(10)
        order = list(graph.nodes)
        _, result = run_vt_mis(graph, order, trace=True)
        local_ids = {label: position for position, label in enumerate(order, 1)}
        for label in graph.nodes:
            expected = sorted(r - 1 for r in communication_set(local_ids[label], 10))
            assert result.trace.awake_rounds_of(label) == expected

    def test_messages_are_congest_sized(self):
        # An explicit bit limit meters the run, so max_message_bits
        # reflects real sizes (an unmetered run reports None) and any
        # over-budget message raises instead.
        graph = generators.gnp_graph(64, expected_degree=8, seed=5)
        order = list(graph.nodes)
        _, result = run_vt_mis(graph, order, message_bit_limit=80)
        assert 0 < result.metrics.max_message_bits <= 80


class TestInputs:
    def test_missing_id_bound_rejected(self, path_graph):
        with pytest.raises(KeyError):
            run_protocol(path_graph, vt_mis_protocol, inputs={}, seed=1)

    def test_missing_local_id_rejected(self, path_graph):
        with pytest.raises(ValueError):
            run_protocol(path_graph, vt_mis_protocol,
                         inputs={"id_bound": 10}, seed=1)

    def test_random_id_mode_produces_valid_mis(self):
        graph = generators.gnp_graph(30, expected_degree=4, seed=6)
        result = run_protocol(
            graph, vt_mis_protocol,
            inputs={"id_bound": 10**6, "id_source": "random"}, seed=7,
        )
        mis = mis_from_result(result)
        assert is_maximal_independent_set(graph, mis)

    def test_id_bound_larger_than_n(self, small_gnp):
        # IDs may come from a sparse subrange of [1, I].
        labels = list(small_gnp.nodes)
        local_inputs = {label: {"id": 3 * (i + 1)} for i, label in enumerate(labels)}
        result = run_protocol(
            small_gnp, vt_mis_protocol,
            inputs={"id_bound": 3 * len(labels) + 5},
            local_inputs=local_inputs, seed=1,
        )
        mis = mis_from_result(result)
        order = sorted(labels, key=lambda label: local_inputs[label]["id"])
        assert mis == greedy_mis_from_order(small_gnp, order)
