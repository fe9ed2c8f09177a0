"""Tests for Algorithm Awake-MIS (Theorem 13 / Corollary 14)."""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.algorithms.awake_mis import (
    AwakeMISParameters,
    batch_index,
    choose_batch,
    run_awake_mis,
)
from repro.algorithms.common import mis_from_result
from repro.algorithms.ldt_mis import ldt_mis_round_budget
from repro.core.mis import is_independent_set, is_maximal_independent_set
from repro.graphs import generators
from repro.rng import make_rng


class TestParameters:
    def test_scaled_parameters_are_consistent(self):
        params = AwakeMISParameters.scaled(1024)
        assert params.ell >= 1
        assert params.delta_prime >= 3
        assert params.batch_count == params.ell * 2 * params.delta_prime
        assert abs(sum(params.group_probabilities) - 1.0) < 1e-9
        assert params.phase_length > ldt_mis_round_budget(params.n_bound,
                                                          params.id_space)
        assert params.total_rounds == params.batch_count * params.phase_length

    def test_paper_parameters_are_larger(self):
        scaled = AwakeMISParameters.scaled(1024)
        paper = AwakeMISParameters.paper(1024)
        assert paper.delta_prime > scaled.delta_prime
        assert abs(sum(paper.group_probabilities) - 1.0) < 1e-9

    def test_parameters_for_tiny_graphs(self):
        for n in (2, 3, 5, 10):
            params = AwakeMISParameters.scaled(n)
            assert params.batch_count >= 1
            assert abs(sum(params.group_probabilities) - 1.0) < 1e-9

    def test_group_probabilities_grow_geometrically(self):
        params = AwakeMISParameters.scaled(4096)
        weights = params.group_probabilities[:-1]
        for smaller, larger in zip(weights, weights[1:]):
            assert larger >= smaller

    def test_batch_index_bijection(self):
        params = AwakeMISParameters.scaled(256)
        seen = set()
        for group in range(1, params.ell + 1):
            for slot in range(1, 2 * params.delta_prime + 1):
                seen.add(batch_index(group, slot, params))
        assert seen == set(range(1, params.batch_count + 1))

    def test_choose_batch_in_range(self):
        params = AwakeMISParameters.scaled(512)
        rng = make_rng(3)
        for _ in range(200):
            group, slot = choose_batch(rng, params)
            assert 1 <= group <= params.ell
            assert 1 <= slot <= 2 * params.delta_prime


class TestCorrectness:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_gnp_graphs(self, seed):
        graph = generators.gnp_graph(120, expected_degree=8, seed=seed + 50)
        result = run_awake_mis(graph, seed=seed)
        mis = mis_from_result(result)
        assert is_independent_set(graph, mis)
        assert is_maximal_independent_set(graph, mis)

    def test_structured_graphs(self, any_small_graph):
        result = run_awake_mis(any_small_graph, seed=7)
        assert is_maximal_independent_set(any_small_graph,
                                          mis_from_result(result))

    def test_dense_graph_with_stress_parameters(self):
        # Shrink the number of batches so same-batch components are large and
        # the whole LDT-MIS machinery is exercised inside the phases.
        graph = generators.gnp_graph(40, p=0.3, seed=2)
        base = AwakeMISParameters.scaled(40)
        n_bound = max(base.n_bound, 40)
        params = dataclasses.replace(
            base,
            ell=1,
            delta_prime=3,
            group_probabilities=(1.0,),
            n_bound=n_bound,
            phase_length=1 + ldt_mis_round_budget(n_bound, base.id_space) + 4,
        )
        result = run_awake_mis(graph, seed=3, params=params)
        assert is_maximal_independent_set(graph, mis_from_result(result))

    def test_clique(self):
        graph = generators.complete_graph(15)
        result = run_awake_mis(graph, seed=5)
        mis = mis_from_result(result)
        assert len(mis) == 1

    def test_isolated_nodes(self):
        graph = generators.empty_graph(9)
        result = run_awake_mis(graph, seed=1)
        assert mis_from_result(result) == set(graph.nodes)

    def test_random_geometric_graph(self):
        graph = generators.random_geometric(100, seed=4)
        result = run_awake_mis(graph, seed=6)
        assert is_maximal_independent_set(graph, mis_from_result(result))

    def test_round_variant(self):
        graph = generators.gnp_graph(80, expected_degree=6, seed=8)
        result = run_awake_mis(graph, seed=9, variant="round")
        assert is_maximal_independent_set(graph, mis_from_result(result))


class TestComplexity:
    def test_round_complexity_within_schedule(self):
        graph = generators.gnp_graph(100, expected_degree=6, seed=10)
        params = AwakeMISParameters.scaled(100)
        result = run_awake_mis(graph, seed=11, params=params)
        assert result.metrics.round_complexity <= params.total_rounds + 1

    def test_awake_complexity_much_smaller_than_rounds(self):
        graph = generators.gnp_graph(150, expected_degree=8, seed=12)
        result = run_awake_mis(graph, seed=13)
        assert result.metrics.awake_complexity < \
            result.metrics.round_complexity / 1000

    def test_node_averaged_awake_small(self):
        graph = generators.gnp_graph(150, expected_degree=8, seed=14)
        result = run_awake_mis(graph, seed=15)
        assert result.metrics.node_averaged_awake <= 60

    def test_communication_rounds_logarithmic_in_batches(self):
        graph = generators.gnp_graph(120, expected_degree=6, seed=16)
        params = AwakeMISParameters.scaled(120)
        result = run_awake_mis(graph, seed=17, params=params)
        bound = math.ceil(math.log2(params.batch_count)) + 1
        for decision in result.outputs.values():
            assert decision.detail["communication_rounds"] <= bound

    def test_congest_message_sizes(self):
        # Metering (and hence max_message_bits) is only active when a bit
        # limit is set; an unmetered run skips size estimation.
        budget = 64 * math.ceil(math.log2(90 + 2))
        graph = generators.gnp_graph(90, expected_degree=6, seed=18)
        result = run_awake_mis(graph, seed=19, message_bit_limit=budget)
        assert 0 < result.metrics.max_message_bits <= budget

    def test_awake_growth_is_sublogarithmic_in_n(self):
        # Doubling n several times should leave the awake complexity nearly
        # unchanged (the log log n regime), certainly far below doubling.
        small = run_awake_mis(
            generators.gnp_graph(64, expected_degree=6, seed=20), seed=21
        ).metrics.awake_complexity
        large = run_awake_mis(
            generators.gnp_graph(256, expected_degree=6, seed=22), seed=23
        ).metrics.awake_complexity
        assert large <= 3 * small + 30
