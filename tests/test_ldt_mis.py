"""Tests for Algorithm LDT-MIS / LDT-MIS-ROUND (Lemma 11 / Corollary 12)."""

from __future__ import annotations

import math

import pytest

from repro.algorithms.common import mis_from_result
from repro.algorithms.ldt_mis import (
    ldt_mis_round_budget,
    permutation_chunk_count,
    permutation_entries_per_chunk,
    run_ldt_mis,
)
from repro.core.mis import is_independent_set, is_maximal_independent_set
from repro.graphs import generators


class TestBudgets:
    def test_entries_per_chunk_positive(self):
        assert permutation_entries_per_chunk(4) >= 1
        assert permutation_entries_per_chunk(1000) >= 1

    def test_chunk_count_covers_all_entries(self):
        for n_bound in (1, 5, 33, 200):
            chunks = permutation_chunk_count(n_bound)
            assert chunks * permutation_entries_per_chunk(n_bound) >= n_bound

    def test_round_budget_is_monotone_in_n_bound(self):
        assert ldt_mis_round_budget(8, 2**20) < ldt_mis_round_budget(64, 2**20)


class TestCorrectness:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_small_gnp(self, small_gnp, seed):
        result = run_ldt_mis(small_gnp, seed=seed)
        mis = mis_from_result(result)
        assert is_independent_set(small_gnp, mis)
        assert is_maximal_independent_set(small_gnp, mis)

    def test_structured_graphs(self, any_small_graph):
        result = run_ldt_mis(any_small_graph, seed=5)
        mis = mis_from_result(result)
        assert is_maximal_independent_set(any_small_graph, mis)

    def test_disconnected_graph(self, disconnected_graph):
        result = run_ldt_mis(disconnected_graph, seed=4)
        mis = mis_from_result(result)
        assert is_maximal_independent_set(disconnected_graph, mis)

    def test_isolated_nodes(self):
        graph = generators.empty_graph(7)
        result = run_ldt_mis(graph, seed=1)
        assert mis_from_result(result) == set(graph.nodes)

    def test_round_variant(self, small_gnp):
        result = run_ldt_mis(small_gnp, seed=6, variant="round")
        assert is_maximal_independent_set(small_gnp, mis_from_result(result))

    def test_invalid_variant_rejected(self, small_gnp):
        with pytest.raises(ValueError):
            run_ldt_mis(small_gnp, seed=1, variant="bogus")

    def test_large_id_space(self):
        # IDs may be drawn from a space exponentially larger than n'.
        graph = generators.cycle_graph(10)
        result = run_ldt_mis(graph, seed=3, id_space=2**48)
        assert is_maximal_independent_set(graph, mis_from_result(result))

    def test_randomness_changes_output(self):
        # The LFMIS is taken with respect to a *random* order, so different
        # seeds should eventually give different MISs on a path.
        graph = generators.path_graph(15)
        outputs = {frozenset(mis_from_result(run_ldt_mis(graph, seed=s)))
                   for s in range(6)}
        assert len(outputs) > 1


class TestComplexity:
    def test_awake_complexity_scales_with_component_not_ids(self):
        graph = generators.path_graph(6)
        small_ids = run_ldt_mis(graph, seed=2, id_space=2**12)
        huge_ids = run_ldt_mis(graph, seed=2, id_space=2**60)
        # Growing the ID space by 48 bits should barely change the awake
        # complexity (only through the log* term of the construction).
        assert huge_ids.metrics.awake_complexity <= \
            2 * small_ids.metrics.awake_complexity + 20

    def test_round_complexity_within_budget(self):
        graph = generators.gnp_graph(18, p=0.25, seed=7)
        n_bound = 18
        id_space = max(64, 20 ** 3)
        result = run_ldt_mis(graph, seed=1, n_bound=n_bound, id_space=id_space)
        assert result.metrics.round_complexity <= \
            1 + ldt_mis_round_budget(n_bound, id_space)

    def test_congest_messages(self, small_gnp):
        # Metering (and hence max_message_bits) is only active when a bit
        # limit is set; an unmetered run skips size estimation.
        n = small_gnp.number_of_nodes()
        budget = 64 * math.ceil(math.log2(n + 2))
        result = run_ldt_mis(small_gnp, seed=8, message_bit_limit=budget)
        assert 0 < result.metrics.max_message_bits <= budget

    def test_uses_component_bound_when_disconnected(self, disconnected_graph):
        # n_bound defaults to the largest component, which is much smaller
        # than the graph; the run must still be correct.
        result = run_ldt_mis(disconnected_graph, seed=9)
        assert is_maximal_independent_set(
            disconnected_graph, mis_from_result(result)
        )
