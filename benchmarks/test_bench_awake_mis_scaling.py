"""Experiment E1 (Theorem 13): awake complexity of Awake-MIS vs n.

Regenerates the scaling series of Awake-MIS over G(n, p) and random
geometric graphs, prints the table and the growth-law fit, and times one
representative run.
"""

from __future__ import annotations

import pytest

from repro.algorithms.awake_mis import run_awake_mis
from repro.algorithms.common import mis_from_result
from repro.core.mis import is_maximal_independent_set
from repro.experiments.registry import experiment_e1
from repro.experiments.tables import format_table
from repro.graphs import generators


def test_bench_e1_scaling_report(benchmark, repro_scale):
    """Produce the full E1 report (the E1 row of DESIGN.md §3)."""
    report = benchmark.pedantic(
        experiment_e1, args=(repro_scale,), kwargs={"seed": 1},
        rounds=1, iterations=1,
    )
    print()
    print(report.render())
    assert report.passed


@pytest.mark.parametrize("n", [64, 128, 256])
def test_bench_e1_single_run(benchmark, n):
    """Time one Awake-MIS run per size (the series' raw data points)."""
    graph = generators.gnp_graph(n, expected_degree=8, seed=n)

    def run():
        return run_awake_mis(graph, seed=17)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    mis = mis_from_result(result)
    assert is_maximal_independent_set(graph, mis)
    print()
    print(format_table([{
        "n": n,
        "awake_complexity": result.metrics.awake_complexity,
        "node_averaged_awake": round(result.metrics.node_averaged_awake, 2),
        "round_complexity": result.metrics.round_complexity,
        "mis_size": len(mis),
    }], title=f"E1 data point (n={n})"))
