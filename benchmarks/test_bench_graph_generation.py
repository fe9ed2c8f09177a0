"""Benchmark: gnp generation, numpy stream replay vs networkx's pair loop.

``gnp_graph`` used to call ``nx.gnp_random_graph``, which tests
``random() < p`` once per node pair in a Python loop, and then copied the
result through ``_normalize``.  It now draws the same Mersenne Twister
stream in numpy chunks, so the two paths must return the identical graph.

Byte-identity is asserted first (node order, graph attributes and every
node's adjacency order), then the speedup: best-of-N on both sides, with
numpy runs first, last and between every networkx run, so a host slowdown
long enough to cover every numpy run covers a networkx run as well.  Both
throughputs land in the perf-trajectory file
(``networkx_gnp_tasks_per_second`` / ``numpy_gnp_tasks_per_second``) as
reported numbers; ``BENCH_seed.json`` holds no baseline for them.
"""

from __future__ import annotations

import time

import networkx as nx

from repro.experiments.tables import format_table
from repro.graphs import generators
from repro.rng import make_rng

#: Graph size: ~1 s per networkx run, the size where E1's gnp cost shows.
N = 4000

#: Expected degree of the ``gnp`` family.
EXPECTED_DEGREE = 8.0

#: Timed networkx runs per scale; numpy gets one more (first and last).
NETWORKX_RUNS_BY_SCALE = {"smoke": 2, "default": 3, "full": 5}

#: The asserted speedup floor (best-of-N on both sides).
SPEEDUP_FLOOR = 3.0

GRAPH_SEED = 5


def _networkx_gnp(n, seed):
    """The previous ``gnp_graph``: networkx's pair loop plus ``_normalize``."""
    p = EXPECTED_DEGREE / (n - 1)
    graph_seed = make_rng(seed).randrange(2**31)
    return generators._normalize(nx.gnp_random_graph(n, p, seed=graph_seed))


def _numpy_gnp(n, seed):
    return generators.gnp_graph(n, expected_degree=EXPECTED_DEGREE, seed=seed)


def _layout(graph):
    return (list(graph.nodes(data=True)), graph.graph,
            [(node, list(graph.adj[node].items())) for node in graph])


def test_bench_graph_generation(repro_scale, bench_record):
    networkx_runs = NETWORKX_RUNS_BY_SCALE[repro_scale]
    numpy_runs = networkx_runs + 1

    reference = _networkx_gnp(N, GRAPH_SEED)
    sampled = _numpy_gnp(N, GRAPH_SEED)
    assert _layout(sampled) == _layout(reference)
    edges = sampled.number_of_edges()

    times = {"networkx": [], "numpy": []}
    order = ["numpy"] + ["networkx", "numpy"] * networkx_runs
    for run, side in enumerate(order):
        build = _numpy_gnp if side == "numpy" else _networkx_gnp
        started = time.perf_counter()
        build(N, GRAPH_SEED + 1 + run)
        times[side].append(time.perf_counter() - started)

    seconds = {side: sum(runs) for side, runs in times.items()}
    rates = {side: len(times[side]) / max(seconds[side], 1e-9)
             for side in times}
    speedup = min(times["networkx"]) / max(min(times["numpy"]), 1e-9)

    rows = [
        {"generator": f"networkx pair loop (x{networkx_runs})",
         "best_s": round(min(times["networkx"]), 3),
         "tasks_per_s": round(rates["networkx"], 2)},
        {"generator": f"numpy stream replay (x{numpy_runs})",
         "best_s": round(min(times["numpy"]), 3),
         "tasks_per_s": round(rates["numpy"], 2)},
        {"generator": "speedup (best-of)", "best_s": round(speedup, 2),
         "tasks_per_s": ""},
    ]
    print()
    print(format_table(rows, title=f"gnp generation (n={N}, m={edges})"))

    bench_record(
        "graph_generation",
        scale=repro_scale,
        n=N,
        edges=edges,
        networkx_runs=networkx_runs,
        numpy_runs=numpy_runs,
        networkx_gnp_seconds=round(seconds["networkx"], 4),
        numpy_gnp_seconds=round(seconds["numpy"], 4),
        networkx_gnp_tasks_per_second=round(rates["networkx"], 3),
        numpy_gnp_tasks_per_second=round(rates["numpy"], 3),
        speedup=round(speedup, 3),
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"numpy gnp sampling only {speedup:.2f}x networkx's pair loop at "
        f"n={N} (floor {SPEEDUP_FLOOR}x); the stream replay has regressed")
