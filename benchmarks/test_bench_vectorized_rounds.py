"""Benchmark: the numpy whole-round engine vs the generator round loop.

Unmetered Luby on a gnp graph at n ≥ 20k — the workload the vectorized
engine targets: every undecided node is awake in every iteration, so the
generator round loop resumes tens of thousands of generators per round
while the vectorized engine computes the same rounds as a handful of
array operations over the CSR arrays.

Byte-identity is asserted first (outputs, per-node awake/message/round
counters, ``awake_by_label`` — the engine contract), then the speedup:
the ≥5× floor is part of the engine's acceptance criteria, measured
best-of-N on both sides so a transient scheduler stall on a shared CI
runner cannot fail it spuriously.  The two engines' runs are interleaved,
with vectorized runs first and last, so a host slowdown long enough to
cover every vectorized run covers every generator run as well.  Both
engines' throughput lands in the perf-trajectory file
(``vectorized_luby_tasks_per_second`` /
``generator_luby_tasks_per_second``) and is gated by
``compare_bench.py`` against ``BENCH_seed.json``.

``rank_greedy`` opts into the same engine (it shares Luby's two-round
local-minimum iteration), so the same graph also pins its byte-identity
and records ``vectorized_rank_greedy_tasks_per_second`` /
``generator_rank_greedy_tasks_per_second`` — reported, not gated (one
generator run between two vectorized runs, ~2 s).
"""

from __future__ import annotations

import time

from repro.algorithms.luby import luby_protocol
from repro.algorithms.rank_greedy import rank_greedy_protocol
from repro.experiments.tables import format_table
from repro.graphs.generators import build_csr
from repro.sim.runner import run_protocol

#: Graph size per scale; the tentpole's target is n ≈ 20k (never smaller).
N_BY_SCALE = {"smoke": 20_000, "default": 20_000, "full": 30_000}

#: Timed (generator, vectorized) repetitions per scale.  The generator
#: side costs ~2s per run, so it gets fewer repetitions; best-of is used
#: for the speedup either way.
RUNS_BY_SCALE = {"smoke": (2, 4), "default": (3, 5), "full": (3, 6)}

#: The asserted speedup floor (acceptance criterion of the engine).
SPEEDUP_FLOOR = 5.0

GRAPH_SEED = 5


def _run_order(generator_runs, vectorized_runs):
    """Interleaved ``(vectorized, run)`` schedule.

    Generator runs are spread evenly between vectorized runs, and a
    vectorized run comes first and last: any stretch of time that holds
    every vectorized run then holds every generator run too.
    """
    order = []
    for run in range(vectorized_runs):
        order.append((True, run))
        order.extend(
            (False, g) for g in range(generator_runs)
            if max(1, (g + 1) * vectorized_runs // (generator_runs + 1))
            == run + 1)
    return order


def _summarize(result):
    """Every byte an engine is allowed to influence — i.e. none."""
    per_node = [
        (node.awake_rounds, node.messages_sent, node.messages_received,
         node.terminated_round)
        for node in result.metrics.per_node
    ]
    return (result.outputs, per_node, result.awake_by_label,
            result.metrics.active_rounds, result.metrics.last_active_round,
            result.metrics.bits_metered)


def test_bench_vectorized_rounds(repro_scale, bench_record):
    n = N_BY_SCALE[repro_scale]
    generator_runs, vectorized_runs = RUNS_BY_SCALE[repro_scale]
    csr = build_csr("gnp", n, seed=GRAPH_SEED)

    # Warm both engines (numpy import, allocator, code caches) and pin the
    # byte-identity contract on this exact workload before timing anything.
    warm_generator = run_protocol(csr, luby_protocol, seed=0,
                                  vectorized=False)
    warm_vectorized = run_protocol(csr, luby_protocol, seed=0,
                                   vectorized=True)
    assert _summarize(warm_vectorized) == _summarize(warm_generator)
    assert list(warm_vectorized.outputs) == list(warm_generator.outputs)

    generator_times = []
    vectorized_times = []
    for vectorized, run in _run_order(generator_runs, vectorized_runs):
        started = time.perf_counter()
        run_protocol(csr, luby_protocol, seed=run + 1, vectorized=vectorized)
        elapsed = time.perf_counter() - started
        (vectorized_times if vectorized else generator_times).append(elapsed)

    generator_seconds = sum(generator_times)
    vectorized_seconds = sum(vectorized_times)
    generator_rate = generator_runs / max(generator_seconds, 1e-9)
    vectorized_rate = vectorized_runs / max(vectorized_seconds, 1e-9)
    speedup = min(generator_times) / max(min(vectorized_times), 1e-9)

    # rank_greedy on the same graph: the first vectorized run and the
    # generator run pin byte-identity; all three are timed.
    rank_times = {False: [], True: []}
    rank_results = {}
    for vectorized in (True, False, True):
        started = time.perf_counter()
        result = run_protocol(csr, rank_greedy_protocol, seed=0,
                              vectorized=vectorized)
        rank_times[vectorized].append(time.perf_counter() - started)
        rank_results.setdefault(vectorized, result)
    assert _summarize(rank_results[True]) == _summarize(rank_results[False])
    assert list(rank_results[True].outputs) == list(rank_results[False].outputs)
    rank_seconds = {engine: sum(times) for engine, times in rank_times.items()}
    rank_rates = {engine: len(rank_times[engine]) / max(seconds, 1e-9)
                  for engine, seconds in rank_seconds.items()}

    rows = [
        {"engine": f"generator round loop (x{generator_runs})",
         "best_s": round(min(generator_times), 3),
         "tasks_per_s": round(generator_rate, 2)},
        {"engine": f"vectorized (x{vectorized_runs})",
         "best_s": round(min(vectorized_times), 3),
         "tasks_per_s": round(vectorized_rate, 2)},
        {"engine": "speedup (best-of)", "best_s": round(speedup, 2),
         "tasks_per_s": ""},
        {"engine": "rank_greedy generator (x1)",
         "best_s": round(min(rank_times[False]), 3),
         "tasks_per_s": round(rank_rates[False], 2)},
        {"engine": "rank_greedy vectorized (x2)",
         "best_s": round(min(rank_times[True]), 3),
         "tasks_per_s": round(rank_rates[True], 2)},
    ]
    print()
    print(format_table(rows, title=f"vectorized rounds, unmetered luby and "
                                   f"rank_greedy (gnp n={n}, m={csr.m})"))

    bench_record(
        "vectorized_rounds",
        scale=repro_scale,
        n=n,
        edges=csr.m,
        generator_runs=generator_runs,
        vectorized_runs=vectorized_runs,
        generator_luby_seconds=round(generator_seconds, 4),
        vectorized_luby_seconds=round(vectorized_seconds, 4),
        generator_luby_tasks_per_second=round(generator_rate, 3),
        vectorized_luby_tasks_per_second=round(vectorized_rate, 3),
        generator_rank_greedy_seconds=round(rank_seconds[False], 4),
        vectorized_rank_greedy_seconds=round(rank_seconds[True], 4),
        generator_rank_greedy_tasks_per_second=round(rank_rates[False], 3),
        vectorized_rank_greedy_tasks_per_second=round(rank_rates[True], 3),
        speedup=round(speedup, 3),
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"vectorized engine only {speedup:.2f}x the generator round loop "
        f"on unmetered luby over gnp n={n} (floor {SPEEDUP_FLOOR}x); "
        "whole-round vectorization is not engaging or has regressed")
