"""Benchmark: one metered Awake-MIS run, the simulate layer of E1.

E1 (Theorem 13) always runs metered: :func:`repro.experiments.harness.run_mis`
enforces the CONGEST bit budget, so Awake-MIS stays on the generator round
loop with every sender's messages passing through the bit accounting.
This times one such run on a random geometric graph at n = 8000 (E1's
largest size; ~0.65 s on a 2-vCPU box, above ``compare_bench.py``'s 0.5 s
noise floor) and records ``metered_awake_mis_seconds`` /
``metered_awake_mis_tasks_per_second`` in the perf-trajectory file.  The
key has no ``BENCH_seed.json`` baseline yet, so it is reported, not gated.
"""

from __future__ import annotations

from repro.experiments.harness import default_message_bit_limit, run_mis
from repro.experiments.tables import format_table
from repro.graphs.generators import build_csr

#: E1's largest size; the same at every scale so the key stays comparable.
N = 8000

GRAPH_SEED = 11
RUN_SEED = 17


def test_bench_metered_awake_mis(repro_scale, bench_record):
    graph = build_csr("rgg", N, seed=GRAPH_SEED).view()

    result = run_mis(graph, "awake_mis", seed=RUN_SEED)
    seconds = result.wall_time_seconds
    rate = 1.0 / max(seconds, 1e-9)

    assert result.verified
    limit = default_message_bit_limit(N)
    assert result.parameters["message_bit_limit"] == limit
    assert result.metrics.bits_metered
    assert 0 < result.metrics.max_message_bits <= limit

    print()
    print(format_table([{
        "n": N,
        "edges": graph.number_of_edges(),
        "bit_limit": limit,
        "messages": result.metrics.total_messages,
        "seconds": round(seconds, 3),
        "tasks_per_s": round(rate, 3),
    }], title="metered Awake-MIS (rgg, CONGEST on)"))

    bench_record(
        "metered_awake_mis",
        scale=repro_scale,
        n=N,
        edges=graph.number_of_edges(),
        message_bit_limit=limit,
        metered_awake_mis_seconds=round(seconds, 4),
        metered_awake_mis_tasks_per_second=round(rate, 3),
    )
