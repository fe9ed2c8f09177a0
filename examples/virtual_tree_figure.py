"""Regenerate the paper's Figures 1 and 2 (the virtual binary tree example).

Prints the in-order labelled tree B([1,6]), its relabelled version B*([1,6]),
the communication sets S_3 and S_5 shown in Figure 2, and then demonstrates
Observation 5 by running VT-MIS on a two-node graph with IDs 3 and 5 and
showing exactly in which rounds the two nodes were awake.

Usage::

    python examples/virtual_tree_figure.py
"""

from __future__ import annotations

import networkx as nx

from repro.algorithms.common import mis_from_result
from repro.algorithms.vt_mis import vt_mis_protocol
from repro.core.virtual_tree import (
    common_round,
    communication_set,
    figure_example,
    tree_depth,
    tree_size,
)
from repro.experiments.tables import format_table
from repro.sim import run_protocol


def render_tree(i: int) -> None:
    """Print B([1,i]) and B*([1,i]) level by level."""
    depth = tree_depth(i)
    size = tree_size(i)
    print(f"B([1,{i}]): depth {depth}, {size} nodes (in-order labels)")
    # Level-order rendering: the root is label 2^depth; children follow the
    # in-order arithmetic.  For the small figure we simply show both label
    # sequences, which is what the paper's figure conveys.
    from repro.core.virtual_tree import relabel

    print("  B  labels:", list(range(1, size + 1)))
    print("  B* labels:", [relabel(x) for x in range(1, size + 1)])


def main() -> int:
    example = figure_example()
    render_tree(6)
    print()
    rows = [
        {"set": "S_3([1,6])", "computed": example["S_3"], "paper": "{3, 4, 5}"},
        {"set": "S_5([1,6])", "computed": example["S_5"], "paper": "{5, 6}"},
        {"set": "common round (Obs. 5)",
         "computed": example["common_round_3_5"], "paper": "5"},
    ]
    print(format_table(rows, title="Figure 2: communication sets"))

    # Now watch the property in action: two adjacent nodes u = 0 and v = 1
    # (the simulator takes integer labels) with IDs 3 and 5.
    u, v = 0, 1
    graph = nx.Graph([(u, v)])
    local_inputs = {u: {"id": 3}, v: {"id": 5}}
    result = run_protocol(graph, vt_mis_protocol, inputs={"id_bound": 6},
                          local_inputs=local_inputs, seed=1, trace=True)
    mis = mis_from_result(result)
    names = {u: "u", v: "v"}
    print()
    print("VT-MIS on the edge (u, v) with IDs 3 and 5:")
    print("  u awake in rounds:", [r + 1 for r in result.trace.awake_rounds_of(u)])
    print("  v awake in rounds:", [r + 1 for r in result.trace.awake_rounds_of(v)])
    print("  common awake round:", common_round(3, 5, 6))
    print("  MIS:", sorted(names[node] for node in mis),
          "(u joined at its round 3; v heard about it in round 5 and stayed out)")
    assert mis == {u}
    assert 5 - 1 in result.trace.awake_rounds_of(v)
    # Round-trip check against the library's communication sets.
    assert set(r + 1 for r in result.trace.awake_rounds_of(u)) == \
        set(communication_set(3, 6))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
