"""Tests for the LDT procedures (broadcast, upcast, ranking, re-rooting).

These tests hand-build an LDT over a known tree graph (so the expected
behaviour can be computed independently) and drive the procedures through
the simulator.
"""

from __future__ import annotations

from typing import Dict

import networkx as nx
import pytest

from repro.graphs import generators
from repro.ldt.procedures import (
    fragment_broadcast,
    ldt_ranking,
    transmit_adjacent,
    upcast_min,
)
from repro.ldt.structure import LDTState
from repro.sim import run_protocol
from repro.sim.network import build_network


def build_ldt_states(tree: nx.Graph, root) -> Dict[object, LDTState]:
    """Compute the LDTState of every node of *tree* rooted at *root*."""
    network = build_network(tree)
    states: Dict[object, LDTState] = {}
    parents = nx.bfs_predecessors(tree, root)
    parent_of = dict(parents)
    depths = nx.single_source_shortest_path_length(tree, root)
    for label in tree.nodes:
        index = network.index_of(label)
        parent = parent_of.get(label)
        parent_port = None
        if parent is not None:
            parent_port = network.port_towards(index, network.index_of(parent))
        children_ports = [
            network.port_towards(index, network.index_of(child))
            for child, p in parent_of.items()
            if p == label
        ]
        states[label] = LDTState(
            ldt_id=root,
            depth=depths[label],
            parent_port=parent_port,
            children_ports=sorted(children_ports),
        )
    return states


@pytest.fixture
def ldt_tree():
    """A small tree with known structure, rooted at node 0."""
    tree = nx.Graph([(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (5, 6)])
    return tree, build_ldt_states(tree, root=0)


N_BOUND = 10


class TestStructure:
    def test_singleton(self):
        state = LDTState.singleton(17)
        assert state.is_root and state.is_leaf
        assert state.ldt_id == 17 and state.depth == 0

    def test_copy_is_independent(self):
        state = LDTState(ldt_id=1, depth=2, parent_port=0, children_ports=[1, 2])
        clone = state.copy()
        clone.children_ports.append(3)
        assert state.children_ports == [1, 2]

    def test_reroot_towards_flips_parent(self):
        state = LDTState(ldt_id=5, depth=1, parent_port=0, children_ports=[1])
        state.reroot_towards(9, 4, new_parent_port=1, old_parent_becomes_child=True)
        assert state.ldt_id == 9 and state.depth == 4
        assert state.parent_port == 1
        assert 0 in state.children_ports
        assert 1 not in state.children_ports


class TestBroadcastAndUpcast:
    def test_broadcast_reaches_all_nodes(self, ldt_tree):
        tree, states = ldt_tree

        def protocol(ctx):
            state = ctx.local_input
            value = yield from fragment_broadcast(
                state, N_BOUND, block_start=1,
                payload="hello" if state.is_root else None,
            )
            return value

        result = run_protocol(tree, protocol, local_inputs=states, seed=1)
        assert all(value == "hello" for value in result.outputs.values())
        # O(1) awake: at most two awake rounds per node for one broadcast.
        assert result.metrics.awake_complexity <= 2

    def test_upcast_min_reaches_root(self, ldt_tree):
        tree, states = ldt_tree
        values = {label: (100 - 3 * label,) for label in tree.nodes}

        def protocol(ctx):
            state = ctx.local_input["state"]
            value = ctx.local_input["value"]
            best = yield from upcast_min(state, N_BOUND, block_start=1, value=value)
            return best if state.is_root else None

        local = {label: {"state": states[label], "value": values[label]}
                 for label in tree.nodes}
        result = run_protocol(tree, protocol, local_inputs=local, seed=1)
        assert result.outputs[0] == min(values.values())

    def test_upcast_min_ignores_none(self, ldt_tree):
        tree, states = ldt_tree

        def protocol(ctx):
            state = ctx.local_input
            value = (42,) if state.depth == 2 else None
            best = yield from upcast_min(state, N_BOUND, block_start=1, value=value)
            return best if state.is_root else None

        result = run_protocol(tree, protocol, local_inputs=states, seed=1)
        assert result.outputs[0] == (42,)

    def test_upcast_all_none(self, ldt_tree):
        tree, states = ldt_tree

        def protocol(ctx):
            state = ctx.local_input
            best = yield from upcast_min(state, N_BOUND, block_start=1, value=None)
            return best if state.is_root else "na"

        result = run_protocol(tree, protocol, local_inputs=states, seed=1)
        assert result.outputs[0] is None


class TestTransmitAdjacent:
    def test_neighbors_exchange_messages(self, ldt_tree):
        tree, states = ldt_tree

        def protocol(ctx):
            state = ctx.local_input
            inbox = yield from transmit_adjacent(
                state.depth, N_BOUND, block_start=1,
                sends=[(port, ("hi", state.depth)) for port in ctx.ports],
            )
            return sorted(payload for _, payload in inbox)

        result = run_protocol(tree, protocol, local_inputs=states, seed=1)
        # Node 0 has neighbours 1 (depth 1) and 2 (depth 1).
        assert result.outputs[0] == [("hi", 1), ("hi", 1)]
        # Node 6's only neighbour is node 5 at depth 2.
        assert result.outputs[6] == [("hi", 2)]


class TestRanking:
    def test_ranks_form_a_permutation(self, ldt_tree):
        tree, states = ldt_tree

        def protocol(ctx):
            state = ctx.local_input
            rank, total = yield from ldt_ranking(state, N_BOUND, block_start=1)
            return rank, total

        result = run_protocol(tree, protocol, local_inputs=states, seed=1)
        totals = {total for _, total in result.outputs.values()}
        ranks = sorted(rank for rank, _ in result.outputs.values())
        assert totals == {tree.number_of_nodes()}
        assert ranks == list(range(1, tree.number_of_nodes() + 1))

    def test_ranking_awake_complexity_constant(self, ldt_tree):
        tree, states = ldt_tree

        def protocol(ctx):
            state = ctx.local_input
            rank, total = yield from ldt_ranking(state, N_BOUND, block_start=1)
            return rank, total

        result = run_protocol(tree, protocol, local_inputs=states, seed=1)
        assert result.metrics.awake_complexity <= 4

    def test_ranking_on_path_tree(self):
        tree = generators.path_graph(9)
        states = build_ldt_states(tree, root=0)

        def protocol(ctx):
            state = ctx.local_input
            rank, total = yield from ldt_ranking(state, 12, block_start=1)
            return rank, total

        result = run_protocol(tree, protocol, local_inputs=states, seed=1)
        ranks = sorted(rank for rank, _ in result.outputs.values())
        assert ranks == list(range(1, 10))

    def test_ranking_singleton(self):
        tree = generators.empty_graph(1)
        states = {0: LDTState.singleton(1)}

        def protocol(ctx):
            state = ctx.local_input
            rank, total = yield from ldt_ranking(state, 4, block_start=1)
            return rank, total

        result = run_protocol(tree, protocol, local_inputs=states, seed=1)
        assert result.outputs[0] == (1, 1)
