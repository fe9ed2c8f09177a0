"""Shared helpers for the distributed MIS protocols.

All MIS protocols in this package follow the same output convention: the
per-node generator returns a :class:`MISDecision` whose ``in_mis`` flag says
whether the node joined the MIS.  The experiment harness converts a
:class:`repro.sim.runner.RunResult` of such a protocol into the MIS set with
:func:`mis_from_result`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set

from repro.sim.runner import RunResult

#: Node states used by every protocol, mirroring the paper's terminology.
UNDECIDED = "undecided"
IN_MIS = "inMIS"
NOT_IN_MIS = "notinMIS"


@dataclass
class MISDecision:
    """Return value of one node's MIS protocol instance.

    Attributes
    ----------
    in_mis:
        True when the node joined the MIS.
    decided_round:
        The absolute round in which the node's state became decided (used by
        tests and by the trace-based examples).
    detail:
        Optional protocol-specific diagnostic payload (e.g. the batch chosen
        by Awake-MIS, or the component rank assigned by LDT-MIS).
    """

    in_mis: bool
    decided_round: Optional[int] = None
    detail: Dict[str, Any] = field(default_factory=dict)

    def __bool__(self) -> bool:  # allows RunResult.output_set() to work
        return self.in_mis


def mis_from_result(result: RunResult) -> Set:
    """Extract the MIS (as a set of graph labels) from a protocol run."""
    mis = set()
    for label, output in result.outputs.items():
        if isinstance(output, MISDecision):
            if output.in_mis:
                mis.add(label)
        elif output:
            mis.add(label)
    return mis


def neighbor_states_in_mis(inbox: List) -> bool:
    """Return True if any received message reports the sender is in the MIS.

    The protocols exchange their state as one of the three state strings (or
    as tuples whose first element is the state string).
    """
    for _, payload in inbox:
        state = payload[0] if isinstance(payload, tuple) else payload
        if state == IN_MIS:
            return True
    return False


def local_minimum_vectorized(run, draw: Callable, detail: Callable,
                             exhausted: str) -> None:
    """Whole-round numpy twin of the two-round local-minimum iteration.

    Shared by ``luby`` and ``rank_greedy``, which differ only in their keys
    and decision details: *draw(idx)* returns this iteration's keys of the
    undecided nodes *idx* (ascending), *detail(i, k)* the detail of node
    *i* deciding in iteration *k*.  *run* is a
    :class:`~repro.sim.vectorized.VectorizedRun`; when its
    ``max_iterations`` input runs out, raises the generators'
    ``RuntimeError(exhausted.format(max_iterations))``.
    """
    np = run.np
    max_iterations = run.inputs.get("max_iterations", 4096)
    undecided = np.ones(run.n, dtype=bool)
    # Decided nodes read as +inf, so a strict minimum over all neighbours
    # is a strict local minimum among undecided ones (empty rows win).
    INF = np.int64(1) << 62
    for iteration in range(max_iterations):
        idx = np.flatnonzero(undecided)
        if idx.size == 0:
            return
        base = 2 * iteration
        keys = np.full(run.n, INF, dtype=np.int64)
        keys[idx] = draw(idx)

        # Round 1: every undecided node is awake, sends its key on every
        # port, and receives one message per undecided neighbour.
        run.begin_round(base)
        run.record_awake(idx)
        run.messages_sent[idx] += run.degrees[idx]
        run.messages_received[idx] += run.row_count(undecided)[idx]
        winners = undecided & (keys < run.row_min(keys, empty=INF))

        # Round 2: winners announce on every port; every undecided node
        # hears one message per winning neighbour (0 for winners).
        run.begin_round(base + 1)
        run.record_awake(idx)
        run.messages_sent[winners] += run.degrees[winners]
        winning = run.row_count(winners)
        run.messages_received[idx] += winning[idx]

        decided = np.flatnonzero(winners | (undecided & (winning > 0)))
        run.terminated_round[decided] = base + 1
        for i, won in zip(decided.tolist(), winners[decided].tolist()):
            run.outputs[run.labels[i]] = MISDecision(
                in_mis=won, decided_round=base + 1,
                detail=detail(i, iteration + 1))
        undecided[decided] = False
    if undecided.any():
        raise RuntimeError(exhausted.format(max_iterations))
