"""Luby's randomized MIS — the classical O(log n)-round baseline.

The paper contrasts its O(log log n) awake complexity against the
O(log n)-round algorithms of Luby / Alon–Babai–Itai, which in the sleeping
model translate into O(log n) awake complexity (a node can sleep nothing: it
must participate in every iteration until it decides).  This implementation
is the "random priority" variant:

Each iteration uses two rounds.

1. every undecided node draws a random priority and exchanges it with its
   (undecided, hence awake) neighbours; a node whose priority is a strict
   local minimum marks itself;
2. marked nodes join the MIS and announce ``inMIS``; undecided nodes that
   hear an announcement become ``notinMIS`` and terminate.

A node is awake for exactly two rounds per iteration until it decides, so
its awake complexity equals twice the number of iterations it survives —
Θ(log n) w.h.p. for worst-case graphs, which is exactly the baseline curve
experiments E1/E2 compare against.
"""

from __future__ import annotations

from repro.algorithms.common import (IN_MIS, MISDecision, NOT_IN_MIS,
                                     UNDECIDED, local_minimum_vectorized)
from repro.sim.actions import WakeCall
from repro.sim.context import NodeContext

#: Priorities are drawn from [0, PRIORITY_SPACE); collisions simply cause the
#: colliding nodes to skip one iteration, so correctness never depends on
#: uniqueness.
PRIORITY_SPACE = 2**48

#: Rounds per Luby iteration (priority exchange + MIS announcement).
ROUNDS_PER_ITERATION = 2

#: Raised by both engines when ``max_iterations`` runs out.
_EXHAUSTED = ("Luby did not terminate within {} iterations "
              "(this indicates a bug or an absurdly small max_iterations)")


def luby_protocol(ctx: NodeContext):
    """Protocol factory for Luby's MIS in the sleeping model.

    Global inputs: none are required; ``max_iterations`` optionally caps the
    number of iterations (defaults to a generous bound used only as a safety
    valve — the algorithm terminates with probability 1 regardless).
    """
    max_iterations = ctx.input("max_iterations", 4096)
    state = UNDECIDED
    ports = list(ctx.ports)

    for iteration in range(max_iterations):
        base = ROUNDS_PER_ITERATION * iteration
        priority = ctx.rng.randrange(PRIORITY_SPACE)

        # Round 1: exchange priorities with the still-undecided neighbours.
        inbox = yield WakeCall(
            round=base,
            sends=[(port, ("priority", priority)) for port in ports],
        )
        neighbor_priorities = [
            payload[1]
            for _, payload in inbox
            if isinstance(payload, tuple) and payload[0] == "priority"
        ]
        is_local_minimum = all(priority < other for other in neighbor_priorities)

        # Round 2: winners announce; losers listen.
        if is_local_minimum:
            inbox = yield WakeCall(
                round=base + 1,
                sends=[(port, IN_MIS) for port in ports],
            )
            state = IN_MIS
            return MISDecision(
                in_mis=True,
                decided_round=base + 1,
                detail={"iterations": iteration + 1},
            )
        inbox = yield WakeCall(round=base + 1, sends=[])
        if any(payload == IN_MIS for _, payload in inbox):
            state = NOT_IN_MIS
            return MISDecision(
                in_mis=False,
                decided_round=base + 1,
                detail={"iterations": iteration + 1},
            )

    raise RuntimeError(_EXHAUSTED.format(max_iterations))


def luby_vectorized(run):
    """Whole-round numpy twin of :func:`luby_protocol`, byte-identical to it
    (pinned by ``tests/test_vectorized.py``): one ``randrange`` per
    undecided node per iteration, in ascending index order."""
    rngs = run.rngs
    local_minimum_vectorized(
        run, lambda idx: [rngs[i].randrange(PRIORITY_SPACE)
                          for i in idx.tolist()],
        lambda i, k: {"iterations": k}, _EXHAUSTED)


#: Opt the generator protocol into the vectorized engine (see
#: ``repro.sim.vectorized``); the simulator discovers this attribute.
luby_protocol.vectorized_engine = luby_vectorized
