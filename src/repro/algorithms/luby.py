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

from repro.algorithms.common import IN_MIS, MISDecision, NOT_IN_MIS, UNDECIDED
from repro.sim.actions import WakeCall
from repro.sim.context import NodeContext

#: Priorities are drawn from [0, PRIORITY_SPACE); collisions simply cause the
#: colliding nodes to skip one iteration, so correctness never depends on
#: uniqueness.
PRIORITY_SPACE = 2**48

#: Rounds per Luby iteration (priority exchange + MIS announcement).
ROUNDS_PER_ITERATION = 2


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

    raise RuntimeError(
        f"Luby did not terminate within {max_iterations} iterations "
        "(this indicates a bug or an absurdly small max_iterations)"
    )


def luby_vectorized(run):
    """Whole-round numpy twin of :func:`luby_protocol`.

    Byte-identity with the generator above is a hard contract (pinned by
    ``tests/test_vectorized.py``): one ``randrange`` per undecided node per
    iteration in ascending index order, the same message counts (round 1
    sends on every port, round 2 only winners send, a message is received
    only by awake — i.e. undecided — neighbours), the same termination
    rounds, the same :class:`MISDecision` payloads, and the same
    ``RuntimeError`` when ``max_iterations`` runs out.
    """
    np = run.np
    max_iterations = run.inputs.get("max_iterations", 4096)
    undecided = np.ones(run.n, dtype=bool)
    labels = run.labels
    rngs = run.rngs
    # Decided nodes read as +inf in the priority array so a strict local
    # minimum among *undecided* neighbours is just a strict minimum over
    # all neighbours (any real priority is < INF, and empty rows win).
    INF = np.int64(1) << 62

    for iteration in range(max_iterations):
        idx = np.flatnonzero(undecided)
        if idx.size == 0:
            return
        base = ROUNDS_PER_ITERATION * iteration

        priorities = np.full(run.n, INF, dtype=np.int64)
        priorities[idx] = [rngs[i].randrange(PRIORITY_SPACE)
                           for i in idx.tolist()]

        # Round 1: every undecided node is awake, sends its priority on
        # every port, and receives one message per undecided neighbour.
        run.begin_round(base)
        run.record_awake(idx)
        run.messages_sent[idx] += run.degrees[idx]
        run.messages_received[idx] += run.row_count(undecided)[idx]
        winners = undecided & (priorities < run.row_min(priorities, empty=INF))

        # Round 2: winners announce on every port; every undecided node is
        # awake and hears one message per winning neighbour (0 for winners
        # themselves — no two adjacent strict local minima exist).
        run.begin_round(base + 1)
        run.record_awake(idx)
        run.messages_sent[winners] += run.degrees[winners]
        winning = run.row_count(winners)
        run.messages_received[idx] += winning[idx]

        losers = undecided & ~winners & (winning > 0)
        decided_idx = np.flatnonzero(winners | losers)
        if decided_idx.size:
            run.terminated_round[decided_idx] = base + 1
            outputs = run.outputs
            for i, won in zip(decided_idx.tolist(),
                              winners[decided_idx].tolist()):
                outputs[labels[i]] = MISDecision(
                    in_mis=won,
                    decided_round=base + 1,
                    detail={"iterations": iteration + 1},
                )
            undecided[decided_idx] = False

    raise RuntimeError(
        f"Luby did not terminate within {max_iterations} iterations "
        "(this indicates a bug or an absurdly small max_iterations)"
    )


#: Opt the generator protocol into the vectorized engine (see
#: ``repro.sim.vectorized``); the simulator discovers this attribute.
luby_protocol.vectorized_engine = luby_vectorized
