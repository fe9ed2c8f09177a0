"""Round-semantics regression tests for the SLEEPING-CONGEST driver.

The simulator has two round engines — the generator round loop, which
meters a run (CONGEST bit accounting and/or tracing) as a per-sender step
when asked to, and the numpy whole-round engine for protocols that opt in
(``luby``).  These tests pin the model semantics of paper Section 1.3 on
both of them, metered and unmetered: messages to sleeping nodes are lost,
the bit budget fires exactly at the limit, protocol violations
(non-increasing rounds, out-of-range ports) are rejected, per-node bit
counters match the trace, and metering and engine choice never change a
count-based metric (the invariant: they change wall-clock, never bytes).
"""

from __future__ import annotations

import pytest

from repro.errors import MessageTooLargeError, ProtocolViolationError
from repro.experiments.harness import available_algorithms, run_mis
from repro.graphs import generators
from repro.sim import WakeCall, estimate_bits, run_protocol
from repro.sim.metrics import CompactRunMetrics


#: Simulator configurations: unmetered ("fast"), bit-metered and traced.
#: A huge bit limit meters the run without ever tripping the budget.
PATHS = {
    "fast": {"trace": False, "message_bit_limit": None},
    "metered": {"trace": False, "message_bit_limit": 10_000},
    "traced": {"trace": True, "message_bit_limit": None},
}


@pytest.fixture(params=sorted(PATHS))
def sim_config(request):
    return PATHS[request.param]


# --------------------------------------------------------------------------- #
# Delivery semantics
# --------------------------------------------------------------------------- #
class TestSleepingReceivers:
    def test_message_to_sleeping_node_is_lost(self, sim_config):
        """The round-2 message arrives; the round-0 one hits a sleeper."""
        graph = generators.path_graph(2)

        def protocol(ctx):
            if ctx.local_input == "sender":
                yield WakeCall(round=0, sends=[(0, "early")])
                yield WakeCall(round=2, sends=[(0, "late")])
                return "done"
            inbox = yield WakeCall(round=2, sends=[])
            return [payload for _, payload in inbox]

        result = run_protocol(
            graph, protocol,
            local_inputs={0: "sender", 1: "receiver"},
            seed=1, **sim_config,
        )
        assert result.outputs[1] == ["late"]
        sender, receiver = result.metrics.per_node
        assert sender.messages_sent == 2
        assert receiver.messages_received == 1

    def test_trace_records_the_lost_message(self):
        graph = generators.path_graph(2)

        def protocol(ctx):
            if ctx.local_input == "sender":
                yield WakeCall(round=0, sends=[(0, "early")])
                return None
            yield WakeCall(round=1, sends=[])
            return None

        result = run_protocol(
            graph, protocol,
            local_inputs={0: "sender", 1: "receiver"},
            seed=1, trace=True,
        )
        lost = result.trace.lost_messages()
        assert len(lost) == 1 and lost[0].payload == "early"
        assert result.trace.delivered_messages() == []

    def test_same_round_delivery_between_awake_neighbors(self, sim_config):
        graph = generators.path_graph(2)

        def protocol(ctx):
            inbox = yield WakeCall(round=0, sends=[(0, ctx.local_input)])
            return [payload for _, payload in inbox]

        result = run_protocol(
            graph, protocol, local_inputs={0: "zero", 1: "one"},
            seed=1, **sim_config,
        )
        assert result.outputs == {0: ["one"], 1: ["zero"]}


# --------------------------------------------------------------------------- #
# CONGEST bit budget
# --------------------------------------------------------------------------- #
class TestBitLimit:
    PAYLOAD = "0123456789"  # estimate_bits = 80

    def _run(self, limit):
        graph = generators.path_graph(2)

        def protocol(ctx):
            yield WakeCall(round=0, sends=[(0, self.PAYLOAD)])
            return True

        return run_protocol(graph, protocol, seed=1, message_bit_limit=limit)

    def test_message_at_exactly_the_limit_passes(self):
        bits = estimate_bits(self.PAYLOAD)
        result = self._run(bits)
        assert result.metrics.max_message_bits == bits

    def test_message_one_bit_over_the_limit_raises(self):
        bits = estimate_bits(self.PAYLOAD)
        with pytest.raises(MessageTooLargeError):
            self._run(bits - 1)

    def test_error_message_names_the_offender(self):
        with pytest.raises(MessageTooLargeError, match="80-bit"):
            self._run(10)


class TestBitAccounting:
    @pytest.mark.parametrize("algorithm", ["luby", "awake_mis"])
    def test_per_node_counters_match_the_trace(self, algorithm):
        """On a traced, bit-limited run every node's message and bit
        counters equal what the trace says it sent and received."""
        graph = generators.gnp_graph(32, expected_degree=5, seed=4)
        raw = run_mis(graph, algorithm, seed=5, trace=True, keep_raw=True).raw
        assert raw.metrics.bits_metered
        assert raw.trace.messages

        labels = list(raw.awake_by_label)  # simulator index order
        sent_bits = {label: [] for label in labels}
        received = dict.fromkeys(labels, 0)
        for event in raw.trace.messages:
            sent_bits[event.sender].append(estimate_bits(event.payload))
            if event.delivered:
                received[event.receiver] += 1
        for label, node in zip(labels, raw.metrics.per_node):
            bits = sent_bits[label]
            assert node.bits_sent == sum(bits), label
            assert node.max_message_bits == max(bits, default=0), label
            assert node.messages_sent == len(bits), label
            assert node.messages_received == received[label], label

    @staticmethod
    def _mixed_sends(degree):
        """A send list mixing every case a per-object size memo must get
        right: runs of one shared payload object, equal-valued but
        distinct objects (``True`` next to ``1``: 1 vs 2 bits), and
        payloads of different sizes."""
        shared = (7, "ab")
        payloads = [shared, shared, True, 1, True, 1, list(shared),
                    list(shared), 10 ** 20, 10 ** 20, "x" * 40, shared,
                    None, None, shared]
        return [(port, payloads[port % len(payloads)])
                for port in range(degree)]

    @pytest.mark.parametrize("config", ["metered", "traced"])
    def test_bit_counters_equal_per_message_estimates(self, config):
        """Per-node bits_sent / max_message_bits are the per-message sum
        and max of estimate_bits, however the payload objects repeat."""
        graph = generators.star_graph(20)  # the hub has 19 ports

        def protocol(ctx):
            yield WakeCall(round=0, sends=self._mixed_sends(ctx.degree))
            # A later, smaller broadcast must not lower max_message_bits.
            small = (1,)
            yield WakeCall(round=1, sends=[(port, small)
                                           for port in ctx.ports])
            return None

        result = run_protocol(graph, protocol, seed=1, **PATHS[config])
        per_node = result.metrics.per_node
        for index, node in enumerate(per_node):
            degree = graph.degree(index)
            bits = [estimate_bits(payload)
                    for _, payload in self._mixed_sends(degree)]
            bits += [estimate_bits((1,))] * degree
            assert node.bits_sent == sum(bits), index
            assert node.max_message_bits == max(bits), index
            assert node.messages_sent == 2 * degree, index
        assert per_node[0].max_message_bits == estimate_bits("x" * 40)
        if config == "traced":
            traced = {index: [] for index in range(len(per_node))}
            for event in result.trace.messages:
                traced[event.sender].append(estimate_bits(event.payload))
            for index, node in enumerate(per_node):
                assert node.bits_sent == sum(traced[index]), index
                assert node.max_message_bits == max(traced[index]), index

    @pytest.mark.parametrize("trace", [False, True])
    def test_oversized_payload_after_a_broadcast_run_raises(self, trace):
        """A run of small broadcast messages does not hide an oversized
        message after it; the error text is unchanged."""
        graph = generators.star_graph(6)  # the hub has 5 ports
        small = (3, 4)
        big = "y" * 20  # 160 bits

        def protocol(ctx):
            sends = [(port, small) for port in ctx.ports]
            if ctx.degree > 1:
                sends[-1] = (ctx.degree - 1, big)
            yield WakeCall(round=2, sends=sends)
            return None

        with pytest.raises(MessageTooLargeError) as excinfo:
            run_protocol(graph, protocol, seed=1, trace=trace,
                         message_bit_limit=100)
        assert str(excinfo.value) == (
            f"node 0 sent a 160-bit message (limit 100) in round 2: {big!r}")


# --------------------------------------------------------------------------- #
# Protocol violations
# --------------------------------------------------------------------------- #
class TestProtocolViolations:
    def test_non_increasing_round_rejected(self, sim_config):
        graph = generators.path_graph(2)

        def protocol(ctx):
            yield WakeCall(round=3, sends=[])
            yield WakeCall(round=3, sends=[])
            return None

        with pytest.raises(ProtocolViolationError, match="not after"):
            run_protocol(graph, protocol, seed=1, **sim_config)

    def test_decreasing_round_rejected(self, sim_config):
        graph = generators.path_graph(2)

        def protocol(ctx):
            yield WakeCall(round=5, sends=[])
            yield WakeCall(round=2, sends=[])
            return None

        with pytest.raises(ProtocolViolationError):
            run_protocol(graph, protocol, seed=1, **sim_config)

    def test_out_of_range_port_rejected(self, sim_config):
        graph = generators.path_graph(2)  # every node has exactly one port

        def protocol(ctx):
            yield WakeCall(round=0, sends=[(1, "x")])
            return None

        with pytest.raises(ProtocolViolationError, match="port 1"):
            run_protocol(graph, protocol, seed=1, **sim_config)

    def test_negative_port_rejected(self, sim_config):
        graph = generators.path_graph(2)

        def protocol(ctx):
            yield WakeCall(round=0, sends=[(-1, "x")])
            return None

        with pytest.raises(ProtocolViolationError):
            run_protocol(graph, protocol, seed=1, **sim_config)

    def test_non_wakecall_yield_rejected(self, sim_config):
        graph = generators.path_graph(2)

        def protocol(ctx):
            yield "not a wake call"
            return None

        with pytest.raises(ProtocolViolationError, match="expected WakeCall"):
            run_protocol(graph, protocol, seed=1, **sim_config)


# --------------------------------------------------------------------------- #
# Outputs coverage + path equivalence
# --------------------------------------------------------------------------- #
class TestOutputsCoverage:
    def test_every_node_has_an_output_on_an_edgeless_graph(self, sim_config):
        """Regression for the executor refactor: isolated nodes (which never
        send or receive anything) must still appear in ``outputs``."""
        graph = generators.empty_graph(7)

        def protocol(ctx):
            yield WakeCall(round=0, sends=[])
            return True

        result = run_protocol(graph, protocol, seed=1, **sim_config)
        assert set(result.outputs) == set(range(7))
        assert all(result.outputs[v] for v in range(7))
        assert set(result.awake_by_label) == set(range(7))

    def test_node_terminating_before_first_wake_is_covered(self, sim_config):
        graph = generators.empty_graph(3)

        def protocol(ctx):
            if False:  # pragma: no cover - makes this a generator function
                yield
            return "immediate"

        result = run_protocol(graph, protocol, seed=1, **sim_config)
        assert set(result.outputs) == {0, 1, 2}
        assert all(v == "immediate" for v in result.outputs.values())
        assert result.metrics.awake_complexity == 0


class TestPathEquivalence:
    @pytest.mark.parametrize("representation", ["nx", "csr"])
    @pytest.mark.parametrize("family", ["gnp", "rgg"])
    @pytest.mark.parametrize("algorithm", available_algorithms())
    def test_metering_never_changes_results(self, algorithm, family,
                                            representation,
                                            vectorized_protocols):
        """Same algorithm, same seed: metering (the CONGEST bit budget)
        must not change the MIS, any node's awake count or any
        count-based metric.  Bit statistics are the documented exception
        — the unmetered run reports ``max_message_bits`` as ``None``."""
        graph = generators.by_name(family, 48, seed=2)
        if representation == "csr":
            graph = generators.to_csr(graph).view()
        # vectorized=False keeps unmetered runs of opted-in algorithms on
        # the generator loop (they would otherwise dispatch to the numpy
        # whole-round engine).
        params = ({"vectorized": False} if algorithm in vectorized_protocols
                  else {})
        metered = run_mis(graph, algorithm, seed=3, enforce_congest=True)
        unmetered = run_mis(graph, algorithm, seed=3, enforce_congest=False,
                            **params)

        assert metered.mis == unmetered.mis
        assert ([node.awake_rounds for node in metered.metrics.per_node]
                == [node.awake_rounds for node in unmetered.metrics.per_node])
        metered_summary = metered.metrics.summary()
        unmetered_summary = unmetered.metrics.summary()
        assert metered_summary.pop("max_message_bits") > 0
        assert unmetered_summary.pop("max_message_bits") is None
        assert metered_summary == unmetered_summary

    def test_unmetered_bit_statistics_read_not_measured(self):
        """Unmetered runs report max_message_bits as None (never a
        fabricated 0), metered runs report the real estimate."""
        from repro.algorithms.luby import luby_protocol

        graph = generators.gnp_graph(20, expected_degree=4, seed=6)
        inputs = {"max_iterations": 4096}
        unmetered = run_protocol(graph, luby_protocol, inputs=inputs, seed=7)
        assert unmetered.metrics.bits_metered is False
        assert unmetered.metrics.max_message_bits is None
        assert unmetered.metrics.summary()["max_message_bits"] is None

        metered = run_protocol(graph, luby_protocol, inputs=inputs, seed=7,
                               message_bit_limit=10_000)
        assert metered.metrics.bits_metered is True
        assert metered.metrics.max_message_bits > 0

    def test_compact_metrics_match_full_metrics(self):
        from repro.algorithms.luby import luby_protocol

        graph = generators.gnp_graph(30, expected_degree=5, seed=8)
        result = run_protocol(graph, luby_protocol,
                              inputs={"max_iterations": 4096}, seed=9)
        compact = result.metrics.compact()
        assert isinstance(compact, CompactRunMetrics)
        assert compact.summary() == result.metrics.summary()


class TestCSRPathEquivalence:
    """A networkx graph and its CSR view must simulate identically.

    ``run_protocol`` converts a networkx graph to CSR arrays once and
    wraps a CSR view without copying; both then route sends through the
    same flat ``(offsets, neighbors, arrivals)`` arrays, so they must
    agree count for count, metered or not.
    """

    def test_csr_representation_matches_adjacency_lists(self, sim_config):
        """Same seed, both loops: CSR arrays and networkx adjacency must
        produce identical outputs, wake schedules and metric counters."""
        from repro.algorithms.luby import luby_protocol

        graph = generators.gnp_graph(40, expected_degree=5, seed=12)
        inputs = {"max_iterations": 4096}
        over_nx = run_protocol(graph, luby_protocol, inputs=inputs,
                               seed=11, **sim_config)
        over_csr = run_protocol(generators.to_csr(graph).view(),
                                luby_protocol, inputs=inputs,
                                seed=11, **sim_config)
        assert over_csr.outputs == over_nx.outputs
        assert over_csr.awake_by_label == over_nx.awake_by_label
        assert over_csr.metrics.summary() == over_nx.metrics.summary()


class TestVectorizedEngineEquivalence:
    """The numpy whole-round engine is interchangeable with the generator loop.

    For every protocol that opts in (``luby``, ``rank_greedy``; found by the
    ``vectorized_protocol`` fixture), the vectorized engine and the
    generator loop, unmetered and metered, must produce
    the same outputs *in the same insertion order*, the same per-node
    awake/message/termination counters and the same aggregate metrics —
    byte identity, not statistical agreement.  (The engine's own unit and
    property tests live in ``tests/test_vectorized.py``.)
    """

    @pytest.mark.parametrize("representation", ["nx", "csr"])
    @pytest.mark.parametrize("algorithm_seed", [3, 4])
    def test_all_three_engines_agree_byte_for_byte(
            self, vectorized_protocol, representation, algorithm_seed):
        graph = generators.gnp_graph(48, expected_degree=6, seed=2)
        if representation == "csr":
            graph = generators.to_csr(graph).view()
        inputs = {"max_iterations": 4096}
        generator = run_protocol(graph, vectorized_protocol, inputs=inputs,
                                 seed=algorithm_seed, vectorized=False)
        vectorized = run_protocol(graph, vectorized_protocol, inputs=inputs,
                                  seed=algorithm_seed, vectorized=True)
        metered = run_protocol(graph, vectorized_protocol, inputs=inputs,
                               seed=algorithm_seed, trace=True,
                               message_bit_limit=10_000)

        def essence(result):
            per_node = [
                (node.awake_rounds, node.messages_sent,
                 node.messages_received, node.terminated_round)
                for node in result.metrics.per_node
            ]
            return (result.outputs, list(result.outputs), per_node,
                    result.awake_by_label, result.metrics.active_rounds,
                    result.metrics.last_active_round)

        assert essence(vectorized) == essence(generator)
        assert essence(vectorized) == essence(metered)
        assert vectorized.metrics.bits_metered is False
        assert vectorized.metrics.max_message_bits is None
