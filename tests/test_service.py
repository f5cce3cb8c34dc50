"""Tests for the Eq. 6 service-time fixed point."""


import numpy as np
import pytest

from repro.core.channel_graph import ChannelGraph, ChannelKind
from repro.core.flows import FlowAccumulator, TrafficSpec, build_flows
from repro.core.mg1 import mg1_waiting_time, paper_service_variance
from repro.core.service import solve_service_times
from repro.routing import QuarcRouting
from repro.topology import QuarcTopology


@pytest.fixture(scope="module")
def net16():
    topo = QuarcTopology(16)
    routing = QuarcRouting(topo)
    return topo, routing, ChannelGraph(topo, routing)


def solve(graph, rate, msg=32, recursion="paper", alpha=0.0, sets=None):
    spec = TrafficSpec(rate, alpha, msg, sets or {})
    flows = build_flows(graph, spec)
    return solve_service_times(graph, flows, msg, recursion=recursion)


class TestAnchors:
    def test_ejection_service_is_message_length(self, net16):
        _, _, graph = net16
        res = solve(graph, 0.005)
        for ej in graph.indices_of_kind(ChannelKind.EJECTION):
            assert res.mean_service[ej] == pytest.approx(32.0)

    def test_zero_load_paper_values(self, net16):
        """At (near-)zero load Eq. 6 gives x = msg + (1 + remaining) per
        downstream hop: every network channel lies between msg + 1 (pure
        terminal) and msg + Q + 1 (the full quadrant still ahead)."""
        topo, routing, graph = net16
        res = solve(graph, 1e-9, recursion="paper")
        q = topo.quarter
        for net in graph.indices_of_kind(ChannelKind.NETWORK):
            x = res.mean_service[net]
            assert 33.0 - 1e-3 <= x <= 32.0 + q + 1 + 1e-3
        # a Quarc injection channel feeds exactly one network channel and
        # so costs exactly one more hop than it at zero load
        seq = graph.route_channels(routing.unicast_route(0, 3))
        inj, first_net = seq[0], seq[1]
        assert res.mean_service[inj] == pytest.approx(
            res.mean_service[first_net] + 1.0, abs=1e-3
        )

    def test_zero_load_occupancy_values(self, net16):
        """The occupancy recursion anchors every channel at exactly msg."""
        topo, routing, graph = net16
        res = solve(graph, 0.0, recursion="occupancy")
        assert np.allclose(res.mean_service, 32.0)

    def test_occupancy_never_below_message_length(self, net16):
        _, _, graph = net16
        res = solve(graph, 0.006, recursion="occupancy")
        assert (res.mean_service >= 32.0 - 1e-9).all()

    def test_paper_exceeds_occupancy(self, net16):
        """Eq. 6's +1 chain makes paper service times >= occupancy ones."""
        _, _, graph = net16
        rp = solve(graph, 0.004, recursion="paper")
        ro = solve(graph, 0.004, recursion="occupancy")
        assert (rp.mean_service >= ro.mean_service - 1e-9).all()


class TestConvergence:
    def test_converges_below_saturation(self, net16):
        _, _, graph = net16
        res = solve(graph, 0.005)
        assert res.converged and not res.saturated

    def test_waiting_increases_with_load(self, net16):
        _, _, graph = net16
        w1 = solve(graph, 0.002).waiting.sum()
        w2 = solve(graph, 0.004).waiting.sum()
        assert w2 > w1

    def test_saturation_detected(self, net16):
        _, _, graph = net16
        res = solve(graph, 0.5)
        assert res.saturated
        assert not res.converged

    def test_bottleneck_reported(self, net16):
        _, _, graph = net16
        name, rho = solve(graph, 0.005).bottleneck()
        assert 0.0 < rho < 1.0
        assert "net" in name

    def test_unused_channels_zero_waiting(self, net16):
        _, _, graph = net16
        res = solve(graph, 0.0)
        assert np.all(res.waiting == 0.0)
        assert np.all(res.utilization == 0.0)

    def test_bad_recursion_rejected(self, net16):
        _, _, graph = net16
        spec = TrafficSpec(0.001, 0.0, 32)
        flows = build_flows(graph, spec)
        with pytest.raises(ValueError):
            solve_service_times(graph, flows, 32, recursion="bogus")


class TestDiscount:
    def test_ejection_waiting_fully_discounted(self, net16):
        """Single-feeder ejection channels contribute zero discounted
        waiting even though their raw W may be positive."""
        topo, routing, graph = net16
        res = solve(graph, 0.006)
        seq = graph.route_channels(routing.unicast_route(0, 3))
        last_net, ej = seq[-2], seq[-1]
        assert res.discounted_waiting(last_net, ej) == 0.0

    def test_partial_discount_on_shared_channel(self, net16):
        """A rim channel fed by several upstreams discounts only the
        self-traffic share."""
        topo, routing, graph = net16
        res = solve(graph, 0.006)
        # CW rim channel (1->2) is fed by inj(1,L), net(0->1,CW), XCW(9->1)
        l01 = next(l for l in topo.links() if l.src == 0 and l.tag == "CW")
        l12 = next(l for l in topo.links() if l.src == 1 and l.tag == "CW")
        n01, n12 = graph.network(l01), graph.network(l12)
        dw = res.discounted_waiting(n01, n12)
        assert 0.0 < dw < res.waiting[n12]


def _reference_fixed_point(flows, msg, recursion, steps=4000):
    """Eq. 6 by plain damped iteration over scalar M/G/1 queues: slow,
    but independent of the solver's condensation and Newton steps."""
    hop = 1.0 if recursion == "paper" else 0.0
    base = 0.0 if recursion == "paper" else float(msg)
    lam = flows.arrival_rate
    rows = {
        i: [(j, p, 1.0 - flows.feed_fraction(i, j)) for j, p in probs.items()]
        for i in range(len(lam))
        if (probs := flows.forward_probabilities(i))
    }
    x = np.full(len(lam), float(msg))
    for _ in range(steps):
        w = {
            j: mg1_waiting_time(lam[j], x[j], paper_service_variance(x[j], msg))
            for row in rows.values()
            for j, _, _ in row
        }
        new = x.copy()
        for i, row in rows.items():
            new[i] = base + sum(p * (d * w[j] + x[j] - base + hop) for j, p, d in row)
        x = 0.5 * x + 0.5 * new
    return x


class TestGeneralBlocks:
    """Rings take an O(k) path; any other strongly connected block is
    solved with a dense Newton system.  No topology here builds one, so
    this drives it with hand-made worms."""

    @pytest.mark.parametrize("recursion", ["paper", "occupancy"])
    def test_branching_cycle_matches_plain_iteration(self, net16, recursion):
        _, _, graph = net16
        inj = graph.indices_of_kind(ChannelKind.INJECTION)
        net = graph.indices_of_kind(ChannelKind.NETWORK)
        ej = graph.indices_of_kind(ChannelKind.EJECTION)
        a, b, c = net[:3]
        flows = FlowAccumulator(graph)
        # a -> b -> c, b -> a, c -> b: one block where b has two successors
        flows.add_worm([inj[0], a, b, c, ej[0]], 0.004)
        flows.add_worm([inj[1], b, a, ej[1]], 0.003)
        flows.add_worm([inj[2], c, b, ej[2]], 0.002)
        res = solve_service_times(graph, flows, 32, recursion=recursion)
        assert res.converged and res.iterations > 0
        assert res.residual <= 1e-9 * 32
        want = _reference_fixed_point(flows, 32, recursion)
        assert np.allclose(res.mean_service, want, rtol=1e-9, atol=0.0)

    def test_branching_cycle_saturates(self, net16):
        _, _, graph = net16
        net = graph.indices_of_kind(ChannelKind.NETWORK)
        ej = graph.indices_of_kind(ChannelKind.EJECTION)
        a, b, c = net[:3]
        flows = FlowAccumulator(graph)
        flows.add_worm([a, b, c, ej[0]], 0.02)
        flows.add_worm([b, a, ej[1]], 0.02)
        flows.add_worm([c, b, ej[2]], 0.02)
        res = solve_service_times(graph, flows, 32)
        assert res.saturated and not res.converged
        assert np.isinf(res.residual)
