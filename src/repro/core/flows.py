"""Per-channel traffic rates and forwarding structure (model inputs).

Walks every unicast source/destination pair and every multicast worm of a
:class:`TrafficSpec` through the routing algorithm and accumulates, per
channel,

* the arrival rate ``lambda_i`` (messages/cycle),
* the *forward* transition rates ``i -> j`` (the worm's own progression,
  which Eq. 6 weights its service-time recursion with), and
* the *feed* rates ``i -> j`` (all traffic entering ``j`` that funnelled
  through ``i`` -- forward transitions plus absorb-and-forward clones into
  ejection channels), which the self-traffic discount factor
  ``(1 - lambda_i P_{i->j} / lambda_j)`` of Eq. 6 uses.

The distinction matters exactly for Quarc-style dedicated per-input-port
ejection channels: a multicast clone entering an ejection channel funnels
through the worm's network channel, so a message following on the same
input never actually queues behind it -- the feed fraction is 1 and the
discount zeroes the ejection waiting, matching the simulator's structural
freedom from ejection blocking.

Model assumptions (paper Section 2): Poisson generation, uniformly random
unicast destinations, all messages the same length, deterministic routing.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence, TypeVar

import numpy as np

from repro.core.channel_graph import ChannelGraph

__all__ = ["TrafficSpec", "FlowAccumulator", "build_flows"]

T = TypeVar("T")


@dataclass(frozen=True)
class TrafficSpec:
    """Offered traffic for one model/simulation configuration.

    Attributes
    ----------
    message_rate:
        Total message generation rate per node, ``lambda_g`` (msgs/cycle).
        Unicast and multicast are independent Poisson processes with rates
        ``(1 - alpha) * lambda_g`` and ``alpha * lambda_g``.
    multicast_fraction:
        ``alpha``: the rate of multicast traffic (paper: 3%, 5% or 10%).
    message_length:
        ``M``: message length in flits; the paper uses 16..64 and assumes
        messages longer than the network diameter.
    multicast_sets:
        Per-source multicast destination sets, fixed for the whole run
        (paper Section 4: selected once at the start).  Sources absent from
        the mapping (or mapped to an empty set) generate no multicast
        traffic; their multicast rate share is simply not offered.
    unicast_weights:
        Optional per-destination weight vector (length N).  None means the
        paper's uniform destinations; see
        :mod:`repro.workloads.patterns` for hotspot patterns.  A source's
        own weight is ignored (self-traffic is impossible).
    """

    message_rate: float
    multicast_fraction: float
    message_length: int
    multicast_sets: Mapping[int, frozenset[int]] = field(default_factory=dict)
    unicast_weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.message_rate < 0.0:
            raise ValueError(f"message_rate must be >= 0, got {self.message_rate}")
        if not 0.0 <= self.multicast_fraction <= 1.0:
            raise ValueError(
                f"multicast_fraction must be in [0, 1], got {self.multicast_fraction}"
            )
        if self.message_length < 1:
            raise ValueError(f"message_length must be >= 1, got {self.message_length}")
        for src, dests in self.multicast_sets.items():
            if src in dests:
                raise ValueError(f"node {src} multicasts to itself")
        if self.unicast_weights is not None:
            if any(w < 0.0 for w in self.unicast_weights):
                raise ValueError("unicast_weights must be >= 0")
            if sum(self.unicast_weights) <= 0.0:
                raise ValueError("unicast_weights must have positive mass")

    @property
    def unicast_rate(self) -> float:
        """Per-node unicast generation rate ``(1 - alpha) * lambda_g``."""
        return (1.0 - self.multicast_fraction) * self.message_rate

    @property
    def multicast_rate(self) -> float:
        """Per-node multicast generation rate ``alpha * lambda_g``."""
        return self.multicast_fraction * self.message_rate

    def with_rate(self, message_rate: float) -> "TrafficSpec":
        """A copy at a different offered load (for rate sweeps)."""
        return TrafficSpec(
            message_rate=message_rate,
            multicast_fraction=self.multicast_fraction,
            message_length=self.message_length,
            multicast_sets=self.multicast_sets,
            unicast_weights=self.unicast_weights,
        )

    def destination_probabilities(self, source: int, num_nodes: int):
        """Per-destination probability vector for ``source`` (numpy array
        of length ``num_nodes``; the source's own entry is 0)."""
        from repro.workloads.patterns import normalized_probabilities, uniform_weights

        weights = self.unicast_weights
        if weights is None:
            weights = uniform_weights(num_nodes)
        elif len(weights) != num_nodes:
            raise ValueError(
                f"unicast_weights has length {len(weights)}, network has "
                f"{num_nodes} nodes"
            )
        return normalized_probabilities(weights, source)


class FlowAccumulator:
    """Accumulated per-channel rates and transitions for one spec, plus
    the channel sequences :func:`build_flows` walked to get them.

    Flows are linear in the offered rate, so :meth:`scaled` re-uses one
    accumulator at any load: the walked paths and everything compiled
    from them (:meth:`compiled`) are shared, not rebuilt.
    """

    def __init__(self, graph: ChannelGraph):
        self.graph = graph
        n = graph.num_channels
        self.arrival_rate = np.zeros(n, dtype=float)
        # sparse transition maps: index -> {next_index: rate}; a scaled
        # view builds its own from its base's on first access
        self._maps: tuple[list[dict[int, float]], list[dict[int, float]]] | None = (
            [dict() for _ in range(n)],
            [dict() for _ in range(n)],
        )
        # the accumulator a scaled view scales; None when this one owns its
        # maps (not itself: a self reference would leave every accumulator
        # to the cycle collector)
        self._base: FlowAccumulator | None = None
        self._factor = 1.0
        self._compiled: dict[str, object] = {}
        #: every unicast worm path, in (source, dest) order, and its
        #: destination probability (0 for a pair that carries no flow)
        self.unicast_paths: list[list[int]] = []
        self.unicast_probabilities: list[float] = []
        #: multicasting source (ascending) -> its worms' channel paths, in
        #: the routing's port order
        self.multicast_paths: dict[int, list[list[int]]] = {}

    # ------------------------------------------------------------------ #
    @property
    def forward(self) -> list[dict[int, float]]:
        """Worm-progression rates ``i -> j``."""
        return self._transition_maps()[0]

    @property
    def feed(self) -> list[dict[int, float]]:
        """All rates entering ``j`` through ``i`` (forward plus clones)."""
        return self._transition_maps()[1]

    def _transition_maps(self) -> tuple[list[dict[int, float]], list[dict[int, float]]]:
        if self._maps is None:
            f = self._factor
            forward, feed = self._root()._transition_maps()
            self._maps = (
                [{j: f * r for j, r in row.items()} for row in forward],
                [{j: f * r for j, r in row.items()} for row in feed],
            )
        return self._maps

    def scaled(self, factor: float) -> "FlowAccumulator":
        """These flows at ``factor`` times every rate (a model builds one
        unit-rate accumulator per traffic pattern and scales it per load).
        """
        if factor < 0.0:
            raise ValueError(f"factor must be >= 0, got {factor}")
        out = copy.copy(self)
        out.arrival_rate = factor * self.arrival_rate
        out._maps = None
        out._base = self._root()
        out._factor = self._factor * factor
        return out

    def compiled(self, name: str, build: Callable[["FlowAccumulator"], T]) -> T:
        """``build(flows)`` memoised per accumulator and shared with its
        scaled views.  ``build`` sees the unscaled accumulator, so it may
        only compile what does not depend on the offered rate."""
        if name not in self._compiled:
            self._compiled[name] = build(self._root())
        return self._compiled[name]  # type: ignore[return-value]

    def _own(self) -> None:
        """Prepare for a mutation: a scaled view takes its own transition
        maps, and plans compiled from the old flows are dropped."""
        self._maps = self._transition_maps()
        self._base, self._factor, self._compiled = None, 1.0, {}

    def _root(self) -> "FlowAccumulator":
        return self if self._base is None else self._base

    # ------------------------------------------------------------------ #
    def add_worm(self, channel_seq: Sequence[int], rate: float) -> None:
        """Account a worm traversing ``channel_seq`` at ``rate``."""
        if rate < 0.0:
            raise ValueError(f"rate must be >= 0, got {rate}")
        if rate == 0.0:
            return
        self._own()
        forward, feed = self._transition_maps()
        for idx in channel_seq:
            self.arrival_rate[idx] += rate
        for a, b in zip(channel_seq, channel_seq[1:]):
            forward[a][b] = forward[a].get(b, 0.0) + rate
            feed[a][b] = feed[a].get(b, 0.0) + rate

    def add_clone(self, network_channel: int, ejection_channel: int, rate: float) -> None:
        """Account an absorb-and-forward clone: the ejection channel sees an
        arrival that funnelled through ``network_channel``, but the worm's
        forward progression is unchanged."""
        if rate < 0.0:
            raise ValueError(f"rate must be >= 0, got {rate}")
        if rate == 0.0:
            return
        self._own()
        feed = self.feed[network_channel]
        self.arrival_rate[ejection_channel] += rate
        feed[ejection_channel] = feed.get(ejection_channel, 0.0) + rate

    # ------------------------------------------------------------------ #
    def forward_probabilities(self, idx: int) -> dict[int, float]:
        """``P_{i->j}`` normalised over the worm-progression transitions."""
        trans = self.forward[idx]
        total = sum(trans.values())
        if total == 0.0:
            return {}
        return {j: r / total for j, r in trans.items()}

    def feed_fraction(self, idx: int, nxt: int) -> float:
        """Fraction of ``nxt``'s arrivals that funnel through ``idx``
        (the ``lambda_i P_{i->j} / lambda_j`` of Eq. 6)."""
        lam_next = self.arrival_rate[nxt]
        if lam_next <= 0.0:
            return 0.0
        frac = self.feed[idx].get(nxt, 0.0) / lam_next
        # floating accumulation can overshoot 1 by an ulp
        return min(frac, 1.0)

    def total_offered(self) -> float:
        """Sum of injection-channel arrival rates (sanity metric)."""
        from repro.core.channel_graph import ChannelKind

        inj = self.graph.indices_of_kind(ChannelKind.INJECTION)
        return float(self.arrival_rate[inj].sum())


def build_flows(graph: ChannelGraph, spec: TrafficSpec) -> FlowAccumulator:
    """Accumulate all unicast and multicast flows of ``spec`` over ``graph``.

    Unicast: every ordered pair ``(s, t)`` carries ``lambda_u * p_s(t)``
    (``p_s(t) = 1 / (N - 1)`` for uniform destinations).
    Multicast: every source with a non-empty destination set emits one worm
    per used port at rate ``lambda_m`` (paper: a multicast is *replicated*
    on each port whose quadrant contains targets, so each worm has the full
    multicast generation rate).

    Every route is walked once, whatever its rate, and its channel path is
    kept on the accumulator for latency assembly.
    """
    topo = graph.topology
    routing = graph.routing
    n = topo.num_nodes
    acc = FlowAccumulator(graph)

    lam_u = spec.unicast_rate
    for s in topo.nodes():
        probs = spec.destination_probabilities(s, n)
        for t in topo.nodes():
            if s == t:
                continue
            seq = graph.route_channels(routing.unicast_route(s, t))
            acc.unicast_paths.append(seq)
            acc.unicast_probabilities.append(float(probs[t]))
            acc.add_worm(seq, lam_u * probs[t])

    lam_m = spec.multicast_rate
    for s, dests in sorted(spec.multicast_sets.items()):
        if not dests:
            continue
        worms = []
        for worm in routing.multicast_routes(s, sorted(dests)):
            seq = graph.multicast_worm_channels(worm)
            worms.append(seq)
            acc.add_worm(seq, lam_m)
            for net_ch, ej_ch in graph.multicast_clone_ejections(worm):
                acc.add_clone(net_ch, ej_ch, lam_m)
        acc.multicast_paths[s] = worms
    return acc
