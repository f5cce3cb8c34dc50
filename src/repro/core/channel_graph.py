"""The channel dependency graph the queueing model operates on.

The analytical model views the NoC as a network of M/G/1 queues -- one per
*channel*.  Channels come in three kinds (paper Section 2, Fig. 1):

* **injection** channels: the internal links from a PE into its router, one
  per port in an all-port architecture (``("inj", node, port)``),
* **network** channels: the directed physical links between routers
  (``("net", src, dst, tag)``),
* **ejection** channels: the internal links from a router into the local
  sink, one per input direction in an all-port architecture
  (``("ej", node, input_tag)``).

The graph assigns every channel a dense integer index so the fixed-point
solver can vectorise over numpy arrays, and translates
:class:`~repro.routing.base.Route` objects into channel index sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from repro.routing.base import MulticastRoute, Route, RoutingAlgorithm
from repro.topology.base import Link, Topology

__all__ = ["ChannelKind", "Channel", "ChannelGraph", "ONE_PORT_NAME"]

#: Port name used for every route when collapsing to a one-port router.
ONE_PORT_NAME = "P0"


class ChannelKind(Enum):
    INJECTION = "inj"
    NETWORK = "net"
    EJECTION = "ej"


@dataclass(frozen=True)
class Channel:
    """A channel identity.  ``key`` disambiguates within the kind:

    * injection: ``(node, port)``
    * network:   ``(src, dst, tag)``
    * ejection:  ``(node, input_tag)``
    """

    kind: ChannelKind
    key: tuple

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.kind.value}{self.key}"


class ChannelGraph:
    """Dense-indexed channel set for a (topology, routing) pair.

    Parameters
    ----------
    topology, routing:
        The network under model.
    one_port:
        When True, model a one-port router: all injection traffic of a node
        shares a single injection channel (and routes' ports are remapped
        to it).  Ejection channels stay per-input-tag; the one-port
        *ejection* bottleneck is modelled separately because the paper's
        baseline contrast is about injection (Section 3.1 discusses
        blocking "on occupied injection channel").
    """

    def __init__(
        self,
        topology: Topology,
        routing: RoutingAlgorithm,
        *,
        one_port: bool = False,
    ):
        self.topology = topology
        self.routing = routing
        self.one_port = one_port
        self._channels: list[Channel] = []
        # index lookups per kind, keyed by plain tuples: route translation
        # runs once per hop of every walked route and must not build and
        # hash a Channel per lookup
        self._by_kind: dict[ChannelKind, dict[tuple, int]] = {k: {} for k in ChannelKind}
        self._build()

    # ------------------------------------------------------------------ #
    def _add(self, channel: Channel) -> int:
        index = self._by_kind[channel.kind]
        if channel.key in index:
            raise ValueError(f"duplicate channel {channel}")
        idx = len(self._channels)
        self._channels.append(channel)
        index[channel.key] = idx
        return idx

    def _build(self) -> None:
        topo = self.topology
        ports = [ONE_PORT_NAME] if self.one_port else list(topo.injection_ports())
        for node in topo.nodes():
            for port in ports:
                self._add(Channel(ChannelKind.INJECTION, (node, port)))
        for link in topo.links():
            self._add(Channel(ChannelKind.NETWORK, (link.src, link.dst, link.tag)))
        for node in topo.nodes():
            for tag in topo.input_tags(node):
                self._add(Channel(ChannelKind.EJECTION, (node, tag)))

    # ------------------------------------------------------------------ #
    @property
    def num_channels(self) -> int:
        return len(self._channels)

    def channels(self) -> Sequence[Channel]:
        return list(self._channels)

    def index_of(self, channel: Channel) -> int:
        return self._lookup(channel.kind, channel.key)

    def channel_at(self, idx: int) -> Channel:
        return self._channels[idx]

    def kind_of(self, idx: int) -> ChannelKind:
        return self._channels[idx].kind

    # -- lookups ---------------------------------------------------------
    def _lookup(self, kind: ChannelKind, key: tuple) -> int:
        try:
            return self._by_kind[kind][key]
        except KeyError:
            raise KeyError(f"unknown channel {Channel(kind, key)}") from None

    def injection(self, node: int, port: str) -> int:
        if self.one_port:
            port = ONE_PORT_NAME
        return self._lookup(ChannelKind.INJECTION, (node, port))

    def network(self, link: Link) -> int:
        return self._lookup(ChannelKind.NETWORK, (link.src, link.dst, link.tag))

    def ejection(self, node: int, input_tag: str) -> int:
        return self._lookup(ChannelKind.EJECTION, (node, input_tag))

    # -- route translation -------------------------------------------------
    def _worm_channels(
        self, source: int, port: str, links: Sequence[Link], last: int
    ) -> list[int]:
        """``[injection, network..., ejection at last]`` of one worm."""
        net = self._by_kind[ChannelKind.NETWORK]
        try:
            seq = [net[(link.src, link.dst, link.tag)] for link in links]
        except KeyError as exc:
            raise KeyError(f"unknown network channel {exc.args[0]}") from None
        return [self.injection(source, port), *seq, self.ejection(last, links[-1].tag)]

    def route_channels(self, route: Route) -> list[int]:
        """Channel index sequence of a unicast worm:
        ``[injection, network..., ejection-at-destination]``."""
        return self._worm_channels(route.source, route.port, route.links, route.dest)

    def multicast_worm_channels(self, route: MulticastRoute) -> list[int]:
        """Channels *held* by a multicast worm: injection + network links +
        the terminal ejection (at the last node, which is always a target)."""
        return self._worm_channels(route.source, route.port, route.links, route.last_node)

    def multicast_clone_ejections(self, route: MulticastRoute) -> list[tuple[int, int]]:
        """``(network_channel, ejection_channel)`` pairs for every
        *intermediate* target the worm absorb-and-forwards to (the terminal
        target's ejection is part of the worm path instead)."""
        out: list[tuple[int, int]] = []
        for link in route.links:
            node = link.dst
            if node in route.targets and node != route.last_node:
                out.append((self.network(link), self.ejection(node, link.tag)))
        return out

    # -- reporting ---------------------------------------------------------
    def describe(self, idx: int) -> str:
        return str(self._channels[idx])

    def indices_of_kind(self, kind: ChannelKind) -> list[int]:
        return [i for i, c in enumerate(self._channels) if c.kind == kind]
