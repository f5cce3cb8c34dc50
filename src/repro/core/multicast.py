"""Multicast latency (paper Eq. 8 and 13-16).

For a multicast from node ``j`` the source transceiver emits one worm per
injection port whose quadrant contains targets.  The worms proceed with no
synchronisation; the multicast completes when the *last* worm delivers its
last flit.  The paper's construction:

1. the total waiting time of the port-``c`` worm is associated with an
   exponential random variable of rate ``mu_{j,c} = 1 / sum_l w_l``
   (Eq. 8),
2. the multicast waiting time is ``E[max]`` of the per-port exponentials
   (Eq. 13, computed by the Eq. 12 recursion),
3. ``L_j = W_j + msg + D_j`` with ``D_j = max_c D_{j,c}`` (Eq. 14-15), and
4. the network multicast latency averages ``L_j`` over nodes (Eq. 16).

Ports with several worms (a one-port router, the Spidergon's software
multicast, or column-path multicast on a mesh) serialise in the port
queue; we extend the model by charging the k-th worm of a port the
injection-channel service of its k-1 predecessors, then associating one
exponential per *worm*.  For the Quarc (one worm per port) this reduces
exactly to the paper.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from repro.core.channel_graph import ChannelGraph
from repro.core.expmax import expected_max_exponentials, expected_max_rows
from repro.core.flows import FlowAccumulator
from repro.core.service import ServiceTimeResult
from repro.core.unicast import LATENCY_CONSTANT, PathTable, path_waiting_time
from repro.routing.base import MulticastRoute

__all__ = [
    "multicast_waiting_rates",
    "multicast_latency_at_node",
    "multicast_latency_naive",
    "average_multicast_latency",
]


def _worm_waitings(
    graph: ChannelGraph,
    result: ServiceTimeResult,
    routes: Sequence[MulticastRoute],
) -> list[tuple[float, int]]:
    """Per-worm (total waiting, hops) with port-serialisation charges."""
    per_channel_count: dict[int, int] = {}
    out: list[tuple[float, int]] = []
    for route in routes:
        seq = graph.multicast_worm_channels(route)
        waiting = path_waiting_time(result, seq)
        # key by the actual injection channel: under a one-port router all
        # named ports collapse onto one physical injection channel
        k = per_channel_count.get(seq[0], 0)
        if k > 0:
            # serialised behind k earlier worms of the same multicast on
            # this channel: each occupies the injection channel for its
            # mean service time before this worm's header can enter
            waiting += k * float(result.mean_service[seq[0]])
        per_channel_count[seq[0]] = k + 1
        out.append((waiting, route.hops))
    return out


def multicast_waiting_rates(
    graph: ChannelGraph,
    result: ServiceTimeResult,
    routes: Sequence[MulticastRoute],
) -> list[float]:
    """The exponential rates ``mu_{j,c}`` (Eq. 8): reciprocal total
    waiting per worm.  A worm that never waits maps to an infinite rate
    (it contributes zero to the maximum)."""
    rates: list[float] = []
    for waiting, _hops in _worm_waitings(graph, result, routes):
        if waiting <= 0.0:
            rates.append(math.inf)
        elif math.isinf(waiting):
            rates.append(0.0)  # saturated worm: E[max] = inf
        else:
            rates.append(1.0 / waiting)
    return rates


def multicast_latency_at_node(
    graph: ChannelGraph,
    result: ServiceTimeResult,
    routes: Sequence[MulticastRoute],
    *,
    method: str = "recursive",
) -> float:
    """``L_j`` (Eq. 14): expected-max waiting + message + max hops."""
    if not routes:
        raise ValueError("multicast needs at least one port worm")
    worms = _worm_waitings(graph, result, routes)
    rates = multicast_waiting_rates(graph, result, routes)
    w_j = expected_max_exponentials(rates, method=method)
    d_j = max(hops for _w, hops in worms)
    return w_j + result.message_length + d_j + LATENCY_CONSTANT


def multicast_latency_naive(
    graph: ChannelGraph,
    result: ServiceTimeResult,
    routes: Sequence[MulticastRoute],
) -> float:
    """The "largest sub-network" estimate the paper argues *against*
    (Section 2): take the latency of the worm serving the largest quadrant
    and ignore the other ports.  Kept as the A-expmax ablation baseline --
    it systematically underestimates the multicast latency because any of
    the m asynchronous worms can finish last."""
    if not routes:
        raise ValueError("multicast needs at least one port worm")
    worms = _worm_waitings(graph, result, routes)
    largest = max(range(len(routes)), key=lambda i: len(routes[i].targets))
    waiting, _ = worms[largest]
    d_j = max(hops for _w, hops in worms)
    return waiting + result.message_length + d_j + LATENCY_CONSTANT


#: largest worm count per multicast whose Eq. 12 recursion is evaluated
#: for all sources at once (2^m subsets); larger ones go one by one
_VECTOR_WORMS = 6


class _MulticastTable:
    """Every multicast worm of a set of flows, compiled for gathering:
    its path, its port-serialisation rank (earlier worms of the same
    multicast on its injection channel), its source's row and its slot in
    that row, plus each source's largest hop count."""

    def __init__(self, flows: FlowAccumulator):
        self.sources = list(flows.multicast_paths)
        worms = [w for ws in flows.multicast_paths.values() for w in ws]
        self.paths = PathTable(flows, worms)
        row, slot, rank = [], [], []
        for r, ws in enumerate(flows.multicast_paths.values()):
            seen: dict[int, int] = {}
            for k, seq in enumerate(ws):
                row.append(r)
                slot.append(k)
                rank.append(seen.get(seq[0], 0))
                seen[seq[0]] = rank[-1] + 1
        self.row = np.asarray(row, dtype=np.intp)
        self.slot = np.asarray(slot, dtype=np.intp)
        self.rank = np.asarray(rank, dtype=float)
        self.width = 1 + (int(self.slot.max()) if len(self.slot) else 0)
        self.max_hops = np.zeros(len(self.sources))
        np.maximum.at(self.max_hops, self.row, self.paths.hops)


def average_multicast_latency(
    graph: ChannelGraph,
    result: ServiceTimeResult,
    multicast_sets: Mapping[int, frozenset[int]],
    *,
    method: str = "recursive",
) -> float:
    """Network-average multicast latency (Eq. 16) over the sources that
    actually multicast (sources with empty sets offer no multicast and are
    excluded from the average, matching the simulator's sampling).

    The worms are those :func:`~repro.core.flows.build_flows` walked for
    ``result.flows``, so ``multicast_sets`` must be the sets of the spec
    those flows were built from."""
    table = result.flows.compiled("multicast", _MulticastTable)
    sources = [node for node, dests in sorted(multicast_sets.items()) if dests]
    if not sources:
        raise ValueError("no node has a non-empty multicast destination set")
    if sources != table.sources:
        raise ValueError("multicast_sets differ from the sets the flows were built for")
    waiting = table.paths.waiting(result.waiting)
    # serialised behind earlier worms of the same multicast on the same
    # injection channel: each holds it for its mean service time
    serial = table.rank > 0.0
    waiting[serial] += table.rank[serial] * result.mean_service[table.paths.first[serial]]
    if not np.all(np.isfinite(waiting)):
        return math.inf
    if method == "recursive" and table.width <= _VECTOR_WORMS:
        # a worm that never waits has an infinite rate and drops out of
        # the maximum, like an absent one: both are stored as rate 0
        rates = np.zeros((len(sources), table.width))
        with np.errstate(divide="ignore", over="ignore"):
            mu = 1.0 / waiting
        mu[np.isinf(mu)] = 0.0
        rates[table.row, table.slot] = mu
        emax = expected_max_rows(rates)
    else:
        emax = np.array(
            [
                expected_max_exponentials(
                    [math.inf if w <= 0.0 else 1.0 / w for w in waiting[table.row == r].tolist()],
                    method=method,
                )
                for r in range(len(sources))
            ]
        )
    latency = emax + result.message_length + table.max_hops + LATENCY_CONSTANT
    return float(np.mean(latency))
