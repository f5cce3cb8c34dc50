"""Unicast latency (paper Eq. 7).

The latency of a worm is the sum of the waiting times its header incurs
along the path, plus the pipelined transfer of the message body::

    L = W_injection + sum_{network channels} (1 - feed) * W + msg + D + 1

* ``W_injection`` is the full M/G/1 waiting at the injection channel (the
  source queue -- a freshly generated message has no upstream channel, so
  no self-traffic discount applies),
* subsequent channels contribute their waiting discounted by the Eq. 6
  self-traffic factor (a Quarc ejection channel has a single feeder, so
  its discounted waiting is structurally zero),
* ``msg + D + 1`` is the zero-load component: with one cycle per channel
  traversal the header is absorbed after ``D + 2`` traversals (injection +
  ``D`` networks + ejection) and the tail trails it by ``msg - 1`` cycles,
  giving ``(D + 2) + (msg - 1) = msg + D + 1``.  (The paper writes
  ``msg + D``; the simulator's cycle bookkeeping fixes the constant at
  ``+1``, see ``tests/test_calibration.py``.)
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Sequence

import numpy as np

from repro.core.channel_graph import ChannelGraph
from repro.core.flows import FlowAccumulator, TrafficSpec
from repro.core.service import ServiceTimeResult, discounted

__all__ = ["path_waiting_time", "path_latency", "average_unicast_latency"]

#: zero-load latency constant: L0 = msg + D + LATENCY_CONSTANT
LATENCY_CONSTANT = 1.0


def path_waiting_time(result: ServiceTimeResult, channel_seq: Sequence[int]) -> float:
    """Total mean waiting (the paper's ``sum_l w_l``) along a channel
    sequence ``[injection, networks..., ejection]``."""
    if len(channel_seq) < 2:
        raise ValueError("a path needs at least injection + ejection channels")
    total = float(result.waiting[channel_seq[0]])
    for prev, ch in zip(channel_seq, channel_seq[1:]):
        total += result.discounted_waiting(prev, ch)
        if math.isinf(total):
            return math.inf
    return total


def path_latency(result: ServiceTimeResult, channel_seq: Sequence[int]) -> float:
    """Mean latency of a worm over ``channel_seq`` (Eq. 7, calibrated)."""
    hops = len(channel_seq) - 2  # network channels only
    waiting = path_waiting_time(result, channel_seq)
    return waiting + result.message_length + hops + LATENCY_CONSTANT


class PathTable:
    """Channel paths compiled for gathering :func:`path_waiting_time` over
    all of them at once.  Per path: its first channel and hop count; per
    path hop: its path and its edge, one of the distinct ``(prev, ch)``
    hops, each with its channel and rate-free Eq. 6 discount."""

    def __init__(self, flows: FlowAccumulator, paths: Sequence[Sequence[int]]):
        n = flows.graph.num_channels
        lengths = np.fromiter(map(len, paths), dtype=np.intp, count=len(paths))
        if np.any(lengths < 2):
            raise ValueError("a path needs at least injection + ejection channels")
        self.count = len(paths)
        self.first = np.fromiter((p[0] for p in paths), dtype=np.intp, count=len(paths))
        self.hops = lengths - 2  # network channels only
        self.path = np.repeat(np.arange(len(paths)), lengths - 1)
        prev = np.fromiter(chain.from_iterable(p[:-1] for p in paths), dtype=np.intp)
        nxt = np.fromiter(chain.from_iterable(p[1:] for p in paths), dtype=np.intp)
        keys, self.edge = np.unique(prev * n + nxt, return_inverse=True)
        self.edge_channel = keys % n
        self.edge_disc = np.array([1.0 - flows.feed_fraction(k // n, k % n) for k in keys.tolist()])

    def waiting(self, waiting: np.ndarray) -> np.ndarray:
        """Per-path total waiting: the full W of the first channel plus the
        discounted W of each later one."""
        hop = discounted(self.edge_disc, waiting[self.edge_channel])[self.edge]
        return waiting[self.first] + np.bincount(self.path, hop, minlength=self.count)


class WeightedPaths:
    """A fixed weighting of a :class:`PathTable`'s paths, folded once into
    coefficients on first channels and edges, so the weighted mean
    waiting costs two dot products per evaluation instead of a gather over
    every hop (and keeps none of the per-hop arrays).  Paths of weight 0
    take no part, nor do their infinities."""

    def __init__(self, table: PathTable, weights: np.ndarray):
        used = np.where(weights > 0.0, weights, 0.0)
        first = np.bincount(table.first, used)
        edge = np.bincount(table.edge, used[table.path], minlength=len(table.edge_disc))
        self.first = np.flatnonzero(first)
        self.first_weight = first[self.first]
        kept = np.flatnonzero(edge)
        self.edge_weight = edge[kept]
        self.edge_channel = table.edge_channel[kept]
        self.edge_disc = table.edge_disc[kept]
        self.total = float(used.sum())
        self.mean_hops = float(np.dot(used, table.hops)) / self.total

    def mean_waiting(self, waiting: np.ndarray) -> float:
        edge_w = discounted(self.edge_disc, waiting[self.edge_channel])
        total = np.dot(self.first_weight, waiting[self.first]) + np.dot(self.edge_weight, edge_w)
        return float(total) / self.total


def _unicast_means(flows: FlowAccumulator) -> tuple[WeightedPaths, WeightedPaths]:
    """Uniform and destination-probability weightings of the unicast pairs."""
    table = PathTable(flows, flows.unicast_paths)
    probabilities = np.asarray(flows.unicast_probabilities, dtype=float)
    return WeightedPaths(table, np.ones(table.count)), WeightedPaths(table, probabilities)


def average_unicast_latency(
    graph: ChannelGraph,
    result: ServiceTimeResult,
    spec: "TrafficSpec | None" = None,
) -> float:
    """Network-average unicast latency over all ordered (source, dest)
    pairs.  With no ``spec`` (or a uniform one) every pair weighs equally
    (the paper's averaging); under a weighted destination distribution
    each pair weighs by its generation probability, matching what the
    simulator's sample mean estimates.

    The pairs' paths are those :func:`~repro.core.flows.build_flows`
    walked for ``result.flows`` (``spec`` must be the spec, up to its
    rate, those flows were built from)."""
    uniform, weighted = result.flows.compiled("unicast", _unicast_means)
    mean = weighted if spec is not None and spec.unicast_weights is not None else uniform
    waiting = mean.mean_waiting(result.waiting)
    if not math.isfinite(waiting):
        return math.inf
    return waiting + result.message_length + mean.mean_hops + LATENCY_CONSTANT
