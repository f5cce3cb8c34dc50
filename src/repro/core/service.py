"""Mean channel service times: the fixed point of paper Eq. 6.

The mean service time of a channel is the mean time a worm occupies it:
the downstream channel's own service plus one cycle of forwarding plus the
(self-traffic discounted) waiting it may incur for that downstream channel::

    x_i = sum_j P(i->j) * [ (1 - lambda_i P(i->j) / lambda_j) * W_j + x_j + 1 ]

with ejection channels anchoring the recursion at ``x = msg`` (a sink
absorbs one flit per cycle, so an ejection channel is occupied for exactly
the message length).  ``W_j`` is the M/G/1 waiting time (Eq. 3) under the
paper's variance convention (Eq. 5), which couples back to ``x_j``.

Solving it
----------
``x_i`` depends only on the channels a worm can move to next, so the
equations follow the forward channel graph, which is nearly a forest: its
only cycles are rings (the Quarc and Spidergon rims, torus rows and
columns), each one strongly connected component (SCC).  The solver finds
the SCCs once per set of flows (an iterative Tarjan pass) and condenses
the graph into levels, downstream first:

* the acyclic channels of a level are one vectorised back-substitution
  from the levels below;
* each cyclic SCC is solved on its own by Newton's method, starting from
  ``x = msg``.  The map is monotone and convex in ``x`` and ``msg`` lies
  below its solutions, so Newton rises monotonically to the *minimal*
  fixed point -- the one the queues settle in.  A ring (every member has
  one successor inside the SCC) solves each Newton system in O(size)
  around the ring; any other SCC takes a dense ``numpy.linalg.solve``.

Saturation: when any channel's utilisation ``rho = lambda * x`` reaches 1
its waiting time diverges.  Because the Newton iterates are lower bounds,
a block is saturated as soon as an iterate has ``rho >= 1`` or a
non-finite value, a Newton step goes negative or meets a singular matrix
(the block's derivative dF/dx has spectral radius >= 1: no stable fixed
point), or ``max_iterations`` steps run out.  A solve is therefore
either converged, with :attr:`ServiceTimeResult.residual` within
tolerance, or saturated -- never neither.  :class:`SaturatedError`
serves the strict entry points.

Two recursions
--------------
``recursion="paper"`` implements Eq. 6 verbatim.  ``recursion="occupancy"``
drops the ``+ 1`` chain::

    x_i = msg + sum_j P(i->j) * [ (1 - ...) W_j + (x_j - msg) ]

which equals the *exact* mean channel occupancy of a wormhole worm under
the rigid-train mechanics (channel held for the message length plus all
discounted downstream stalls) whenever messages are longer than the
remaining path -- the regime the paper assumes.  Eq. 6's extra ``+1`` per
downstream hop additionally charges each channel for the header's
downstream propagation delay, inflating utilisation for paths that are
long relative to the message.  Both are provided; the A-expmax/A-service
ablation benches quantify the difference against the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.channel_graph import ChannelGraph
from repro.core.flows import FlowAccumulator

__all__ = ["SaturatedError", "ServiceTimeResult", "solve_service_times"]

#: utilisations this close (relative) to the maximum tie for the bottleneck
_TIE_RTOL = 1e-9


class SaturatedError(RuntimeError):
    """Raised when the offered load saturates at least one channel."""

    def __init__(self, message: str, *, channel: str | None = None, rho: float | None = None):
        super().__init__(message)
        self.channel = channel
        self.rho = rho


@dataclass
class ServiceTimeResult:
    """Solved (or saturated) state of the Eq. 6 fixed point."""

    graph: ChannelGraph
    flows: FlowAccumulator
    message_length: int
    mean_service: np.ndarray  #: x_i per channel (cycles); inf where unsolved
    waiting: np.ndarray  #: W_i per channel (cycles); inf where saturated
    utilization: np.ndarray  #: rho_i per channel
    iterations: int  #: Newton steps over all cyclic blocks
    converged: bool
    saturated: bool
    residual: float  #: max |F(x) - x| at the returned x; inf when saturated

    @property
    def max_utilization(self) -> float:
        return float(np.max(self.utilization)) if len(self.utilization) else 0.0

    def bottleneck(self) -> tuple[str, float]:
        """The most utilised channel and its rho.  Channels within the
        solver's relative tolerance of the maximum are tied (symmetric
        traffic loads whole rings equally); the lowest index wins."""
        rho = self.utilization
        idx = int(np.argmax(rho >= np.max(rho) * (1.0 - _TIE_RTOL)))
        return self.graph.describe(idx), float(rho[idx])

    def discounted_waiting(self, prev: int, idx: int) -> float:
        """Waiting a worm coming from channel ``prev`` incurs at ``idx``:
        ``(1 - feed_fraction) * W_idx`` (the Eq. 6 discount)."""
        w = self.waiting[idx]
        disc = 1.0 - self.flows.feed_fraction(prev, idx)
        if w == 0.0 or disc == 0.0:
            return 0.0
        return disc * float(w)


def discounted(disc: np.ndarray, waiting: np.ndarray) -> np.ndarray:
    """Element-wise ``disc * W``, where a fully discounted entry (``disc``
    0) adds no waiting even where ``W = inf`` -- the vector form of
    :meth:`ServiceTimeResult.discounted_waiting`."""
    with np.errstate(invalid="ignore"):
        return np.where(disc == 0.0, 0.0, disc * waiting)


def _pk_waiting(lam: np.ndarray, x: np.ndarray, msg: float) -> np.ndarray:
    """Vectorised Pollaczek-Khinchine (Eq. 3) with sigma = x - msg (Eq. 5)."""
    sigma = np.maximum(x - msg, 0.0)
    second_moment = x * x + sigma * sigma
    rho = lam * x
    w = np.zeros_like(x)
    busy = lam > 0.0
    unsat = busy & (rho < 1.0) & np.isfinite(x)
    w[unsat] = lam[unsat] * second_moment[unsat] / (2.0 * (1.0 - rho[unsat]))
    w[busy & ~unsat] = np.inf
    return w


def _pk_stable(lam: np.ndarray, x: np.ndarray, msg: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_pk_waiting` and its slope ``dW/dx`` where every ``rho < 1``."""
    sigma = np.maximum(x - msg, 0.0)
    second_moment = x * x + sigma * sigma
    gap = 1.0 - lam * x
    w = lam * second_moment / (2.0 * gap)
    slope = (lam * (x + sigma) + w * lam) / gap
    return w, slope


class _Edges:
    """Forward edges leaving one step's channels: local source position,
    destination channel (or block position), ``P`` and discount."""

    def __init__(self, src, dst, p, disc):
        self.src, self.dst, self.p, self.disc = src, dst, p, disc

    def terms(self, x_dst, w_dst, base: float, hop: float) -> np.ndarray:
        """Per-edge ``P * ((1 - feed) W_j + x_j - base + hop)``."""
        return self.p * (discounted(self.disc, w_dst) + (x_dst - base) + hop)


class _Step:
    """One unit of the downstream-first schedule: the acyclic channels of
    a level (``internal is None``) or one cyclic SCC."""

    def __init__(self, channels: np.ndarray, external: _Edges, internal: _Edges | None):
        self.channels = channels
        self.external = external
        self.internal = internal
        self.ring = _ring_order(internal, len(channels)) if internal is not None else None


def _ring_order(internal: _Edges, k: int) -> tuple[np.ndarray, np.ndarray] | None:
    """For an SCC whose members have one successor each -- a ring -- its
    block positions in successor order and the edge leaving each; None
    for any other SCC."""
    if len(internal.src) != k or np.any(np.bincount(internal.src, minlength=k) != 1):
        return None
    succ = np.empty(k, dtype=np.intp)
    succ[internal.src] = internal.dst
    edge = np.empty(k, dtype=np.intp)
    edge[internal.src] = np.arange(k)
    order = [0]
    while len(order) < k:
        order.append(int(succ[order[-1]]))
    return np.asarray(order, dtype=np.intp), edge[order]


class _Plan:
    """The rate-free structure of the Eq. 6 system for one set of flows."""

    def __init__(self, flows: FlowAccumulator):
        n = flows.graph.num_channels
        src: list[int] = []
        dst: list[int] = []
        p: list[float] = []
        disc: list[float] = []
        for i in range(n):
            for j, pij in flows.forward_probabilities(i).items():
                src.append(i)
                dst.append(j)
                p.append(pij)
                disc.append(1.0 - flows.feed_fraction(i, j))
        self.edges = _Edges(
            np.asarray(src, dtype=np.intp),
            np.asarray(dst, dtype=np.intp),
            np.asarray(p, dtype=float),
            np.asarray(disc, dtype=float),
        )
        # channels without forward transitions anchor at x = msg:
        # ejection channels structurally (sink absorbs 1 flit/cycle),
        # unused channels trivially (no flow consumes their value)
        self.anchored = np.bincount(self.edges.src, minlength=n) == 0
        self.steps = self._schedule(n)

    def residual(self, x: np.ndarray, w: np.ndarray, msg: float, base: float, hop: float) -> float:
        """``max |F(x) - x|`` over every channel."""
        e = self.edges
        f = base + np.bincount(e.src, e.terms(x[e.dst], w[e.dst], base, hop), minlength=len(x))
        f[self.anchored] = msg
        return float(np.max(np.abs(f - x))) if len(x) else 0.0

    def _schedule(self, n: int) -> list[_Step]:
        """Condense the forward graph into SCCs and order them by level
        (longest path down to an anchor), downstream first."""
        ptr = np.searchsorted(self.edges.src, np.arange(n + 1)).tolist()
        succ = self.edges.dst.tolist()
        comp_of = [0] * n
        level: list[int] = []
        acyclic: dict[int, list[int]] = {}
        cycles: list[tuple[int, list[int]]] = []
        for c, members in enumerate(_strongly_connected(n, ptr, succ)):
            for i in members:
                comp_of[i] = c
            below = [
                level[comp_of[j]]
                for i in members
                for j in succ[ptr[i] : ptr[i + 1]]
                if comp_of[j] != c
            ]
            level.append(1 + max(below) if below else 0)
            head = members[0]
            if len(members) > 1 or head in succ[ptr[head] : ptr[head + 1]]:
                cycles.append((level[c], members))
            elif not self.anchored[head]:
                acyclic.setdefault(level[c], []).append(head)
        units = [(lvl, False, chans) for lvl, chans in acyclic.items()]
        units += [(lvl, True, members) for lvl, members in cycles]
        units.sort(key=lambda u: (u[0], u[1]))
        return [self._step(np.sort(np.asarray(ch, dtype=np.intp)), cyc) for _, cyc, ch in units]

    def _step(self, channels: np.ndarray, cyclic: bool) -> _Step:
        e = self.edges
        pos = np.zeros(len(self.anchored), dtype=np.intp)
        pos[channels] = np.arange(len(channels))
        mine = np.flatnonzero(np.isin(e.src, channels))
        inside = np.isin(e.dst[mine], channels) if cyclic else np.zeros(len(mine), bool)

        def edges(sel: np.ndarray, dst: np.ndarray) -> _Edges:
            return _Edges(pos[e.src[sel]], dst, e.p[sel], e.disc[sel])

        ext, internal = mine[~inside], mine[inside]
        return _Step(
            channels,
            edges(ext, e.dst[ext]),
            edges(internal, pos[e.dst[internal]]) if cyclic else None,
        )


def _strongly_connected(n: int, ptr: list[int], succ: list[int]) -> list[list[int]]:
    """Tarjan's SCCs of the graph ``i -> succ[ptr[i]:ptr[i+1]]``, without
    recursion.  Components come out in reverse topological order: each
    after every component it reaches."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, ptr[root])]
        while work:
            v, at = work[-1]
            if at < ptr[v + 1]:
                work[-1] = (v, at + 1)
                w = succ[at]
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, ptr[w]))
                elif on_stack[w]:
                    low[v] = min(low[v], index[w])
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
    return comps


def _ring_solve(a: list[float], r: list[float]) -> list[float] | None:
    """Solve ``d[t] - a[t] * d[t + 1 mod k] = r[t]`` around a ring in O(k):
    the ``(I - J) d = r`` of a ring block, whose derivative ``J = dF/dx``
    has one entry per row.  None when the loop gain ``prod(a)`` reaches 1, where
    ``I - J`` is singular or its inverse no longer non-negative."""
    gain, acc = 1.0, 0.0
    for at, rt in zip(a, r):
        acc += gain * rt
        gain *= at
    if not gain < 1.0:
        return None
    d = [0.0] * len(a)
    nxt = acc / (1.0 - gain)  # d[0]
    for t in range(len(a) - 1, -1, -1):
        nxt = r[t] + a[t] * nxt
        d[t] = nxt
    return d


def _newton_block(
    step: _Step,
    lam: np.ndarray,
    fixed: np.ndarray,
    msg: float,
    base: float,
    hop: float,
    tol_abs: float,
    max_iterations: int,
) -> tuple[np.ndarray | None, int]:
    """Newton on one cyclic SCC from ``x = msg``, its downstream part
    (``fixed``) already summed.  Returns ``(x, steps)``; ``x`` is None when
    the block is saturated."""
    edges = step.internal
    k = len(step.channels)
    x = np.full(k, msg, dtype=float)
    for steps in range(max_iterations + 1):
        if not np.all(lam * x < 1.0):  # also catches non-finite x
            return None, steps
        w, slope = _pk_stable(lam, x, msg)
        terms = edges.terms(x[edges.dst], w[edges.dst], base, hop)
        r = fixed + np.bincount(edges.src, terms, minlength=k) - x
        if np.max(np.abs(r)) <= tol_abs:
            return x, steps
        if steps == max_iterations:
            break
        dfdx = edges.p * (edges.disc * slope[edges.dst] + 1.0)
        if step.ring is not None:
            order, edge = step.ring
            around = _ring_solve(dfdx[edge].tolist(), r[order].tolist())
            if around is None:
                return None, steps + 1
            delta = np.empty(k)
            delta[order] = around
        else:
            a = np.eye(k)
            a[edges.src, edges.dst] -= dfdx
            try:
                delta = np.linalg.solve(a, r)
            except np.linalg.LinAlgError:
                return None, steps + 1
        # from below the minimal fixed point every step is >= 0 unless the
        # block's dF/dx has spectral radius >= 1 (no stable solution)
        if not np.all(np.isfinite(delta)) or np.min(delta) < -tol_abs:
            return None, steps + 1
        x = x + delta
    return None, max_iterations


def solve_service_times(
    graph: ChannelGraph,
    flows: FlowAccumulator,
    message_length: int,
    *,
    recursion: str = "paper",
    tol: float = 1e-9,
    max_iterations: int = 100,
) -> ServiceTimeResult:
    """Solve the Eq. 6 fixed point for all channels.

    Parameters
    ----------
    recursion:
        ``"paper"`` (Eq. 6 verbatim) or ``"occupancy"`` (exact wormhole
        channel occupancy; see module docstring).
    tol:
        A cyclic block is solved when ``max |F(x) - x| <= tol * max(1, msg)``.
    max_iterations:
        Newton steps allowed per cyclic block before the solve counts as
        saturated.
    """
    if recursion not in ("paper", "occupancy"):
        raise ValueError(f"recursion must be 'paper' or 'occupancy', got {recursion!r}")
    n = graph.num_channels
    msg = float(message_length)
    lam = flows.arrival_rate
    hop = 1.0 if recursion == "paper" else 0.0
    base = 0.0 if recursion == "paper" else msg
    tol_abs = tol * max(1.0, msg)
    x = np.full(n, msg, dtype=float)
    iterations = 0
    saturated = False
    # flows scaled to zero load keep their structure but carry nothing;
    # every channel then anchors at msg, as with no flows at all
    plan = flows.compiled("service", _Plan) if lam.any() else None
    steps = plan.steps if plan is not None else []
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for at, step in enumerate(steps):
            ext = step.external
            x_dst = x[ext.dst]
            w_dst = _pk_waiting(lam[ext.dst], x_dst, msg)
            xs: np.ndarray | None = base + np.bincount(
                ext.src, ext.terms(x_dst, w_dst, base, hop), minlength=len(step.channels)
            )
            if step.internal is not None:
                xs, taken = _newton_block(
                    step, lam[step.channels], xs, msg, base, hop, tol_abs, max_iterations
                )
                iterations += taken
            if xs is not None:
                x[step.channels] = xs
            if xs is None or not np.all(lam[step.channels] * xs < 1.0):
                # a saturated block, or rho >= 1 / non-finite x in a level:
                # this and every later step stays unsolved
                saturated = True
                for rest in steps[at if xs is None else at + 1 :]:
                    x[rest.channels] = np.inf
                break

        w = _pk_waiting(lam, x, msg)
        rho = np.where(np.isfinite(x), lam * x, np.inf)
        rho = np.where(lam == 0.0, 0.0, rho)
        saturated = saturated or bool(np.any(rho >= 1.0)) or bool(np.any(~np.isfinite(x)))
        if saturated:
            residual = np.inf
        else:
            residual = plan.residual(x, w, msg, base, hop) if plan is not None else 0.0
    return ServiceTimeResult(
        graph=graph,
        flows=flows,
        message_length=message_length,
        mean_service=x,
        waiting=w,
        utilization=rho,
        iterations=iterations,
        converged=not saturated,
        saturated=saturated,
        residual=residual,
    )
