"""The wormhole NoC simulator: Poisson traffic over the worm engine.

Reproduces the paper's OMNET++ validation simulator (Section 4):

* every node has a Poisson **source** for unicast and (independently)
  multicast messages,
* the **passive queue** holds generated messages in creation-time order;
  with an all-port router each injection channel has its own FIFO, so a
  message never blocks behind one headed for a different port (the Quarc's
  architectural point); a one-port router collapses all of a node's worms
  onto a single injection FIFO,
* the **router** is non-preemptive; messages that find a channel busy are
  recorded and served FIFO when it frees,
* the **sink** absorbs one flit per cycle per ejection channel; multicast
  targets absorb-and-forward (clone) flits without stalling the worm,
* **unicast latency** is creation -> last flit absorbed at the destination;
  **multicast latency** is creation -> last flit absorbed at the last
  destination over all of the message's port worms.

Timing is flit-exact via the rigid-train theorem (:mod:`repro.sim.worm`);
the channel mechanics live in :mod:`repro.sim.wormengine` and are
cross-checked cycle-exactly against a brute-force per-flit simulator
(:mod:`repro.sim.reference`) by the test suite.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Optional

import numpy as np

from repro.core.channel_graph import ChannelGraph
from repro.core.flows import TrafficSpec
from repro.faults import FaultSpec, QoSSpec
from repro.monitors import Monitor, build_monitors
from repro.routing.base import RoutingAlgorithm
from repro.sim.arrivals import MULTICAST
from repro.sim.measurement import LatencyStats
from repro.sim.trace import ChannelUtilizationTracer, CompositeTracer
from repro.sim.worm import Worm, WormClass
from repro.sim.wormengine import KERNELS
from repro.topology.base import Topology
from repro.traffic.sources import DEFAULT_SOURCE, SourceSpec

__all__ = ["KERNELS", "SimConfig", "SimResult", "NocSimulator",
           "MulticastTransaction"]


@dataclass
class SimConfig:
    """Run-control knobs for one simulation."""

    seed: int = 1
    #: cycles before statistics collection starts (messages created earlier
    #: are simulated but not measured)
    warmup_cycles: float = 5_000.0
    #: measured unicast latency samples to collect (0 disables the target)
    target_unicast_samples: int = 2_000
    #: measured multicast latency samples to collect
    target_multicast_samples: int = 400
    #: hard simulation horizon (cycles)
    max_cycles: float = 2_000_000.0
    #: worms in flight beyond which the run is declared saturated;
    #: None -> max(500, 20 * N)
    max_in_flight: Optional[int] = None
    #: events between bookkeeping checks
    check_interval: int = 4096
    #: arrival pre-generation: "legacy" replays the scalar draw order
    #: bit-exactly (the golden-seed contract); "vectorized" draws
    #: per-source numpy blocks -- same process, different sample path
    #: for a fixed seed (see :mod:`repro.sim.arrivals`)
    arrival_mode: str = "legacy"

    def resolved_max_in_flight(self, num_nodes: int) -> int:
        if self.max_in_flight is not None:
            return self.max_in_flight
        return max(500, 20 * num_nodes)


@dataclass
class SimResult:
    """Outcome of one simulation run."""

    spec: TrafficSpec
    config: SimConfig
    unicast: LatencyStats
    multicast: LatencyStats
    sim_time: float
    events: int
    generated_messages: int
    completed_messages: int
    deadlock_recoveries: int
    recovered_samples: int
    saturated: bool
    target_met: bool
    #: per-channel utilisation instrument (present when the run was made
    #: with ``measure_utilization=True``)
    utilization: Optional[ChannelUtilizationTracer] = None
    #: resolved kernel that executed this run (provenance; ``"auto"``
    #: never appears here)
    kernel: str = ""
    #: label of the traffic source that drove this run (provenance,
    #: mirroring the ``kernel`` stamp; ``"poisson"`` for the default)
    source: str = "poisson"
    #: nominal per-node injection rate actually *offered* to the network:
    #: the unicast rate plus the multicast rate scaled by the fraction of
    #: nodes holding a non-empty destination set (the others' multicast
    #: share is simply not generated)
    nominal_load: float = math.nan
    #: measured injection rate (generated messages per node per cycle) --
    #: compare against :attr:`nominal_load` to catch silent rate drift in
    #: bursty or trace-driven sources
    offered_load: float = math.nan
    #: messages lost to injected faults, at message granularity: spawn
    #: drops (dead/unreachable endpoints, severed multicast templates)
    #: plus in-flight teardowns (0 for a fault-free run)
    fault_drops: int = 0
    #: evaluation-monitor outputs keyed by monitor registry name (None
    #: when the run requested no monitors); values are JSON-safe dicts
    monitors: Optional[dict] = None

    @property
    def unicast_latency(self) -> float:
        return self.unicast.mean

    @property
    def multicast_latency(self) -> float:
        return self.multicast.mean

    def accepted_rate_per_node(self, num_nodes: int) -> float:
        """Completed messages per node per cycle over the whole run."""
        if self.sim_time <= 0.0:
            return 0.0
        return self.completed_messages / (self.sim_time * num_nodes)


class MulticastTransaction:
    """Aggregates the port worms of one multicast message."""

    __slots__ = ("creation_time", "pending", "latest_absorption", "recovered", "measured")

    def __init__(self, creation_time: float, pending: int, measured: bool):
        if pending < 1:
            raise ValueError("a multicast needs at least one worm")
        self.creation_time = creation_time
        self.pending = pending
        self.latest_absorption = -math.inf
        self.recovered = False
        self.measured = measured

    def note_absorption(self, t: float) -> None:
        if t > self.latest_absorption:
            self.latest_absorption = t

    def worm_finished(self) -> bool:
        """Mark one worm done; True when the whole multicast completed."""
        self.pending -= 1
        if self.pending < 0:
            raise RuntimeError("multicast transaction over-completed")
        return self.pending == 0

    @property
    def latency(self) -> float:
        return self.latest_absorption - self.creation_time


class _StatsTracer:
    """Feeds engine completions into the latency statistics.

    Defines only the hooks it needs: the engine skips undeclared hooks
    entirely, so per-hop acquisitions and releases cost nothing here.
    """

    def __init__(self, sim: "_RunState"):
        self.sim = sim

    def on_clone_absorbed(self, worm: Worm, position: int, t: float) -> None:
        txn = worm.transaction
        if txn is not None:
            txn.note_absorption(t)  # type: ignore[attr-defined]

    def on_complete(self, worm: Worm, t_done: float, recovered: bool) -> None:
        s = self.sim
        measured = worm.creation_time >= s.warmup
        if recovered and measured:
            s.recovered_samples += 1
        if worm.klass is WormClass.UNICAST:
            s.completed += 1
            if measured:
                s.unicast.add(t_done - worm.creation_time)
        else:
            txn: MulticastTransaction = worm.transaction  # type: ignore[assignment]
            if recovered:
                txn.recovered = True
            txn.note_absorption(t_done)
            if txn.worm_finished():
                s.completed += 1
                if txn.measured:
                    s.multicast.add(txn.latency)


class _RunState:
    __slots__ = (
        "warmup",
        "unicast",
        "multicast",
        "completed",
        "generated",
        "recovered_samples",
    )

    def __init__(self, warmup: float):
        self.warmup = warmup
        self.unicast = LatencyStats()
        self.multicast = LatencyStats()
        self.completed = 0
        self.generated = 0
        self.recovered_samples = 0


class _FaultContext:
    """Per-run fault/QoS/monitor state.

    Deliberately *not* cached on the simulator: ``_cached_simulator``
    reuses :class:`NocSimulator` instances across tasks, so everything
    mutable about one faulted run — dead-channel sets, the in-flight
    registry, monitor accumulators — must live and die with ``run()``.

    Kill semantics keep the engine hot path untouched: a dead channel
    is never *requested* after the kill.  At kill time every in-flight
    worm whose path crosses a dead channel is torn down (its multicast
    siblings with it, so loss stays message-granular), and from then on
    new unicasts reroute over the surviving links (deterministic BFS,
    cached per fault epoch) or drop at spawn, while multicasts whose
    path-based template crosses the cut always drop at spawn — BRCP has
    no alternative path, which is exactly the degradation the PDR
    monitor is there to show.  A heal clears the dead sets and the
    route cache; routing returns to the baseline.
    """

    def __init__(self, sim, faults, qos, monitor_names, seed):
        self.sim = sim
        self.faults: Optional[FaultSpec] = faults
        self.qos: Optional[QoSSpec] = qos
        self.monitors: list[Monitor] = build_monitors(monitor_names)
        self.engine = None
        self._base_pop = None
        # live-message bookkeeping (uid -> worm / class name / priority)
        self.inflight: dict[int, Worm] = {}
        self.cls: dict[int, str] = {}
        self.prio: dict[int, int] = {}
        # id() of transactions already counted as message drops -- a
        # membership-only identity set (never iterated), so it cannot
        # introduce address-order nondeterminism
        self.dropped_txns: set[int] = set()
        self.dropped_messages = 0
        self.spawn_drops = 0
        # fault state: active kills and their derived channel sets
        self.dead_link_pairs: set[tuple[int, int]] = set()
        self.dead_nodes: set[int] = set()
        self.dead_links: frozenset[tuple[int, int]] = frozenset()
        self.dead_channels: frozenset[int] = frozenset()
        self._route_cache: dict[tuple[int, int], tuple] = {}
        # the QoS class draw gets its own stream, derived from the run
        # seed but distinct from the arrival rng: adding QoS must never
        # perturb the traffic pattern itself
        self._qos_rng = (
            np.random.default_rng([0x716F73, seed]) if qos is not None else None
        )
        self._link_channels: dict[tuple[int, int], tuple[int, ...]] = {}
        self._node_pairs: dict[int, frozenset[tuple[int, int]]] = {}
        self._node_local: dict[int, frozenset[int]] = {}
        if faults is not None:
            self._build_tables()

    # -- construction -------------------------------------------------- #
    def _build_tables(self) -> None:
        sim = self.sim
        graph = sim.graph
        topo = sim.topology
        link_channels: dict[tuple[int, int], list[int]] = {}
        for link in topo.links():
            base = graph.network(link)
            chans = [base]
            for lane in range(1, sim.lanes):
                ch = sim._lane_index.get((base, lane))
                if ch is not None:
                    chans.append(ch)
            link_channels.setdefault((link.src, link.dst), []).extend(chans)
        self._link_channels = {k: tuple(v) for k, v in link_channels.items()}
        n = topo.num_nodes
        for ev in self.faults.events:
            if ev.kind == "link":
                if (ev.src, ev.dst) not in self._link_channels:
                    raise ValueError(
                        f"fault names link ({ev.src}, {ev.dst}) but "
                        f"{topo.name} has no such link"
                    )
            else:
                node = ev.node
                if not 0 <= node < n:
                    raise ValueError(
                        f"fault names node {node} but {topo.name} has "
                        f"{n} nodes"
                    )
                if node in self._node_pairs:
                    continue
                pairs = {
                    (l.src, l.dst)
                    for l in (*topo.in_links(node), *topo.out_links(node))
                }
                self._node_pairs[node] = frozenset(pairs)
                local = {
                    graph.injection(node, port)
                    for port in topo.injection_ports()
                }
                local.update(
                    graph.ejection(node, tag) for tag in topo.input_tags(node)
                )
                self._node_local[node] = frozenset(local)

    def bind(self, engine) -> None:
        """Attach to the freshly built engine: schedule the fault events,
        swap in priority arbitration, bounce any compiled fast path."""
        self.engine = engine
        if self.faults is not None:
            engine.disable_native("fault injection active")
            for ev in self.faults.events:
                engine.events.schedule(ev.time, self._make_callback(ev))
        if self.qos is not None:
            engine.disable_native("QoS priority arbitration active")
            self._base_pop = engine.state.fifo_pop
            engine._fifo_pop = self._priority_pop

    # -- QoS ------------------------------------------------------------ #
    def _priority_pop(self, ch: int):
        """Grant the highest-priority waiter (FIFO within a priority
        level).  Swapped into ``engine._fifo_pop``; delegates to the
        plain head pop whenever the head already wins, so the channel
        state's cursor/compaction invariants stay intact."""
        state = self.engine.state
        q = state.fifos[ch]
        h = state.fifo_heads[ch]
        n = len(q)
        if n - h > 1:
            prio = self.prio
            best = h
            bp = prio.get(q[h].uid, 0)
            for i in range(h + 1, n):
                p = prio.get(q[i].uid, 0)
                if p > bp:
                    best = i
                    bp = p
            if best != h:
                # best > h: removing it leaves the head cursor aligned
                w = q[best]
                del q[best]
                return w
        return self._base_pop(ch)

    def assign_class(self) -> tuple[int, str]:
        if self.qos is None:
            return 0, ""
        u = self._qos_rng.random()
        acc = 0.0
        classes = self.qos.classes
        for c in classes:
            acc += c.share
            if u < acc:
                return c.priority, c.name
        c = classes[-1]  # guard against cumulative rounding
        return c.priority, c.name

    # -- fault transitions ---------------------------------------------- #
    def _make_callback(self, ev):
        def fire() -> None:
            t = self.engine.events.now
            if ev.kind == "link":
                pair = (ev.src, ev.dst)
                if ev.action == "kill":
                    self.dead_link_pairs.add(pair)
                else:
                    self.dead_link_pairs.discard(pair)
            elif ev.action == "kill":
                self.dead_nodes.add(ev.node)
            else:
                self.dead_nodes.discard(ev.node)
            self._recompute()
            for m in self.monitors:
                m.on_fault(t, ev)
            if ev.action == "kill":
                self._drop_dead_inflight(t)

        return fire

    def _recompute(self) -> None:
        pairs = set(self.dead_link_pairs)
        for node in self.dead_nodes:
            pairs |= self._node_pairs[node]
        self.dead_links = frozenset(pairs)
        chans: set[int] = set()
        for pair in pairs:
            chans.update(self._link_channels[pair])
        for node in self.dead_nodes:
            chans.update(self._node_local[node])
        self.dead_channels = frozenset(chans)
        self._route_cache.clear()

    def _drop_dead_inflight(self, t: float) -> None:
        dead = self.dead_channels
        if not dead:
            return
        victims = []
        dead_txns = set()
        for uid in sorted(self.inflight):
            worm = self.inflight[uid]
            # a worm's full path is checked, not just the channels still
            # ahead: a rigid train spans most of its path at once, and a
            # message whose route crosses the cut is lost in any
            # physical reading
            if not worm.done and not dead.isdisjoint(worm.path):
                victims.append(worm)
                if worm.transaction is not None:
                    dead_txns.add(id(worm.transaction))
        if dead_txns:
            # losing one port worm loses the whole multicast message:
            # pull the surviving siblings down with it
            vset = {w.uid for w in victims}
            for uid in sorted(self.inflight):
                worm = self.inflight[uid]
                if (
                    uid not in vset
                    and not worm.done
                    and worm.transaction is not None
                    and id(worm.transaction) in dead_txns
                ):
                    victims.append(worm)
            victims.sort(key=lambda w: w.uid)
        for worm in victims:
            # a victim may have legitimately completed mid-sweep (an
            # earlier teardown released the channel it was waiting for)
            if worm.done:
                continue
            self.engine.drop_worm(worm, t)
            txn = worm.transaction
            if txn is None:
                self._note_flight_drop(t, worm.uid)
            elif id(txn) not in self.dropped_txns:
                self.dropped_txns.add(id(txn))
                self._note_flight_drop(t, worm.uid)
            self.forget(worm.uid)

    def _note_flight_drop(self, t: float, uid: int) -> None:
        self.dropped_messages += 1
        cname = self.cls.get(uid, "")
        for m in self.monitors:
            m.on_drop(t, uid=uid, cls=cname)

    # -- spawn-time routing --------------------------------------------- #
    def unicast_channels(self, node: int, dest: int):
        """(engine channel sequence, rerouted) — or (None, False) when
        the message cannot be delivered and must drop at spawn."""
        base = self.sim._unicast_channels(node, dest)
        if not self.dead_channels and not self.dead_nodes:
            return base, False
        if node in self.dead_nodes or dest in self.dead_nodes:
            return None, False
        key = (node, dest)
        hit = self._route_cache.get(key)
        if hit is not None:
            return hit
        dead = self.dead_channels
        if dead.isdisjoint(base):
            out = (base, False)
        elif self.faults is not None and self.faults.reroute:
            route = self.sim.routing.reroute_unicast(node, dest, self.dead_links)
            if route is None:
                out = (None, False)
            else:
                seq = self.sim._route_engine_channels(route)
                out = (None, False) if not dead.isdisjoint(seq) else (seq, True)
        else:
            out = (None, False)
        self._route_cache[key] = out
        return out

    def multicast_blocked(self, node: int, worms) -> bool:
        if node in self.dead_nodes:
            return True
        dead = self.dead_channels
        if not dead:
            return False
        for seq, _clones in worms:
            if not dead.isdisjoint(seq):
                return True
        return False

    # -- message lifecycle ---------------------------------------------- #
    def note_unicast_spawn(self, worm, t, hops, baseline_hops, rerouted) -> None:
        prio, cname = self.assign_class()
        uid = worm.uid
        self.inflight[uid] = worm
        if self.qos is not None:
            self.cls[uid] = cname
            if prio:
                self.prio[uid] = prio
        for m in self.monitors:
            m.on_spawn(
                t, uid=uid, cls=cname, hops=hops,
                baseline_hops=baseline_hops, rerouted=rerouted,
                multicast=False,
            )

    def note_multicast_spawn(self, created, t) -> None:
        prio, cname = self.assign_class()
        for w in created:
            self.inflight[w.uid] = w
            if self.qos is not None:
                self.cls[w.uid] = cname
                if prio:
                    self.prio[w.uid] = prio
        for m in self.monitors:
            m.on_spawn(
                t, uid=created[0].uid, cls=cname, hops=0, baseline_hops=0,
                rerouted=False, multicast=True,
            )

    def note_spawn_drop(self, t, multicast) -> None:
        self.spawn_drops += 1
        self.dropped_messages += 1
        for m in self.monitors:
            m.on_spawn_drop(t, multicast=multicast)

    def note_complete(self, uid, t_done, latency, measured, recovered, multicast) -> None:
        cname = self.cls.get(uid, "")
        for m in self.monitors:
            m.on_complete(
                t_done, uid=uid, cls=cname, latency=latency,
                measured=measured, recovered=recovered, multicast=multicast,
            )
        self.forget(uid)

    def forget(self, uid) -> None:
        self.inflight.pop(uid, None)
        self.cls.pop(uid, None)
        self.prio.pop(uid, None)

    def finalize(self, engine) -> Optional[dict]:
        if not self.monitors:
            return None
        return {m.name: m.finalize(engine) for m in self.monitors}


class _MonitorStatsTracer(_StatsTracer):
    """:class:`_StatsTracer` plus the fault/monitor context hooks.

    Defines the same two hooks only (``on_clone_absorbed`` inherited,
    ``on_complete`` extended), so ballistic completion stays available
    and the statistics fed to ``_RunState`` are computed exactly as the
    plain tracer computes them.
    """

    def __init__(self, sim: "_RunState", ctx: _FaultContext):
        super().__init__(sim)
        self.ctx = ctx

    def on_complete(self, worm: Worm, t_done: float, recovered: bool) -> None:
        s = self.sim
        ctx = self.ctx
        measured = worm.creation_time >= s.warmup
        if recovered and measured:
            s.recovered_samples += 1
        if worm.klass is WormClass.UNICAST:
            s.completed += 1
            latency = t_done - worm.creation_time
            if measured:
                s.unicast.add(latency)
            ctx.note_complete(worm.uid, t_done, latency, measured, recovered, False)
        else:
            txn: MulticastTransaction = worm.transaction  # type: ignore[assignment]
            if recovered:
                txn.recovered = True
            txn.note_absorption(t_done)
            if txn.worm_finished():
                s.completed += 1
                if txn.measured:
                    s.multicast.add(txn.latency)
                ctx.note_complete(
                    worm.uid, t_done, txn.latency, txn.measured, txn.recovered, True
                )
            else:
                ctx.forget(worm.uid)


#: link tags that ride a ring and need dateline lanes for deadlock freedom
DEFAULT_DATELINE_TAGS = frozenset({"CW", "CCW", "E", "W", "N", "S"})


class NocSimulator:
    """Flit-exact wormhole simulator for any (topology, routing) pair.

    The simulator shares its channel index space with the analytical
    model's :class:`~repro.core.channel_graph.ChannelGraph`, so the two are
    structurally incapable of disagreeing about paths.

    Parameters
    ----------
    one_port:
        Collapse every node's injection channels onto one (the Spidergon-
        style baseline).
    lanes:
        Virtual lanes per ring network channel.  The default 1 simulates
        exactly the modelled system (single M/G/1 server per physical
        channel) with deadlock detection + recovery.  ``lanes=2`` enables
        classic **dateline** deadlock *avoidance*: a worm starts its rim
        segment on lane 0 and switches to lane 1 after crossing the
        ring's wrap-around link, breaking the cyclic channel dependency
        (Dally-Seitz).  Lanes are modelled as independent full-bandwidth
        servers -- a standard simplification that slightly under-counts
        contention; use it for deadlock-freedom studies, not for the
        model-validation runs.
    kernel:
        Event-scheduler implementation: a :data:`KERNELS` key
        (``"python"``, or ``"c"`` when the extension is built), or the
        default ``"auto"``: ``"c"`` when the extension is built,
        ``"python"`` otherwise.  Results are bit-identical for every
        choice; the resolved name is exposed as ``self.kernel`` and
        stamped into ``SimResult.kernel``.
    """

    def __init__(
        self,
        topology: Topology,
        routing: RoutingAlgorithm,
        *,
        one_port: bool = False,
        lanes: int = 1,
        dateline_tags: frozenset[str] = DEFAULT_DATELINE_TAGS,
        kernel: str = "auto",
    ):
        if lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {lanes}")
        if kernel == "auto":
            kernel = "c" if "c" in KERNELS else "python"
        if kernel not in KERNELS:
            raise ValueError(
                f"unknown kernel {kernel!r}; known: {sorted(KERNELS) + ['auto']}"
            )
        self.topology = topology
        self.routing = routing
        self.one_port = one_port
        self.kernel = kernel
        self.lanes = lanes
        self.dateline_tags = dateline_tags
        self.graph = ChannelGraph(topology, routing, one_port=one_port)
        self._unicast_cache: dict[tuple[int, int], tuple[int, ...]] = {}
        # multicast worm templates keyed by the destination-set content: a
        # sweep (or replication batch) re-runs the same sets at many rates
        # and must not pay the routing walk per run
        self._mtemplate_cache: dict[tuple, Mapping] = {}
        # lane expansion: (base channel, lane>0) -> extra engine channel
        self._lane_index: dict[tuple[int, int], int] = {}
        self._num_engine_channels = self.graph.num_channels
        if lanes > 1:
            for link in topology.links():
                if link.tag in dateline_tags:
                    base = self.graph.network(link)
                    for lane in range(1, lanes):
                        self._lane_index[(base, lane)] = self._num_engine_channels
                        self._num_engine_channels += 1

    # ------------------------------------------------------------------ #
    def _lane_of(self, base: int, lane: int) -> int:
        if lane == 0:
            return base
        return self._lane_index[(base, lane)]

    def _route_engine_channels(self, route) -> tuple[int, ...]:
        """Translate a route into engine channels, applying the dateline
        lane switch on wrap-around links when lanes are enabled."""
        seq = self.graph.route_channels(route) if hasattr(route, "dest") else (
            self.graph.multicast_worm_channels(route)
        )
        if self.lanes == 1:
            return tuple(seq)
        out = [seq[0]]
        lane = 0
        for link, ch in zip(route.links, seq[1:-1]):
            if link.tag in self.dateline_tags:
                if self._wraps(link):
                    lane = min(lane + 1, self.lanes - 1)
                out.append(self._lane_of(ch, lane))
            else:
                out.append(ch)
                lane = 0  # a non-ring hop (cross link) resets the segment
        out.append(seq[-1])
        return tuple(out)

    @staticmethod
    def _wraps(link) -> bool:
        """True for a ring's wrap-around link (the dateline): the link
        whose modular step crosses node id 0."""
        if link.tag in ("CW", "E", "N"):
            return link.dst < link.src
        return link.dst > link.src

    def _unicast_channels(self, source: int, dest: int) -> tuple[int, ...]:
        key = (source, dest)
        cached = self._unicast_cache.get(key)
        if cached is None:
            route = self.routing.unicast_route(source, dest)
            cached = self._route_engine_channels(route)
            self._unicast_cache[key] = cached
        return cached

    def _multicast_templates(
        self, spec: TrafficSpec
    ) -> Mapping[int, list[tuple[tuple[int, ...], tuple[int, ...]]]]:
        """Per node: list of (worm channel sequence, clone positions)."""
        key = tuple(
            (node, tuple(sorted(dests)))
            for node, dests in sorted(spec.multicast_sets.items())
        )
        cached = self._mtemplate_cache.get(key)
        if cached is not None:
            return cached
        templates: dict[int, list[tuple[tuple[int, ...], tuple[int, ...]]]] = {}
        for node, dests in sorted(spec.multicast_sets.items()):
            if not dests:
                continue
            worms = []
            for route in self.routing.multicast_routes(node, sorted(dests)):
                seq = self._route_engine_channels(route)
                # network link k (0-based among links) occupies path
                # position k + 2 (after the injection channel, 1-based)
                clone_pos = tuple(
                    k + 2
                    for k, link in enumerate(route.links)
                    if link.dst in route.targets and link.dst != route.last_node
                )
                worms.append((seq, clone_pos))
            templates[node] = worms
        if len(self._mtemplate_cache) >= 8:
            self._mtemplate_cache.clear()
        self._mtemplate_cache[key] = templates
        return templates

    # ------------------------------------------------------------------ #
    def run(
        self,
        spec: TrafficSpec,
        config: SimConfig | None = None,
        *,
        source: Optional[SourceSpec] = None,
        measure_utilization: bool = False,
        arrival_log: Optional[list] = None,
        faults: Optional[FaultSpec] = None,
        qos: Optional[QoSSpec] = None,
        monitors: tuple = (),
    ) -> SimResult:
        """Run one simulation.

        Parameters
        ----------
        source:
            The injection process (:class:`~repro.traffic.sources.SourceSpec`);
            None means the default Poisson source, which routes through
            the identical arrivals-layer call as always -- bitwise-equal
            to the pre-traffic-subsystem behaviour.
        arrival_log:
            When given, every arrival the stream produces is appended as
            ``(t, node, dest)`` -- the recording tap for
            :mod:`repro.traffic.trace`.
        faults:
            Optional :class:`~repro.faults.FaultSpec`: link/node
            kill+heal events fired as scheduled engine events at their
            exact timestamps (see :class:`_FaultContext` for the kill
            semantics).  Forces the pure-Python engine (documented
            bounce on the compiled kernel), which keeps results
            bit-identical across both kernels.
        qos:
            Optional :class:`~repro.faults.QoSSpec`: each message draws
            a traffic class from a dedicated deterministic stream and
            channel arbitration grants the highest-priority waiter
            first (FIFO within a class).  Also bounces the compiled
            kernel.
        monitors:
            Names from :data:`repro.monitors.MONITORS` to run;
            outputs land in :attr:`SimResult.monitors`.  Monitors only
            observe, so a monitors-only run (no faults/qos) stays on
            whatever kernel is resolved and remains bitwise identical
            to an unmonitored run.
        """
        config = config or SimConfig()
        source = source if source is not None else DEFAULT_SOURCE
        # a skewing source (hotspot) contributes destination weights
        # unless the spec already pins its own; folding them into the
        # spec keeps model and simulator reading the same vector and
        # stamps the skew into SimResult.spec provenance
        if spec.unicast_weights is None:
            weights = source.unicast_weights(self.topology.num_nodes)
            if weights is not None:
                spec = replace(spec, unicast_weights=weights)
        n = self.topology.num_nodes
        rng = np.random.default_rng(config.seed)
        queue_cls, engine_cls = KERNELS[self.kernel]
        events = queue_cls()
        state = _RunState(config.warmup_cycles)
        ctx: Optional[_FaultContext] = None
        if faults is not None or qos is not None or monitors:
            ctx = _FaultContext(self, faults, qos, monitors, config.seed)
            tracer = _MonitorStatsTracer(state, ctx)
        else:
            tracer = _StatsTracer(state)
        util_tracer: Optional[ChannelUtilizationTracer] = None
        if measure_utilization:
            util_tracer = ChannelUtilizationTracer(
                self._num_engine_channels, start_time=config.warmup_cycles
            )
            tracer = CompositeTracer([tracer, util_tracer])
        engine = engine_cls(self._num_engine_channels, events, tracer)
        if ctx is not None:
            ctx.bind(engine)

        max_in_flight = config.resolved_max_in_flight(n)
        msg_len = spec.message_length
        lam_u = spec.unicast_rate
        lam_m = spec.multicast_rate
        warmup = config.warmup_cycles
        mtemplates = self._multicast_templates(spec) if lam_m > 0.0 else {}
        next_uid = itertools.count(1).__next__

        # per-source destination CDFs (weighted patterns only; the uniform
        # default keeps the cheap integer-draw fast path)
        dest_cdfs: Optional[list[np.ndarray]] = None
        if spec.unicast_weights is not None:
            dest_cdfs = [
                np.cumsum(spec.destination_probabilities(s, n)) for s in range(n)
            ]

        def spawn(t: float, node: int, dest: int) -> None:
            """Materialise one pre-generated arrival (dest < 0: multicast)."""
            if dest != MULTICAST:
                state.generated += 1
                worm = Worm(
                    next_uid(),
                    WormClass.UNICAST,
                    node,
                    t,
                    self._unicast_channels(node, dest),
                    msg_len,
                )
                engine.inject(worm, t)
                return
            worms = mtemplates[node]
            if not worms:
                return
            state.generated += 1
            txn = MulticastTransaction(t, pending=len(worms), measured=t >= warmup)
            created = [
                Worm(
                    next_uid(),
                    WormClass.MULTICAST,
                    node,
                    t,
                    seq,
                    msg_len,
                    clone_positions=clone_pos,
                    transaction=txn,
                )
                for seq, clone_pos in worms
            ]
            # inject after creating all, preserving FIFO order on shared
            # ports; only the last sibling may fast-forward (the earlier
            # ones must leave their t+1 requests in the heap so the whole
            # group interleaves in injection order, as the legacy kernel did)
            last = len(created) - 1
            for i, worm in enumerate(created):
                engine.inject(worm, t, fast=i == last)

        if ctx is not None:
            # fault/monitor variant of the closure above: same generated
            # accounting and injection ordering, plus spawn-time fault
            # routing and the context's message-lifecycle hooks
            def spawn(t: float, node: int, dest: int) -> None:
                if dest != MULTICAST:
                    state.generated += 1
                    chans, rerouted = ctx.unicast_channels(node, dest)
                    if chans is None:
                        ctx.note_spawn_drop(t, multicast=False)
                        return
                    worm = Worm(
                        next_uid(), WormClass.UNICAST, node, t, chans, msg_len
                    )
                    # channel sequences carry injection + ejection ends;
                    # hop-stretch compares network links only
                    ctx.note_unicast_spawn(
                        worm, t, hops=len(chans) - 2,
                        baseline_hops=len(self._unicast_channels(node, dest)) - 2,
                        rerouted=rerouted,
                    )
                    engine.inject(worm, t)
                    return
                worms = mtemplates[node]
                if not worms:
                    return
                state.generated += 1
                if ctx.multicast_blocked(node, worms):
                    ctx.note_spawn_drop(t, multicast=True)
                    return
                txn = MulticastTransaction(
                    t, pending=len(worms), measured=t >= warmup
                )
                created = [
                    Worm(
                        next_uid(),
                        WormClass.MULTICAST,
                        node,
                        t,
                        seq,
                        msg_len,
                        clone_positions=clone_pos,
                        transaction=txn,
                    )
                    for seq, clone_pos in worms
                ]
                ctx.note_multicast_spawn(created, t)
                last = len(created) - 1
                for i, worm in enumerate(created):
                    engine.inject(worm, t, fast=i == last)

        emit: Callable[[float, int, int], None] = spawn
        if arrival_log is not None:
            def emit(t: float, node: int, dest: int) -> None:
                arrival_log.append((t, node, dest))
                spawn(t, node, dest)

        arrivals = source.make_stream(
            rng, n, lam_u, lam_m, sorted(mtemplates), dest_cdfs, emit,
            arrival_mode=config.arrival_mode,
        )

        want_unicast = config.target_unicast_samples if lam_u > 0.0 else 0
        want_multicast = (
            config.target_multicast_samples if (lam_m > 0.0 and mtemplates) else 0
        )
        target_met = want_unicast == 0 and want_multicast == 0
        saturated = False
        fired_total = 0
        while (len(events) > 0 or arrivals.pending) and events.now <= config.max_cycles:
            fired = engine.run_events(
                config.max_cycles, config.check_interval, arrivals
            )
            fired_total += fired
            if fired == 0:
                break
            if engine.active_worms > max_in_flight:
                saturated = True
                break
            if (want_unicast or want_multicast) and (
                state.unicast.count >= want_unicast
                and state.multicast.count >= want_multicast
            ):
                target_met = True
                break

        nominal = lam_u + lam_m * (len(mtemplates) / n)
        measured = (
            state.generated / (events.now * n) if events.now > 0.0 else math.nan
        )
        result = SimResult(
            spec=spec,
            config=config,
            unicast=state.unicast,
            multicast=state.multicast,
            sim_time=events.now,
            events=fired_total,
            generated_messages=state.generated,
            completed_messages=state.completed,
            deadlock_recoveries=engine.deadlock_recoveries,
            recovered_samples=state.recovered_samples,
            saturated=saturated,
            target_met=target_met,
            utilization=util_tracer,
            kernel=self.kernel,
            source=source.label,
            nominal_load=nominal,
            offered_load=measured,
            fault_drops=ctx.dropped_messages if ctx is not None else 0,
            monitors=ctx.finalize(engine) if ctx is not None else None,
        )
        return result
