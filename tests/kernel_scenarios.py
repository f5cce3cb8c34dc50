"""Shared workload, result fingerprint and queue factory for the kernel tests.

``AB_SCENARIOS`` spans Quarc and mesh, unicast and multicast, light load
through saturation, over several seeds; ``fingerprint`` reduces a
:class:`~repro.sim.network.SimResult` to the fields a kernel change must
not move, and ``eq_fp`` compares two fingerprints bitwise (NaN equal to
NaN).  Used by ``test_c_kernel.py`` and ``test_traffic_refactor.py``.
``bound_queue`` builds event queues bound to a registered engine, for
the queue tests in ``test_event_queue.py`` and ``test_calendar_queue.py``.
"""

import math

from repro.core.flows import TrafficSpec
from repro.routing import MeshRouting, QuarcRouting
from repro.sim import KERNELS, SimConfig
from repro.topology import MeshTopology, QuarcTopology
from repro.workloads import random_multicast_sets


def quarc(n):
    topo = QuarcTopology(n)
    return topo, QuarcRouting(topo)


def mesh(r, c):
    topo = MeshTopology(r, c)
    return topo, MeshRouting(topo)


def cfg(**kw):
    base = dict(seed=11, warmup_cycles=1_000.0, target_unicast_samples=400,
                target_multicast_samples=80, max_cycles=400_000.0)
    base.update(kw)
    return SimConfig(**base)


#: name -> (network builder, spec builder taking the routing, config)
AB_SCENARIOS = {
    "quarc16-light": (lambda: quarc(16), lambda r: TrafficSpec(0.004, 0.0, 32), cfg()),
    "quarc16-mc": (
        lambda: quarc(16),
        lambda r: TrafficSpec(0.004, 0.1, 32, random_multicast_sets(r, 4, seed=3)),
        cfg(seed=7),
    ),
    "quarc16-sat": (lambda: quarc(16), lambda r: TrafficSpec(0.05, 0.0, 32), cfg(seed=5)),
    "quarc32-mid": (lambda: quarc(32), lambda r: TrafficSpec(0.003, 0.0, 32), cfg(seed=13)),
    "quarc32-mc": (
        lambda: quarc(32),
        lambda r: TrafficSpec(0.002, 0.2, 16, random_multicast_sets(r, 5, seed=2)),
        cfg(seed=17),
    ),
    "quarc64-bench": (
        lambda: quarc(64),
        lambda r: TrafficSpec(0.024 / 64, 0.05, 32, random_multicast_sets(r, 8, seed=1)),
        cfg(seed=2009, warmup_cycles=1_500.0, target_unicast_samples=300,
            target_multicast_samples=60),
    ),
    "mesh16-light": (lambda: mesh(4, 4), lambda r: TrafficSpec(0.004, 0.0, 32), cfg(seed=19)),
    "mesh16-mc": (
        lambda: mesh(4, 4),
        lambda r: TrafficSpec(
            0.003, 0.1, 32, random_multicast_sets(r, 4, seed=3, mode="per_node")
        ),
        cfg(seed=23),
    ),
    "mesh16-sat": (lambda: mesh(4, 4), lambda r: TrafficSpec(0.08, 0.0, 32), cfg(seed=29)),
    "mesh24-short": (lambda: mesh(4, 6), lambda r: TrafficSpec(0.005, 0.0, 8), cfg(seed=31)),
    "quarc16-long-messages": (
        lambda: quarc(16), lambda r: TrafficSpec(0.001, 0.0, 128), cfg(seed=37)
    ),
}


def fingerprint(result):
    stats = []
    for s in (result.unicast, result.multicast):
        stats.append((s.mean, s.variance, s.minimum, s.maximum, s.count))
    return (
        stats,
        result.sim_time,
        result.events,
        result.generated_messages,
        result.completed_messages,
        result.deadlock_recoveries,
        result.recovered_samples,
        result.saturated,
        result.target_met,
    )


def eq_fp(a, b):
    def eq(x, y):
        if isinstance(x, float) and isinstance(y, float):
            return x == y or (math.isnan(x) and math.isnan(y))
        if isinstance(x, (tuple, list)):
            return len(x) == len(y) and all(eq(i, j) for i, j in zip(x, y))
        return x == y

    return eq(a, b)


def bound_queue(kernel):
    """A factory of event queues bound to a fresh engine of ``kernel``,
    so pushes and pops go through that engine's queue hooks."""
    def make():
        queue_cls, engine_cls = KERNELS[kernel]
        queue = queue_cls()
        engine_cls(1, queue)
        return queue

    return make
