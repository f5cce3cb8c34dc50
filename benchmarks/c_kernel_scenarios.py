"""The two workloads the compiled kernel is timed on.

``bench_perf_sim.py::test_c_kernel_speedup`` (python vs c in one
session, ``c_speedup[*]``) and ``native_ab.py`` (c vs c across two
checkouts, ``kernel_speedup[c-*]``) both build their runs here, so the
two families of ratios always measure the same workloads: the
light-load N=64 bench scenario (``c-64``) and a deep-queue N=1024 one
near saturation (``c-1024``).
"""

from repro.core import TrafficSpec
from repro.routing import QuarcRouting
from repro.sim import SimConfig
from repro.topology import QuarcTopology
from repro.workloads import random_multicast_sets

#: name -> (N, load as a multiple of the bench rate 0.024/N,
#: SimConfig fields, timed runs per measurement, of which the best counts)
C_SCENARIOS = {
    "c-64": (64, 1.0, dict(warmup_cycles=1_500.0, target_unicast_samples=500,
                            target_multicast_samples=100, max_cycles=1_000_000.0), 3),
    "c-1024": (1024, 8.0, dict(warmup_cycles=500.0, target_unicast_samples=300,
                                target_multicast_samples=60, max_cycles=120_000.0), 1),
}


def build(name: str):
    """``(topology, routing, spec, config)`` of scenario ``name``."""
    n, mult, kw, _ = C_SCENARIOS[name]
    topo = QuarcTopology(n)
    routing = QuarcRouting(topo)
    sets = random_multicast_sets(routing, group_size=n // 8, seed=1)
    spec = TrafficSpec(mult * 0.024 / n, 0.05, 32, sets)
    return topo, routing, spec, SimConfig(seed=2009, **kw)


def best_of(name: str) -> int:
    """Timed runs per measurement of scenario ``name``."""
    return C_SCENARIOS[name][3]
