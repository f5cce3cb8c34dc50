"""Experiment B-perf (simulator side): event throughput of the flit-exact
worm engine under steady Poisson load.

The headline events/sec of each size is persisted to
``BENCH_perf_sim.json`` at the repository root (see
:mod:`benchmarks.perf_record`) so the kernel's perf trajectory is
tracked across PRs.  ``test_c_kernel_speedup`` additionally runs the
compiled kernel against the pure-Python one in an interleaved
same-session A/B -- on the bench scenario and on a deep-queue scenario
-- verifying bitwise-identical results on the way and recording both
ratios.  A/Bs of one kernel across two checkouts (``kernel_speedup[c-*]``)
are made by ``benchmarks/native_ab.py``.
"""

import dataclasses
import time

import pytest

import c_kernel_scenarios
from perf_record import record_metric
from repro.core import TrafficSpec
from repro.routing import QuarcRouting
from repro.sim import ENGINE_VERSION, NocSimulator, cext
from repro.topology import QuarcTopology
from repro.workloads import random_multicast_sets


@pytest.mark.parametrize("n", [16, 64])
def test_sim_throughput(benchmark, n, quick_sim_config):
    topo = QuarcTopology(n)
    routing = QuarcRouting(topo)
    sim = NocSimulator(topo, routing)
    sets = random_multicast_sets(routing, group_size=max(3, n // 8), seed=1)
    spec = TrafficSpec(0.024 / n, 0.05, 32, sets)
    cfg = dataclasses.replace(
        quick_sim_config, target_unicast_samples=500, target_multicast_samples=100
    )
    # one warm-up round fills the simulator's route caches; the recorded
    # number is the best of 5 measured rounds, identical to what the
    # --benchmark-json artifact reports
    result = benchmark.pedantic(
        sim.run, args=(spec, cfg), rounds=5, iterations=1, warmup_rounds=1
    )
    assert result.target_met
    best = benchmark.stats.stats.min
    events_per_sec = result.events / best
    rate = result.events / max(result.sim_time, 1.0)
    print(f"\n{topo.name}: {result.events} events over {result.sim_time:.0f} cycles "
          f"({rate:.1f} events/cycle; {events_per_sec:,.0f} events/sec)")
    record_metric(
        f"sim_throughput[{n}]",
        {
            "engine_version": ENGINE_VERSION,
            "kernel": result.kernel,
            "events": result.events,
            "best_seconds": best,
            "events_per_sec": round(events_per_sec),
        },
    )


def _ab_pair(spec, cfg, topo, routing, *, best_of, rounds=5):
    """Interleaved python-vs-c A/B on one scenario: median of ``rounds``
    best-of-``best_of`` pairwise ratios on process CPU time, plus an
    exact result-identity check.  Returns (python ev/s, c ev/s, speedup,
    events)."""
    sim_old = NocSimulator(topo, routing, kernel="python")
    sim_new = NocSimulator(topo, routing, kernel="c")
    r_old = sim_old.run(spec, cfg)  # warm route caches on both paths
    r_new = sim_new.run(spec, cfg)
    assert r_new.events == r_old.events and r_new.sim_time == r_old.sim_time
    assert r_new.unicast.mean == r_old.unicast.mean
    assert r_new.multicast.count == r_old.multicast.count

    def best(sim):
        b = float("inf")
        for _ in range(best_of):
            t0 = time.process_time_ns()
            sim.run(spec, cfg)
            b = min(b, time.process_time_ns() - t0)
        return b / 1e9

    pairs = sorted(
        (best(sim_old), best(sim_new)) for _ in range(rounds)
    )
    ratios = sorted(h / c for h, c in pairs)
    speedup = ratios[len(ratios) // 2]
    best_old = min(h for h, _ in pairs)
    best_new = min(c for _, c in pairs)
    return r_new.events / best_old, r_new.events / best_new, speedup, r_new.events


@pytest.mark.skipif(
    not cext.available(),
    reason=f"compiled kernel not built: {cext.unavailable_reason()}",
)
def test_c_kernel_speedup():
    """Compiled fast path vs the pure-Python kernel, interleaved A/B on
    two regimes: the light-load bench scenario (shallow queues) and a
    deep-queue one (N=1024 near saturation).

    The tracked goal for the compiled kernel is >= 3x on the
    bench_perf_sim[64] scenario.  The measured ratio is recorded either
    way -- a miss shows up in BENCH_perf_sim.json and the printed note,
    never by quietly weakening the measurement -- and the hard assert
    only guards against a regression that would make the native loop
    pointless (it must convincingly beat the kernel it replaces)."""
    n, deep_n = 64, 1024
    topo, routing, spec, cfg = c_kernel_scenarios.build("c-64")
    py_eps, c_eps, speedup, events = _ab_pair(
        spec, cfg, topo, routing, best_of=c_kernel_scenarios.best_of("c-64")
    )
    deep_topo, deep_routing, deep_spec, deep_cfg = c_kernel_scenarios.build("c-1024")
    d_py, d_c, d_speedup, d_events = _ab_pair(
        deep_spec, deep_cfg, deep_topo, deep_routing, rounds=3,
        best_of=c_kernel_scenarios.best_of("c-1024"),
    )

    target = 3.0
    verdict = "target met" if speedup >= target else (
        "below the 3x target: the remaining time is Python arrival "
        "generation, worm spawning and stats hooks, not dispatch"
    )
    print(f"\nc kernel A/B [{n}] light load: python {py_eps:,.0f} ev/s, "
          f"c {c_eps:,.0f} ev/s, speedup {speedup:.2f}x ({verdict})")
    print(f"c kernel A/B [{deep_n}] deep queue: python {d_py:,.0f} ev/s, "
          f"c {d_c:,.0f} ev/s, speedup {d_speedup:.2f}x")
    record_metric(
        f"c_speedup[{n}]",
        {
            "old_engine": ENGINE_VERSION,
            "new_engine": ENGINE_VERSION,
            "old_kernel": "python",
            "new_kernel": "c",
            "old_events_per_sec": round(py_eps),
            "new_events_per_sec": round(c_eps),
            "speedup": round(speedup, 3),
            "target": target,
            "target_met": speedup >= target,
            "note": "compiled dispatch fast path vs python kernel, "
                    "bench scenario (light load, shallow queue)",
        },
    )
    record_metric(
        f"c_speedup[{deep_n}]",
        {
            "old_engine": ENGINE_VERSION,
            "new_engine": ENGINE_VERSION,
            "old_kernel": "python",
            "new_kernel": "c",
            "old_events_per_sec": round(d_py),
            "new_events_per_sec": round(d_c),
            "speedup": round(d_speedup, 3),
            "note": "compiled dispatch fast path vs python kernel, "
                    "deep-queue scenario (N=1024 near saturation)",
        },
    )
    assert speedup > 1.5 and d_speedup > 1.5


def test_scripted_engine_raw_speed(benchmark):
    """Raw engine cost: 200 back-to-back worms through one shared path."""
    from repro.sim.reference import ScriptedWorm
    from repro.sim.scripted import run_scripted

    worms = [
        ScriptedWorm(uid, uid * 3, (0, 1, 2, 3, 4), 16) for uid in range(1, 201)
    ]
    results = benchmark(run_scripted, 6, worms)
    assert len(results) == 200
