"""C/Python kernel boundary tests.

The compiled dispatch fast path (:mod:`repro.sim._cstep`) is an
*accelerator*, never an authority: the pure-Python kernel defines the
behaviour and every number the C loop produces must be bitwise identical
to the Python kernel's.  This suite attacks the boundary from every side:

* full-simulation differentials -- the A/B scenarios plus randomized
  fuzz over topologies, loads and seeds, C against Python;
* ballistic completion, which only the C kernel performs: hook order
  and whole runs where it triggers must match the stepped Python loop;
* the golden-seed fingerprints re-asserted with ``kernel="c"`` forced;
* the fallback story -- construction-time declines (per-hop hooks,
  foreign queue classes, unbuilt extension) and mid-run bounces
  (hooks attached between windows, timestamps beyond the 2^52 horizon)
  must silently hand the run to Python and still match it bitwise;
* the kernel registry: ``"auto"`` is ``"c"`` exactly when the extension
  is built, and retired kernel names are refused;
* the opt-in vectorized arrival mode's statistical contract, and proof
  that the default arrival path is bitwise untouched.

Tests marked ``requires_c`` skip cleanly on a build without the
extension (the compiler-free CI job); everything else runs everywhere.
"""

import random

import pytest

from repro.core.flows import TrafficSpec
from repro.routing import MeshRouting, QuarcRouting
from repro.sim import (
    ARRIVAL_MODES,
    KERNELS,
    NocSimulator,
    PoissonArrivalStream,
    SimConfig,
    VectorizedPoissonArrivalStream,
    cext,
    make_arrival_stream,
)
from repro.sim.engine import EV_INJECT, EventQueue
from repro.sim.reference import ScriptedWorm
from repro.sim.scripted import run_scripted
from repro.sim.worm import Worm, WormClass
from repro.sim.wormengine import CWormEngine, WormEngine, c_kernel_status
from repro.topology import MeshTopology, QuarcTopology
from repro.workloads import random_multicast_sets

from kernel_scenarios import AB_SCENARIOS, cfg, eq_fp, fingerprint, quarc

requires_c = pytest.mark.skipif(
    not cext.available(),
    reason=f"compiled kernel not built: {cext.unavailable_reason()}",
)


def _run(topo, routing, spec, config, kernel):
    return NocSimulator(topo, routing, kernel=kernel).run(spec, config)


# --------------------------------------------------------------------- #
# differentials: c vs python


@requires_c
@pytest.mark.parametrize("name", sorted(AB_SCENARIOS))
def test_ab_scenarios_c_bitwise(name):
    build, make_spec, config = AB_SCENARIOS[name]
    topo, routing = build()
    spec = make_spec(routing)
    c_res = _run(topo, routing, spec, config, "c")
    py_res = _run(topo, routing, spec, config, "python")
    assert c_res.kernel == "c"
    assert eq_fp(fingerprint(c_res), fingerprint(py_res)), name


@pytest.mark.parametrize("trial", range(8))
def test_randomized_differential_fuzz(trial):
    """Random (topology, load, seed) triples through every registered
    kernel, plus a second Python run on a fresh simulator (no state may
    leak between instances); all fingerprints must agree bitwise."""
    rnd = random.Random(0xC0FFEE + trial)
    mesh = rnd.random() < 0.5
    if mesh:
        rows, cols = rnd.choice([(3, 3), (3, 4), (4, 4), (4, 5)])
        n = rows * cols
        topo = MeshTopology(rows, cols)
        routing = MeshRouting(topo)
    else:
        n = rnd.choice([8, 12, 16, 20, 32])
        topo = QuarcTopology(n)
        routing = QuarcRouting(topo)
    rate = rnd.choice([0.001, 0.003, 0.008, 0.02, 0.05])
    frac = rnd.choice([0.0, 0.1, 0.3])
    mlen = rnd.choice([4, 8, 16, 32, 64])
    sets = (
        random_multicast_sets(
            routing, group_size=rnd.randint(3, max(3, n // 8)),
            seed=rnd.randint(0, 99),
            # symmetric placement needs a vertex-symmetric topology
            mode="per_node" if mesh else "symmetric",
        )
        if frac > 0.0
        else {}
    )
    spec = TrafficSpec(rate, frac, mlen, sets)
    config = SimConfig(
        seed=rnd.randint(0, 10_000), warmup_cycles=500.0,
        target_unicast_samples=200, target_multicast_samples=40,
        max_cycles=100_000.0,
    )
    fps = {
        kernel: fingerprint(_run(topo, routing, spec, config, kernel))
        for kernel in sorted(KERNELS)
    }
    reference = fingerprint(_run(topo, routing, spec, config, "python"))
    for kernel, fp in fps.items():
        assert eq_fp(fp, reference), (trial, kernel)


@requires_c
@pytest.mark.parametrize("name", ["quarc16-multicast", "mesh16-saturated"])
def test_golden_fingerprints_hold_on_c_kernel(name):
    """The frozen golden-seed numbers, with the compiled kernel forced."""
    from test_golden_seed import GOLDEN, eq

    build, make_spec, config, want = GOLDEN[name]
    topo, routing = build()
    result = _run(topo, routing, make_spec(routing), config, "c")
    for klass in ("unicast", "multicast"):
        stats = getattr(result, klass)
        mean, var, lo, hi, count = want[klass]
        assert eq(stats.mean, mean), (name, klass)
        assert eq(stats.variance, var), (name, klass)
        assert eq(stats.minimum, lo) and eq(stats.maximum, hi), (name, klass)
        assert stats.count == count, (name, klass)
    assert result.sim_time == want["sim_time"]
    assert result.events == want["events"]
    assert result.generated_messages == want["generated"]
    assert result.completed_messages == want["completed"]
    assert result.deadlock_recoveries == want["recoveries"]
    assert result.saturated == want["saturated"]


# --------------------------------------------------------------------- #
# ballistic completion: the widened fast-forward window must not change
# a single float even where it demonstrably triggers


class _OrderTracer:
    """Records hook order, arguments and the engine clock at each call.

    Defines exactly the hook subset that keeps ballistic completion
    enabled (no per-hop acquire/release observation), so a hook-order or
    hook-clock divergence between the replay and the stepped kernel
    cannot hide behind an order-insensitive consumer."""

    def __init__(self, events):
        self.events = events
        self.calls = []

    def on_clone_absorbed(self, worm, position, t):
        self.calls.append(("clone", worm.uid, position, t, self.events.now))

    def on_complete(self, worm, t_done, recovered):
        self.calls.append(("complete", worm.uid, t_done, recovered, self.events.now))


def _hook_trace(kernel):
    queue_cls, engine_cls = KERNELS[kernel]
    events = queue_cls()
    tracer = _OrderTracer(events)
    engine_cls(8, events, tracer)
    worm = Worm(7, WormClass.MULTICAST, 0, 0.0, (0, 1, 2, 3, 4), 16,
                clone_positions=(2, 4))
    events.push(1.0, EV_INJECT, worm)
    events.run_until(1e6)
    return tracer.calls


@requires_c
def test_ballistic_hook_order_matches_stepped_kernel():
    """An isolated multicast worm takes the ballistic replay on the C
    kernel; its clone/complete hook sequence -- order, args and the
    engine clock visible at each call -- must equal the stepped Python
    kernel's exactly."""
    assert _hook_trace("c") == _hook_trace("python")


@requires_c
def test_ballistic_triggering_run_matches_python_kernel():
    """An isolated-arrival workload (tiny load, big gaps) triggers the
    whole-worm ballistic replay for most messages; the run must still be
    bit-identical to the stepped Python kernel."""
    topo, routing = quarc(16)
    spec = TrafficSpec(0.0004, 0.0, 32)
    config = cfg(seed=41, target_unicast_samples=150, max_cycles=2_000_000.0)
    py_res = _run(topo, routing, spec, config, "python")
    c_res = _run(topo, routing, spec, config, "c")
    assert eq_fp(fingerprint(c_res), fingerprint(py_res))
    assert c_res.unicast.count >= 150


# --------------------------------------------------------------------- #
# the fallback story


def _line_worms(count=120, length=16):
    """Worms hammering one shared 5-channel path: maximal contention."""
    return [
        Worm(uid, WormClass.UNICAST, 0, float(uid * 3), (0, 1, 2, 3, 4), length)
        for uid in range(1, count + 1)
    ]


def _drain(engine, horizon=1e9):
    total = 0
    while len(engine.events) > 0:
        fired = engine.run_events(horizon, 256)
        if fired == 0:
            break
        total += fired
    return total


@requires_c
def test_native_path_actually_runs():
    """Counter check: a hook-free run executes in C, with zero bounces
    (a silently always-bouncing build would still pass the differentials)."""
    engine = CWormEngine(6, EventQueue())
    assert engine.c_inactive_reason is None
    for worm in _line_worms():
        engine.inject(worm, worm.creation_time)
    _drain(engine)
    assert engine.c_runs > 0
    assert engine.c_bounces == 0
    assert engine.py_fallback_runs == 0
    assert engine.active_worms == 0


@requires_c
def test_hook_attached_mid_run_bounces_to_python():
    """Attaching a per-hop hook between windows must bounce every later
    window to the Python kernel -- served by it (the hook fires), timed
    like it (bitwise match with a hook-free pure-Python twin)."""
    c_engine = CWormEngine(6, EventQueue())
    py_engine = WormEngine(6, EventQueue())
    for engine in (c_engine, py_engine):
        for worm in _line_worms():
            engine.inject(worm, worm.creation_time)

    fired_c = c_engine.run_events(1e9, 100)
    fired_py = py_engine.run_events(1e9, 100)
    assert fired_c == fired_py
    assert c_engine.c_runs == 1 and c_engine.c_bounces == 0

    acquired = []
    c_engine._on_acquire = lambda worm, pos, t: acquired.append((worm.uid, pos, t))
    fired_c += _drain(c_engine)
    fired_py += _drain(py_engine)

    assert c_engine.c_bounces >= 1  # every post-hook window bounced
    assert acquired, "the Python fallback must have served the hook"
    assert fired_c == fired_py
    assert c_engine.events.now == py_engine.events.now
    assert c_engine.active_worms == py_engine.active_worms == 0


@requires_c
def test_construction_time_declines():
    """Foreign queue class and per-hop tracer hooks disable the native
    path for the engine's whole lifetime, with a reason string."""

    class _HookTracer:
        def on_acquire(self, worm, pos, t):
            pass

    hooked = CWormEngine(4, EventQueue(), _HookTracer())
    assert not hooked._c_ok
    assert "hook" in hooked.c_inactive_reason

    class _OwnQueue(EventQueue):
        __slots__ = ()

    foreign = CWormEngine(4, _OwnQueue())
    assert not foreign._c_ok
    assert "_OwnQueue" in foreign.c_inactive_reason


@requires_c
def test_far_future_timestamps_bounce():
    """Events at or beyond 2^52 cycles exceed what the C loop models
    (exact float+seq compares need integer-exact doubles); such a run
    must bounce and still match the pure kernel bitwise."""
    far = float(2**53)
    c_engine = CWormEngine(6, EventQueue())
    py_engine = WormEngine(6, EventQueue())
    fired = {}
    for name, engine in (("c", c_engine), ("py", py_engine)):
        for worm in _line_worms(count=10):
            engine.inject(worm, worm.creation_time)
        total = _drain(engine)
        # with the network idle, inject one worm in the far future:
        # cstep.inject declines it (no mutation), Python schedules its
        # request record (fast=False keeps it in the queue), and the
        # next window bounces when it meets the far timestamp
        engine.inject(
            Worm(999, WormClass.UNICAST, 0, far, (0, 1, 2), 8), far, fast=False
        )
        fired[name] = total + _drain(engine, horizon=far * 2)
    assert fired["c"] == fired["py"]
    assert c_engine.events.now == py_engine.events.now
    assert c_engine.c_bounces >= 1
    assert c_engine.c_runs > c_engine.c_bounces  # phase 1 ran natively
    assert c_engine.active_worms == 0


def test_unbuilt_extension_falls_back(monkeypatch):
    """With the extension reported unavailable the wrapper runs every
    window through Python and says why."""
    monkeypatch.setattr(cext, "available", lambda: False)
    monkeypatch.setattr(
        cext, "unavailable_reason", lambda: "forced off for the test"
    )
    engine = CWormEngine(6, EventQueue())
    assert engine.c_inactive_reason == "forced off for the test"
    for worm in _line_worms(count=20):
        engine.inject(worm, worm.creation_time)
    _drain(engine)
    assert engine.c_runs == 0
    assert engine.py_fallback_runs > 0
    assert engine.active_worms == 0


@requires_c
def test_uncoercible_horizon_falls_back():
    engine = CWormEngine(6, EventQueue())
    for worm in _line_worms(count=5):
        engine.inject(worm, worm.creation_time)
    fired = engine.run_events(10**400, 64)  # float() overflows
    assert fired > 0
    assert engine.py_fallback_runs == 1
    assert engine.c_runs == 0


# --------------------------------------------------------------------- #
# the kernel registry and the "auto" policy


def test_auto_never_selects_c_when_unbuilt(monkeypatch):
    """Regression: with no compiled extension registered, "auto" must
    resolve to the pure-Python kernel at every network size."""
    monkeypatch.delitem(KERNELS, "c", raising=False)
    for n in (8, 16, 64):
        topo = QuarcTopology(n)
        assert NocSimulator(topo, QuarcRouting(topo)).kernel == "python"


def test_auto_resolves_to_c_iff_built():
    built = cext.available()
    assert set(KERNELS) == ({"python", "c"} if built else {"python"})
    topo = QuarcTopology(16)
    routing = QuarcRouting(topo)
    result = NocSimulator(topo, routing).run(
        TrafficSpec(0.004, 0.0, 32),
        SimConfig(seed=11, warmup_cycles=500.0, target_unicast_samples=50,
                  target_multicast_samples=0, max_cycles=50_000.0),
    )
    assert result.kernel == ("c" if built else "python")


@pytest.mark.parametrize("name", ["heap", "calendar"])
def test_retired_kernel_names_are_refused(name):
    """The kernels removed in engine v5 are not silent aliases: both
    entry points refuse them, listing the known kernels."""
    topo = QuarcTopology(16)
    with pytest.raises(ValueError, match=r"unknown kernel .*'python'.*'auto'"):
        NocSimulator(topo, QuarcRouting(topo), kernel=name)
    worms = [ScriptedWorm(1, 0, (0, 1, 2), 8)]
    with pytest.raises(ValueError, match=r"unknown kernel .*'python'"):
        run_scripted(4, worms, kernel=name)
    assert run_scripted(4, worms)[1].completion_time is not None


def test_c_kernel_status_reports_build():
    built, reason = c_kernel_status()
    assert built is cext.available()
    assert built is ("c" in KERNELS)
    if not built:
        assert reason


# --------------------------------------------------------------------- #
# vectorized arrival mode: statistical contract, default untouched


def _stream_pair(mode, seed, *, num_nodes=16, rate=0.02, mcast_rate=0.002):
    import numpy as np

    rng = np.random.default_rng(seed)
    out = []
    stream = make_arrival_stream(
        mode, rng, num_nodes, rate, mcast_rate, list(range(0, num_nodes, 4)),
        None, lambda t, node, dest: out.append((t, node, dest)),
    )
    return stream, out


@pytest.mark.parametrize("mode", sorted(ARRIVAL_MODES))
def test_arrival_stream_contract(mode):
    """Both stream implementations must deliver a merged, time-ordered
    per-node Poisson process with self-excluding uniform destinations."""
    count = 20_000
    stream, out = _stream_pair(mode, seed=42)
    for _ in range(count):
        stream.fire(stream.next_time)
    times = [t for t, _, _ in out]
    assert times == sorted(times)
    assert all(dest != node for _, node, dest in out)
    uni = [(node, dest) for _, node, dest in out if dest >= 0]
    mcast = sum(1 for _, _, dest in out if dest < 0)
    # per-node unicast rate: 16 nodes at 0.02 vs 4 sources at 0.002
    expected_uni_share = (16 * 0.02) / (16 * 0.02 + 4 * 0.002)
    share = len(uni) / count
    assert abs(share - expected_uni_share) < 0.02
    # empirical rate from the covered span
    span = times[-1] - times[0]
    rate = len(uni) / span
    assert abs(rate - 16 * 0.02) / (16 * 0.02) < 0.05
    # destination histogram roughly uniform over the 15 candidates
    from collections import Counter

    dest_counts = Counter(dest for _, dest in uni)
    assert set(dest_counts) == set(range(16))
    lo, hi = min(dest_counts.values()), max(dest_counts.values())
    assert hi < 1.5 * lo


def test_vectorized_mode_statistically_matches_legacy():
    """Full simulations: same scenario, both arrival modes -- different
    sample paths, matching statistics."""
    topo = QuarcTopology(16)
    routing = QuarcRouting(topo)
    spec = TrafficSpec(0.004, 0.0, 32)
    results = {}
    for mode in ("legacy", "vectorized"):
        config = SimConfig(seed=11, warmup_cycles=1_000.0,
                           target_unicast_samples=800,
                           target_multicast_samples=0,
                           max_cycles=500_000.0, arrival_mode=mode)
        results[mode] = NocSimulator(topo, routing).run(spec, config)
    legacy, vec = results["legacy"], results["vectorized"]
    assert legacy.target_met and vec.target_met
    # different realisation...
    assert legacy.unicast.mean != vec.unicast.mean
    # ...same distribution: the scenario's latency mean is tight
    rel = abs(legacy.unicast.mean - vec.unicast.mean) / legacy.unicast.mean
    assert rel < 0.05, rel
    gen_rel = abs(legacy.generated_messages - vec.generated_messages)
    assert gen_rel / legacy.generated_messages < 0.1


def test_default_arrival_path_is_bitwise_untouched():
    """The default config must still route through the legacy stream and
    reproduce the frozen golden fingerprint exactly."""
    from test_golden_seed import GOLDEN

    assert SimConfig().arrival_mode == "legacy"
    assert ARRIVAL_MODES["legacy"] is PoissonArrivalStream
    assert ARRIVAL_MODES["vectorized"] is VectorizedPoissonArrivalStream
    build, make_spec, config, want = GOLDEN["quarc16-unicast"]
    assert config.arrival_mode == "legacy"
    topo, routing = build()
    result = NocSimulator(topo, routing).run(make_spec(routing), config)
    assert result.unicast.mean == want["unicast"][0]
    assert result.sim_time == want["sim_time"]
    assert result.events == want["events"]


def test_unknown_arrival_mode_rejected():
    with pytest.raises(ValueError, match="unknown arrival mode"):
        make_arrival_stream("turbo", None, 4, 1.0, 0.0, [], None, None)
    topo = QuarcTopology(16)
    routing = QuarcRouting(topo)
    with pytest.raises(ValueError, match="unknown arrival mode"):
        NocSimulator(topo, routing).run(
            TrafficSpec(0.004, 0.0, 32), SimConfig(arrival_mode="turbo")
        )


# --------------------------------------------------------------------- #
# non-Poisson traffic sources through the kernel boundary


def _traffic_source_specs():
    from repro.traffic.sources import SourceSpec

    return {
        "cbr": SourceSpec(kind="cbr", cbr_jitter=1.0),
        "onoff": SourceSpec(kind="onoff", on_mean=150.0, off_mean=450.0),
        "onoff-pareto": SourceSpec(
            kind="onoff", on_mean=150.0, off_mean=450.0,
            on_tail="pareto", pareto_alpha=1.5,
        ),
        "hotspot": SourceSpec(
            kind="hotspot",
            base=SourceSpec(kind="onoff", on_mean=150.0, off_mean=450.0),
            hotspots=(0,), hotspot_factor=8.0,
        ),
    }


@requires_c
@pytest.mark.parametrize("name", sorted(_traffic_source_specs()))
def test_non_poisson_sources_bitwise_on_c_kernel(name):
    """The explicit interop contract of the traffic subsystem: the C
    fast path calls ``arrivals.fire`` back into Python per arrival, so
    CBR/ON-OFF/hotspot streams run under ``kernel="c"`` and match the
    pure-Python kernel bit for bit."""
    source = _traffic_source_specs()[name]
    topo = QuarcTopology(16)
    routing = QuarcRouting(topo)
    spec = TrafficSpec(0.004, 0.1, 32, random_multicast_sets(routing, 4, seed=3))
    config = SimConfig(seed=7, warmup_cycles=1_000.0,
                       target_unicast_samples=400,
                       target_multicast_samples=80, max_cycles=400_000.0)
    py = NocSimulator(topo, routing, kernel="python").run(
        spec, config, source=source
    )
    c = NocSimulator(topo, routing, kernel="c").run(spec, config, source=source)
    assert eq_fp(fingerprint(c), fingerprint(py)), name
    assert c.source == py.source == source.label


@requires_c
def test_trace_replay_bitwise_on_c_kernel(tmp_path):
    from repro.traffic.sources import SourceSpec
    from repro.traffic.trace import write_trace

    path = tmp_path / "c.jsonl"
    write_trace(
        path, 16,
        [(float(100 + 40 * i), i % 16, (i % 16 + 1 + i % 15) % 16)
         for i in range(400)],
    )
    source = SourceSpec(kind="trace", trace_path=str(path))
    topo = QuarcTopology(16)
    routing = QuarcRouting(topo)
    spec = TrafficSpec(0.004, 0.0, 32)
    config = SimConfig(seed=7, warmup_cycles=500.0,
                       target_unicast_samples=300,
                       target_multicast_samples=0, max_cycles=400_000.0)
    py = NocSimulator(topo, routing, kernel="python").run(
        spec, config, source=source
    )
    c = NocSimulator(topo, routing, kernel="c").run(spec, config, source=source)
    assert eq_fp(fingerprint(c), fingerprint(py))
