"""The benchmark's workloads, each a batch closed loop driven serially.

Every workload has the same four steps:

* ``setup(seed)`` builds its inputs from the workload seed -- the part of
  a user's command that runs before the first measured call;
* ``body(state, ledger)`` makes the measured calls into the public API,
  one after another, and logs every call's output and host time in the
  :class:`Ledger`;
* ``record(entry)`` turns one output into plain data for the digest and
  the frozen reference (run after the timed region);
* ``check(entries, reference)`` lists what is wrong with each output.

Seeds.  The random multicast destination sets -- the only model input
that depends on the seed -- are drawn with ``sets_seeds[seed % 16]``:
sixteen destination-set seeds whose model design space costs the same
number of fixed-point iterations, within a few percent, and whose model
outputs are frozen in ``reference.json`` (both chosen by ``freeze.py``).
So a seed changes the inputs but not the amount of work, and runs with
different seeds stay comparable.  The simulator seed is the workload seed
itself; simulated points are checked by invariants, not frozen numbers.
"""

from __future__ import annotations

import dataclasses
import heapq
import json
import math
import shutil
import statistics
import time
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional

import numpy as np

from repro.core import AnalyticalModel, TrafficSpec
from repro.experiments import ExperimentConfig, ResultCache, run_experiment
from repro.experiments.compare import agreement_metrics
from repro.experiments.runner import budget_sim_config
from repro.orchestration.tasks import StatsSummary, TaskResult, task_result_to_dict
from repro.routing import QuarcRouting
from repro.sim import NocSimulator, SimConfig
from repro.topology import QuarcTopology
from repro.traffic.scenarios import resolve_scenario, run_scenario
from repro.workloads import random_multicast_sets

#: input variants the seeds fold onto (each has a frozen model reference)
VARIANTS = 16
REFERENCE = Path(__file__).resolve().parent / "reference.json"
DEFAULT_SEED = 1

MESSAGE_LENGTH = 32
ALPHA = 0.05

#: the saturation search's bisection tolerance (AnalyticalModel.saturation_rate)
SAT_TOL = 1e-6
#: two searches that both end within SAT_TOL of a boundary differ by at most 2 SAT_TOL
SAT_ABS_TOL = 2 * SAT_TOL
#: the fixed point stops at a step below 1e-9 * M; a thousandfold margin
#: covers the slower contraction near saturation and reordered float sums
LAT_REL_TOL = 1e-6
#: latency elasticity to the rate below 0.9 of saturation (1 / (1 - rho)
#: for the bottleneck queue, with headroom): an input rate that moved by
#: a relative d may move a latency by up to this times d
RATE_ELASTICITY = 50.0

# model-design-space: the shape of `python -m repro saturation` and of
# examples/saturation_analysis.py
MDS_SIZES = (16, 32, 64)
MDS_FRACTIONS = (0.25, 0.5, 0.75)

# sim-long: one N=64 simulator at fixed rates.  SIM_SATURATION is the
# occupancy model's saturation rate at N=64, M=32, alpha=5%, group 8 with
# the destination sets of SIM_SETS_SEED, frozen so that no model call
# runs; the workload seed drives the simulation only.
SIM_NODES = 64
SIM_GROUP = 8
SIM_SETS_SEED = 1
#: dateline virtual lanes.  On the single-lane network, long runs at 0.8
#: of the model's saturation rate deadlock hundreds of times and then
#: saturate on 8 of the seeds 0-11 (2 deadlocks at 0.7 saturate seed
#: 18); two lanes avoid deadlock, so every seed meets its sample targets.
#: The kernel code paths are the same: lanes only renumber channels.
SIM_LANES = 2
SIM_SATURATION = 0.00160885
SIM_FRACTIONS = (0.3, 0.55, 0.8)
SIM_MULTICAST_SAMPLES = 1_200
#: unicast:multicast generation is 19:1 at alpha=5%, so both targets bind
#: together; about 0.6 M events per run, so that a run holds a dozen bodies
SIM_UNICAST_SAMPLES = 19 * SIM_MULTICAST_SAMPLES
#: far beyond the ~0.9 M cycles the lowest rate needs to meet its targets
SIM_MAX_CYCLES = 20_000_000.0

# validation-mix: `python -m repro sweep -n 16` (6 points, 1000 samples)
# and `python -m repro scenario run onoff-bursty link-kill`
VM_POINTS = 6
VM_SAMPLES = 1_000
VM_SCENARIOS = ("onoff-bursty", "link-kill")


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def count_dispersion(source, rate: float) -> float:
    """Index of dispersion of a source's message count: 1 for Poisson
    timing.  An exponential ON/OFF source is an interrupted Poisson
    process per node, whose long-run index 1 + 2 r a / (a + b)^2 -- r the
    arrival rate inside an ON window, a and b the rates of leaving an ON
    and an OFF window -- bounds the index over any shorter run; ``rate``
    is the per-node load."""
    timing = source.base if source is not None and source.kind == "hotspot" else source
    if timing is None or timing.kind != "onoff":
        return 1.0
    if timing.on_tail != "exp":
        raise ValueError(f"no count-dispersion bound for {timing.label} windows")
    on, off = timing.on_mean, timing.off_mean
    rate_on = rate * (on + off) / on
    return 1.0 + 2.0 * rate_on * on * off**2 / (on + off) ** 2


def drift_tolerance(generated: int, dispersion: float = 1.0) -> float:
    """The sweep runner's offered-load drift tolerance -- 1%, widened to
    four standard deviations of the message count for short runs -- with
    the count's variance scaled by the source's index of dispersion (the
    runner assumes Poisson counts, which a bursty source exceeds)."""
    return max(0.01, 4.0 * math.sqrt(dispersion / generated))


#: seconds :func:`calibrate` takes on the reference host; host-normalised
#: times read as seconds on a host of that speed
CALIBRATION_REF = 0.025


class _Slot:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def calibrate() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed mix of interpreter work (objects,
    a heap, a dict) and small-array numpy calls -- the kinds of work the
    simulator and the model do.  Co-tenants on a shared host slow this
    process by up to 1.7x for tens of seconds at a time; timing this mix
    next to every call measures the host's speed at that moment."""
    w0 = time.perf_counter()
    c0 = time.process_time()
    heap: list = []
    table: dict = {}
    x = np.arange(256.0)
    for i in range(15_000):
        slot = _Slot(i, (i * 7919) % 10007)
        heapq.heappush(heap, (slot.value, i, slot))
        if len(heap) > 128:
            heapq.heappop(heap)
        table[slot.value & 1023] = slot
        if i % 16 == 0:
            x = np.maximum(x * 0.5 + 1.0, x[::-1])
            float(np.max(np.abs(x)))
    return time.perf_counter() - w0, time.process_time() - c0


class Entry(NamedTuple):
    op: str
    meta: dict
    result: Any
    wall: float
    cpu: float
    #: wall and CPU time scaled to the reference host speed, by the mean
    #: of the calibrations just before and just after the call
    wall_ref: float
    cpu_ref: float


class Ledger:
    """Every call one body made, in order, with its output and host time."""

    def __init__(self) -> None:
        self.entries: list[Entry] = []
        self._calibration = calibrate()

    def call(self, op: str, meta: dict, fn: Callable, *args, **kwargs) -> Any:
        w0 = time.perf_counter()
        c0 = time.process_time()
        result = fn(*args, **kwargs)
        cpu = time.process_time() - c0
        wall = time.perf_counter() - w0
        before, after = self._calibration, calibrate()
        self._calibration = after
        scale_wall = 2 * CALIBRATION_REF / (before[0] + after[0])
        scale_cpu = 2 * CALIBRATION_REF / (before[1] + after[1])
        self.entries.append(
            Entry(op, meta, result, wall, cpu, wall * scale_wall, cpu * scale_cpu)
        )
        return result


def _close(a: float, b: float, rel: float) -> bool:
    if math.isinf(a) or math.isinf(b) or math.isnan(a) or math.isnan(b):
        return repr(a) == repr(b)
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _rate_tol(rate: float, ref_rate: float) -> float:
    """Latency tolerance at a rate that may differ from the reference's
    by the saturation search's own tolerance."""
    drift = abs(rate - ref_rate) / ref_rate if ref_rate else 0.0
    return LAT_REL_TOL + RATE_ELASTICITY * drift


def _check_sim_point(
    label: str,
    *,
    target_met: bool,
    saturated: bool,
    generated: int,
    completed: int,
    nominal: float,
    offered: float,
    dispersion: float = 1.0,
) -> list[str]:
    problems = []
    if not target_met:
        problems.append(f"{label}: sample target not met")
    if saturated:
        problems.append(f"{label}: saturated")
    if generated < completed:
        problems.append(f"{label}: completed {completed} > generated {generated}")
    drift = abs(offered - nominal) / nominal
    if not drift <= drift_tolerance(generated, dispersion):
        problems.append(
            f"{label}: offered load {offered:.6g} drifts {drift:.2%} from {nominal:.6g}"
        )
    return problems


# --------------------------------------------------------------------------- #
class ModelDesignSpace:
    """Model only: per size one saturation search, then both recursions at
    fractions of the saturation rate."""

    name = "model-design-space"
    metric_units = {"sat_search_s": "s", "eval_ms": "ms"}

    def __init__(self, sets_seeds: list[int]) -> None:
        self.sets_seeds = sets_seeds

    def setup(self, seed: int):
        return self.build(self.sets_seeds[seed % VARIANTS])

    def build(self, sets_seed: int):
        nets = []
        for n in MDS_SIZES:
            topo = QuarcTopology(n)
            routing = QuarcRouting(topo)
            sets = random_multicast_sets(routing, max(3, n // 8), sets_seed)
            nets.append(
                (
                    n,
                    AnalyticalModel(topo, routing, recursion="paper"),
                    AnalyticalModel(topo, routing, recursion="occupancy"),
                    TrafficSpec(1e-6, ALPHA, MESSAGE_LENGTH, sets),
                )
            )
        return nets

    def body(self, nets, ledger: Ledger) -> None:
        for n, paper, occupancy, spec in nets:
            sat = ledger.call(
                "saturation_rate", {"n": n}, occupancy.saturation_rate, spec
            )
            for fraction in MDS_FRACTIONS:
                rate_spec = spec.with_rate(fraction * sat)
                for model in (paper, occupancy):
                    meta = {"n": n, "recursion": model.recursion, "fraction": fraction}
                    ledger.call("evaluate", meta, model.evaluate, rate_spec)

    def teardown(self, nets) -> None:
        pass

    def record(self, entry: Entry) -> dict:
        if entry.op == "saturation_rate":
            return {"op": entry.op, **entry.meta, "rate": entry.result}
        res = entry.result
        return {
            "op": entry.op,
            **entry.meta,
            "rate": res.spec.message_rate,
            "unicast": res.unicast_latency,
            "multicast": res.multicast_latency,
            "max_utilization": res.max_utilization,
            "bottleneck": res.bottleneck_channel,
            "saturated": res.saturated,
            "converged": res.converged,
            "iterations": res.iterations,
        }

    def frozen(self, record: dict) -> dict:
        # the iteration count is how the solver got there, not what it found
        return {k: v for k, v in record.items() if k != "iterations"}

    def check(self, entries: list[Entry], refs: list[dict]) -> list[list[str]]:
        out = []
        for entry, ref in zip(entries, refs):
            rec = self.record(entry)
            tag = f"{entry.op} N={rec['n']}"
            problems = []
            if any(rec[k] != ref[k] for k in ("op", "n")):
                problems.append(f"{tag}: out of step with the reference")
            elif entry.op == "saturation_rate":
                if not abs(rec["rate"] - ref["rate"]) <= SAT_ABS_TOL:
                    problems.append(f"{tag}: {rec['rate']!r} != {ref['rate']!r}")
            else:
                tag += f" {rec['recursion']} @{rec['fraction']}"
                for flag in ("saturated", "converged"):
                    if rec[flag] != ref[flag]:
                        problems.append(f"{tag}: {flag} {rec[flag]} != {ref[flag]}")
                tol = _rate_tol(rec["rate"], ref["rate"])
                for key in ("unicast", "multicast", "max_utilization"):
                    if not _close(rec[key], ref[key], tol):
                        problems.append(f"{tag}: {key} {rec[key]!r} != {ref[key]!r}")
                if not _bottleneck_ok(entry.result, ref["bottleneck"], tol):
                    problems.append(
                        f"{tag}: bottleneck {rec['bottleneck']} != {ref['bottleneck']}"
                    )
            out.append(problems)
        out.extend([["missing reference"]] * (len(entries) - len(refs)))
        return out

    def summary(self, ledger: Ledger) -> dict:
        return {
            op: [e.wall_ref for e in ledger.entries if e.op == op]
            for op in ("saturation_rate", "evaluate")
        }

    def metrics(self, summaries: list[dict]) -> dict[str, tuple]:
        sat = [t for s in summaries for t in s["saturation_rate"]]
        ev = [t for s in summaries for t in s["evaluate"]]
        return {
            "sat_search_s": (statistics.median(sat), f"median of {len(sat)} calls"),
            "eval_ms": (1e3 * statistics.median(ev), f"median of {len(ev)} calls"),
        }


def _bottleneck_ok(result, ref_name: str, tol: float) -> bool:
    """Same bottleneck, or the reference's bottleneck ties for the
    maximum (symmetric destination sets make many channels tie, and
    which of them argmax picks is a float-rounding accident)."""
    if result.bottleneck_channel == ref_name:
        return True
    graph = result.service.graph
    util = result.service.utilization
    peak = result.max_utilization
    return any(
        graph.describe(i) == ref_name
        for i in np.flatnonzero(util >= peak * (1.0 - tol))
    )


# --------------------------------------------------------------------------- #
class SimLong:
    """Simulator only: one N=64 NocSimulator at three fixed Poisson rates."""

    name = "sim-long"
    metric_units = {"sim_cycles_per_s": "cycles/s"}

    def setup(self, seed: int):
        topo = QuarcTopology(SIM_NODES)
        routing = QuarcRouting(topo)
        sets = random_multicast_sets(routing, SIM_GROUP, SIM_SETS_SEED)
        sim = NocSimulator(topo, routing, lanes=SIM_LANES)
        spec = TrafficSpec(SIM_SATURATION, ALPHA, MESSAGE_LENGTH, sets)
        config = SimConfig(
            seed=seed,
            target_unicast_samples=SIM_UNICAST_SAMPLES,
            target_multicast_samples=SIM_MULTICAST_SAMPLES,
            max_cycles=SIM_MAX_CYCLES,
        )
        return sim, spec, config

    def body(self, state, ledger: Ledger) -> None:
        sim, spec, config = state
        for fraction in SIM_FRACTIONS:
            rate_spec = spec.with_rate(fraction * SIM_SATURATION)
            ledger.call("run", {"fraction": fraction}, sim.run, rate_spec, config)

    def teardown(self, state) -> None:
        pass

    def record(self, entry: Entry) -> dict:
        res = entry.result
        return {
            "op": entry.op,
            **entry.meta,
            "unicast": dataclasses.asdict(StatsSummary.from_stats(res.unicast)),
            "multicast": dataclasses.asdict(StatsSummary.from_stats(res.multicast)),
            "unicast_extremes": [res.unicast.minimum, res.unicast.maximum],
            "multicast_extremes": [res.multicast.minimum, res.multicast.maximum],
            "sim_time": res.sim_time,
            "events": res.events,
            "generated": res.generated_messages,
            "completed": res.completed_messages,
            "deadlock_recoveries": res.deadlock_recoveries,
            "recovered_samples": res.recovered_samples,
            "saturated": res.saturated,
            "target_met": res.target_met,
            "offered_load": res.offered_load,
        }

    def check(self, entries: list[Entry], refs: list[dict]) -> list[list[str]]:
        return [
            _check_sim_point(
                f"run @{e.meta['fraction']}",
                target_met=e.result.target_met,
                saturated=e.result.saturated,
                generated=e.result.generated_messages,
                completed=e.result.completed_messages,
                nominal=e.result.nominal_load,
                offered=e.result.offered_load,
            )
            for e in entries
        ]

    def summary(self, ledger: Ledger) -> dict:
        return {
            "runs": len(ledger.entries),
            "cycles": sum(e.result.sim_time for e in ledger.entries),
            "cpu": sum(e.cpu_ref for e in ledger.entries),
        }

    def metrics(self, summaries: list[dict]) -> dict[str, tuple]:
        cycles = sum(s["cycles"] for s in summaries)
        cpu = sum(s["cpu"] for s in summaries)
        runs = sum(s["runs"] for s in summaries)
        return {"sim_cycles_per_s": (cycles / cpu, f"over {runs} runs")}


# --------------------------------------------------------------------------- #
class RecordingStore:
    """A ResultStore that delegates to a ResultCache and keeps the task
    results it stores and serves, for the cold/warm payload check."""

    def __init__(self, cache: ResultCache) -> None:
        self.cache = cache
        self.stored: list[tuple[Any, TaskResult]] = []
        self.served: list[tuple[Any, TaskResult]] = []

    def get(self, task):
        result = self.cache.get(task)
        if result is not None:
            self.served.append((task, result))
        return result

    def put(self, task, result: TaskResult) -> None:
        self.cache.put(task, result)
        self.stored.append((task, result))


def _payload(result: TaskResult) -> dict:
    d = task_result_to_dict(result)
    # provenance: host time and which kernel ran
    d.pop("wall_seconds")
    d.pop("kernel")
    return d


class ValidationMix:
    """`sweep` + `scenario run` through their public functions, first into
    an empty ResultCache, then again on the full cache."""

    name = "validation-mix"
    metric_units = {"warm_s": "s", "uni_mape_pct": "%", "mc_mape_pct": "%"}

    def __init__(self, sets_seeds: list[int], workdir: Path) -> None:
        self.sets_seeds = sets_seeds
        self.workdir = workdir

    def setup(self, seed: int):
        return self.build(self.sets_seeds[seed % VARIANTS], seed)

    def build(self, sets_seed: int, seed: int):
        n = 16
        config = ExperimentConfig(
            exp_id=f"fig6-N{n}-M{MESSAGE_LENGTH}-a05",
            figure="fig6",
            num_nodes=n,
            message_length=MESSAGE_LENGTH,
            multicast_fraction=ALPHA,
            group_size=max(3, n // 8),
            destset_mode="random",
            seed=sets_seed,
            load_fractions=tuple((k + 1) * 0.8 / VM_POINTS for k in range(VM_POINTS)),
        )
        sim_config = budget_sim_config(
            seed=seed, samples=VM_SAMPLES, multicast_samples=max(100, VM_SAMPLES // 6)
        )
        scenarios = [
            dataclasses.replace(
                resolve_scenario(name), workload_seed=sets_seed, seed=seed
            )
            for name in VM_SCENARIOS
        ]
        return {"config": config, "sim_config": sim_config, "scenarios": scenarios, "bodies": 0}

    def body(self, state, ledger: Ledger) -> None:
        state["bodies"] += 1
        cache = ResultCache(self.workdir / f"cache-{state['bodies']}")
        for phase in ("cold", "warm"):
            store = RecordingStore(cache)
            ledger.call(
                "run_experiment",
                {"pass": phase, "name": state["config"].exp_id, "store": store, "source": None},
                run_experiment,
                state["config"],
                sim_config=state["sim_config"],
                cache=store,
            )
            for scenario in state["scenarios"]:
                store = RecordingStore(cache)
                ledger.call(
                    "run_scenario",
                    {
                        "pass": phase,
                        "name": scenario.name,
                        "store": store,
                        "source": scenario.source,
                    },
                    run_scenario,
                    scenario,
                    cache=store,
                )

    def teardown(self, state) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def record(self, entry: Entry) -> dict:
        store = entry.meta["store"]
        results = store.stored if entry.meta["pass"] == "cold" else store.served
        return {
            "op": entry.op,
            "pass": entry.meta["pass"],
            "name": entry.meta["name"],
            "saturation_rate": entry.result.saturation_rate,
            "points": [dataclasses.asdict(p) for p in entry.result.points],
            "tasks": [_payload(r) for _, r in results],
        }

    _MODEL_FIELDS = (
        "rate",
        "model_paper_unicast",
        "model_paper_multicast",
        "model_occupancy_unicast",
        "model_occupancy_multicast",
    )

    def frozen(self, record: dict) -> Optional[dict]:
        if record["pass"] == "warm":
            return None  # the warm pass must reproduce the cold one
        return {
            "op": record["op"],
            "name": record["name"],
            "saturation_rate": record["saturation_rate"],
            "points": [{k: p[k] for k in self._MODEL_FIELDS} for p in record["points"]],
        }

    def check(self, entries: list[Entry], refs: list[dict]) -> list[list[str]]:
        records = [self.record(e) for e in entries]
        cold = {
            r["name"]: (r, e) for r, e in zip(records, entries) if r["pass"] == "cold"
        }
        by_call = {(ref["op"], ref["name"]): ref for ref in refs}
        out = []
        for entry, rec in zip(entries, records):
            tag = f"{rec['pass']} {rec['name']}"
            ref = by_call.get((rec["op"], rec["name"]))
            if ref is None:
                out.append([f"{tag}: missing reference"])
                continue
            problems = self._check_model(tag, rec, ref)
            store = entry.meta["store"]
            if rec["pass"] == "cold":
                if store.served or len(store.stored) != len(rec["points"]):
                    problems.append(f"{tag}: expected every point to miss the empty cache")
                for _, r in store.stored:
                    problems += _check_sim_point(
                        f"{tag} {r.label}",
                        target_met=r.target_met,
                        saturated=r.saturated,
                        generated=r.generated_messages,
                        completed=r.completed_messages,
                        nominal=r.nominal_load,
                        offered=r.offered_load,
                        dispersion=count_dispersion(entry.meta["source"], r.nominal_load),
                    )
            else:
                problems += self._check_warm(tag, rec, store, cold.get(rec["name"]))
            out.append(problems)
        return out

    def _check_model(self, tag: str, rec: dict, ref: dict) -> list[str]:
        problems = []
        if not abs(rec["saturation_rate"] - ref["saturation_rate"]) <= SAT_ABS_TOL:
            problems.append(
                f"{tag}: saturation rate {rec['saturation_rate']!r} != "
                f"{ref['saturation_rate']!r}"
            )
        if len(rec["points"]) != len(ref["points"]):
            return problems + [f"{tag}: {len(rec['points'])} points, reference has {len(ref['points'])}"]
        for k, (p, q) in enumerate(zip(rec["points"], ref["points"])):
            tol = _rate_tol(p["rate"], q["rate"])
            for key in self._MODEL_FIELDS[1:]:
                if not _close(p[key], q[key], tol):
                    problems.append(f"{tag} p{k}: {key} {p[key]!r} != {q[key]!r}")
        return problems

    @staticmethod
    def _check_warm(tag: str, rec: dict, store: RecordingStore, cold) -> list[str]:
        if cold is None:
            return [f"{tag}: no cold pass to compare with"]
        cold_rec, cold_entry = cold
        problems = []
        if store.stored or len(store.served) != len(rec["points"]):
            problems.append(f"{tag}: expected every point to hit the full cache")
        stored = {task.task_key(): r for task, r in cold_entry.meta["store"].stored}
        for task, r in store.served:
            first = stored.get(task.task_key())
            if first is None or not r.payload_equal(first):
                problems.append(f"{tag} {r.label}: cached result differs from the cold one")
        if json.dumps(rec["points"]) != json.dumps(cold_rec["points"]):
            problems.append(f"{tag}: warm sweep points differ from the cold ones")
        return problems

    def summary(self, ledger: Ledger) -> dict:
        first = next(e for e in ledger.entries if e.op == "run_experiment")
        agree = agreement_metrics(first.result, "occupancy")
        return {
            "warm_s": sum(e.wall_ref for e in ledger.entries if e.meta["pass"] == "warm"),
            "uni_mape_pct": agree.unicast_mape,
            "mc_mape_pct": agree.multicast_mape,
            "points": agree.points_used,
        }

    def metrics(self, summaries: list[dict]) -> dict[str, tuple]:
        warm = [s["warm_s"] for s in summaries]
        first = summaries[0]
        note = f"occupancy model vs sim, {first['points']} points"
        return {
            "warm_s": (statistics.median(warm), f"median of {len(warm)} warm passes"),
            "uni_mape_pct": (first["uni_mape_pct"], note),
            "mc_mape_pct": (first["mc_mape_pct"], note),
        }


def make_workload(name: str, reference: dict, workdir: Path):
    if name == ModelDesignSpace.name:
        return ModelDesignSpace(reference["sets_seeds"])
    if name == SimLong.name:
        return SimLong()
    if name == ValidationMix.name:
        return ValidationMix(reference["sets_seeds"], workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOAD_NAMES = (ModelDesignSpace.name, SimLong.name, ValidationMix.name)
