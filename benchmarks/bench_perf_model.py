"""Experiment B-perf (model side): cost of the analytical model across
network sizes -- the point of an analytical model is being orders of
magnitude cheaper than simulation, so we track its cost.

Cases (all Quarc, M=32, alpha=5 %, random sets of seed 1, occupancy
recursion):

* ``model_evaluate[N]``: one ``evaluate`` on a warm model at the bench
  load ``0.024 / N``, N in {16, 32, 64, 128};
* ``model_solve[128]``: the Eq. 6 solve alone at N=128;
* ``saturation_search[quarcN]``: one ``saturation_rate`` search on a
  fresh model (so it pays for building the flows), N in {16, 64}.

Under pytest (``pytest benchmarks/bench_perf_model.py --benchmark-only``)
each case records its pytest-benchmark wall-time median to
``BENCH_perf_model.json`` at the repository root.  As a script it makes
an interleaved CPU-time A/B of this checkout against another one::

    PYTHONPATH=src python benchmarks/bench_perf_model.py --base /path/to/checkout --record

Each case runs in ten pairs of fresh subprocesses (``PYTHONPATH`` pointed
at one checkout's ``src``), alternating which side runs first; a
measurement is the median process-CPU time of the case's timed calls
after one untimed warm-up call.  Results must agree between the
checkouts (latencies to a relative 1e-6, saturation rates to 2e-6).
Reported per case: both sides' quartiles, ``speedup`` = median pairwise
base/head ratio, the pairs the head won, the base's noise band
(interquartile range over median) and a verdict (``native_ab.verdict``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

from native_ab import quartiles, verdict
from perf_record import record_metric
from repro.core import AnalyticalModel, TrafficSpec
from repro.routing import QuarcRouting
from repro.topology import QuarcTopology
from repro.workloads import random_multicast_sets

BENCH_MODEL_FILE = Path(__file__).resolve().parent.parent / "BENCH_perf_model.json"
PAIRS = 10

#: case -> (kind, N, timed calls per measurement)
CASES = {
    "model_evaluate[16]": ("evaluate", 16, 20),
    "model_evaluate[32]": ("evaluate", 32, 10),
    "model_evaluate[64]": ("evaluate", 64, 5),
    "model_evaluate[128]": ("evaluate", 128, 3),
    "model_solve[128]": ("solve", 128, 3),
    "saturation_search[quarc16]": ("saturation", 16, 3),
    "saturation_search[quarc64]": ("saturation", 64, 1),
}


def build(name: str):
    """A zero-argument call that performs one measured operation of case
    ``name`` (the first call warms a model's caches)."""
    kind, n, _ = CASES[name]
    topo = QuarcTopology(n)
    routing = QuarcRouting(topo)
    if kind == "saturation":
        sets = random_multicast_sets(routing, group_size=6 if n == 16 else n // 8, seed=1)
        spec = TrafficSpec(1e-6, 0.05, 32, sets)
        return lambda: AnalyticalModel(topo, routing, recursion="occupancy").saturation_rate(spec)
    model = AnalyticalModel(topo, routing, recursion="occupancy")
    sets = random_multicast_sets(routing, group_size=max(3, n // 8), seed=1)
    # per-node stable load shrinks with N: rim utilisation scales ~ N/16
    spec = TrafficSpec(0.024 / n, 0.05, 32, sets)
    return lambda: getattr(model, kind)(spec)


def _summary(result) -> list[float]:
    if isinstance(result, float):
        return [result]
    if hasattr(result, "unicast_latency"):
        return [result.unicast_latency, result.multicast_latency, result.max_utilization]
    return [result.max_utilization, float(result.converged)]


def _record(name: str, benchmark) -> None:
    stats = benchmark.stats.stats
    record_metric(
        name,
        {"timer": "wall (pytest-benchmark)", "median_s": stats.median, "min_s": stats.min,
         "rounds": stats.rounds},
        path=BENCH_MODEL_FILE,
    )


@pytest.mark.parametrize("n", [16, 32, 64, 128])
def test_model_evaluation(benchmark, n):
    name = f"model_evaluate[{n}]"
    result = benchmark.pedantic(build(name), rounds=CASES[name][2], warmup_rounds=1)
    assert result.finite
    _record(name, benchmark)


def test_model_solve_only_128(benchmark):
    """Just the Eq. 6 fixed point (no latency assembly) at N = 128."""
    name = "model_solve[128]"
    res = benchmark.pedantic(build(name), rounds=CASES[name][2], warmup_rounds=1)
    assert res.converged
    _record(name, benchmark)


@pytest.mark.parametrize("n", [16, 64])
def test_saturation_search(benchmark, n):
    name = f"saturation_search[quarc{n}]"
    sat = benchmark.pedantic(build(name), rounds=CASES[name][2], warmup_rounds=1)
    assert 0.0 < sat < 1.0
    _record(name, benchmark)


# ---------------------------------------------------------------------- #
# cross-checkout A/B                                                      #
# ---------------------------------------------------------------------- #
def measure(name: str) -> dict:
    """One measurement of case ``name`` in this process."""
    call = build(name)
    result = call()
    times = []
    for _ in range(CASES[name][2]):
        t0 = time.process_time()
        result = call()
        times.append(time.process_time() - t0)
    return {"cpu_s": statistics.median(times), "summary": _summary(result)}


def run_side(checkout: Path, name: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--measure", name],
        env=env, check=True, capture_output=True, text=True, timeout=1200,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _agree(base: list[float], head: list[float], saturation: bool) -> bool:
    if saturation:
        return abs(base[0] - head[0]) <= 2e-6
    return all(
        (math.isnan(b) and math.isnan(h)) or math.isclose(b, h, rel_tol=1e-6)
        for b, h in zip(base, head)
    )


def ab(base: Path, head: Path, name: str) -> dict:
    base_cpu, head_cpu, ratios = [], [], []
    for i in range(PAIRS):
        order = [("base", base), ("head", head)]
        if i % 2:
            order.reverse()
        got = {side: run_side(path, name) for side, path in order}
        if not _agree(got["base"]["summary"], got["head"]["summary"],
                      CASES[name][0] == "saturation"):
            raise SystemExit(f"{name}: results differ between checkouts: {got}")
        base_cpu.append(got["base"]["cpu_s"])
        head_cpu.append(got["head"]["cpu_s"])
        ratios.append(base_cpu[-1] / head_cpu[-1])
        print(f"  {name} pair {i + 1}: base {base_cpu[-1]:.5f} s, "
              f"head {head_cpu[-1]:.5f} s", file=sys.stderr)
    bq, hq = quartiles(base_cpu), quartiles(head_cpu)
    head_wins = sum(r > 1.0 for r in ratios)
    return {
        "timer": "process CPU, median of timed calls per measurement",
        "timed_calls": CASES[name][2],
        "pairs": PAIRS,
        "base_cpu_s_quartiles": [round(x, 6) for x in bq],
        "head_cpu_s_quartiles": [round(x, 6) for x in hq],
        "speedup": round(statistics.median(ratios), 2),
        "head_wins": head_wins,
        "noise_band": round((bq[2] - bq[0]) / bq[1], 3),
        "verdict": verdict(base_cpu, head_cpu, head_wins),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", type=Path, help="checkout to compare against")
    p.add_argument("--record", action="store_true",
                   help="append the results to BENCH_perf_model.json")
    p.add_argument("--measure", choices=sorted(CASES), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.measure)))
        return 0
    if args.base is None:
        p.error("--base is required")
    head = Path(__file__).resolve().parent.parent
    for name in CASES:
        entry = ab(args.base.resolve(), head, name)
        print(json.dumps({name: entry}, indent=1))
        if args.record:
            record_metric(name, entry, path=BENCH_MODEL_FILE)
    return 0


if __name__ == "__main__":
    sys.exit(main())
