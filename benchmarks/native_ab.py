"""Interleaved A/B of the compiled kernel across two checkouts.

Two builds of ``repro.sim._cstep`` cannot share one interpreter, so each
measurement runs in a fresh subprocess with ``PYTHONPATH`` pointed at one
checkout's ``src``.  Build the extension in both checkouts first
(``python setup.py build_ext --inplace``), then run, from this one::

    PYTHONPATH=src python benchmarks/native_ab.py --base /path/to/other/checkout --record

Both scenarios of :mod:`c_kernel_scenarios` are measured in ten pairs;
each pair measures both checkouts back to back, alternating which runs
first.  A measurement warms the route caches with one run, then takes
the best process-CPU time of the scenario's timed runs of
``NocSimulator.run`` with ``kernel="c"``.  Results must be bitwise
identical between the checkouts.  Reported per scenario: each side's
quartiles, ``speedup`` = median over pairs of base CPU / head CPU, the
number of pairs the head won, the base's own noise band (interquartile
range over median) and a ``verdict`` (see :func:`verdict`).  ``--record``
appends ``kernel_speedup[c-64]`` and ``kernel_speedup[c-1024]`` to
``BENCH_perf_sim.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from c_kernel_scenarios import C_SCENARIOS, best_of, build
from perf_record import record_metric

from repro.sim import ENGINE_VERSION, NocSimulator

PAIRS = 10

#: largest tolerated slowdown of the head's median CPU time, as a
#: fraction of the base's; the same relative bound the repository
#: benchmark puts on ``cpu_s``
BOUND = 0.2


def measure(name: str) -> dict:
    """Run one scenario in this process and return its timing and the
    result fields that must not differ between checkouts."""
    topo, routing, spec, cfg = build(name)
    sim = NocSimulator(topo, routing, kernel="c")
    result = sim.run(spec, cfg)  # warm route caches
    best = float("inf")
    for _ in range(best_of(name)):
        t0 = time.process_time()
        sim.run(spec, cfg)
        best = min(best, time.process_time() - t0)
    return {
        "cpu_s": best,
        "engine": ENGINE_VERSION,
        "kernel": result.kernel,
        "fingerprint": [result.events, result.sim_time, result.unicast.mean,
                        result.multicast.mean, result.unicast.count,
                        result.multicast.count],
    }


def run_side(checkout: Path, name: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    env.pop("REPRO_NO_CEXT", None)
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--measure", name],
        env=env, check=True, capture_output=True, text=True, timeout=600,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def verdict(base: list[float], head: list[float], head_wins: int) -> str:
    """Read a CPU-time A/B (lower is better).

    ``"faster"`` when the head won at least nine pairs in ten and its
    median is below the base's by more than the base's interquartile
    range, or when every head run beat every base run.  Otherwise
    ``"unresolved"`` when the base's noise band (interquartile range over
    median) is wider than ``BOUND``: a slowdown of that size would not
    show.  Otherwise ``"within bound"`` or ``"slower"``, by whether the
    head's median is within ``BOUND`` of the base's.
    """
    q1, q2, q3 = quartiles(base)
    head_median = statistics.median(head)
    if (head_wins >= 0.9 * len(base) and q2 - head_median > q3 - q1) or max(head) < min(base):
        return "faster"
    if (q3 - q1) / q2 > BOUND:
        return "unresolved"
    return "within bound" if head_median <= (1.0 + BOUND) * q2 else "slower"


def ab(base: Path, head: Path, name: str) -> dict:
    base_cpu, head_cpu, ratios = [], [], []
    ref = None
    for i in range(PAIRS):
        order = [("base", base), ("head", head)]
        if i % 2:
            order.reverse()
        got = {side: run_side(path, name) for side, path in order}
        for side, r in got.items():
            if r["kernel"] != "c":
                raise SystemExit(f"{side} checkout ran kernel {r['kernel']!r}, not 'c'")
        if got["base"]["fingerprint"] != got["head"]["fingerprint"]:
            raise SystemExit(f"{name}: results differ between checkouts")
        ref = got["head"]
        base_cpu.append(got["base"]["cpu_s"])
        head_cpu.append(got["head"]["cpu_s"])
        ratios.append(got["base"]["cpu_s"] / got["head"]["cpu_s"])
        print(f"  {name} pair {i + 1}: base {base_cpu[-1]:.4f} s, "
              f"head {head_cpu[-1]:.4f} s", file=sys.stderr)
    bq, hq = quartiles(base_cpu), quartiles(head_cpu)
    events = ref["fingerprint"][0]
    head_wins = sum(r > 1.0 for r in ratios)
    return {
        "old_kernel": "c (base checkout)",
        "new_kernel": "c",
        "new_engine": ref["engine"],
        "events": events,
        "pairs": PAIRS,
        "best_of": best_of(name),
        "old_cpu_s_quartiles": [round(x, 5) for x in bq],
        "new_cpu_s_quartiles": [round(x, 5) for x in hq],
        "old_events_per_sec": round(events / bq[1]),
        "new_events_per_sec": round(events / hq[1]),
        "speedup": round(statistics.median(ratios), 3),
        "head_wins": head_wins,
        "noise_band": round((bq[2] - bq[0]) / bq[1], 3),
        "bound": BOUND,
        "verdict": verdict(base_cpu, head_cpu, head_wins),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", type=Path, help="checkout to compare against")
    p.add_argument("--record", action="store_true",
                   help="append the results to BENCH_perf_sim.json")
    p.add_argument("--measure", choices=sorted(C_SCENARIOS), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.measure)))
        return 0
    if args.base is None:
        p.error("--base is required")
    for name in C_SCENARIOS:
        entry = ab(args.base.resolve(), Path(__file__).resolve().parent.parent, name)
        entry["note"] = (
            "interleaved cross-checkout A/B of the compiled kernel, one "
            "subprocess per measurement, alternating order; speedup = median "
            "pairwise base/head CPU ratio, noise_band = base IQR / median"
        )
        print(json.dumps({name: entry}, indent=1))
        if args.record:
            record_metric(f"kernel_speedup[{name}]", entry)
    return 0


if __name__ == "__main__":
    sys.exit(main())
