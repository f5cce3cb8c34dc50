#!/usr/bin/env python3
"""Repository benchmark: end-to-end and per-layer metrics of the model,
the simulator and the sweep/scenario harness.

Run from the repository root::

    python3 perfbench/run.py --workload model-design-space --seed 1 --seconds 50 --trace 0

``--trace 0`` runs bodies of the workload back to back while another
fits in ``--seconds``, and prints the end-to-end metrics.
``--trace 1`` runs one untraced body, then sets up again and runs one
body with timing wrappers on every layer boundary, and prints the
per-layer metrics; the spans are written to
``.perfbench/trace-<workload>-seed<seed>.json``.  Either way the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
#: fresh interpreters timed from start to the end of set-up; setup_s is their median
SETUP_PROBES = 5
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seconds", type=int, default=50)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def probe_setup(args) -> float:
    """Seconds from launching a fresh interpreter to the end of the
    workload's set-up (imports, network, model and simulator builds)."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return elapsed


def digest(records: list[dict]) -> str:
    blob = json.dumps(records, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


class Outcome:
    """Check results, digests and timings of the bodies one run made.
    Outputs are dropped after each body, so memory does not grow with
    the number of bodies."""

    def __init__(self, wl, reference: list[dict]) -> None:
        self.wl = wl
        self.reference = reference
        self.summaries: list[dict] = []
        #: per body, (wall_ref, cpu_ref, wall, cpu) of each call in order
        self.calls: list[list[tuple[float, float, float, float]]] = []
        self.digests: list[str] = []
        self.kernels: set[str] = set()
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def add(self, ledger) -> None:
        entries = ledger.entries
        checks = self.wl.check(entries, self.reference)
        self.attempted += len(entries)
        self.failed += sum(1 for c in checks if c)
        self.problems += [p for c in checks for p in c]
        self.digests.append(digest([self.wl.record(e) for e in entries]))
        self.summaries.append(self.wl.summary(ledger))
        self.calls.append([(e.wall_ref, e.cpu_ref, e.wall, e.cpu) for e in entries])
        # simulator kernels that ran ("c" when the extension is built)
        for e in entries:
            if hasattr(e.result, "kernel"):
                self.kernels.add(e.result.kernel)
            if "store" in e.meta:
                self.kernels.update(r.kernel for _, r in e.meta["store"].stored)


def run_body(wl, state, outcome: Outcome) -> float:
    """Run one body; returns its wall time."""
    from workloads import Ledger

    ledger = Ledger()
    w0 = time.perf_counter()
    wl.body(state, ledger)
    wall = time.perf_counter() - w0
    outcome.add(ledger)
    return wall


def _list(values) -> str:
    return " ".join(f"{v:.3f}" for v in values)


def measure(wl, args, outcome: Outcome) -> dict[str, tuple]:
    setup = [probe_setup(args) for _ in range(SETUP_PROBES)]
    state = wl.setup(args.seed)
    try:
        start = time.perf_counter()
        while True:
            wall = run_body(wl, state, outcome)
            if time.perf_counter() - start + wall > args.seconds:
                break
    finally:
        wl.teardown(state)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Each call at its median over the bodies, summed, in host-normalised
    # seconds: slowdowns that hit a minority of the bodies at any one call
    # drop out, and the calibration next to each call takes out the rest.
    # Bodies repeat the same calls in the same order.
    if len({len(calls) for calls in outcome.calls}) != 1:
        raise RuntimeError("bodies made different numbers of calls")
    per_call = list(zip(*outcome.calls))

    def summed(k: int) -> float:
        return sum(statistics.median(c[k] for c in call) for call in per_call)

    note = f"{len(per_call)} calls x median of {len(outcome.calls)} bodies"
    out = {
        "setup_s": (statistics.median(setup), f"median of {len(setup)} fresh interpreters: {_list(setup)}"),
        "wall_s": (summed(0), f"{note}; unnormalised {summed(2):.3f}"),
        "cpu_s": (summed(1), f"{note}; unnormalised {summed(3):.3f}"),
        "peak_rss_mb": (rss_mb, "peak resident set of the measuring process"),
    }
    out.update(wl.metrics(outcome.summaries))
    return out


def trace(wl, args, outcome: Outcome) -> dict[str, tuple]:
    import layers
    from tracing import Tracer, self_test
    from workloads import Ledger

    state = wl.setup(args.seed)
    try:
        run_body(wl, state, outcome)
    finally:
        wl.teardown(state)

    tracer = Tracer()
    replays = layers.install(tracer)
    try:
        span = tracer.open("bench.setup")
        state = wl.setup(args.seed)
        tracer.close(span)
        ledger = Ledger()
        body = tracer.open("bench.body")
        try:
            wl.body(state, ledger)
        finally:
            tracer.close(body)
            wl.teardown(state)
    finally:
        tracer.uninstall()
    outcome.add(ledger)
    if outcome.digests[1] != outcome.digests[0]:
        outcome.failed += 1
        outcome.problems.append("traced digest differs from the untraced one")
    if not self_test():
        outcome.failed += 1
        outcome.problems.append("self-time arithmetic self-test failed")
    outcome.attempted += 2
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{wl.name}-seed{args.seed}.json")
    out = {k: (v, "traced body") for k, v in layers.metrics(tracer, body, replays).items()}
    # host-normalised call times, so that host speed changes between the
    # two bodies do not read as tracing cost
    untraced, traced = (sum(c[0] for c in calls) for calls in outcome.calls)
    out["trace.overhead_pct"] = (
        100.0 * (traced - untraced) / untraced, "traced vs untraced body, host-normalised"
    )
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOAD_NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.WORKLOAD_NAMES)}", file=sys.stderr)
        return 2
    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    reference = workloads.load_reference()
    wl = workloads.make_workload(args.workload, reference, OUT / f"work-{os.getpid()}")
    if args.setup_probe:
        wl.teardown(wl.setup(args.seed))
        print("ready", flush=True)
        return 0

    from repro.sim import cext

    variant = str(args.seed % workloads.VARIANTS)
    outcome = Outcome(wl, reference.get(wl.name, {}).get(variant, []))
    if args.trace:
        import layers

        values = trace(wl, args, outcome)
        units = reported = layers.UNITS
    else:
        values = measure(wl, args, outcome)
        units = {**END_TO_END_UNITS, **wl.metric_units}
        reported = END_TO_END_UNITS

    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace} "
          f"bodies={len(outcome.calls)}")
    print(f"  sim.kernel={','.join(sorted(outcome.kernels)) or '-'} "
          f"cext.available={cext.available()} "
          f"cext.reason={cext.unavailable_reason() or '-'}")
    for name, (value, note) in values.items():
        print(f"  {name:40s} {value:>16.6g} {units[name]:9s} {note}")
    print(f"  digest sha256:{outcome.digests[0]}"
          + ("" if len(set(outcome.digests)) == 1 else "  (differs between bodies)"))
    for problem in outcome.problems[:20]:
        print(f"  FAILED {problem}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, (value, _) in values.items()
            if name in reported
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
