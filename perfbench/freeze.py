#!/usr/bin/env python3
"""Regenerate ``perfbench/reference.json``.

It chooses the destination-set seeds the workload seeds fold onto, and
freezes the model outputs of each, as this commit computes them.  A seed
is chosen when the model design space on its sets needs a number of
fixed-point iterations close to the median over the first
``CANDIDATES`` seeds: the model's cost depends on where the saturation
search's probes land, and inputs of equal cost keep runs with different
workload seeds comparable.

Run from the repository root, only for a change that is meant to move
model results (and say so in its change log)::

    python3 perfbench/freeze.py
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import repro.core.model as model_mod  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

CANDIDATES = 40


def design_space(mds, sets_seed: int) -> tuple[int, list[dict]]:
    """Fixed-point iterations of the model design space on one
    destination-set seed, and its frozen outputs."""
    iterations = 0

    def count(span, args, kwargs, result) -> None:
        nonlocal iterations
        iterations += result.iterations

    tracer = Tracer()
    tracer.wrap(model_mod, "solve_service_times", "core.service", count)
    ledger = workloads.Ledger()
    try:
        mds.body(mds.build(sets_seed), ledger)
    finally:
        tracer.uninstall()
    return iterations, [mds.frozen(mds.record(e)) for e in ledger.entries]


def write_reference(reference: dict) -> None:
    """One record per line: exact floats and reviewable diffs."""
    lines = []
    for name, value in reference.items():
        head = "{" if not lines else ","
        if not isinstance(value, dict):
            lines.append(f"{head}{json.dumps(name)}: {json.dumps(value)}")
            continue
        lines.append(f"{head}{json.dumps(name)}: {{")
        for k, (variant, records) in enumerate(value.items()):
            lines.append(f'{"," if k else ""}"{variant}": [')
            lines += [("," if i else "") + json.dumps(r) for i, r in enumerate(records)]
            lines.append("]")
        lines.append("}")
    lines.append("}")
    workloads.REFERENCE.write_text("\n".join(lines) + "\n")


def main() -> int:
    mds = workloads.ModelDesignSpace([])
    costs = {}
    for seed in range(CANDIDATES):
        costs[seed] = design_space(mds, seed)
        print(f"sets seed {seed}: {costs[seed][0]} fixed-point iterations", flush=True)
    median = statistics.median(it for it, _ in costs.values())
    chosen = sorted(
        sorted(costs, key=lambda s: (abs(costs[s][0] - median), s))[: workloads.VARIANTS]
    )
    reference: dict = {
        "variants": workloads.VARIANTS,
        "sets_seeds": chosen,
        "sets_seed_iterations": [costs[s][0] for s in chosen],
        workloads.ModelDesignSpace.name: {
            str(v): costs[s][1] for v, s in enumerate(chosen)
        },
    }
    vm = workloads.ValidationMix(chosen, HERE.parent / ".perfbench" / "freeze")
    frozen_vm = {}
    for v, sets_seed in enumerate(chosen):
        state = vm.build(sets_seed, v)
        ledger = workloads.Ledger()
        try:
            vm.body(state, ledger)
        finally:
            vm.teardown(state)
        frozen = (vm.frozen(vm.record(e)) for e in ledger.entries)
        frozen_vm[str(v)] = [f for f in frozen if f is not None]
        print(f"validation-mix variant {v}: {len(ledger.entries)} calls", flush=True)
    reference[workloads.ValidationMix.name] = frozen_vm
    write_reference(reference)
    return 0


if __name__ == "__main__":
    sys.exit(main())
