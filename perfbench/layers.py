"""Per-layer metrics: which public names the traced run wraps, and how
the spans roll up into the per-layer metrics of ``BENCHMARK.json``.

Each wrapper is installed where the caller looks the name up, e.g.
``AnalyticalModel.solve`` calls ``repro.core.model.build_flows`` and
``iter_task_results`` calls ``repro.orchestration.executor.execute_task``.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

import repro.core.model as model_mod
import repro.experiments.runner as runner_mod
import repro.orchestration.executor as executor_mod
import repro.traffic.scenarios as scenarios_mod
from repro.core.channel_graph import ChannelGraph
from repro.core.model import AnalyticalModel
from repro.experiments.io import ResultCache
from repro.sim.network import NocSimulator, SimConfig
from repro.traffic import SourceSpec
from repro.traffic.scenarios import Scenario
from tracing import Span, Tracer, self_times

#: per-layer metric -> unit
UNITS = {
    "core.flows.self_s": "s",
    "core.service.self_s": "s",
    "core.service.iterations": "count",
    "core.model.evaluate.calls": "count",
    "core.unicast.self_s": "s",
    "core.multicast.self_s": "s",
    "core.channel_graph.build_s": "s",
    "sim.network.build_s": "s",
    "sim.network.run.self_s": "s",
    "sim.events": "count",
    "sim.cycles": "cycles",
    "sim.events_per_s": "1/s",
    "sim.arrivals.us_per_arrival": "us",
    "sim.run.onoff.self_s": "s",
    "sim.run.faulted.self_s": "s",
    "orchestration.execute_task.overhead_s": "s",
    "orchestration.run_tasks.self_s": "s",
    "experiments.io.cache_get_s": "s",
    "experiments.io.cache_put_s": "s",
    "experiments.io.cache_hit_ratio": "ratio",
    "experiments.runner.model_series.self_s": "s",
    "experiments.model_share": "ratio",
    "trace.overhead_pct": "%",
}


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def _note_service(span: Span, args, kwargs, result) -> None:
    span.attrs["iterations"] = result.iterations


def _note_cache_get(span: Span, args, kwargs, result) -> None:
    span.attrs["hit"] = result is not None


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every layer boundary; returns the list that collects, per
    Poisson run with uniform destinations, what :func:`drain_arrivals`
    needs to replay its arrival stream."""
    replays: list[tuple] = []

    def note_run(span: Span, args, kwargs, result) -> None:
        span.attrs.update(
            events=result.events,
            cycles=result.sim_time,
            source=result.source,
            faulted=kwargs.get("faults") is not None,
            kernel=result.kernel,
        )
        source = kwargs.get("source")
        spec = _arg(args, kwargs, 1, "spec")
        if (source is None or source == SourceSpec()) and spec.unicast_weights is None:
            config = _arg(args, kwargs, 2, "config") or SimConfig()
            replays.append((args[0].topology.num_nodes, spec, config, result.sim_time))

    tracer.wrap(model_mod, "build_flows", "core.flows")
    tracer.wrap(model_mod, "solve_service_times", "core.service", _note_service)
    tracer.wrap(model_mod, "average_unicast_latency", "core.unicast")
    tracer.wrap(model_mod, "average_multicast_latency", "core.multicast")
    tracer.wrap(AnalyticalModel, "evaluate", "core.model.evaluate")
    tracer.wrap(AnalyticalModel, "saturation_rate", "core.model.saturation_rate")
    tracer.wrap(ChannelGraph, "__init__", "core.channel_graph.build")
    tracer.wrap(NocSimulator, "__init__", "sim.network.build")
    tracer.wrap(NocSimulator, "run", "sim.network.run", note_run)
    tracer.wrap(executor_mod, "execute_task", "orchestration.execute_task")
    tracer.wrap(runner_mod, "run_tasks", "orchestration.run_tasks")
    tracer.wrap(scenarios_mod, "run_tasks", "orchestration.run_tasks")
    tracer.wrap(ResultCache, "get", "experiments.io.cache_get", _note_cache_get)
    tracer.wrap(ResultCache, "put", "experiments.io.cache_put")
    tracer.wrap(runner_mod, "model_series", "experiments.runner.model_series")
    tracer.wrap(Scenario, "model_series", "traffic.scenarios.model_series")
    return replays


def drain_arrivals(num_nodes: int, spec, config, horizon: float) -> tuple[int, float]:
    """Replay a Poisson run's arrival stream up to ``horizon`` with a
    no-op spawn: ``(arrivals, seconds)``.  Built exactly as
    ``NocSimulator.run`` builds it, so it draws the same realisation."""
    nodes = (
        sorted(node for node, dests in spec.multicast_sets.items() if dests)
        if spec.multicast_rate > 0.0
        else []
    )
    stream = SourceSpec().make_stream(
        np.random.default_rng(config.seed),
        num_nodes,
        spec.unicast_rate,
        spec.multicast_rate,
        nodes,
        None,
        lambda t, node, dest: None,
        arrival_mode=config.arrival_mode,
    )
    count = 0
    t0 = time.perf_counter()
    while stream.next_time <= horizon:
        stream.fire(stream.next_time)
        count += 1
    return count, time.perf_counter() - t0


def metrics(tracer: Tracer, body: Span, replays: list[tuple]) -> dict[str, float]:
    """Roll the traced run's spans up into the per-layer metrics (all but
    ``trace.overhead_pct``, which compares with the untraced body)."""
    spans = tracer.spans
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)

    def self_s(name: str, keep=lambda s: True) -> float:
        return sum(selfs[s.sid] for s in by_name[name] if keep(s))

    def total_s(name: str) -> float:
        return sum(s.duration for s in by_name[name])

    runs = by_name["sim.network.run"]
    run_self = self_s("sim.network.run")
    events = sum(s.attrs["events"] for s in runs)
    arrivals = 0
    drain_s = 0.0
    for replay in replays:
        count, seconds = drain_arrivals(*replay)
        arrivals += count
        drain_s += seconds
    gets = by_name["experiments.io.cache_get"]
    core_in_body = sum(
        selfs[s.sid]
        for s in spans
        if s.name.startswith("core.") and body.start <= s.start and s.end <= body.end
    )
    return {
        "core.flows.self_s": self_s("core.flows"),
        "core.service.self_s": self_s("core.service"),
        "core.service.iterations": sum(s.attrs["iterations"] for s in by_name["core.service"]),
        "core.model.evaluate.calls": len(by_name["core.model.evaluate"]),
        "core.unicast.self_s": self_s("core.unicast"),
        "core.multicast.self_s": self_s("core.multicast"),
        "core.channel_graph.build_s": total_s("core.channel_graph.build"),
        "sim.network.build_s": total_s("sim.network.build"),
        "sim.network.run.self_s": run_self,
        "sim.events": events,
        "sim.cycles": sum(s.attrs["cycles"] for s in runs),
        "sim.events_per_s": events / run_self if run_self > 0.0 else 0.0,
        "sim.arrivals.us_per_arrival": 1e6 * drain_s / arrivals if arrivals else 0.0,
        "sim.run.onoff.self_s": self_s(
            "sim.network.run", lambda s: s.attrs["source"].startswith("onoff")
        ),
        "sim.run.faulted.self_s": self_s("sim.network.run", lambda s: s.attrs["faulted"]),
        "orchestration.execute_task.overhead_s": sum(
            s.duration
            - sum(c.duration for c in children[s.sid] if c.name == "sim.network.run")
            for s in by_name["orchestration.execute_task"]
        ),
        "orchestration.run_tasks.self_s": self_s("orchestration.run_tasks"),
        "experiments.io.cache_get_s": total_s("experiments.io.cache_get"),
        "experiments.io.cache_put_s": total_s("experiments.io.cache_put"),
        "experiments.io.cache_hit_ratio": (
            sum(s.attrs["hit"] for s in gets) / len(gets) if gets else 0.0
        ),
        "experiments.runner.model_series.self_s": self_s("experiments.runner.model_series"),
        "experiments.model_share": core_in_body / body.duration,
    }
