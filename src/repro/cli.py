"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``evaluate``
    One-shot model prediction (optionally validated by simulation).
``sweep``
    Regenerate a Figure 6/7 panel (series table + ASCII chart).
``grid``
    Run the paper's whole Figure 6/7 grid through one executor.
``hops``
    The T-hops broadcast table (Quarc N/4 vs Spidergon N-1).
``saturation``
    Model saturation rates over network sizes and message lengths.
``explain``
    Per-port decomposition of one node's multicast latency.
``cache``
    Inspect (``cache info``), selectively evict (``cache prune``) or
    empty (``cache clear``) the simulation result cache, including
    entries stranded by an older engine version.
``scenario``
    Traffic scenarios: ``scenario list`` the registry, ``scenario
    describe NAME`` one spec as JSON, ``scenario run NAME...`` the
    model-vs-sim divergence study under non-Poisson injection (CBR,
    ON/OFF bursts, hotspots, trace replay) through the same
    executor/cache stack as ``sweep``/``grid``, and ``scenario record``
    a replayable arrival trace.
``lint``
    Contract-aware static analysis: determinism (no ambient RNG or
    wall-clock in the simulation core), hash coverage (every dataclass
    field reaches its canonical key dict), picklability of
    frame-boundary types, and the protocol message registry.  Exits 0
    clean, 1 with findings, 2 on usage errors.
``worker``
    Run a task-execution daemon that serves a remote coordinator
    (``repro worker tcp://host:port``); ``--reconnect`` makes it
    survive coordinator crashes and restarts.

Distributed runs are fault-tolerant: ``--journal``/``--resume``
checkpoint completed tasks so a killed coordinator resumes where it
stopped, ``--task-timeout``/``--max-task-retries`` bound wedged workers
and quarantine poison tasks, and ``--cluster-key`` (or
``$REPRO_CLUSTER_KEY``) HMAC-signs every frame on the wire.

``sweep`` and ``grid`` accept ``--ci-rel R`` (with ``--min-reps`` /
``--max-reps``) to replace the fixed per-point sample budget with
precision-driven replication: each point runs seed-deterministic
replication rounds until the pooled Student-t 95% half-width of its
mean latency is below ``R`` of the mean (``--samples`` then budgets one
replication), and the report prints the achieved half-widths.

``sweep`` and ``grid`` accept ``--jobs N`` to fan simulation points out
over N worker processes, or ``--workers tcp://HOST:PORT`` to bind a
coordinator there and farm the points out to ``repro worker`` daemons on
any machine that can reach it; they and ``evaluate --sim`` cache
simulation results on disk under ``--cache-dir`` (disable with
``--no-cache``).  ``saturation`` is model-only and takes ``--jobs``
alone.  Results are identical for any job count or cluster width, and
cached results are stamped with the kernel's engine version -- a result
simulated by an older kernel is reported and re-simulated, never served
silently.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

from repro.core import AnalyticalModel, TrafficSpec
from repro.core.explain import explain_multicast
from repro.experiments import render_broadcast_hops_table
from repro.experiments.charts import chart_experiment
from repro.experiments.compare import render_grid_summary, run_grid
from repro.experiments.config import ExperimentConfig, paper_grid
from repro.experiments.io import DEFAULT_CACHE_DIR, ResultCache
from repro.experiments.report import render_series
from repro.experiments.runner import budget_sim_config, run_experiment
from repro.orchestration import SimTask, make_executor, run_tasks
from repro.routing import QuarcRouting
from repro.sim import AdaptiveSettings, SimConfig
from repro.topology import QuarcTopology
from repro.workloads import random_multicast_sets

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Multicast latency in wormhole-routed NoCs: analytical model + "
            "flit-level simulator (Moadeli & Vanderbauwhede, IPDPS 2009)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--nodes", "-n", type=int, default=16, help="Quarc size N")
        p.add_argument("--msg", "-m", type=int, default=32, help="message length (flits)")
        p.add_argument("--alpha", type=float, default=5.0, help="multicast %% of traffic")
        p.add_argument("--group", type=int, default=None, help="multicast group size")
        p.add_argument("--seed", type=int, default=2009)
        p.add_argument(
            "--recursion", choices=["paper", "occupancy"], default="occupancy",
            help="service-time recursion variant",
        )
        p.add_argument(
            "--arrival-mode", choices=["legacy", "vectorized"],
            default="legacy",
            help="simulator arrival generation: 'legacy' replays the "
                 "frozen scalar draw order bit-exactly; 'vectorized' "
                 "draws numpy blocks (faster, statistically identical, "
                 "different sample path for a fixed seed)",
        )

    def jobs_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", "-j", type=int, default=1,
                       help="worker processes (1 = run in-process)")

    def cache_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--no-cache", action="store_true",
                       help="do not read or write the simulation result cache")
        p.add_argument("--cache-dir", type=str, default=DEFAULT_CACHE_DIR,
                       metavar="DIR", help="result cache location")

    def orchestration(p: argparse.ArgumentParser) -> None:
        jobs_arg(p)
        cache_args(p)
        p.add_argument(
            "--workers", type=str, default=None, metavar="tcp://HOST:PORT",
            help="bind a coordinator at this endpoint and run the simulation "
                 "tasks on 'repro worker' daemons that connect to it "
                 "(overrides --jobs; results are identical either way)",
        )
        dist = p.add_argument_group(
            "distributed fault tolerance (require --workers)"
        )
        dist.add_argument(
            "--task-timeout", type=float, default=None, metavar="SECONDS",
            help="per-dispatch deadline: a worker holding one task longer "
                 "is cut loose and the task re-queued (default: none)",
        )
        dist.add_argument(
            "--max-task-retries", type=int, default=None, metavar="N",
            help="re-dispatches allowed after a task takes a worker down "
                 "with it, before the task is quarantined as poison "
                 "(default: 2)",
        )
        dist.add_argument(
            "--heartbeat-timeout", type=float, default=None, metavar="SECONDS",
            help="silence window after which a worker is declared lost and "
                 "its task re-queued (default: 15)",
        )
        dist.add_argument(
            "--cluster-key", type=str, default=None, metavar="KEY",
            help="HMAC-sign every frame with this shared secret; workers "
                 "must present the same key (default: $REPRO_CLUSTER_KEY "
                 "if set, else unsigned)",
        )
        dist.add_argument(
            "--journal", type=str, default=None, metavar="PATH",
            help="append each completed task to this checkpoint journal "
                 "(fsync'd), making the run resumable after a crash",
        )
        dist.add_argument(
            "--resume", type=str, default=None, metavar="PATH",
            help="resume from an existing checkpoint journal: journaled "
                 "tasks are served from it, only unfinished ones run "
                 "(implies --journal PATH; the file must exist)",
        )

    def adaptive_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--ci-rel", type=float, default=None, metavar="R",
            help="adaptive sampling: per point, run independent replications "
                 "in rounds until the pooled Student-t 95%% half-width of "
                 "mean latency is <= R * mean (e.g. 0.05); --samples then "
                 "sets the per-replication budget.  Default: one fixed run "
                 "per point",
        )
        p.add_argument("--min-reps", type=int, default=3, metavar="N",
                       help="adaptive sampling: initial replication round "
                            "(>= 2; also the smallest stop count)")
        p.add_argument("--max-reps", type=int, default=24, metavar="N",
                       help="adaptive sampling: hard per-point cap")
        p.add_argument("--growth", type=float, default=1.5, metavar="G",
                       help="adaptive sampling: round growth factor (> 1; "
                            "each top-up round asks for ceil((G-1) * reps) "
                            "more replications)")

    p_eval = sub.add_parser("evaluate", help="one-shot model prediction")
    common(p_eval)
    cache_args(p_eval)  # a single simulation: cacheable, nothing to fan out
    p_eval.add_argument("--rate", type=float, required=True, help="msgs/node/cycle")
    p_eval.add_argument("--sim", action="store_true", help="validate by simulation")
    p_eval.add_argument("--one-port", action="store_true")

    p_sweep = sub.add_parser("sweep", help="regenerate a figure panel")
    common(p_sweep)
    orchestration(p_sweep)
    adaptive_args(p_sweep)
    p_sweep.add_argument(
        "--dests", choices=["random", "localized"], default="random",
        help="fig6 (random) or fig7 (localized) destination sets",
    )
    p_sweep.add_argument("--rim", choices=["L", "R", "CL", "CR"], default=None)
    p_sweep.add_argument("--points", type=int, default=6, help="sweep points")
    p_sweep.add_argument("--no-sim", action="store_true", help="model only")
    p_sweep.add_argument("--chart", action="store_true", help="ASCII chart")
    p_sweep.add_argument("--samples", type=int, default=1000,
                         help="unicast latency samples per point")
    p_sweep.add_argument("--json", type=str, default=None, metavar="PATH",
                         help="save the series as JSON")
    p_sweep.add_argument("--csv", type=str, default=None, metavar="PATH",
                         help="save the sweep points as CSV")

    p_grid = sub.add_parser(
        "grid", help="run the paper's Figure 6/7 grid through one executor"
    )
    orchestration(p_grid)
    adaptive_args(p_grid)
    p_grid.add_argument("--full-grid", action="store_true",
                        help="full 4x4x3 cartesian product per figure "
                             "(default: one representative panel per size)")
    p_grid.add_argument("--limit", type=int, default=None, metavar="K",
                        help="run only the first K panels")
    p_grid.add_argument("--points", type=int, default=4,
                        help="sweep points per panel (spread up to 0.8 load)")
    p_grid.add_argument("--samples", type=int, default=400,
                        help="unicast latency samples per point")
    p_grid.add_argument("--seed", type=int, default=2009)
    p_grid.add_argument("--arrival-mode", choices=["legacy", "vectorized"],
                        default="legacy",
                        help="simulator arrival generation (see 'evaluate')")
    p_grid.add_argument("--no-sim", action="store_true", help="model series only")
    p_grid.add_argument("--save-dir", type=str, default=None, metavar="DIR",
                        help="save each panel's series as JSON under DIR")

    p_scen = sub.add_parser(
        "scenario",
        help="traffic scenarios: list/describe the registry, run the "
             "model-vs-sim divergence study, record arrival traces",
    )
    p_scen.add_argument(
        "verb", choices=["list", "describe", "run", "record"],
        help="list: registry table; describe: one scenario as JSON; "
             "run: simulate scenario sweeps and score model divergence; "
             "record: capture one run's arrivals as a replayable trace",
    )
    p_scen.add_argument(
        "names", nargs="*", metavar="SCENARIO",
        help="registered scenario names or paths to scenario JSON files "
             "(run: default = every registered scenario)",
    )
    orchestration(p_scen)
    adaptive_args(p_scen)
    p_scen.add_argument("--samples", type=int, default=600,
                        help="unicast latency samples per point")
    p_scen.add_argument("--seed", type=int, default=None,
                        help="override each scenario's baked-in seed")
    p_scen.add_argument("--points", type=int, default=None, metavar="K",
                        help="re-grid each scenario to K load fractions "
                             "spread up to 0.8 of saturation")
    p_scen.add_argument("--arrival-mode", choices=["legacy", "vectorized"],
                        default="legacy",
                        help="arrival generation (Poisson sources only; "
                             "non-Poisson sources require 'legacy')")
    p_scen.add_argument("--threshold", type=float, default=10.0, metavar="PCT",
                        help="divergence verdict threshold (%% mean "
                             "unicast error, occupancy recursion)")
    p_scen.add_argument("--save-dir", type=str, default=None, metavar="DIR",
                        help="run: save each scenario's sweep as JSON "
                             "under DIR")
    p_scen.add_argument("--rate", type=float, default=None,
                        help="record: injection rate (msgs/node/cycle) "
                             "of the captured run")
    p_scen.add_argument("--out", type=str, default=None, metavar="PATH",
                        help="record: trace file to write")

    p_hops = sub.add_parser("hops", help="broadcast hop table (T-hops)")
    p_hops.add_argument("--sizes", type=int, nargs="+", default=[16, 32, 64, 128])

    p_sat = sub.add_parser("saturation", help="saturation-rate table")
    common(p_sat)
    jobs_arg(p_sat)  # model-only: no simulation results to cache
    p_sat.add_argument("--sizes", type=int, nargs="+", default=[16, 32, 64])
    p_sat.add_argument("--lengths", type=int, nargs="+", default=[16, 32, 64])

    p_explain = sub.add_parser("explain", help="decompose one node's multicast")
    common(p_explain)
    p_explain.add_argument("--rate", type=float, required=True)
    p_explain.add_argument("--node", type=int, default=0)

    p_cache = sub.add_parser("cache", help="inspect, prune or empty the result cache")
    p_cache.add_argument("verb", choices=["info", "prune", "clear"],
                         help="info: entry/size/engine-version report; "
                              "prune: evict stale-engine/old/corrupt entries; "
                              "clear: delete every entry")
    p_cache.add_argument("--cache-dir", type=str, default=DEFAULT_CACHE_DIR,
                         metavar="DIR", help="result cache location")
    p_cache.add_argument("--max-age-days", type=float, default=None, metavar="D",
                         help="prune: also evict entries older than D days "
                              "(default: no age limit)")
    p_cache.add_argument("--keep-stale-engines", action="store_true",
                         help="prune: keep entries from other engine versions "
                              "(evict by age only)")

    sub.add_parser(
        "kernels",
        help="report the registered event kernels and the compiled "
             "fast path's build status",
    )

    p_lint = sub.add_parser(
        "lint",
        add_help=False,
        help="contract-aware static analysis (determinism, hash coverage, "
             "picklability, frame registry); exits 0 clean / 1 findings "
             "/ 2 usage",
    )
    # the lint suite owns its full argv (including --help) so its
    # argparse contract -- and exit codes -- live in one place
    p_lint.add_argument("rest", nargs=argparse.REMAINDER)

    p_worker = sub.add_parser(
        "worker", help="run a task-execution daemon for a remote coordinator"
    )
    p_worker.add_argument("address", metavar="tcp://HOST:PORT",
                          help="coordinator endpoint to serve, e.g. the "
                               "address printed by 'grid --workers'")
    p_worker.add_argument("--tag", type=str, default=None,
                          help="free-form label shown in coordinator logs")
    p_worker.add_argument("--heartbeat", type=float, default=2.0,
                          metavar="SECONDS",
                          help="liveness beat interval while executing a task")
    p_worker.add_argument("--connect-timeout", type=float, default=60.0,
                          metavar="SECONDS",
                          help="keep retrying the connect this long (the "
                               "daemon may be started before the run that "
                               "feeds it)")
    p_worker.add_argument("--reconnect", action="store_true",
                          help="survive coordinator crashes: when the "
                               "connection is lost, re-dial under "
                               "exponential backoff instead of exiting "
                               "(a clean dismissal still exits)")
    p_worker.add_argument("--max-reconnects", type=int, default=None,
                          metavar="N",
                          help="with --reconnect: give up after N re-dials "
                               "(default: unbounded)")
    p_worker.add_argument("--cluster-key", type=str, default=None,
                          metavar="KEY",
                          help="HMAC-sign every frame with this shared "
                               "secret; must match the coordinator's "
                               "(default: $REPRO_CLUSTER_KEY if set)")

    return parser


def _network(args) -> tuple[QuarcTopology, QuarcRouting]:
    topo = QuarcTopology(args.nodes)
    return topo, QuarcRouting(topo)


def _group(args, nodes: Optional[int] = None) -> int:
    n = nodes if nodes is not None else args.nodes
    return args.group if args.group is not None else max(3, n // 8)


def _sets(args, routing):
    return random_multicast_sets(routing, group_size=_group(args), seed=args.seed)


def _executor(args):
    workers = getattr(args, "workers", None)
    parser = getattr(args, "_parser", None)
    journal = getattr(args, "journal", None)
    resume = getattr(args, "resume", None)
    if resume is not None:
        if journal is not None and journal != resume:
            msg = "--journal and --resume name different files; pick one"
            if parser is not None:
                parser.error(msg)
            raise SystemExit(2)
        from pathlib import Path

        if not Path(resume).exists():
            msg = (f"--resume: journal {resume!r} does not exist "
                   f"(use --journal to start a fresh one)")
            if parser is not None:
                parser.error(msg)
            raise SystemExit(2)
        journal = resume
    if not workers:
        dist_flags = [
            ("--task-timeout", getattr(args, "task_timeout", None)),
            ("--max-task-retries", getattr(args, "max_task_retries", None)),
            ("--heartbeat-timeout", getattr(args, "heartbeat_timeout", None)),
            ("--cluster-key", getattr(args, "cluster_key", None)),
            ("--journal", journal),
        ]
        stray = [flag for flag, value in dist_flags if value is not None]
        if stray:
            msg = (f"{', '.join(stray)}: distributed-only flag(s); "
                   f"add --workers tcp://HOST:PORT")
            if parser is not None:
                parser.error(msg)
            raise SystemExit(2)
        return make_executor(args.jobs)
    executor = make_executor(
        args.jobs,
        workers=workers,
        heartbeat_timeout=getattr(args, "heartbeat_timeout", None),
        task_timeout=getattr(args, "task_timeout", None),
        max_task_retries=getattr(args, "max_task_retries", None),
        cluster_key=getattr(args, "cluster_key", None),
        journal=journal,
    )
    bound = executor.start()  # announce where daemons should dial in
    print(f"coordinator listening at {bound} -- feed it with: "
          f"python -m repro worker {executor.dial_address}", flush=True)
    run_journal = getattr(executor, "journal", None)
    if run_journal is not None and run_journal.resumed:
        print(f"resuming from journal {run_journal.path} "
              f"({len(run_journal)} completed task(s) on file)", flush=True)
    return executor


def _cache(args) -> Optional[ResultCache]:
    return None if args.no_cache else ResultCache(args.cache_dir)


def _adaptive(args) -> Optional[AdaptiveSettings]:
    """CI-targeted sampling settings, or None for fixed-budget runs.

    Invalid combinations (``--ci-rel 0``, ``--min-reps 1``,
    ``--growth 1.0``, ...) surface as proper :mod:`argparse` errors --
    usage line, ``prog: error: ...`` diagnostic, exit code 2 -- instead
    of a raw ``ValueError`` traceback out of
    :class:`AdaptiveSettings`."""
    if args.ci_rel is None:
        return None
    try:
        return AdaptiveSettings(
            ci_rel=args.ci_rel, min_reps=args.min_reps, max_reps=args.max_reps,
            growth=args.growth,
        )
    except ValueError as exc:
        parser = getattr(args, "_parser", None)
        if parser is not None:
            parser.error(str(exc))  # prints usage + diagnostic, exits 2
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _print_round(round_index: int, submitted: int, still_running: int) -> None:
    print(f"  round {round_index}: {submitted} replications submitted, "
          f"{still_running} points still running", flush=True)


def cmd_evaluate(args) -> int:
    topo, routing = _network(args)
    sets = _sets(args, routing)
    spec = TrafficSpec(args.rate, args.alpha / 100.0, args.msg, sets)
    model = AnalyticalModel(
        topo, routing, recursion=args.recursion, one_port=args.one_port
    )
    res = model.evaluate(spec)
    if res.saturated:
        print(f"SATURATED at rate {args.rate} (bottleneck {res.bottleneck_channel})")
        return 1
    print(f"model unicast   : {res.unicast_latency:9.2f} cycles")
    print(f"model multicast : {res.multicast_latency:9.2f} cycles")
    print(f"bottleneck      : {res.bottleneck_channel} (rho = {res.max_utilization:.3f})")
    if args.sim:
        task = SimTask(
            network="quarc",
            network_args=(args.nodes,),
            workload="random",
            group_size=_group(args),
            workload_seed=args.seed,
            message_rate=args.rate,
            multicast_fraction=args.alpha / 100.0,
            message_length=args.msg,
            sim=SimConfig(seed=args.seed, warmup_cycles=2_000,
                          target_unicast_samples=2_000,
                          target_multicast_samples=300,
                          arrival_mode=args.arrival_mode),
            one_port=args.one_port,
            label=f"evaluate-N{args.nodes}",
        )
        [sres] = run_tasks([task], cache=_cache(args))
        suffix = "  [cached]" if sres.cached else ""
        print(f"sim unicast     : {sres.unicast.mean:9.2f} "
              f"(+-{sres.unicast.ci95_halfwidth():.2f}){suffix}")
        print(f"sim multicast   : {sres.multicast.mean:9.2f} "
              f"(+-{sres.multicast.ci95_halfwidth():.2f})")
        if sres.deadlock_recoveries:
            print(f"(deadlock recoveries: {sres.deadlock_recoveries})")
    return 0


def cmd_sweep(args) -> int:
    group = _group(args)
    figure = "fig6" if args.dests == "random" else "fig7"
    fractions = tuple(
        (k + 1) * 0.8 / args.points for k in range(args.points)
    )
    config = ExperimentConfig(
        exp_id=f"{figure}-N{args.nodes}-M{args.msg}-a{int(args.alpha):02d}",
        figure=figure,
        num_nodes=args.nodes,
        message_length=args.msg,
        multicast_fraction=args.alpha / 100.0,
        group_size=group,
        destset_mode=args.dests,
        rim=args.rim,
        seed=args.seed,
        load_fractions=fractions,
        # carried on the config so --json output records the sampling
        # policy that produced the series (and reloading reproduces it)
        adaptive=_adaptive(args),
    )
    cache = _cache(args)
    executor = _executor(args)
    try:
        result = run_experiment(
            config,
            include_sim=not args.no_sim,
            sim_config=budget_sim_config(
                seed=args.seed,
                samples=args.samples,
                multicast_samples=max(100, args.samples // 6),
                arrival_mode=args.arrival_mode,
            ),
            executor=executor,
            cache=cache,
        )
    finally:
        executor.close()  # dismisses remote workers; no-op in-process
    print(render_series(result))
    if cache is not None and not args.no_sim:
        print(_render_cache_line(cache))
    if args.chart:
        print()
        print(chart_experiment(result, quantity="multicast"))
    if args.json:
        from repro.experiments.io import save_experiment_json

        print(f"saved JSON: {save_experiment_json(result, args.json)}")
    if args.csv:
        from repro.experiments.io import save_points_csv

        print(f"saved CSV: {save_points_csv(result, args.csv)}")
    return 0


def cmd_hops(args) -> int:
    for n in args.sizes:
        if n < 8 or n % 4:
            print(f"error: size {n} is not a valid Quarc size", file=sys.stderr)
            return 2
    print(render_broadcast_hops_table(args.sizes))
    return 0


def _saturation_row(
    item: tuple[int, tuple[int, ...], float, int, int, str]
) -> list[float]:
    """Top-level worker (picklable): one network size, all message
    lengths -- the network/model/destsets build is shared across the
    row, and rows are the parallel unit."""
    n, lengths, alpha_pct, group, seed, recursion = item
    topo = QuarcTopology(n)
    routing = QuarcRouting(topo)
    model = AnalyticalModel(topo, routing, recursion=recursion)
    sets = random_multicast_sets(routing, group_size=group, seed=seed)
    return [
        model.saturation_rate(TrafficSpec(1e-6, alpha_pct / 100.0, m, sets))
        for m in lengths
    ]


def cmd_saturation(args) -> int:
    print(f"== model saturation rates (msg/node/cycle), recursion={args.recursion}, "
          f"alpha={args.alpha:.0f}% ==")
    header = "    N |" + "".join(f"    M={m:<5d}" for m in args.lengths)
    print(header)
    items = [
        (n, tuple(args.lengths), args.alpha, _group(args, n), args.seed,
         args.recursion)
        for n in args.sizes
    ]
    rows = _executor(args).map_ordered(_saturation_row, items)
    for n, row in zip(args.sizes, rows):
        print(f"{n:5d} |" + "".join(f" {sat:9.5f}" for sat in row))
    return 0


def cmd_grid(args) -> int:
    configs = list(paper_grid(full_grid=args.full_grid))
    if args.limit is not None:
        configs = configs[: args.limit]
    fractions = tuple((k + 1) * 0.8 / args.points for k in range(args.points))
    adaptive = _adaptive(args)
    # the sampling policy rides on each config so saved panel JSON
    # records how its series was sampled
    configs = [
        c.scaled(load_fractions=fractions, adaptive=adaptive) for c in configs
    ]
    sim_config = budget_sim_config(
        seed=args.seed, samples=args.samples, arrival_mode=args.arrival_mode
    )
    cache = _cache(args)
    lanes = f"workers={args.workers}" if args.workers else f"jobs={args.jobs}"
    n_points = len(configs) * args.points
    if args.no_sim:
        plan = "no simulation"
    elif adaptive is not None:
        plan = (f"{n_points} points, adaptive ci-rel={adaptive.ci_rel:g} "
                f"reps {adaptive.min_reps}..{adaptive.max_reps}")
    else:
        plan = f"{n_points} simulation tasks"
    print(f"== paper grid: {len(configs)} panels, {plan}, "
          f"{lanes}, cache={'off' if cache is None else args.cache_dir} ==")

    def progress(done: int, total: int, task) -> None:
        print(f"  [{done:3d}/{total}] {task.label}", flush=True)

    t0 = time.perf_counter()
    executor = _executor(args)
    try:
        panels = run_grid(
            configs,
            include_sim=not args.no_sim,
            sim_config=sim_config,
            executor=executor,
            cache=cache,
            derive_seeds=True,
            progress=progress,
            adaptive=adaptive,
            on_round=_print_round,
        )
    finally:
        executor.close()  # dismisses remote workers; no-op in-process
    elapsed = time.perf_counter() - t0
    print()
    print(render_grid_summary(panels))
    if adaptive is not None and not args.no_sim:
        reps = sum(p.sim_replications for panel in panels
                   for p in panel.result.points)
        fixed = n_points * adaptive.max_reps
        print(f"adaptive sampling: {reps} replications total "
              f"(fixed {adaptive.max_reps}-rep budget would run {fixed})")
    print(f"elapsed: {elapsed:.1f}s ({lanes})")
    if cache is not None:
        print(_render_cache_line(cache))
    if args.save_dir:
        from pathlib import Path

        from repro.experiments.io import save_experiment_json

        out = Path(args.save_dir)
        out.mkdir(parents=True, exist_ok=True)
        for panel in panels:
            save_experiment_json(
                panel.result, out / f"{panel.config.exp_id}.json"
            )
        print(f"saved {len(panels)} panel series under {out}")
    return 0


def cmd_scenario(args) -> int:
    import dataclasses

    from repro.experiments.compare import render_divergence_summary
    from repro.experiments.report import render_scenario_series
    from repro.traffic.scenarios import (
        SCENARIOS,
        record_trace,
        resolve_scenario,
        run_scenario,
        save_scenario_json,
    )

    if args.verb == "list":
        print(f"{'name':18s} {'source':16s} {'network':12s} "
              f"{'alpha':>6s} {'faults':>6s} {'qos':>3s} {'mon':>3s}  "
              f"{'key':32s}")
        for name in sorted(SCENARIOS):
            s = SCENARIOS[name]
            net = f"{s.network}{tuple(s.network_args)!r}"
            n_faults = len(s.faults.events) if s.faults is not None else 0
            n_qos = len(s.qos.classes) if s.qos is not None else 0
            print(f"{name:18s} {s.source.label:16s} {net:12s} "
                  f"{s.multicast_fraction:6.0%} {n_faults:6d} {n_qos:3d} "
                  f"{len(s.monitors):3d}  {s.scenario_key()}")
        return 0

    if not args.names:
        if args.verb != "run":
            args._parser.error(f"scenario {args.verb}: name a scenario")
        args.names = sorted(SCENARIOS)

    try:
        scenarios = [resolve_scenario(name) for name in args.names]
    except ValueError as exc:
        args._parser.error(str(exc))

    def adjust(s):
        if args.seed is not None:
            s = dataclasses.replace(s, seed=args.seed)
        if args.points is not None:
            fractions = tuple(
                (k + 1) * 0.8 / args.points for k in range(args.points)
            )
            s = dataclasses.replace(s, load_fractions=fractions, rates=())
        return s

    scenarios = [adjust(s) for s in scenarios]

    if args.verb == "describe":
        for s in scenarios:
            print(s.to_json())
        return 0

    if args.verb == "record":
        if len(scenarios) != 1 or args.rate is None or args.out is None:
            args._parser.error(
                "scenario record: exactly one scenario plus --rate R --out PATH"
            )
        spec = record_trace(
            scenarios[0], args.rate, args.out, samples=args.samples
        )
        print(f"recorded trace: {args.out} (digest {spec.trace_digest})")
        print("replay with a scenario JSON whose source is:")
        import json as _json

        print(_json.dumps(spec.as_dict(), indent=2))
        return 0

    # run
    adaptive = _adaptive(args)
    cache = _cache(args)
    lanes = f"workers={args.workers}" if args.workers else f"jobs={args.jobs}"
    print(f"== traffic scenarios: {len(scenarios)} sweep(s), {lanes}, "
          f"cache={'off' if cache is None else args.cache_dir} ==")
    t0 = time.perf_counter()
    executor = _executor(args)
    results = []
    try:
        for s in scenarios:
            results.append(
                run_scenario(
                    s,
                    samples=args.samples,
                    executor=executor,
                    cache=cache,
                    adaptive=adaptive,
                    arrival_mode=args.arrival_mode,
                )
            )
    finally:
        executor.close()  # dismisses remote workers; no-op in-process
    elapsed = time.perf_counter() - t0
    for res in results:
        print(render_scenario_series(res))
        print()
    print(render_divergence_summary(results, threshold=args.threshold))
    print(f"elapsed: {elapsed:.1f}s ({lanes})")
    if cache is not None:
        print(_render_cache_line(cache))
    if args.save_dir:
        from pathlib import Path

        out = Path(args.save_dir)
        out.mkdir(parents=True, exist_ok=True)
        for res in results:
            save_scenario_json(res, out / f"{res.scenario.name}.json")
        print(f"saved {len(results)} scenario sweeps under {out}")
    return 0


def _render_cache_line(cache: ResultCache) -> str:
    """The per-command cache summary line (hits/misses/stale)."""
    line = f"cache: {cache.hits} hits, {cache.misses} misses"
    if cache.stale_engine:
        line += f" ({cache.stale_engine} from an older engine, re-simulated)"
    return line + f" ({cache.root})"


def cmd_worker(args) -> int:
    from repro.distributed import run_worker

    return run_worker(
        args.address,
        tag=args.tag,
        heartbeat_interval=args.heartbeat,
        connect_timeout=args.connect_timeout,
        reconnect=args.reconnect,
        max_reconnects=args.max_reconnects,
        cluster_key=args.cluster_key,
    )


def cmd_cache(args) -> int:
    cache = ResultCache(args.cache_dir)
    if args.verb == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached results under {cache.root}")
        return 0
    if args.verb == "prune":
        max_age = (
            args.max_age_days * 86_400.0 if args.max_age_days is not None else None
        )
        counts = cache.prune(
            max_age=max_age, keep_engine=not args.keep_stale_engines
        )
        print(f"pruned {counts['removed']} entries under {cache.root} "
              f"({counts['kept']} kept)")
        for key, label in [
            ("removed_stale_engine", "stale engine version"),
            ("removed_old", f"older than {args.max_age_days} days"),
            ("removed_corrupt", "corrupt/unreadable"),
            ("removed_tmp", "orphaned tmp files"),
            ("removed_journals", "checkpoint journals (stale or old)"),
        ]:
            if counts[key]:
                print(f"  {counts[key]:5d} {label}")
        return 0
    info = cache.info()
    print(f"== result cache at {info['root']} ==")
    print(f"entries        : {info['entries']}")
    print(f"size           : {info['total_bytes'] / 1024:.1f} KiB")
    print(f"current engine : v{info['current_engine']}")
    # engine stamps are ints for our entries, but foreign/hand-edited
    # files can carry anything JSON allows -- sort ints first, then the
    # rest by repr, never comparing across types
    for engine, count in sorted(
        info["by_engine"].items(),
        key=lambda kv: (
            kv[0] is None,
            not isinstance(kv[0], int),
            kv[0] if isinstance(kv[0], int) else str(kv[0]),
        ),
    ):
        label = f"v{engine}" if engine is not None else "unstamped/corrupt"
        marker = "" if engine == info["current_engine"] else "  [stale: never served]"
        print(f"  engine {label:18s}: {count} entries{marker}")
    # kernel names are provenance only: all kernels within one engine
    # version are bit-identical, so a mixed cache is never a problem
    for kernel, count in sorted(info["by_kernel"].items()):
        print(f"  kernel {kernel:18s}: {count} entries")
    # likewise provenance: which injection process produced each entry
    # ("unstamped" = entries predating the traffic-source subsystem,
    # which are all Poisson by construction)
    for source, count in sorted(info["by_source"].items()):
        print(f"  source {source:18s}: {count} entries")
    if info["journals"]:
        print(f"journals       : {info['journals']} checkpoint journal(s), "
              f"{info['journal_bytes'] / 1024:.1f} KiB "
              f"('cache prune --max-age-days D' evicts old ones)")
    if info["orphaned_tmp"]:
        print(f"orphaned tmp   : {info['orphaned_tmp']} (removed by 'cache clear')")
    if info["stale_entries"]:
        print(f"{info['stale_entries']} stale entries will be re-simulated on use; "
              "'cache clear' reclaims the space")
    return 0


def cmd_kernels(args) -> int:
    from repro.sim import ENGINE_VERSION, KERNELS, c_kernel_status

    descriptions = {
        "python": "heapq kernel (pure Python, the behavioural oracle)",
        "c": "compiled transcription of the python kernel (C extension)",
    }
    print(f"== event kernels (engine v{ENGINE_VERSION}) ==")
    for name in sorted(KERNELS):
        queue_cls, engine_cls = KERNELS[name]
        print(f"  {name:7s}: {descriptions[name]}  "
              f"[{queue_cls.__name__} + {engine_cls.__name__}]")
    built, reason = c_kernel_status()
    if built:
        print("compiled fast path: built")
    else:
        print(f"compiled fast path: NOT built -- {reason}")
        print("  build it with: pip install -e .   (a C compiler is all it needs;"
              " a failed build degrades to the python kernel)")
    print(f'kernel="auto": c when the extension is built, else python '
          f'(here: {"c" if built else "python"})')
    print("both kernels are bit-identical; the choice only affects speed")
    return 0


def cmd_explain(args) -> int:
    topo, routing = _network(args)
    sets = _sets(args, routing)
    spec = TrafficSpec(args.rate, args.alpha / 100.0, args.msg, sets)
    model = AnalyticalModel(topo, routing, recursion=args.recursion)
    try:
        breakdown = explain_multicast(model, spec, args.node)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(breakdown.render())
    return 0


def cmd_lint(args) -> int:
    # imported lazily: the analysis package is stdlib-only but cold, and
    # every other command should not pay for it
    from repro.analysis.cli import lint_main

    return lint_main(args.rest)


COMMANDS = {
    "evaluate": cmd_evaluate,
    "sweep": cmd_sweep,
    "grid": cmd_grid,
    "hops": cmd_hops,
    "saturation": cmd_saturation,
    "scenario": cmd_scenario,
    "explain": cmd_explain,
    "cache": cmd_cache,
    "kernels": cmd_kernels,
    "lint": cmd_lint,
    "worker": cmd_worker,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # `lint` owns its full argv (a REMAINDER positional would swallow a
    # leading path but reject a leading option like --list-rules)
    if list(argv[:1]) == ["lint"]:
        from repro.analysis.cli import lint_main

        return lint_main(list(argv[1:]))
    parser = build_parser()
    args = parser.parse_args(argv)
    # commands validate derived option bundles (e.g. AdaptiveSettings)
    # through the parser so bad flag values exit like any argparse error
    args._parser = parser
    return COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
