"""Command-line interface: run experiments, regenerate tables, analyze traces.

Usage (also available as ``python -m repro``):

.. code-block:: text

    repro-aru run-tracker --config 1 --policy aru-max --horizon 120 \\
        [--seed 0] [--gc dgc] [--save-trace run.json] [--telemetry DIR]
    repro-aru run-tracker --list-policies
    repro-aru sweep [--workers 4] [--no-cache] [--cache-dir .bench_cache] \\
        [--seeds 3] [--horizon 120] [--policy aru-pid] [--save-csv grid.csv] \\
        [--telemetry DIR]
    repro-aru paper-tables [--seeds 2] [--horizon 120] [--save-csv grid.csv]
    repro-aru profile [--config 1] [--policy aru-min] [--horizon 30] \\
        [--sort cumtime|tottime|ncalls] [--top 25]
    repro-aru chaos examples/chaos_tracker.yaml [--horizon 60] \\
        [--policy aru-min] [--width 72] [--save-trace run.json] \\
        [--telemetry DIR]
    repro-aru chaos --list-faults
    repro-aru obs telemetry/run.jsonl

Every flag that names a registered choice (``--policy``,
``--scale-policy``, ``--backend``, ``--gc``, ``--placement``,
``--arbiter``, the app of ``dot``) accepts any name in its
:class:`~repro.registry.Registry` — extensions included — and comes with
a ``--list-*`` flag that prints the catalog. ``--telemetry DIR``
records :mod:`repro.obs` metrics + spans during the run and exports
them as a Chrome/Perfetto trace, a JSONL dump, and Prometheus text (see
docs/observability.md).
    repro-aru analyze run.json
    repro-aru compare a.json b.json
    repro-aru timeline run.json [--channel C3] [--width 72]
    repro-aru dot tracker > tracker.dot
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.apps import APPS
from repro.backends import BACKENDS
from repro.bench import (
    CONFIG_NAMES,
    ascii_timeline,
    fig6_memory_table,
    fig7_waste_table,
    fig10_performance_table,
    format_shape_report,
    run_grid,
    run_tracker_once,
    shape_checks,
)
from repro.control.registry import POLICIES, SCALE_POLICIES, resolve_policy
from repro.errors import ConfigError, FaultError
from repro.faults.spec import list_faults_text
from repro.gc import COLLECTORS
from repro.metrics import (
    PostmortemAnalyzer,
    jitter,
    latency_stats,
    load_trace,
    throughput_fps,
)
from repro.registry import Registry
from repro.tenancy import ARBITERS, PLACEMENTS


def _add_registry_args(parser, flag: str, registry: Registry,
                       default: Optional[str] = None,
                       help: Optional[str] = None) -> None:
    """``flag NAME`` for a name in ``registry`` — a typo exits with the
    registry's did-you-mean error — plus ``--list-<plural>``, which
    makes :func:`main` print the catalog instead of running the command.
    A positional ``flag`` is optional so the listing works without it."""
    listing = "--list-" + registry.plural.replace(" ", "-")

    def checked(name: str) -> str:
        try:
            registry.get(name)
        except ConfigError as exc:
            raise SystemExit(f"error: {exc}") from None
        return name

    if help is None:
        help = f"registered {registry.kind}" + (
            "" if default is None else f" (default {default})")
    parser.add_argument(flag, type=checked, default=default, metavar="NAME",
                        help=f"{help}; see {listing}",
                        **({} if flag.startswith("-") else {"nargs": "?"}))
    parser.add_argument(listing, action="store_const", dest="catalog",
                        const=registry.help_text,
                        help=f"print the {registry.kind} catalog and exit")


def _workers_arg(value: str) -> int:
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {value!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return n


def _export_telemetry(hub, out_dir: str, label: str) -> None:
    """Write a hub's three export formats into ``out_dir`` and print the
    closing summary table plus where everything landed."""
    from pathlib import Path

    from repro.obs import (
        summary_table,
        write_chrome_trace,
        write_jsonl,
        prometheus_text,
    )

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trace_path = out / f"{label}.trace.json"
    jsonl_path = out / f"{label}.jsonl"
    prom_path = out / f"{label}.prom"
    n_events = write_chrome_trace(hub, str(trace_path))
    n_records = write_jsonl(hub, str(jsonl_path))
    prom_path.write_text(prometheus_text(hub))
    print()
    print(summary_table(hub))
    print()
    print(f"telemetry: {trace_path} ({n_events} events, load in Perfetto), "
          f"{jsonl_path} ({n_records} records), {prom_path}")


def _print_run_summary(run) -> None:
    print(f"config={run.config} policy={run.policy} seed={run.seed} "
          f"horizon={run.horizon:.0f}s")
    print(f"  memory footprint : {run.mem_mean / 1e6:8.2f} MB mean, "
          f"{run.mem_std / 1e6:.2f} MB std, {run.mem_peak / 1e6:.2f} MB peak")
    print(f"  IGC lower bound  : {run.igc_mean / 1e6:8.2f} MB "
          f"({100 * run.mem_mean / run.igc_mean:.0f} % of bound used)")
    print(f"  wasted memory    : {run.wasted_memory:8.1%}")
    print(f"  wasted compute   : {run.wasted_computation:8.1%}")
    print(f"  throughput       : {run.throughput:8.2f} fps "
          f"({run.frames_delivered} frames delivered, "
          f"{run.frames_produced} produced)")
    print(f"  latency          : {run.latency_mean * 1e3:8.0f} ms mean")
    print(f"  jitter           : {run.jitter * 1e3:8.1f} ms")


def cmd_run_tracker(args) -> int:
    from repro.bench.experiments import metrics_from_trace
    from repro.experiment import ExperimentSpec, run_experiment

    config = f"config{args.config}"
    policy = resolve_policy(args.policy)
    try:
        result = run_experiment(ExperimentSpec(
            config=config, policy=policy, gc=args.gc,
            seed=args.seed, horizon=args.horizon,
            telemetry=bool(args.telemetry), backend=args.backend,
        ))
    except ConfigError as exc:
        raise SystemExit(f"error: {exc}") from None
    run = metrics_from_trace(config, policy.name,
                             args.seed, args.horizon, result.trace)
    _print_run_summary(run)
    if args.telemetry:
        _export_telemetry(result.telemetry, args.telemetry,
                          f"tracker-{config}-{args.policy}-s{args.seed}")
    if args.save_trace:
        from repro.metrics import save_trace

        save_trace(result.trace, args.save_trace)
        print(f"  trace saved      : {args.save_trace}")
    return 0


def _print_grid_tables(grid, save_csv=None) -> None:
    for config in CONFIG_NAMES:
        print(fig6_memory_table(grid, config)[0], end="\n\n")
        print(fig7_waste_table(grid, config)[0], end="\n\n")
        print(fig10_performance_table(grid, config)[0], end="\n\n")
    print(format_shape_report(shape_checks(grid)))
    if save_csv:
        from pathlib import Path

        from repro.bench import grid_to_csv

        Path(save_csv).write_text(grid_to_csv(grid))
        print(f"\nper-run CSV saved to {save_csv}")


def cmd_paper_tables(args) -> int:
    seeds = tuple(range(args.seeds))
    print(f"Simulating 2 configs x 3 policies x {len(seeds)} seeds "
          f"x {args.horizon:.0f}s ...\n")
    grid = run_grid(seeds=seeds, horizon=args.horizon, workers=args.workers)
    _print_grid_tables(grid, save_csv=args.save_csv)
    return 0


def cmd_sweep(args) -> int:
    """The full §5 grid through the parallel, cached sweep runner."""
    import time

    from repro.bench import ResultCache, SweepRunner

    policies = None
    if args.policy is not None:
        cfg = resolve_policy(args.policy)
        policies = {cfg.name: (lambda c=cfg: c)}
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    progress = None
    if args.telemetry:
        import json as _json
        from pathlib import Path

        tel_dir = Path(args.telemetry)
        tel_dir.mkdir(parents=True, exist_ok=True)

        def progress(done, total, result):
            if result.ok and result.telemetry is not None:
                spec = result.spec
                name = (f"{spec.config}-{spec.policy_label}"
                        f"-s{spec.seed}.telemetry.json")
                (tel_dir / name).write_text(_json.dumps(result.telemetry))

    runner = SweepRunner(workers=args.workers, cache=cache, progress=progress)
    seeds = tuple(range(args.seeds))
    print(f"Sweeping 2 configs x {len(policies) if policies else 3} policies "
          f"x {len(seeds)} seeds "
          f"x {args.horizon:.0f}s on {runner.workers} worker(s), "
          f"cache={'off' if cache is None else args.cache_dir} ...\n")
    t0 = time.perf_counter()
    grid = run_grid(seeds=seeds, horizon=args.horizon, runner=runner,
                    policies=policies, telemetry=bool(args.telemetry),
                    backend=args.backend)
    wall = time.perf_counter() - t0
    if args.telemetry:
        print(f"per-cell telemetry snapshots in {args.telemetry}/\n")
    _print_grid_tables(grid, save_csv=args.save_csv)
    stats = runner.stats
    print(f"\nsweep: {stats.total} cells in {wall:.1f}s wall — "
          f"{stats.executed} executed, {stats.cache_hits} cache hits")
    return 0


def cmd_run_config(args) -> int:
    import json
    from pathlib import Path

    from repro.bench import summarize_trace
    from repro.experiment import run_experiment
    from repro.metrics import save_trace

    if args.spec is None:
        raise SystemExit(
            "run-config: a spec file is required (or use --list-backends)")
    spec = json.loads(Path(args.spec).read_text())
    if args.backend is not None:
        # CLI flag wins over the spec file's own "backend" key.
        spec["backend"] = args.backend
    try:
        result = run_experiment(spec)
    except ConfigError as exc:
        raise SystemExit(f"error: {exc}") from None
    recorder = result.trace
    backend_label = result.spec.backend
    unit = "simulated" if backend_label == "sim" else "wall-clock"
    print(f"experiment {args.spec} completed "
          f"({recorder.duration:.1f}s {unit}, backend={backend_label})")
    for key, value in summarize_trace(recorder).items():
        print(f"  {key:22s} {value:.6g}")
    if args.save_trace:
        save_trace(recorder, args.save_trace)
        print(f"  trace saved to {args.save_trace}")
    return 0


def cmd_chaos(args) -> int:
    """Run an experiment under a scripted fault schedule, report resilience."""
    from repro.experiment import ExperimentSpec
    from repro.faults import FaultInjector, load_chaos_file, resilience_report
    from repro.metrics import gantt, save_trace
    from repro.runtime import Runtime

    if not args.schedule:
        raise SystemExit(
            "chaos: a schedule file is required (or use --list-faults)")
    try:
        experiment, schedule, detector = load_chaos_file(args.schedule)
        spec = ExperimentSpec.from_dict(experiment)
    except (ConfigError, FaultError) as exc:
        raise SystemExit(f"error: {exc}") from None
    if spec.backend != "sim":
        raise SystemExit(f"error: chaos runs on the 'sim' backend, "
                         f"not {spec.backend!r}")
    if args.policy is not None:
        spec = spec.with_(policy=args.policy)
    if args.horizon is not None:
        spec = spec.with_(horizon=args.horizon)
    hub = None
    if args.telemetry:
        from repro.obs import TelemetryHub

        hub = TelemetryHub()
        spec = spec.with_(telemetry=hub)
    graph = spec.resolve_graph()
    runtime = Runtime(graph, spec.runtime_config())
    kwargs = dict(detector)
    if "interval" in kwargs:
        kwargs["detect_interval"] = kwargs.pop("interval")
    injector = FaultInjector(runtime, schedule, **kwargs).install()
    recorder = runtime.run(until=spec.horizon)
    print(f"chaos run: {args.schedule} — {len(schedule)} scheduled faults, "
          f"{recorder.duration:.1f}s simulated")
    print()
    print(gantt(recorder, width=args.width, fault_log=injector.log))
    print()
    print(resilience_report(injector.log, recorder, sources=graph.sources()))
    if hub is not None:
        from pathlib import Path

        label = f"chaos-{Path(args.schedule).stem}"
        print()
        _export_telemetry(hub, args.telemetry, label)
    if args.save_trace:
        save_trace(recorder, args.save_trace)
        print(f"\ntrace saved to {args.save_trace}")
    return 0


def cmd_elastic(args) -> int:
    """Run the elastic workload under a scale policy, report the swing."""
    from repro.apps.elastic import ElasticConfig
    from repro.experiment import ExperimentSpec, run_experiment
    from repro.metrics.performance import latency_percentiles, throughput_fps

    swing = (args.swing_start, args.swing_end, args.swing_factor)
    try:
        result = run_experiment(ExperimentSpec(
            app="elastic",
            app_config=ElasticConfig(
                replicas=args.replicas,
                max_replicas=args.max_replicas,
                worker_cost=args.worker_cost,
                steady_period=args.period,
                swing=swing if args.swing_factor != 1.0 else None,
            ),
            config=f"config{args.config}",
            policy=args.policy,
            scale_policy=args.scale_policy,
            seed=args.seed,
            horizon=args.horizon,
            telemetry=bool(args.telemetry),
            backend=args.backend,
        ))
    except ConfigError as exc:
        raise SystemExit(f"error: {exc}") from None
    recorder = result.trace
    runtime = result.runtime
    pct = latency_percentiles(recorder, percentiles=(50, 95))
    print(f"elastic run: scale-policy={args.scale_policy or 'none'} "
          f"policy={args.policy} seed={args.seed} "
          f"horizon={args.horizon:.0f}s swing=x{args.swing_factor:.0f} "
          f"during [{args.swing_start:.0f}, {args.swing_end:.0f})s")
    print(f"  throughput       : {throughput_fps(recorder):8.2f} fps")
    print(f"  latency p50      : {pct.get(50, float('nan')) * 1e3:8.0f} ms")
    print(f"  latency p95      : {pct.get(95, float('nan')) * 1e3:8.0f} ms")
    for stage, info in result.stats.get("scaling", {}).items():
        print(f"  stage {stage!r}: {info['replicas']} replicas at end, "
              f"{info['decisions']} control decisions")
    for stage, ctl in getattr(runtime, "scalers", {}).items():
        events = [(t, cur, des, ap) for (t, cur, des, ap) in ctl.decisions
                  if ap]
        for t, cur, des, applied in events:
            verb = "out" if applied > 0 else "in"
            print(f"    t={t:7.2f}s scale-{verb:3s} {cur} -> {cur + applied} "
                  f"(desired {des})")
    if args.telemetry:
        _export_telemetry(result.telemetry, args.telemetry,
                          f"elastic-{args.scale_policy or 'fixed'}"
                          f"-s{args.seed}")
    return 0


def cmd_tenants(args) -> int:
    """Run a multi-tenant fleet on one shared cluster."""
    import json
    from pathlib import Path

    from repro.tenancy import (
        TenancySpec,
        TenantSpec,
        run_tenants,
        scaled_tracker_config,
    )

    try:
        if args.spec is not None:
            spec = TenancySpec.from_dict(
                json.loads(Path(args.spec).read_text()))
        else:
            # Synthetic fleet: N equal scaled-down trackers.
            cfg = scaled_tracker_config(0.1, frame_period=0.2, cv=0.0)
            spec = TenancySpec(
                tenants=tuple(
                    TenantSpec(f"tenant{i}", app_config=cfg,
                               policy=args.policy)
                    for i in range(args.tenants)
                ),
                cluster=args.nodes,
                horizon=10.0,
            )
        overrides = {
            key: value for key, value in (
                ("placement", args.placement), ("admission", args.admission),
                ("arbiter", args.arbiter), ("seed", args.seed),
                ("horizon", args.horizon))
            if value is not None}
        spec = spec.with_(**overrides)
        result = run_tenants(spec)
    except ConfigError as exc:
        raise SystemExit(f"error: {exc}") from None
    n = len(result.records)
    admitted = len(result.admitted)
    arb = (result.arbitration["arbiter"] if result.arbitration else "none")
    # Keep stdout pure JSON under --json so the output pipes into jq.
    print(f"tenants: {n} declared, {admitted} admitted, "
          f"placement={result.runtime.scheduler.strategy.name} "
          f"admission={spec.admission} arbiter={arb} "
          f"horizon={spec.horizon:.0f}s",
          file=sys.stderr if args.json else sys.stdout)
    if args.json:
        payload = {
            "tenants": {
                name: {
                    "state": rec.state,
                    "deliveries": rec.deliveries,
                    "goodput": rec.goodput,
                    "latency_p95": rec.latency_p95,
                    "placement": rec.placement,
                }
                for name, rec in result.records.items()
            },
            "jain": result.fairness.jain,
            "weighted_jain": result.fairness.weighted_jain,
            "utilization": result.fairness.utilization,
        }
        if result.arbitration is not None:
            payload["arbitration"] = {
                k: v for k, v in result.arbitration.items()
                if k != "actions"
            }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(result.format())
    return 0


def cmd_compare(args) -> int:
    from repro.bench import compare_traces
    from repro.metrics import rebase_trace

    # Traces from live backends carry wall-clock bases (epoch seconds),
    # so two runs land on disjoint time axes; normalize both to t=0
    # before diffing.
    a = rebase_trace(load_trace(args.trace_a))
    b = rebase_trace(load_trace(args.trace_b))
    print(compare_traces(a, b, label_a=args.trace_a, label_b=args.trace_b))
    return 0


def cmd_dot(args) -> int:
    from repro.runtime import graph_to_dot

    if args.app is None:
        raise SystemExit("dot: an app name is required (or use --list-apps)")
    build, _ = APPS.get(args.app)
    print(graph_to_dot(build()), end="")
    return 0


def cmd_analyze(args) -> int:
    recorder = load_trace(args.trace)
    pm = PostmortemAnalyzer(recorder)
    lat_mean, lat_std = latency_stats(recorder)
    print(f"trace: {args.trace} ({recorder.duration:.1f} s, "
          f"{len(recorder.items)} items, {len(recorder.iterations)} iterations)")
    print(f"  memory footprint : {pm.footprint().mean() / 1e6:8.2f} MB mean")
    print(f"  IGC lower bound  : {pm.ideal_footprint().mean() / 1e6:8.2f} MB")
    print(f"  wasted memory    : {pm.wasted_memory_fraction:8.1%}")
    print(f"  wasted compute   : {pm.wasted_computation_fraction:8.1%}")
    print(f"  throughput       : {throughput_fps(recorder):8.2f} fps")
    print(f"  latency          : {lat_mean * 1e3:8.0f} ms "
          f"(± {lat_std * 1e3:.0f} ms within-run)")
    print(f"  jitter           : {jitter(recorder) * 1e3:8.1f} ms")
    print("  per-channel:")
    for channel, stats in sorted(pm.channel_report().items()):
        print(f"    {channel:12s} items={stats['items']:6d} "
              f"wasted={stats['wasted_items']:6d} "
              f"mean={stats['bytes_mean'] / 1e6:7.2f} MB "
              f"peak={stats['bytes_peak'] / 1e6:7.2f} MB")
    print("  per-thread compute:")
    for thread, stats in sorted(pm.thread_waste_report().items()):
        print(f"    {thread:18s} {stats['compute']:8.1f} s total, "
              f"{stats['wasted']:7.1f} s wasted "
              f"({stats['wasted_fraction']:6.1%}) over "
              f"{stats['iterations']} iterations")
    return 0


def cmd_profile(args) -> int:
    """cProfile one tracker cell (simulation + postmortem), print hot spots."""
    import cProfile
    import pstats

    config = f"config{args.config}"
    policy = resolve_policy(args.policy)
    profiler = cProfile.Profile()
    profiler.enable()
    run = run_tracker_once(
        config, policy, seed=args.seed, horizon=args.horizon, gc=args.gc
    )
    profiler.disable()
    print(f"profiled: {config} policy={args.policy} seed={args.seed} "
          f"horizon={args.horizon:.0f}s "
          f"({run.frames_delivered} frames delivered)\n")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.limit)
    return 0


def cmd_gantt(args) -> int:
    from repro.metrics import gantt

    recorder = load_trace(args.trace)
    print(gantt(recorder, width=args.width))
    return 0


def cmd_timeline(args) -> int:
    recorder = load_trace(args.trace)
    pm = PostmortemAnalyzer(recorder)
    timeline = pm.footprint(args.channel)
    title = f"memory footprint — {args.channel or 'all channels'}"
    print(ascii_timeline(timeline, width=args.width, height=args.height,
                         title=title))
    return 0


def cmd_obs(args) -> int:
    """Summarize a telemetry JSONL export offline."""
    from repro.obs import read_jsonl, summary_from_records

    records = read_jsonl(args.file)
    print(f"telemetry: {args.file} ({len(records)} records)")
    print()
    print(summary_from_records(records))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-aru",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.set_defaults(catalog=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run-tracker", help="one tracker simulation")
    p_run.add_argument("--config", type=int, choices=(1, 2), default=1)
    _add_registry_args(p_run, "--policy", POLICIES, "aru-min")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--horizon", type=float, default=120.0)
    _add_registry_args(p_run, "--gc", COLLECTORS, "dgc")
    p_run.add_argument("--save-trace", metavar="PATH", default=None)
    p_run.add_argument("--telemetry", metavar="DIR", default=None,
                       help="record repro.obs telemetry and export it "
                            "(Chrome trace + JSONL + Prometheus text) to DIR")
    _add_registry_args(p_run, "--backend", BACKENDS, "sim")
    p_run.set_defaults(func=cmd_run_tracker)

    p_tables = sub.add_parser("paper-tables",
                              help="regenerate figs. 6/7/10 + shape report")
    p_tables.add_argument("--seeds", type=int, default=2)
    p_tables.add_argument("--horizon", type=float, default=120.0)
    p_tables.add_argument("--save-csv", metavar="PATH", default=None)
    p_tables.add_argument("--workers", type=_workers_arg, default=1,
                          help="simulation worker processes (default 1)")
    p_tables.set_defaults(func=cmd_paper_tables)

    p_sweep = sub.add_parser(
        "sweep",
        help="parallel, cached regeneration of the full §5 grid")
    p_sweep.add_argument("--seeds", type=int, default=3,
                         help="number of seeds per cell (default 3)")
    p_sweep.add_argument("--horizon", type=float, default=120.0)
    p_sweep.add_argument("--workers", type=_workers_arg, default=None,
                         help="worker processes (default: CPU count - 1)")
    p_sweep.add_argument("--no-cache", action="store_true",
                         help="always re-execute; don't read or write the "
                              "result cache")
    p_sweep.add_argument("--cache-dir", metavar="PATH", default=".bench_cache",
                         help="result cache directory (default .bench_cache)")
    p_sweep.add_argument("--save-csv", metavar="PATH", default=None)
    _add_registry_args(p_sweep, "--policy", POLICIES,
                       help="sweep a single registered policy instead of "
                            "the paper's three")
    p_sweep.add_argument("--telemetry", metavar="DIR", default=None,
                         help="record telemetry per cell and write "
                              "snapshot JSONs into DIR")
    _add_registry_args(p_sweep, "--backend", BACKENDS, "sim")
    p_sweep.set_defaults(func=cmd_sweep)

    p_rc = sub.add_parser("run-config",
                          help="run an experiment described by a JSON spec")
    p_rc.add_argument("spec", nargs="?", default=None)
    p_rc.add_argument("--save-trace", metavar="PATH", default=None)
    _add_registry_args(p_rc, "--backend", BACKENDS,
                       help="override the spec file's backend")
    p_rc.set_defaults(func=cmd_run_config)

    p_chaos = sub.add_parser(
        "chaos",
        help="run an experiment under a fault schedule, report resilience")
    p_chaos.add_argument("schedule", nargs="?", default=None,
                         help="YAML/JSON chaos file (experiment + faults)")
    p_chaos.add_argument("--list-faults", action="store_const",
                         dest="catalog", const=list_faults_text,
                         help="print the fault-kind catalog and exit")
    p_chaos.add_argument("--horizon", type=float, default=None,
                         help="override the experiment's horizon")
    p_chaos.add_argument("--width", type=int, default=72,
                         help="gantt chart width (default 72)")
    _add_registry_args(p_chaos, "--policy", POLICIES,
                       help="override the experiment's ARU policy with a "
                            "registered one")
    p_chaos.add_argument("--save-trace", metavar="PATH", default=None)
    p_chaos.add_argument("--telemetry", metavar="DIR", default=None,
                         help="record repro.obs telemetry (incl. fault "
                              "events) and export it to DIR")
    p_chaos.set_defaults(func=cmd_chaos)

    p_el = sub.add_parser(
        "elastic",
        help="run the elastic replicated-stage workload under a scale "
             "policy")
    p_el.add_argument("--config", type=int, choices=(1, 2), default=1)
    _add_registry_args(p_el, "--policy", POLICIES, "no-aru")
    _add_registry_args(p_el, "--scale-policy", SCALE_POLICIES, "erlang")
    p_el.add_argument("--replicas", type=int, default=1,
                      help="initial worker replicas (default 1)")
    p_el.add_argument("--max-replicas", type=int, default=6,
                      help="scale-out ceiling (default 6)")
    p_el.add_argument("--worker-cost", type=float, default=0.03,
                      help="per-item worker compute seconds (default 0.03)")
    p_el.add_argument("--period", type=float, default=0.12,
                      help="steady source period seconds (default 0.12)")
    p_el.add_argument("--swing-start", type=float, default=40.0)
    p_el.add_argument("--swing-end", type=float, default=80.0)
    p_el.add_argument("--swing-factor", type=float, default=10.0,
                      help="rate multiplier during the swing (default 10; "
                           "1 disables the swing)")
    p_el.add_argument("--seed", type=int, default=0)
    p_el.add_argument("--horizon", type=float, default=120.0)
    p_el.add_argument("--telemetry", metavar="DIR", default=None,
                      help="record repro.obs telemetry (incl. scale "
                           "events) and export it to DIR")
    _add_registry_args(p_el, "--backend", BACKENDS, "sim")
    p_el.set_defaults(func=cmd_elastic)

    p_ten = sub.add_parser(
        "tenants",
        help="run a multi-tenant fleet on one shared cluster")
    p_ten.add_argument("spec", nargs="?", default=None,
                       help="JSON tenancy spec (see TenancySpec.from_dict); "
                            "omit for a synthetic tracker fleet")
    p_ten.add_argument("--tenants", type=int, default=4, metavar="N",
                       help="synthetic fleet size when no spec file is "
                            "given (default 4)")
    p_ten.add_argument("--nodes", type=int, default=4,
                       help="uniform cluster size for the synthetic fleet "
                            "(default 4)")
    _add_registry_args(p_ten, "--placement", PLACEMENTS,
                       help="placement strategy (default rstorm)")
    p_ten.add_argument("--admission", default=None, metavar="MODE",
                       help="over-capacity behaviour: queue or reject "
                            "(overrides the spec's; default queue)")
    _add_registry_args(p_ten, "--arbiter", ARBITERS,
                       help="cross-tenant arbiter (default none)")
    _add_registry_args(p_ten, "--policy", POLICIES,
                       help="per-tenant ARU policy for the synthetic fleet "
                            "(default none)")
    p_ten.add_argument("--seed", type=int, default=None,
                       help="override the spec's seed (synthetic default 0)")
    p_ten.add_argument("--horizon", type=float, default=None,
                       help="override the spec's horizon (synthetic default "
                            "10s)")
    p_ten.add_argument("--json", action="store_true",
                       help="machine-readable per-tenant summary")
    p_ten.set_defaults(func=cmd_tenants)

    p_cmp = sub.add_parser("compare", help="compare two saved traces")
    p_cmp.add_argument("trace_a")
    p_cmp.add_argument("trace_b")
    p_cmp.set_defaults(func=cmd_compare)

    p_dot = sub.add_parser("dot", help="emit a Graphviz DOT task graph")
    _add_registry_args(p_dot, "app", APPS)
    p_dot.set_defaults(func=cmd_dot)

    p_prof = sub.add_parser(
        "profile",
        help="cProfile one tracker cell (simulation + full postmortem)")
    p_prof.add_argument("--config", type=int, choices=(1, 2), default=1)
    _add_registry_args(p_prof, "--policy", POLICIES, "aru-min")
    p_prof.add_argument("--seed", type=int, default=0)
    p_prof.add_argument("--horizon", type=float, default=30.0)
    _add_registry_args(p_prof, "--gc", COLLECTORS, "dgc")
    p_prof.add_argument("--sort", default="cumulative",
                        choices=("cumulative", "cumtime", "tottime", "ncalls"),
                        help="pstats sort key; cumtime is an alias for "
                             "cumulative (default cumulative)")
    p_prof.add_argument("--top", "--limit", type=int, default=25,
                        dest="limit", metavar="N",
                        help="rows of the hot-function table (default 25)")
    p_prof.set_defaults(func=cmd_profile)

    p_an = sub.add_parser("analyze", help="postmortem of a saved trace")
    p_an.add_argument("trace")
    p_an.set_defaults(func=cmd_analyze)

    p_gantt = sub.add_parser("gantt",
                             help="ASCII per-thread activity chart of a trace")
    p_gantt.add_argument("trace")
    p_gantt.add_argument("--width", type=int, default=72)
    p_gantt.set_defaults(func=cmd_gantt)

    p_tl = sub.add_parser("timeline", help="ASCII footprint chart of a trace")
    p_tl.add_argument("trace")
    p_tl.add_argument("--channel", default=None)
    p_tl.add_argument("--width", type=int, default=72)
    p_tl.add_argument("--height", type=int, default=14)
    p_tl.set_defaults(func=cmd_timeline)

    p_obs = sub.add_parser(
        "obs", help="summarize a telemetry JSONL export (repro.obs)")
    p_obs.add_argument("file", help="JSONL file written by --telemetry")
    p_obs.set_defaults(func=cmd_obs)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.catalog is not None:
        print(args.catalog())
        return 0
    try:
        return args.func(args)
    except KeyboardInterrupt:
        print("\ninterrupted — pending sweep cells cancelled",
              file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
