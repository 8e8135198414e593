"""The six frozen workloads of the e2e benchmark, and one measured run.

Every parameter below is part of the benchmark's definition: changing
one changes ``golden.json`` and breaks the trajectory in
``BENCH_history.jsonl``, so only a ``benchmark``-archetype PR may do it.
Sizes are set so one repetition takes about 5 s on the 2-core sandbox
(see README.md, "Sizing"). Each workload goes through a public entry
point of ``repro`` and makes all of its inputs from the seed.

:func:`measure` runs one repetition in the *current* interpreter;
``run.py`` starts a fresh child interpreter per repetition and calls it
there.
"""

from __future__ import annotations

import hashlib
import resource
import sys
import time
from typing import Any, Callable, Dict, List, NamedTuple, Tuple

from layers import (
    Patches,
    RunStamps,
    Tracer,
    drive_dist,
    drive_thread_channel,
    install_spans,
)

DEFAULT_SEED = 0
#: Live-run warm-up excluded from latency and throughput (seconds).
WARMUP = 2.0
#: A live repetition fails below this share of the digitizer's rate.
FPS_FLOOR = 0.9

GRID_SEEDS = 2
GRID_HORIZON = 120.0
FLEET_10_HORIZON = 300.0
FLEET_1000_HORIZON = 1.5
CHURN_TENANTS = 300
CHURN_HORIZON = 40.0
LIVE_WIRE_HORIZON = 12.0
LIVE_THREADS_HORIZON = 5.5


# -- simulated workloads -------------------------------------------------------
# Each returns (calls, failures, check): the (entry, return) perf_counter
# stamps of every public call, one line per failed op, and the values
# golden.json pins.


def _tracker_grid(seed: int):
    from repro.bench import grid_specs, metrics_fingerprint, run_cell

    now = time.perf_counter
    specs = grid_specs(seeds=tuple(range(seed, seed + GRID_SEEDS)),
                       horizon=GRID_HORIZON, backend="sim")
    calls, failures = [], []
    digest = hashlib.sha256()
    for spec in specs:
        entry = now()
        result = run_cell(spec)
        calls.append((entry, now()))
        cell = f"{spec.config}/{spec.policy_label}/seed{spec.seed}"
        if result.ok:
            digest.update(metrics_fingerprint(result).encode())
        else:
            failures.append(f"{cell}: {result.error.splitlines()[-1]}")
    return calls, failures, {"cells": len(specs),
                             "fingerprint": digest.hexdigest()}


def _fleet_check(result) -> Dict[str, Any]:
    return {
        "events_processed": result.stats["engine"]["events_processed"],
        "deliveries": sum(r.deliveries for r in result.records.values()),
        "admission_log": len(result.admission_log),
        "jain": repr(result.fairness.jain),
    }


def _run_fleet(spec):
    from repro.tenancy import run_tenants

    entry = time.perf_counter()
    result = run_tenants(spec)
    return [(entry, time.perf_counter())], [], _fleet_check(result)


def _light_fleet(n: int, horizon: float, seed: int):
    from repro.cluster.spec import uniform_spec
    from repro.tenancy import TenancySpec, TenantSpec, scaled_tracker_config
    from repro.tenancy.tenant import ResourceDemand

    cfg = scaled_tracker_config(0.02, frame_period=0.25, cv=0.0)
    demand = ResourceDemand(cpu=0.05, mem_bytes=2**20,
                            bandwidth_bps=1_000_000)
    return TenancySpec(
        tenants=tuple(TenantSpec(f"t{i}", app_config=cfg, demand=demand)
                      for i in range(n)),
        cluster=uniform_spec(32, ncpus=16, bandwidth_bps=10**9),
        seed=seed, horizon=horizon)


def _fleet_10(seed: int):
    return _run_fleet(_light_fleet(10, FLEET_10_HORIZON, seed))


def _fleet_1000(seed: int):
    return _run_fleet(_light_fleet(1000, FLEET_1000_HORIZON, seed))


def _fleet_churn(seed: int):
    from repro.cluster.spec import uniform_spec
    from repro.tenancy import (
        TenancySpec,
        TenantSpec,
        churn,
        scaled_tracker_config,
    )
    from repro.tenancy.arbiter import ArbiterConfig
    from repro.tenancy.tenant import ResourceDemand

    heavy = scaled_tracker_config(0.15, frame_period=0.2, cv=0.0)
    light = scaled_tracker_config(0.05, frame_period=0.2, cv=0.0)
    fleet = tuple(
        TenantSpec(
            f"t{i}",
            app_config=heavy if i % 2 == 0 else light,
            weight=float(1 + i % 3),
            demand=ResourceDemand(cpu=1.0 if i % 2 == 0 else 0.75,
                                  bandwidth_bps=100),
        )
        for i in range(CHURN_TENANTS)
    )
    return _run_fleet(TenancySpec(
        tenants=churn(fleet, rate=8.0, mean_lifetime=12.0, seed=seed),
        cluster=uniform_spec(60, ncpus=4),
        arbiter=ArbiterConfig(policy="proportional", interval=1.0,
                              patience=1.5, min_residency=2.0,
                              max_revocations=4),
        seed=seed, horizon=CHURN_HORIZON))


# -- live workloads --------------------------------------------------------------


def _live_spec(backend: str, horizon: float, seed: int):
    from repro.experiment import ExperimentSpec

    return ExperimentSpec(config="config2", policy="aru-min", backend=backend,
                          backend_options={"compute_mode": "noop"},
                          horizon=horizon, seed=seed)


def _live_wire(seed: int):
    from repro.experiment import run_experiment

    return run_experiment(_live_spec("proc", LIVE_WIRE_HORIZON, seed))


def _live_threads(seed: int):
    from repro.experiment import run_experiment

    return run_experiment(_live_spec("threads", LIVE_THREADS_HORIZON, seed))


def _live_report(result) -> Tuple[Dict[str, float], List[str]]:
    """Latency/throughput of one live run, and its failed checks."""
    import numpy as np

    from repro.metrics.performance import latency_samples, throughput_fps

    trace = result.trace
    failures: List[str] = []
    samples = np.asarray(latency_samples(trace, warmup=WARMUP))
    if len(samples) < 20:
        failures.append(f"only {len(samples)} latency samples")
        p50 = p95 = float("nan")
    else:
        p50, p95 = (float(np.percentile(samples, q)) for q in (50, 95))
    fps = throughput_fps(trace, warmup=WARMUP)
    produced = [it for it in trace.iterations_of("digitizer")
                if it.t_end >= WARMUP]
    digitizer_fps = len(produced) / max(trace.duration - WARMUP, 1e-9)
    if fps < FPS_FLOOR * digitizer_fps:
        failures.append(f"delivered {fps:.2f} fps < {FPS_FLOOR} x "
                        f"digitizer {digitizer_fps:.2f} fps")

    # Per-connection cursors only move forward: the timestamps one
    # connection got, in time order, strictly increase.
    got: Dict[tuple, List[tuple]] = {}
    for item in trace.items.values():
        for touch in item.gets:
            got.setdefault((item.channel, touch.consumer, touch.conn_id),
                           []).append((touch.t, item.ts))
    for key, touches in got.items():
        touches.sort()
        if any(b[1] <= a[1] for a, b in zip(touches, touches[1:])):
            failures.append(f"timestamps not increasing on {key}")

    for worker in getattr(result.runtime, "workers", ()):
        if worker.returncode != 0:
            failures.append(f"worker {worker.node} exited "
                            f"{worker.returncode}")

    # Frames the digitizer produced that no delivered output descends from.
    frames = {i.ts for i in trace.items.values() if i.producer == "digitizer"}
    seen, delivered = set(), set()
    stack = [i for it in trace.sink_iterations() for i in it.inputs]
    while stack:
        item_id = stack.pop()
        if item_id in seen or item_id not in trace.items:
            continue
        seen.add(item_id)
        item = trace.items[item_id]
        if item.producer == "digitizer":
            delivered.add(item.ts)
        stack.extend(item.parents)
    buffers = result.stats["buffers"].values()
    sink_frames = len(trace.sink_iterations())
    return {
        "latency_p50_ms": p50 * 1e3,
        "latency_p95_ms": p95 * 1e3,
        "latency_samples": len(samples),
        "delivered_fps": fps,
        "digitizer_fps": digitizer_fps,
        "skip_ratio": 1.0 - len(delivered) / max(len(frames), 1),
        "net_bytes": result.stats["network"]["total_bytes"],
        "sink_frames": sink_frames,
        "channel_calls": sum(b["puts"] + b["gets"] for b in buffers),
        "events": result.stats["engine"]["events_processed"],
        "run_s": result.stats["engine"]["now"],
    }, failures


class Workload(NamedTuple):
    kind: str  # "sim" or "live"
    run: Callable[[int], Any]
    horizon: float  # live only: wall seconds of streaming
    why: str


WORKLOADS: Dict[str, Workload] = {
    "tracker_grid": Workload(
        "sim", _tracker_grid, 0.0,
        "paper's grid: 2 configs x 3 policies x 2 seeds at 120 simulated s; "
        "small graph, long horizon; only workload where aru+control, "
        "cluster transfers and postmortem do real work"),
    "fleet_10": Workload(
        "sim", _fleet_10, 0.0,
        "10 light tenants for 300 simulated s: the per-syscall hot path "
        "with no fleet-size effect and ~0 set-up; bypass for placement, "
        "validation and working-set changes"),
    "fleet_1000": Workload(
        "sim", _fleet_1000, 0.0,
        "same tenant, 1000 of them for 1.5 simulated s: 100x the live "
        "objects; shows what is super-linear in fleet size (gc, placement, "
        "graph validation)"),
    "fleet_churn": Workload(
        "sim", _fleet_churn, 0.0,
        "300 mixed tenants arriving/departing under the proportional "
        "arbiter: placement, admission, drain, migrate and arbiter ticks "
        "happen inside the run, not before it"),
    "live_wire": Workload(
        "live", _live_wire, LIVE_WIRE_HORIZON,
        "tracker on 5 worker processes with compute skipped, open loop at "
        "camera pacing: every ms and CPU-second is the system's own; only "
        "workload where dist (pickle + framed TCP + launcher) works"),
    "live_threads": Workload(
        "live", _live_threads, LIVE_THREADS_HORIZON,
        "same spec on threads in one process: the no-wire baseline for "
        "live_wire; a dist change must not move it, an rt_threads change "
        "must move both"),
}


def _sim_metrics(outcome, runs, wall: float, boot: float):
    """(metrics, diag) of a simulated repetition from its run stamps."""
    calls, _failures, _check = outcome
    run_s = sum(r["exit"] - r["enter"] for r in runs)
    events = sum(r["events"] for r in runs)
    # Pair each public call with the Runtime.run it contains; what
    # follows that run inside the call is analysis, the rest set-up.
    analysis = 0.0
    for call_entry, call_return in calls:
        inside = [r for r in runs if call_entry <= r["enter"] <= call_return]
        if inside:
            analysis += call_return - inside[-1]["exit"]
    metrics = {
        "setup_s": boot + wall - run_s - analysis,
        "analysis_s": analysis,
        "events_per_s": events / run_s if run_s > 0 else 0.0,
    }
    diag = {"events": events, "run_s": run_s}
    for key in ("puts", "skips", "net_bytes"):
        diag[key] = sum(r[key] for r in runs)
    return metrics, diag


def _live_metrics(live, setup: float, horizon: float, wall: float,
                  boot: float) -> Dict[str, float]:
    return {
        "setup_s": boot + setup,
        "teardown_s": wall - horizon - setup,
        "events_per_s": live["events"] / live["run_s"],
        "latency_p50_ms": live["latency_p50_ms"],
        "delivered_fps": live["delivered_fps"],
    }


def measure(name: str, seed: int, traced: bool = False,
            spawned_at: float = 0.0) -> Dict[str, Any]:
    """One repetition of ``name`` in this interpreter; plain-data result.

    ``spawned_at`` is the parent's ``time.time()`` just before it started
    this interpreter, so ``boot_s`` covers interpreter start and imports.
    """
    workload = WORKLOADS[name]
    patches = Patches()
    stamps = RunStamps()
    stamps.install(patches)
    tracer = None
    if traced:
        tracer = Tracer()
        install_spans(tracer, patches)
    failures: List[str] = []
    outcome = None
    entry_epoch = time.time()
    entry = time.perf_counter()
    try:
        outcome = workload.run(seed)
    except Exception as exc:  # a raised op is a failed op, reported below
        failures.append(f"{type(exc).__name__}: {exc}")
    finally:
        returned = time.perf_counter()
        patches.restore()
    usage = [resource.getrusage(who) for who in
             (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    wall = returned - entry
    metrics: Dict[str, float] = {
        "wall_s": wall,
        "cpu_s": sum(u.ru_utime + u.ru_stime for u in usage),
        "peak_rss_mb": usage[0].ru_maxrss / 1024.0,
    }
    # Set-up as a user pays it starts with the interpreter and its imports.
    boot = entry_epoch - spawned_at if spawned_at else 0.0
    diag: Dict[str, float] = {"boot_s": boot}
    check: Dict[str, Any] = {}
    ops = 1

    if outcome is not None and workload.kind == "sim":
        calls, op_failures, check = outcome
        failures.extend(op_failures)
        ops = len(calls)
        sim_metrics, sim_diag = _sim_metrics(outcome, stamps.runs, wall, boot)
        metrics.update(sim_metrics)
        diag.update(sim_diag)
    elif outcome is not None:
        live, live_failures = _live_report(outcome)
        failures.extend(live_failures)
        t0 = getattr(outcome.runtime, "t0", None)
        if t0 is not None:  # proc: the launcher's shared epoch
            setup = t0 - entry_epoch
        else:
            setup = stamps.threads_started - entry
        metrics.update(
            _live_metrics(live, setup, workload.horizon, wall, boot))
        diag.update(live)

    result: Dict[str, Any] = {
        "workload": name, "kind": workload.kind, "seed": seed,
        "traced": traced,
        "ops": ops, "ops_failed": min(ops, len(failures)),
        "failures": failures, "metrics": metrics, "diag": diag,
        "check": check,
        "versions": {"python": sys.version.split()[0]},
    }
    if "numpy" in sys.modules:
        result["versions"]["numpy"] = sys.modules["numpy"].__version__
    if tracer is not None:
        result["trace"] = tracer.to_json()
        if workload.kind == "live":
            drive = drive_thread_channel()
            if name == "live_wire":
                drive.update(drive_dist())
            result["drive"] = drive
    return result
