#!/usr/bin/env python
"""Kernel performance regression gate.

Measures the micro-kernel rates (event dispatch, process trampoline,
postmortem analysis, telemetry site cost) and compares them against the
committed baseline in ``benchmarks/BENCH_kernel.json``. Exits non-zero
when a *gated* rate has regressed by more than the threshold (default
30 %) — loose enough to ride out machine-to-machine variance, tight
enough to catch a real fast-path regression — or when an *absolute* gate
is violated (``telemetry_on_over_off_ratio`` must stay ≤ 3, the
ISSUE-7 "telemetry you can leave on" contract).

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py            # gate
    PYTHONPATH=src python benchmarks/check_regression.py --update   # re-baseline
    PYTHONPATH=src python benchmarks/check_regression.py --threshold 0.5

``dispatch_events_per_sec`` is pure calendar dispatch: pre-scheduled
cohort timeouts drained by ``Engine.run()`` with no process resumption,
the rate the batched cohort loop is accountable for. The chain and
trampoline rates cover the allocation-bound paths (create+yield+fire per
event), which CPython frame/object costs dominate. The telemetry pair
runs a short two-node ``sim`` pipeline — mandatory work included —
through the sites that still push (iteration close, link transfer), so
the on/off ratio states what a user actually pays for leaving metrics
on. The pure :func:`compare` function carries the policy
and is unit-tested in ``tests/bench/test_check_regression.py``; a
``perf``-marked pytest wrapper runs the full gate when ``REPRO_PERF=1``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_kernel.json"

#: Rates (higher is better) whose regression fails the gate.
#: ``telemetry_off_ops_per_sec`` gates the ISSUE-5 zero-overhead
#: contract: the disabled-telemetry hot path must stay one attribute
#: check, so its rate cannot quietly erode as instrumentation grows.
GATED_RATES = ("dispatch_events_per_sec", "telemetry_off_ops_per_sec")

#: Absolute caps (lower is better) checked on the current measurement,
#: independent of the baseline. The telemetry ratio is a *contract*,
#: not a trend: metrics-on must stay within 3x of metrics-off through
#: the sites that still push.
GATED_MAX = {"telemetry_on_over_off_ratio": 3.0}

#: Maximum allowed fractional drop of a gated rate vs baseline.
DEFAULT_THRESHOLD = 0.30

_N_EVENTS = 50_000

#: Same-timestamp events per calendar tick in the dispatch benchmark.
#: 64 mirrors a mid-size pipeline's per-tick fan-out; the cohort-size
#: sweep in ``bench_micro_engine.py`` covers the full range.
_DISPATCH_COHORT = 64


def _best_of(fn, repeat: int = 5) -> float:
    """Best wall time over ``repeat`` runs (discards scheduler noise)."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _measure_dispatch() -> float:
    """Pure cohort dispatch: pre-scheduled timeouts drained by run().

    Scheduling happens outside the timed region — this isolates the
    calendar pop + dispatch loop the batched-cohort rewrite targets
    (the ≥5M events/s acceptance figure), from the allocation-bound
    create+fire path measured by ``chain_events_per_sec``.
    """
    from repro.sim import Engine
    from repro.sim.events import Timeout

    n = _N_EVENTS
    best = float("inf")
    for _ in range(5):
        eng = Engine()
        tick = 0.0
        for i in range(n):
            if i % _DISPATCH_COHORT == 0:
                tick += 0.001
            Timeout(eng, tick)
        t0 = time.perf_counter()
        eng.run()
        best = min(best, time.perf_counter() - t0)
    return n / best


def _measure_chain() -> float:
    """The allocation-bound ticker: create + yield + fire per event."""
    from repro.sim import Engine

    def spin():
        eng = Engine()

        def ticker(eng, n):
            for _ in range(n):
                yield eng.timeout(0.001)

        eng.process(ticker(eng, _N_EVENTS))
        eng.run()

    return _N_EVENTS / _best_of(spin)


def _measure_trampoline() -> float:
    from repro.sim import Engine

    def spin():
        eng = Engine()
        fired = eng.event()
        fired.succeed("x")
        eng.run()

        def chaser(eng, n):
            for _ in range(n):
                yield fired

        eng.process(chaser(eng, _N_EVENTS))
        eng.run()

    return _N_EVENTS / _best_of(spin)


def _measure_postmortem_ms() -> float:
    from repro.apps import build_tracker
    from repro.aru import aru_disabled
    from repro.cluster import config1_spec
    from repro.metrics import (
        PostmortemAnalyzer,
        jitter,
        latency_stats,
        throughput_fps,
    )
    from repro.runtime import Runtime, RuntimeConfig

    runtime = Runtime(
        build_tracker(),
        RuntimeConfig(
            cluster=config1_spec(), gc="dgc", aru=aru_disabled(), seed=0,
        ),
    )
    recorder = runtime.run(until=60.0)

    def analyze():
        pm = PostmortemAnalyzer(recorder)
        pm.footprint().mean()
        pm.ideal_footprint().mean()
        pm.channel_report()
        pm.thread_waste_report()
        pm.wasted_memory_fraction
        pm.wasted_computation_fraction
        latency_stats(recorder)
        throughput_fps(recorder)
        jitter(recorder)

    return _best_of(analyze, repeat=3) * 1e3


#: Simulated seconds of the telemetry pair's run (≈ 28 000 engine events).
_TELEMETRY_HORIZON = 2.0


def _measure_telemetry(enabled: bool) -> float:
    """Engine events/sec of a short ``sim`` run, telemetry on or off.

    The run is a two-node pipeline whose sink gets every item over the
    link, so every iteration close and every transfer is a site that
    still pushes (one histogram observation each); the counts beside
    them are read, not pushed. With ``enabled`` the runtime carries a
    metrics-only hub (``spans=False`` — the "leave it on"
    configuration), which registers its read sources at wiring and is
    read once at the end; off, it holds ``NULL_HUB``. The ≤3x ratio
    gate enforces what the on side adds. Bare-branch numbers would
    flatter the off side: the disabled check is ~50ns while the run
    around it does microseconds of mandatory work per event.
    """
    from repro.cluster import ClusterSpec, LinkSpec, NodeSpec
    from repro.obs import TelemetryConfig, TelemetryHub
    from repro.runtime import (Compute, Get, PeriodicitySync, Put, Runtime,
                               RuntimeConfig, TaskGraph)

    def src(ctx):
        ts = 0
        while True:
            yield Compute(0.001)
            yield Put("c", ts=ts, size=1_000)
            ts += 1
            yield PeriodicitySync()

    def dst(ctx):
        while True:
            yield Get("c")
            yield Compute(0.001)
            yield PeriodicitySync()

    cluster = ClusterSpec(nodes=(NodeSpec(name="n0"), NodeSpec(name="n1")),
                          link=LinkSpec(latency_s=1e-4, bandwidth_bps=10**9))
    events = []

    def spin():
        graph = TaskGraph()
        graph.add_thread("src", src)
        graph.add_thread("dst", dst, sink=True)
        graph.add_channel("c")
        graph.connect("src", "c").connect("c", "dst")
        obs = TelemetryHub(TelemetryConfig(spans=False)) if enabled else False
        runtime = Runtime(graph, RuntimeConfig(
            cluster=cluster, telemetry=obs,
            placement={"src": "n0", "dst": "n1"}))
        runtime.run(until=_TELEMETRY_HORIZON)
        runtime.obs.snapshot()
        events.append(runtime.engine.events_processed)

    best = _best_of(spin, repeat=3)
    return events[-1] / best


def measure() -> Dict[str, float]:
    """One full measurement pass; keys match the baseline file."""
    rates = {
        "dispatch_events_per_sec": _measure_dispatch(),
        "chain_events_per_sec": _measure_chain(),
        "trampoline_events_per_sec": _measure_trampoline(),
        "postmortem_ms": _measure_postmortem_ms(),
        "telemetry_off_ops_per_sec": _measure_telemetry(enabled=False),
        "telemetry_on_ops_per_sec": _measure_telemetry(enabled=True),
    }
    rates["telemetry_on_over_off_ratio"] = (
        rates["telemetry_off_ops_per_sec"] / rates["telemetry_on_ops_per_sec"]
    )
    return rates


def compare(
    current: Dict[str, float],
    baseline: Dict[str, float],
    threshold: float = DEFAULT_THRESHOLD,
) -> List[str]:
    """Return one failure message per gated rate regressed beyond ``threshold``.

    Pure function of its inputs (no measurement, no I/O) so the gate
    policy is unit-testable. Gated rates missing from either side fail
    loudly rather than passing silently. Absolute caps (``GATED_MAX``)
    are checked against the current measurement only — they encode
    contracts, not trends, so a "bad baseline" cannot grandfather a
    violation in.
    """
    failures: List[str] = []
    for key in GATED_RATES:
        base = baseline.get(key)
        cur = current.get(key)
        if base is None or cur is None:
            failures.append(f"{key}: missing from "
                            f"{'baseline' if base is None else 'measurement'}")
            continue
        if base <= 0:
            failures.append(f"{key}: non-positive baseline {base!r}")
            continue
        drop = 1.0 - cur / base
        if drop > threshold:
            failures.append(
                f"{key}: {cur:,.0f}/s is {drop:.0%} below baseline "
                f"{base:,.0f}/s (allowed {threshold:.0%})"
            )
    failures.extend(check_caps(current))
    return failures


def check_caps(current: Dict[str, float]) -> List[str]:
    """The baseline-free half of the gate: absolute caps only.

    Split out of :func:`compare` so CI can gate the telemetry ratio
    (stable: both sides run on the same machine) without gating the
    absolute rates (noisy on shared runners) — the ``--ratio-only``
    mode.
    """
    failures: List[str] = []
    for key, cap in GATED_MAX.items():
        cur = current.get(key)
        if cur is None:
            failures.append(f"{key}: missing from measurement")
        elif cur > cap:
            failures.append(
                f"{key}: {cur:.2f} exceeds the absolute cap {cap:.2f}"
            )
    return failures


def measure_telemetry_pair() -> Dict[str, float]:
    """Just the telemetry on/off rates and their ratio (for --ratio-only)."""
    off = _measure_telemetry(enabled=False)
    on = _measure_telemetry(enabled=True)
    return {
        "telemetry_off_ops_per_sec": off,
        "telemetry_on_ops_per_sec": on,
        "telemetry_on_over_off_ratio": off / on,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, default=BASELINE_PATH,
                        help=f"baseline JSON (default {BASELINE_PATH.name})")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="max fractional drop allowed (default 0.30)")
    parser.add_argument("--update", action="store_true",
                        help="write the current measurement as the baseline")
    parser.add_argument("--ratio-only", action="store_true",
                        help="measure only the telemetry on/off pair and "
                             "gate the absolute ratio cap (no baseline "
                             "needed; machine-independent, CI-friendly)")
    args = parser.parse_args(argv)

    rates = measure_telemetry_pair() if args.ratio_only else measure()
    for key, value in rates.items():
        unit = ("ms" if key.endswith("_ms")
                else "x" if key.endswith("_ratio") else "/s")
        print(f"  {key:28s} {value:>14,.2f} {unit}")

    if args.ratio_only:
        failures = check_caps(rates)
        if failures:
            for failure in failures:
                print(f"REGRESSION  {failure}", file=sys.stderr)
            return 1
        print("telemetry on/off ratio within the absolute cap")
        return 0

    if args.update:
        args.baseline.write_text(json.dumps({"rates": rates}, indent=2) + "\n")
        print(f"baseline updated: {args.baseline}")
        return 0

    if not args.baseline.exists():
        print(f"no baseline at {args.baseline}; run with --update first",
              file=sys.stderr)
        return 2
    baseline = json.loads(args.baseline.read_text())["rates"]
    failures = compare(rates, baseline, args.threshold)
    if failures:
        for failure in failures:
            print(f"REGRESSION  {failure}", file=sys.stderr)
        return 1
    print("kernel performance within threshold of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
