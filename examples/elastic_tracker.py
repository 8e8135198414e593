#!/usr/bin/env python
"""Elastic parallelism: scaling a worker pool under a load swing.

The scale loop, demonstrated end to end (the scale section of
docs/control-plane.md is the prose version):

1. the shipped Erlang-C controller riding a 10x arrival swing —
   watch the pool grow and shrink, and compare latency against the
   fixed-N run of the same workload;
2. the controller's decision — ``ErlangScalePolicy`` — driven offline
   through the same ``StageSignals`` the controller reads;
3. a custom *preset* — a named ``ScaleConfig`` registered with
   ``register_scale_policy``, usable everywhere a scale-policy name is
   accepted (CLI ``--scale-policy``, ``CellSpec(scale_policy="...")``).

Run:  python examples/elastic_tracker.py
"""

from repro.apps import elastic_pipeline
from repro.bench import CellSpec, SweepRunner
from repro.control import ErlangScalePolicy, ScaleConfig, register_scale_policy
from repro.control.scale import StageSignals
from repro.experiment import ExperimentSpec, run_experiment
from repro.metrics.performance import latency_percentiles

HORIZON = 90.0
SWING = (30.0, 60.0, 10.0)  # 10x arrivals during t=[30,60)


def build(**kw):
    return elastic_pipeline(
        replicas=1, max_replicas=6, worker_cost=0.03,
        steady_period=0.12, swing=SWING, **kw,
    )


# --- 1. the shipped Erlang-C controller vs a fixed pool ---

def compare_fixed_and_elastic() -> None:
    print(f"swing source: 8.3 fps -> 83 fps during t=[{SWING[0]:.0f},"
          f"{SWING[1]:.0f})s; one 30 ms worker (config1)\n")
    for label, scale in (("fixed N=1", None), ("elastic erlang", "erlang")):
        result = run_experiment(ExperimentSpec(
            app=build(), config="config1", policy="no-aru",
            scale_policy=scale, horizon=HORIZON,
        ))
        pct = latency_percentiles(result.trace, percentiles=(50, 95))
        frames = len(result.trace.sink_iterations())
        print(f"{label:<16} delivered {frames:>5} frames   "
              f"p50 {pct[50] * 1e3:>8.1f} ms   p95 {pct[95] * 1e3:>8.1f} ms")
        for stage, ctl in (result.runtime.scalers or {}).items():
            for t, current, desired, applied in ctl.decisions:
                if applied:
                    print(f"    t={t:>6.1f}s  {stage}: {current} -> "
                          f"{current + applied} replicas")
    print()


# --- 2. the Erlang-C decision, offline ---

def drive_erlang_policy() -> None:
    """The controller's decision is a pure function of ``StageSignals``:
    offered load ``(lambda + depth/drain_window) * s`` erlangs, sized to
    the utilisation target."""
    policy = ErlangScalePolicy(ScaleConfig())
    print("ErlangScalePolicy offline, against synthetic signals "
          "(30 ms service):")
    for rate, depth in ((8.0, 0), (50.0, 0), (50.0, 45), (80.0, 130)):
        signals = StageSignals(now=0.0, arrival_rate=rate,
                               service_time=0.03, queue_depth=depth,
                               replicas=1, min_replicas=1, max_replicas=6)
        print(f"  lambda {rate:>4.0f}/s depth {depth:>4} -> desired N = "
              f"{policy.decide(signals)}")
    print()


# --- 3. a custom preset: tighter utilisation target, as a named policy ---

register_scale_policy(
    "erlang-cautious",
    lambda: ScaleConfig(target_utilization=0.5, hysteresis=3,
                        name="erlang-cautious"),
    help="size to 50% utilisation, release replicas reluctantly",
)


def sweep_with_preset() -> None:
    cells = [
        CellSpec(
            config="config1", policy="no-aru", label=name or "fixed",
            workload="elastic",
            workload_args=(("replicas", 1), ("max_replicas", 6),
                           ("worker_cost", 0.03), ("steady_period", 0.12),
                           ("swing", SWING)),
            scale_policy=name, horizon=HORIZON,
        )
        for name in (None, "erlang", "erlang-cautious")
    ]
    print("the same swing as sweep cells (scale policies by name):\n")
    print(f"{'cell':<16} {'frames':>7} {'mean latency':>13}")
    for result in SweepRunner(workers=1).run_metrics(cells):
        m = result.metrics
        print(f"{result.spec.label:<16} {m.frames_delivered:>7} "
              f"{m.latency_mean * 1e3:>10.1f} ms")


if __name__ == "__main__":
    compare_fixed_and_elastic()
    drive_erlang_policy()
    sweep_with_preset()
