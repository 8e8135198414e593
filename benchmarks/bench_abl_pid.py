"""[ablation] PI-controller policy vs. the paper's summary-STP policy.

The control-plane refactor makes the paper's rate decision one policy
among several. This bench runs the load-adaptivity scenario (background
CPU burst on the shared node, tracker on config 1) under both
``aru-min`` (the paper's mechanism: actuate the compressed summary-STP
raw) and ``aru-pid`` (velocity-form PI filter over the same
measurement) and checks the acceptance bar for the extension:

* **convergence** — the PI controller's steady-state period lands
  within 10% of the sustainable period the summary-STP policy measures,
  in every load phase (same fixed point, §3.3.2's measurement);
* **adaptivity survives the filter** — the PID target still rises under
  the burst and recovers after it;
* the delivered throughput and waste stay in family with ``aru-min``.
"""

from repro.bench import CellSpec, format_table
from repro.cluster import LoadSpec

HORIZON = 150.0
BURST = (50.0, 100.0)
LOAD_THREADS = 6

# 5s settle after each load edge before calling the level "steady".
PHASES = (
    ("before (0-50s)", 5.0, BURST[0]),
    ("burst (50-100s)", BURST[0] + 5.0, BURST[1]),
    ("after (100-150s)", BURST[1] + 5.0, HORIZON),
)

CELLS = {
    f"pid/{policy}": CellSpec(
        config="config1",
        policy=policy,
        seed=0,
        horizon=HORIZON,
        loads=(LoadSpec(node="node0", start=BURST[0], stop=BURST[1],
                        threads=LOAD_THREADS, burst_s=0.05),),
        probe="control_phases",
        probe_args=(("thread", "digitizer"), ("phases", PHASES)),
    )
    for policy in ("aru-min", "aru-pid")
}


def test_pid_converges_to_sustainable_period(benchmark, emit, sweep_runner):
    ref, pid = benchmark.pedantic(
        lambda: sweep_runner.run_metrics(list(CELLS.values())),
        rounds=1, iterations=1)
    rows = []
    ratios = {}
    for label, _, _ in PHASES:
        sustainable = ref.extras[f"target:{label}"]
        settled = pid.extras[f"target:{label}"]
        ratios[label] = settled / sustainable
        rows.append([
            label,
            sustainable * 1e3,
            settled * 1e3,
            f"{ratios[label]:.3f}",
            ref.extras[f"target_std:{label}"] * 1e3,
            pid.extras[f"target_std:{label}"] * 1e3,
        ])
    table = format_table(
        ["phase", "aru-min target (ms)", "aru-pid target (ms)",
         "ratio", "min std (ms)", "pid std (ms)"],
        rows,
        title=(
            f"[ablation] PI controller vs. summary-STP under a "
            f"{LOAD_THREADS}-thread burst on node0, "
            f"t=[{BURST[0]:.0f},{BURST[1]:.0f}]s — tracker, config1 "
            f"(fps: aru-min {ref.metrics.throughput:.2f} / "
            f"aru-pid {pid.metrics.throughput:.2f}; wasted mem: "
            f"{100 * ref.metrics.wasted_memory:.1f}% / "
            f"{100 * pid.metrics.wasted_memory:.1f}%)"
        ),
    )
    emit("abl_pid", table)

    # acceptance bar: steady state within 10% of the sustainable period
    for label, ratio in ratios.items():
        assert abs(ratio - 1.0) <= 0.10, (label, ratio)
    # the filtered loop still adapts: up under load, back down after
    pid_target = {r[0]: r[1] for r in rows}
    assert pid_target["burst (50-100s)"] > 1.2 * pid_target["before (0-50s)"]
    assert pid_target["after (100-150s)"] < 1.15 * pid_target["before (0-50s)"]
    # and performance stays in family with the paper's policy
    assert pid.metrics.throughput > 0.9 * ref.metrics.throughput
    assert pid.metrics.wasted_memory < ref.metrics.wasted_memory + 0.10
