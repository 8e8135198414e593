"""[ablation/extension] STP noise filters — the paper's stated future work.

§3.3.2: summary-STP noise from OS scheduling variance causes non-smooth
production; "such noise can be smoothed out by applying filters ...
currently not implemented in ARU and is left for future work."

This bench implements that future work and quantifies it: the tracker on
a *high-noise* single node (sched_noise_cv = 0.35) under ARU-max, with
the identity filter (the published mechanism) versus EWMA, sliding-median
and slew-rate filters on the received summary-STP values.

Measured effect (and the assertion below): unfiltered ARU-max over-reacts
to noise spikes — throttling too hard after every slow iteration — losing
throughput and smoothness; every filter recovers throughput and cuts
output jitter substantially, at a small waste cost.
"""

from repro.aru import aru_max
from repro.bench import CellSpec, format_table

FILTERS = {
    "none (paper)": None,
    "ewma:0.2": "ewma:0.2",
    "median:5": "median:5",
    "slew:0.2": "slew:0.2",
}
SEEDS = (0, 1)
HORIZON = 120.0
NOISE = 0.35

#: The sweep's cells, by the key ``check_control_identity.py`` checks.
CELLS = {
    f"filters/{label}/s{seed}": CellSpec(
        config={"kind": "config1", "sched_noise_cv": NOISE},
        policy=aru_max(summary_filter=fspec) if fspec else aru_max(),
        label=label,
        seed=seed,
        horizon=HORIZON,
    )
    for label, fspec in FILTERS.items()
    for seed in SEEDS
}


def _sweep(runner):
    results = runner.run_metrics(list(CELLS.values()))
    rows = []
    for label in FILTERS:
        runs = [r.metrics for r in results if r.spec.label == label]
        n = len(runs)
        rows.append([
            label,
            sum(r.throughput for r in runs) / n,
            1e3 * sum(r.jitter for r in runs) / n,
            100 * sum(r.wasted_memory for r in runs) / n,
        ])
    return rows


def test_filters_recover_throughput_and_smoothness(benchmark, emit,
                                                   sweep_runner):
    rows = benchmark.pedantic(lambda: _sweep(sweep_runner),
                              rounds=1, iterations=1)
    table = format_table(
        ["summary filter", "fps", "jitter (ms)", "% Mem wasted"],
        rows,
        title=(
            "[ablation] STP noise filters under ARU-max, "
            f"sched_noise_cv={NOISE} — config1, tracker"
        ),
    )
    emit("abl_filters", table)
    by = {r[0]: r for r in rows}
    base_fps, base_jit = by["none (paper)"][1], by["none (paper)"][2]
    for label in ("ewma:0.2", "median:5", "slew:0.2"):
        assert by[label][1] > base_fps, f"{label} should recover throughput"
        assert by[label][2] < base_jit, f"{label} should cut jitter"
