"""[ablation] Throttle headroom: a continuous aggressiveness dial.

The operator choice (min vs max) is a coarse aggressiveness switch; the
``headroom`` multiplier on the throttle target is the continuous version
of the same §6 trade-off. ``headroom < 1`` under-throttles (keeps a
production safety margin -> more waste, more throughput robustness);
``headroom > 1`` over-throttles (starves consumers like an extra-
aggressive max). This bench sweeps it under ARU-max on config 2 — the
configuration where the paper observed aggressiveness costing throughput.
"""

from repro.aru import aru_max
from repro.bench import CellSpec, format_table

HEADROOMS = (0.8, 0.9, 1.0, 1.1, 1.25)
SEEDS = (0, 1)
HORIZON = 90.0

#: The sweep's cells, by the key ``check_control_identity.py`` checks.
CELLS = {
    f"headroom/h{headroom}/s{seed}": CellSpec(
        config="config2",
        policy=aru_max(headroom=headroom, name=f"aru-max-h{headroom}"),
        label=f"h{headroom}",
        seed=seed,
        horizon=HORIZON,
    )
    for headroom in HEADROOMS
    for seed in SEEDS
}


def _sweep(runner):
    results = runner.run_metrics(list(CELLS.values()))
    rows = []
    for headroom in HEADROOMS:
        runs = [r.metrics for r in results
                if r.spec.label == f"h{headroom}"]
        n = len(runs)
        rows.append([
            headroom,
            sum(r.mem_mean for r in runs) / n / 1e6,
            100 * sum(r.wasted_memory for r in runs) / n,
            sum(r.throughput for r in runs) / n,
            1e3 * sum(r.latency_mean for r in runs) / n,
        ])
    return rows


def test_headroom_tradeoff(benchmark, emit, sweep_runner):
    rows = benchmark.pedantic(lambda: _sweep(sweep_runner),
                              rounds=1, iterations=1)
    table = format_table(
        ["headroom", "Mem mean (MB)", "% Mem wasted", "fps", "lat (ms)"],
        rows,
        title="[ablation] throttle headroom under ARU-max — config2, tracker",
    )
    emit("abl_headroom", table)
    by = {r[0]: r for r in rows}
    # under-throttling wastes more but keeps throughput at least as high
    assert by[0.8][2] > by[1.0][2]
    assert by[0.8][3] >= by[1.25][3]
    # over-throttling keeps cutting throughput
    assert by[1.25][3] < by[1.0][3] * 1.02
    # memory decreases (weakly) with aggressiveness across the sweep ends
    assert by[1.25][1] < by[0.8][1]
