"""[ablation] Compression-operator sweep — the paper's §6 "balance".

The paper ends: "it is important to find the right balance between wasted
resource usage and application performance. Preliminary investigation
indicates this is a viable avenue to pursue for future work." This bench
runs that investigation: the tracker under operators spanning the
aggressiveness spectrum (min -> kth -> median -> mean -> max), reporting
the waste/performance frontier.

Expected frontier: memory waste decreases monotonically toward ``max``;
throughput is highest at the conservative end.
"""

from repro.aru import AruConfig
from repro.bench import CellSpec, format_table

OPERATORS = ("min", "kth:1", "median", "mean", "max")
SEEDS = (0, 1)
HORIZON = 90.0

#: The sweep's cells, by the key ``check_control_identity.py`` checks.
CELLS = {
    f"operators/{op}/s{seed}": CellSpec(
        config="config1",
        policy=AruConfig(default_channel_op=op, thread_op=op,
                         name=f"aru-{op}"),
        label=op,
        seed=seed,
        horizon=HORIZON,
    )
    for op in OPERATORS
    for seed in SEEDS
}


def _sweep(runner):
    results = runner.run_metrics(list(CELLS.values()))
    rows = []
    for op in OPERATORS:
        runs = [r.metrics for r in results if r.spec.label == op]
        n = len(runs)
        rows.append([
            op,
            sum(r.mem_mean for r in runs) / n / 1e6,
            100 * sum(r.wasted_memory for r in runs) / n,
            sum(r.throughput for r in runs) / n,
            1e3 * sum(r.latency_mean for r in runs) / n,
        ])
    return rows


def test_operator_frontier(benchmark, emit, sweep_runner):
    rows = benchmark.pedantic(lambda: _sweep(sweep_runner),
                              rounds=1, iterations=1)
    table = format_table(
        ["operator", "Mem mean (MB)", "% Mem wasted", "fps", "lat (ms)"],
        rows,
        title="[ablation] operator aggressiveness frontier — config1, tracker",
    )
    emit("abl_operators", table)
    by_op = {r[0]: r for r in rows}
    # waste shrinks with aggressiveness at the endpoints of the spectrum
    assert by_op["max"][2] < by_op["median"][2] < by_op["min"][2] * 1.05
    assert by_op["max"][2] < 5.0
    # conservative min keeps throughput at least as high as max
    assert by_op["min"][3] >= by_op["max"][3] * 0.98
    # every intermediate operator lands inside the min..max memory band
    lo, hi = by_op["max"][1], by_op["min"][1]
    for op in ("kth:1", "median", "mean"):
        assert lo * 0.9 <= by_op[op][1] <= hi * 1.1
