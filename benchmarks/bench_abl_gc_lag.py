"""[ablation] Collection lag: how DGC's pass interval inflates footprints.

Our eager DGC frees an item the instant the last cursor passes it, which
is why our absolute footprints undercut the paper's (whose collector ran
as periodic runtime work). This bench sweeps the DGC pass interval on the
no-ARU tracker: the mean footprint climbs with lag and crosses the
paper's 33.6 MB at an interval of roughly half a second — and throughput
*falls* as it climbs, because resident channel memory feeds back into
compute speed (the cache-pressure channel the paper's config-1 analysis
relies on). Collection promptness is itself a resource-utilization
parameter.
"""

from repro.aru import aru_disabled
from repro.bench import CellSpec, format_table

INTERVALS = (0.0, 0.25, 0.5, 1.0)
HORIZON = 90.0

#: The sweep's cells, by the key ``check_control_identity.py`` checks.
CELLS = {
    f"gc_lag/{interval}": CellSpec(
        config="config1",
        policy=aru_disabled(),
        label=f"{interval:.2f}s" if interval else "eager",
        seed=0,
        horizon=HORIZON,
        gc={"kind": "dgc", "interval": interval},
    )
    for interval in INTERVALS
}


def _sweep(runner):
    results = runner.run_metrics(list(CELLS.values()))
    return [
        [
            result.spec.label,
            result.metrics.mem_mean / 1e6,
            result.metrics.mem_peak / 1e6,
            result.metrics.throughput,
        ]
        for result in results
    ]


def test_gc_lag_inflates_footprint(benchmark, emit, sweep_runner):
    rows = benchmark.pedantic(lambda: _sweep(sweep_runner),
                              rounds=1, iterations=1)
    table = format_table(
        ["DGC pass interval", "Mem mean (MB)", "Mem peak (MB)", "fps"],
        rows,
        title="[ablation] DGC collection lag — tracker without ARU, config1",
    )
    emit("abl_gc_lag", table)
    means = [r[1] for r in rows]
    fps = [r[3] for r in rows]
    # footprint grows monotonically (within tolerance) with lag ...
    assert means[-1] > means[0] * 1.3
    assert all(b >= a * 0.95 for a, b in zip(means, means[1:]))
    # ... and throughput degrades with it through memory pressure
    assert fps[-1] < fps[0]
    assert all(b <= a * 1.05 for a, b in zip(fps, fps[1:]))
