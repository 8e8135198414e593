"""[ablation] Garbage-collector comparison under the tracker (no ARU).

The paper's §2/§4 situate ARU against the GC lineage: traditional
reachability GC cannot reclaim skipped items at all; transparent GC frees
behind the application-wide virtual-time low-water mark; dead-timestamp
GC (the paper's substrate) frees per-channel as soon as every consumer's
cursor passes. This bench reproduces that hierarchy on the tracker:

``null >= ref >> tgc >= dgc`` in memory footprint.

(`ref` leaks every skipped item exactly like `null` on single-consumer
channels — the motivating observation for timestamp-based GC.)
"""

from repro.aru import aru_disabled
from repro.bench import CellSpec, format_table

GCS = ("null", "ref", "tgc", "dgc")
HORIZON = 60.0  # null/ref grow linearly; keep the horizon moderate

#: The sweep's cells, by the key ``check_control_identity.py`` checks.
CELLS = {
    f"gc/{gc}": CellSpec(config="config1", policy=aru_disabled(), label=gc,
                         seed=0, horizon=HORIZON, gc=gc)
    for gc in GCS
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


def test_gc_hierarchy(benchmark, emit, sweep_runner):
    rows = benchmark.pedantic(lambda: _sweep(sweep_runner),
                              rounds=1, iterations=1)
    table = format_table(
        ["GC", "Mem mean (MB)", "Mem peak (MB)", "fps"],
        rows,
        title="[ablation] GC algorithms, tracker without ARU — config1",
    )
    emit("abl_gc", table)
    mem = {r[0]: r[1] for r in rows}
    assert mem["dgc"] <= mem["tgc"] * 1.05
    assert mem["tgc"] < mem["ref"]
    assert mem["ref"] <= mem["null"] * 1.001
    # DGC reclaims the overwhelming majority of what null retains
    assert mem["dgc"] < 0.25 * mem["null"]
