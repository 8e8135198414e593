"""[ablation/extension] ARU feedback vs bounded-channel back-pressure.

Modern stream processors (Flink, Akka Streams, Reactive Streams) throttle
producers with *back-pressure*: bounded buffers whose full state blocks
the upstream put. ARU instead propagates rate information and throttles
at the source. This bench compares the two on the tracker:

* back-pressure bounds memory hard, but the producer still runs ahead by
  a buffer's worth — items are produced, then skipped: the *computation*
  waste persists;
* ARU prevents the wasted items from being produced at all, at comparable
  or better memory, without hand-picking a buffer size.
"""

from repro.apps import TrackerConfig
from repro.aru import aru_disabled, aru_min
from repro.bench import CellSpec, format_table

HORIZON = 90.0
SEEDS = (0, 1)

VARIANTS = {
    "unbounded, no ARU": dict(aru=aru_disabled(), capacity=None),
    "backpressure cap=3": dict(aru=aru_disabled(), capacity=3),
    "backpressure cap=8": dict(aru=aru_disabled(), capacity=8),
    "ARU-min, unbounded": dict(aru=aru_min(), capacity=None),
}

#: The sweep's cells, by the key ``check_control_identity.py`` checks.
CELLS = {
    f"backpressure/{label}/s{seed}": CellSpec(
        config="config1",
        policy=spec["aru"],
        label=label,
        seed=seed,
        horizon=HORIZON,
        app_config=TrackerConfig(channel_capacity=spec["capacity"]),
    )
    for label, spec in VARIANTS.items()
    for seed in SEEDS
}


def _sweep(runner):
    results = runner.run_metrics(list(CELLS.values()))
    rows = []
    for label in VARIANTS:
        runs = [r.metrics for r in results if r.spec.label == label]
        n = len(runs)
        rows.append([
            label,
            sum(r.mem_mean for r in runs) / n / 1e6,
            100 * sum(r.wasted_computation for r in runs) / n,
            sum(r.throughput for r in runs) / n,
            1e3 * sum(r.latency_mean for r in runs) / n,
        ])
    return rows


def test_aru_vs_backpressure(benchmark, emit, sweep_runner):
    rows = benchmark.pedantic(lambda: _sweep(sweep_runner),
                              rounds=1, iterations=1)
    table = format_table(
        ["flow control", "Mem mean (MB)", "% Comp wasted", "fps", "lat (ms)"],
        rows,
        title="[ablation] ARU vs bounded-buffer back-pressure — config1, tracker",
    )
    emit("abl_backpressure", table)
    by = {r[0]: r for r in rows}
    # back-pressure bounds memory relative to the unbounded baseline
    assert by["backpressure cap=3"][1] < by["unbounded, no ARU"][1]
    # but ARU eliminates computation waste far better than any fixed bound
    assert by["ARU-min, unbounded"][2] < by["backpressure cap=3"][2]
    assert by["ARU-min, unbounded"][2] < by["backpressure cap=8"][2]
    # without giving up throughput
    assert by["ARU-min, unbounded"][3] >= 0.95 * by["backpressure cap=3"][3]
