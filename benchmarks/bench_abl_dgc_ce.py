"""[ablation] Upstream computation elimination (prior work [6]) vs ARU.

The paper's §3.2: earlier dead-timestamp work proposed *eliminating
upstream computations* from downstream virtual-time knowledge, but "such
techniques have shown limited success [6]. The cause ... upstream threads
tend to be quicker than downstream threads. As a result, it generally
becomes too late to eliminate upstream computations."

This bench implements that technique (the :class:`CheckDead` syscall —
skip computing an output whose timestamp every downstream cursor already
passed) and measures it against ARU on the tracker. Because get-latest
cursors always trail production, the check almost never fires:
computation elimination removes (essentially) none of the waste, while
ARU removes almost all of it — quantitative support for the paper's
design pivot from reclamation to rate control.

The elimination counters live in mutable task-graph state, so each cell
carries the ``ce_stats`` probe, which reads them inside the worker.
"""

from repro.apps import TrackerConfig
from repro.aru import aru_disabled, aru_max
from repro.bench import CellSpec, format_table

HORIZON = 90.0

VARIANTS = {
    "DGC alone": dict(aru=aru_disabled(), ce=False),
    "DGC + comp-elim [6]": dict(aru=aru_disabled(), ce=True),
    "DGC + ARU-max": dict(aru=aru_max(), ce=False),
}

#: The sweep's cells, by the key ``check_control_identity.py`` checks.
CELLS = {
    f"dgc_ce/{label}": CellSpec(
        config="config1",
        policy=spec["aru"],
        label=label,
        seed=0,
        horizon=HORIZON,
        app_config=TrackerConfig(computation_elimination=spec["ce"]),
        probe="ce_stats",
    )
    for label, spec in VARIANTS.items()
}


def _sweep(runner):
    results = runner.run_metrics(list(CELLS.values()))
    rows = []
    for result in results:
        m = result.metrics
        rows.append([
            result.spec.label,
            100 * m.wasted_computation,
            100 * m.wasted_memory,
            int(result.extras["ce_skips"]),
            result.extras["ce_fire_rate"],
        ])
    return rows


def test_computation_elimination_vs_aru(benchmark, emit, sweep_runner):
    rows = benchmark.pedantic(lambda: _sweep(sweep_runner),
                              rounds=1, iterations=1)
    table = format_table(
        ["mechanism", "% Comp wasted", "% Mem wasted", "CE skips",
         "CE fire rate %"],
        rows,
        title="[ablation] computation elimination (prior work) vs ARU — config1",
    )
    emit("abl_dgc_ce", table)
    by = {r[0]: r for r in rows}
    # the paper's claim: CE barely helps (cursors trail production) ...
    assert by["DGC + comp-elim [6]"][4] < 5.0  # fires on < 5% of iterations
    assert by["DGC + comp-elim [6]"][1] > 0.8 * by["DGC alone"][1]
    # ... while ARU removes nearly all waste
    assert by["DGC + ARU-max"][1] < 0.1 * by["DGC alone"][1]
