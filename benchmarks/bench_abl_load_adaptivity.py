"""[ablation] Feedback adaptivity under transient external load.

§1 motivates *dynamic* resource utilization with "dynamic phenomena such
as current load, for which [static] tools are inapplicable". This bench
injects a background CPU burst on the shared node during the middle third
of a tracker run (ARU-min, config 1) and watches the loop adapt:

* during the burst, detector STPs inflate, the propagated summary-STP
  rises, and the digitizer's throttle target follows it up;
* after the burst the target comes back down — the loop re-accelerates
  production rather than staying stuck at the degraded rate;
* waste stays low *throughout* — adaptation, not a static setting, is
  what keeps production matched to consumption.

The control-signal series lives in the full trace, which stays in the
worker; the ``throttle_phases`` probe extracts the per-phase throttle
target and delivered fps in-cell.
"""

from repro.aru import aru_min
from repro.bench import CellSpec, format_table
from repro.cluster import LoadSpec

HORIZON = 150.0
BURST = (50.0, 100.0)
LOAD_THREADS = 6

PHASES = (
    ("before (0-50s)", 5.0, BURST[0]),
    ("burst (50-100s)", BURST[0] + 5.0, BURST[1]),
    ("after (100-150s)", BURST[1] + 5.0, HORIZON),
)

#: The sweep's cells, by the key ``check_control_identity.py`` checks.
CELLS = {
    "load_adaptivity": CellSpec(
        config="config1",
        policy=aru_min(),
        seed=0,
        horizon=HORIZON,
        loads=(LoadSpec(node="node0", start=BURST[0], stop=BURST[1],
                        threads=LOAD_THREADS, burst_s=0.05),),
        probe="throttle_phases",
        probe_args=(("thread", "digitizer"), ("phases", PHASES)),
    ),
}


def _run(runner):
    result, = runner.run_metrics(list(CELLS.values()))
    rows = [
        [label, result.extras[f"target:{label}"] * 1e3,
         result.extras[f"fps:{label}"]]
        for label, _, _ in PHASES
    ]
    return rows, result.metrics.wasted_memory


def test_loop_tracks_load_transient(benchmark, emit, sweep_runner):
    rows, waste = benchmark.pedantic(lambda: _run(sweep_runner),
                                     rounds=1, iterations=1)
    table = format_table(
        ["phase", "digitizer target (ms)", "delivered fps"],
        rows,
        title=(
            f"[ablation] ARU-min tracking a {LOAD_THREADS}-thread CPU burst "
            f"on node0 during t=[{BURST[0]:.0f},{BURST[1]:.0f}]s — tracker, "
            f"config1 (overall wasted mem {100 * waste:.1f}%)"
        ),
    )
    emit("abl_load_adaptivity", table)
    target = {r[0]: r[1] for r in rows}
    fps = {r[0]: r[2] for r in rows}
    # the throttle target rises under load and recovers afterwards
    assert target["burst (50-100s)"] > 1.2 * target["before (0-50s)"]
    assert target["after (100-150s)"] < 1.15 * target["before (0-50s)"]
    # throughput dips during the burst and recovers
    assert fps["burst (50-100s)"] < fps["before (0-50s)"]
    assert fps["after (100-150s)"] > 0.9 * fps["before (0-50s)"]
    # adaptation keeps waste low across the whole run
    assert waste < 0.30
