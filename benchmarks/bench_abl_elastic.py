"""[ablation] Elastic parallelism vs fixed-N ARU under a 10x load swing.

The paper's ARU loop only modulates thread *periods*: when offered load
exceeds a stage's capacity, all it can do is throttle the source down to
what the fixed pool sustains. This bench offers a 10x arrival swing for
40 s against a one-worker pool (~2.5 erlangs at peak, far past one CPU)
and compares three controllers:

* **fixed / no control** — the backlog grows for the entire window, so
  end-to-end latency climbs essentially unboundedly (tens of seconds);
* **fixed / ARU-min** — the feedback loop throttles the source to the
  worker's sustainable period: latency stays bounded, but delivered
  throughput collapses to ~1/cost, shedding most of the offered load;
* **elastic / Erlang-C** — the scale controller sizes the pool to the
  measured arrival rate and service STP, holding swing p95 latency
  within 2x of steady state *while* delivering the full offered rate,
  then retires the extra replicas after the swing.

The per-phase latency percentiles come from the ``latency_phases``
probe (in-worker; the full trace never leaves the cell).
"""

from repro.apps import ElasticConfig
from repro.bench import CellSpec, format_table

HORIZON = 120.0
SWING = (40.0, 80.0, 10.0)  # 10x arrivals during t=[40,80)

WORKLOAD = ElasticConfig(replicas=1, max_replicas=6, worker_cost=0.03,
                         steady_period=0.12, swing=SWING, item_size=100_000)

#: Measurement windows: settle margins after each transition.
PHASES = (
    ("steady", 5.0, SWING[0]),
    ("swing", SWING[0] + 10.0, SWING[1]),
    ("recovery", SWING[1] + 10.0, HORIZON),
)

CELLS = {
    f"elastic/{label}": CellSpec(
        config="config1",
        policy=policy,
        label=label,
        app="elastic",
        app_config=WORKLOAD,
        scale_policy=scale,
        horizon=HORIZON,
        probe="latency_phases",
        probe_args=(("phases", PHASES), ("stage", "workers")),
    )
    for label, policy, scale in (
        ("fixed no-control", "no-aru", None),
        ("fixed ARU-min", "aru-min", None),
        ("elastic Erlang-C", "no-aru", "erlang"),
    )
}


def _run(runner):
    return {r.spec.label: r for r in runner.run_metrics(list(CELLS.values()))}


def test_elastic_holds_latency_where_fixed_aru_cannot(benchmark, emit,
                                                      sweep_runner):
    results = benchmark.pedantic(lambda: _run(sweep_runner),
                                 rounds=1, iterations=1)
    rows = []
    for label, result in results.items():
        x = result.extras
        rows.append([
            label,
            x["p95:steady"] * 1e3,
            x["p95:swing"] * 1e3,
            x["p95:recovery"] * 1e3,
            x["fps:steady"],
            x["fps:swing"],
            f"{x['replicas_spawned']:.0f}/{x['replicas_final']:.0f}",
        ])
    table = format_table(
        ["cell", "p95 steady (ms)", "p95 swing (ms)", "p95 recovery (ms)",
         "fps steady", "fps swing", "spawned/final"],
        rows,
        title=(
            "[ablation] 10x load swing t=[40,80)s, 1 worker -> Erlang-C "
            "pool (config1, worker cost 30 ms, offered 8.3 -> 83 fps)"
        ),
    )
    emit("abl_elastic", table)

    fixed = results["fixed no-control"].extras
    aru = results["fixed ARU-min"].extras
    elastic = results["elastic Erlang-C"].extras

    # Tentpole acceptance: the elastic policy holds swing p95 within 2x
    # of its own steady state...
    assert elastic["p95:swing"] <= 2.0 * elastic["p95:steady"]
    # ...where the fixed pool without control degrades without bound
    # (the backlog grows for the whole window)...
    assert fixed["p95:swing"] > 5.0 * fixed["p95:steady"]
    assert fixed["p95:swing"] > 10.0 * elastic["p95:swing"]
    # ...and ARU-min only bounds latency by shedding offered load.
    assert aru["p95:swing"] < fixed["p95:swing"] / 5.0
    assert aru["fps:swing"] < 0.6 * elastic["fps:swing"]
    # The elastic pool actually resized (and delivered the offered rate).
    assert elastic["replicas_spawned"] >= 3
    assert elastic["fps:swing"] > 2.0 * aru["fps:swing"]
    # After the swing it scales back in and recovers steady latency.
    assert elastic["replicas_final"] <= 2
    assert elastic["p95:recovery"] <= 2.0 * elastic["p95:steady"]
