"""Tests for the command-line interface."""

import pytest

from repro.apps import APPS
from repro.backends import BACKENDS
from repro.cli import build_parser, main
from repro.control import POLICIES, SCALE_POLICIES
from repro.gc import COLLECTORS
from repro.tenancy import ARBITERS, PLACEMENTS


def test_run_tracker_summary(capsys):
    rc = main(["run-tracker", "--config", "1", "--policy", "aru-max",
               "--horizon", "15", "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "config=config1 policy=aru-max" in out
    assert "memory footprint" in out
    assert "throughput" in out


def test_run_tracker_save_and_analyze(tmp_path, capsys):
    trace_path = tmp_path / "run.json"
    rc = main(["run-tracker", "--config", "1", "--policy", "no-aru",
               "--horizon", "12", "--save-trace", str(trace_path)])
    assert rc == 0
    assert trace_path.exists()
    capsys.readouterr()

    rc = main(["analyze", str(trace_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "per-channel" in out
    assert "C3" in out
    assert "wasted memory" in out


def test_timeline_command(tmp_path, capsys):
    trace_path = tmp_path / "run.json"
    main(["run-tracker", "--horizon", "12", "--save-trace", str(trace_path)])
    capsys.readouterr()
    rc = main(["timeline", str(trace_path), "--channel", "C3", "--width", "40"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "memory footprint — C3" in out
    assert "MB" in out


def test_profile_command(capsys):
    rc = main(["profile", "--horizon", "8", "--policy", "no-aru",
               "--sort", "tottime", "--limit", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "profiled: config1 policy=no-aru" in out
    assert "frames delivered" in out
    # the pstats hot-function table
    assert "ncalls" in out and "tottime" in out
    assert "function calls" in out


def test_profile_cumtime_sort_and_top(capsys):
    # ISSUE-7 triage flags: --sort cumtime (pstats alias) and --top N
    # (preferred spelling of --limit).
    rc = main(["profile", "--horizon", "8", "--policy", "no-aru",
               "--sort", "cumtime", "--top", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "profiled: config1 policy=no-aru" in out
    assert "cumtime" in out


def test_paper_tables_quick(capsys):
    rc = main(["paper-tables", "--seeds", "1", "--horizon", "30"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[fig 6]" in out and "[fig 7]" in out and "[fig 10]" in out
    assert "Shape checks vs the paper" in out


def test_sweep_smoke_parallel(tmp_path, capsys):
    """The documented smoke target: ``repro sweep --workers 2 --horizon 5``
    (cache pointed into tmp so tests never touch the working tree)."""
    cache_dir = tmp_path / "cache"
    rc = main(["sweep", "--workers", "2", "--horizon", "5",
               "--cache-dir", str(cache_dir)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[fig 6]" in out and "[fig 10]" in out
    assert "18 cells" in out
    assert "18 executed, 0 cache hits" in out
    assert cache_dir.exists()

    # the repeated sweep is a pure cache replay: zero re-executions
    rc = main(["sweep", "--workers", "2", "--horizon", "5",
               "--cache-dir", str(cache_dir)])
    assert rc == 0
    assert "0 executed, 18 cache hits" in capsys.readouterr().out


def test_sweep_single_policy(tmp_path, capsys):
    """``sweep --policy`` restricts the grid to one (custom) policy; the
    tables must render it even though it isn't a paper column."""
    rc = main(["sweep", "--policy", "aru-pid", "--horizon", "5",
               "--cache-dir", str(tmp_path / "cache")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "1 policies" in out
    assert "aru-pid" in out
    assert "6 cells" in out and "6 executed" in out


def test_sweep_list_policies(capsys):
    rc = main(["sweep", "--list-policies"])
    assert rc == 0
    out = capsys.readouterr().out
    for name in ("no-aru", "aru-min", "aru-max", "aru-pid", "null"):
        assert name in out


def test_chaos_policy_override_unknown_name():
    with pytest.raises(SystemExit, match="unknown policy"):
        main(["chaos", "examples/chaos_tracker.yaml",
              "--policy", "warp-speed"])


def test_compare_command(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["run-tracker", "--horizon", "10", "--policy", "no-aru",
          "--save-trace", str(a)])
    main(["run-tracker", "--horizon", "10", "--policy", "aru-max",
          "--save-trace", str(b)])
    capsys.readouterr()
    rc = main(["compare", str(a), str(b)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "wasted_memory" in out and "trace comparison" in out


def test_dot_command(capsys):
    rc = main(["dot", "tracker"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph") and '"C1"' in out


def test_gantt_command(tmp_path, capsys):
    trace_path = tmp_path / "run.json"
    main(["run-tracker", "--horizon", "12", "--policy", "aru-max",
          "--save-trace", str(trace_path)])
    capsys.readouterr()
    rc = main(["gantt", str(trace_path), "--width", "50"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "digitizer" in out and "gui" in out
    assert "#" in out


def test_paper_tables_save_csv(tmp_path, capsys):
    path = tmp_path / "grid.csv"
    rc = main(["paper-tables", "--seeds", "1", "--horizon", "20",
               "--save-csv", str(path)])
    assert rc == 0
    assert path.exists()
    header = path.read_text().splitlines()[0]
    assert header.startswith("config,policy,seed")


def test_unknown_policy_exits():
    with pytest.raises(SystemExit):
        main(["run-tracker", "--policy", "warp-speed"])


def test_missing_command_exits():
    with pytest.raises(SystemExit):
        main([])


def test_chaos_list_faults(capsys):
    from repro.faults import FAULT_KINDS

    rc = main(["chaos", "--list-faults"])
    assert rc == 0
    out = capsys.readouterr().out
    for kind in FAULT_KINDS:
        assert kind in out


def test_chaos_requires_a_schedule():
    with pytest.raises(SystemExit, match="schedule"):
        main(["chaos"])


def test_chaos_run_from_json(tmp_path, capsys):
    import json

    chaos = {
        "experiment": {"app": "tracker", "config": "config1",
                       "policy": {"preset": "aru-min", "staleness_ttl": 2.0},
                       "horizon": 20},
        "detector": {"interval": 0.25},
        "faults": [
            {"kind": "thread_crash", "at": 5.0, "thread": "target_detect2"},
            {"kind": "thread_restart", "at": 9.0, "thread": "target_detect2"},
        ],
    }
    path = tmp_path / "chaos.json"
    path.write_text(json.dumps(chaos))
    trace_path = tmp_path / "run.json"
    rc = main(["chaos", str(path), "--save-trace", str(trace_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "2 scheduled faults" in out
    assert "2 faults injected, 2 detected, 2 recovered" in out
    assert "faults: !=injected d=detected r=recovered" in out
    assert "throttle recovery" in out
    assert trace_path.exists()


def test_chaos_horizon_override(tmp_path, capsys):
    import json

    chaos = {
        "app": "tracker", "config": "config1", "horizon": 120,
        "faults": [{"kind": "thread_crash", "at": 2.0, "thread": "gui"}],
    }
    path = tmp_path / "chaos.json"
    path.write_text(json.dumps(chaos))
    rc = main(["chaos", str(path), "--horizon", "6"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "6.0s simulated" in out


def test_run_tracker_telemetry_exports(tmp_path, capsys):
    out_dir = tmp_path / "tel"
    rc = main(["run-tracker", "--horizon", "8", "--policy", "aru-min",
               "--telemetry", str(out_dir)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "throughput" in out            # the normal run summary
    assert "threads" in out               # the telemetry summary table
    assert "load in Perfetto" in out
    label = "tracker-config1-aru-min-s0"
    assert (out_dir / f"{label}.trace.json").exists()
    assert (out_dir / f"{label}.jsonl").exists()
    prom = (out_dir / f"{label}.prom").read_text()
    assert "repro_iterations_total" in prom


def test_obs_summarizes_jsonl(tmp_path, capsys):
    out_dir = tmp_path / "tel"
    main(["run-tracker", "--horizon", "8", "--telemetry", str(out_dir)])
    capsys.readouterr()
    (jsonl,) = out_dir.glob("*.jsonl")
    rc = main(["obs", str(jsonl)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "records)" in out
    assert "digitizer" in out and "buffers" in out


def test_chaos_telemetry_trace_has_fault_instants(tmp_path, capsys):
    import json

    chaos = {
        "app": "tracker", "config": "config1", "horizon": 12,
        "faults": [{"kind": "thread_crash", "at": 3.0,
                    "thread": "target_detect2"},
                   {"kind": "thread_restart", "at": 7.0,
                    "thread": "target_detect2"}],
    }
    path = tmp_path / "chaos.json"
    path.write_text(json.dumps(chaos))
    out_dir = tmp_path / "tel"
    rc = main(["chaos", str(path), "--telemetry", str(out_dir)])
    assert rc == 0
    capsys.readouterr()
    doc = json.loads((out_dir / "chaos-chaos.trace.json").read_text())
    instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
    assert any(e["name"] == "injected:thread_crash" for e in instants)


def test_elastic_run_scales_and_reports(capsys):
    rc = main(["elastic", "--horizon", "25", "--swing-start", "4",
               "--swing-end", "16", "--swing-factor", "8",
               "--worker-cost", "0.03", "--period", "0.1", "--seed", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "elastic run: scale-policy=erlang" in out
    assert "throughput" in out and "latency p95" in out
    assert "stage 'workers':" in out
    # the swing actually triggered the controller
    assert "scale-out" in out


def test_elastic_fixed_pool_has_no_scale_events(capsys):
    rc = main(["elastic", "--scale-policy", "no-scale", "--horizon", "10",
               "--swing-factor", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "scale-policy=no-scale" in out
    assert "0 control decisions" in out
    assert "scale-out" not in out


def test_elastic_list_scale_policies(capsys):
    rc = main(["elastic", "--list-scale-policies"])
    assert rc == 0
    out = capsys.readouterr().out
    for name in ("erlang", "erlang-latency", "no-scale", "null-scale"):
        assert name in out


def test_elastic_unknown_scale_policy_exits():
    with pytest.raises(SystemExit, match="scale policy"):
        main(["elastic", "--scale-policy", "warp-speed"])


def test_elastic_telemetry_exports(tmp_path, capsys):
    out_dir = tmp_path / "tel"
    rc = main(["elastic", "--horizon", "10", "--swing-factor", "1",
               "--telemetry", str(out_dir)])
    assert rc == 0
    capsys.readouterr()
    label = "elastic-erlang-s0"
    assert (out_dir / f"{label}.trace.json").exists()
    assert (out_dir / f"{label}.jsonl").exists()


def test_sweep_telemetry_writes_cell_snapshots(tmp_path, capsys):
    import json

    out_dir = tmp_path / "tel"
    rc = main(["sweep", "--seeds", "1", "--horizon", "5", "--workers", "1",
               "--policy", "aru-min", "--no-cache",
               "--telemetry", str(out_dir)])
    assert rc == 0
    capsys.readouterr()
    snaps = sorted(out_dir.glob("*.telemetry.json"))
    assert len(snaps) == 2  # config1 + config2, one seed
    snap = json.loads(snaps[0].read_text())
    assert snap["enabled"] is True
    assert any(m["name"] == "repro_iterations_total"
               for m in snap["metrics"])


def test_tenants_list_placements(capsys):
    rc = main(["tenants", "--list-placements"])
    assert rc == 0
    out = capsys.readouterr().out
    for name in ("round-robin", "rstorm", "spread"):
        assert name in out


def test_tenants_synthetic_fleet(capsys):
    rc = main(["tenants", "--tenants", "3", "--nodes", "2",
               "--horizon", "3", "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "3 declared, 3 admitted" in out
    assert "placement=rstorm" in out
    assert "tenant2" in out
    assert "jain=" in out


def test_tenants_json_output(capsys):
    import json

    rc = main(["tenants", "--tenants", "2", "--nodes", "2",
               "--horizon", "3", "--json"])
    assert rc == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    assert set(payload["tenants"]) == {"tenant0", "tenant1"}
    assert payload["tenants"]["tenant0"]["state"] == "running"
    assert 0.0 <= payload["jain"] <= 1.0


def test_tenants_spec_file_round_trip(tmp_path, capsys):
    import json

    spec_path = tmp_path / "fleet.json"
    spec_path.write_text(json.dumps({
        "cluster": {"n_nodes": 2, "ncpus": 8},
        "horizon": 3.0,
        "tenants": [
            {"name": "cam", "count": 2,
             "app_config": {"frame_period": 0.2},
             "demand": {"cpu": 0.25, "mem_mb": 16, "bandwidth_mbps": 1}},
        ],
    }))
    rc = main(["tenants", str(spec_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "cam-0" in out and "cam-1" in out
    assert "2 declared, 2 admitted" in out


def test_tenants_spec_file_placement_override(tmp_path, capsys):
    import json

    spec_path = tmp_path / "fleet.json"
    spec_path.write_text(json.dumps({
        "horizon": 2.0,
        "tenants": [{"name": "a", "app_config": {"frame_period": 0.2}}],
    }))
    rc = main(["tenants", str(spec_path), "--placement", "spread"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "placement=spread" in out


def test_tenants_unknown_placement_fails(capsys):
    with pytest.raises(SystemExit, match="placement"):
        main(["tenants", "--tenants", "1", "--placement", "rstrom"])


def test_tenants_bad_spec_file_fails(tmp_path):
    spec_path = tmp_path / "bad.json"
    spec_path.write_text('{"tenants": [{"name": "a", "cpu": 1}]}')
    with pytest.raises(SystemExit, match="unknown key"):
        main(["tenants", str(spec_path)])


@pytest.mark.parametrize("command, spec, where", [
    ("run-config", {"horizon": "long"}, "'horizon' in experiment spec"),
    ("run-config", {"loads": [{"node": "node0", "start": 1, "stop": 2,
                               "thredas": 2}]}, r"loads\[0\]"),
    ("tenants", {"tenants": [{"name": "a", "demand": {"cpu": "lots"}}]},
     r"'cpu' in tenants\[0\].demand"),
    ("tenants", {"tenants": [{"name": "a"}], "arbiter": {"interval": "x"}},
     "'interval' in arbiter"),
])
def test_spec_file_bad_value_fails_at_its_key(tmp_path, command, spec, where):
    import json

    spec_path = tmp_path / "bad.json"
    spec_path.write_text(json.dumps(spec))
    with pytest.raises(SystemExit, match=f"error: .*{where}"):
        main([command, str(spec_path)])


# -- flags derived from the registries ---------------------------------------

#: Every (subcommand, registry flag) pair, with its catalog flag.
REGISTRY_FLAGS = [
    ("run-tracker", "--policy", POLICIES, "--list-policies"),
    ("run-tracker", "--gc", COLLECTORS, "--list-collectors"),
    ("run-tracker", "--backend", BACKENDS, "--list-backends"),
    ("sweep", "--policy", POLICIES, "--list-policies"),
    ("sweep", "--backend", BACKENDS, "--list-backends"),
    ("run-config", "--backend", BACKENDS, "--list-backends"),
    ("chaos", "--policy", POLICIES, "--list-policies"),
    ("elastic", "--policy", POLICIES, "--list-policies"),
    ("elastic", "--scale-policy", SCALE_POLICIES, "--list-scale-policies"),
    ("elastic", "--backend", BACKENDS, "--list-backends"),
    ("tenants", "--placement", PLACEMENTS, "--list-placements"),
    ("tenants", "--arbiter", ARBITERS, "--list-arbiters"),
    ("tenants", "--policy", POLICIES, "--list-policies"),
    ("dot", "app", APPS, "--list-apps"),
    ("profile", "--policy", POLICIES, "--list-policies"),
    ("profile", "--gc", COLLECTORS, "--list-collectors"),
]


@pytest.mark.parametrize("command, flag, registry, listing", REGISTRY_FLAGS,
                         ids=[f"{c} {f}" for c, f, _, _ in REGISTRY_FLAGS])
def test_registry_flag_lists_and_takes_registered_names(
        command, flag, registry, listing, capsys):
    registry.register("cli-test", registry.get(registry.names()[0]))
    assert main([command, listing]) == 0
    out = capsys.readouterr().out
    assert all(name in out for name in registry.names())

    argv = [command, flag, "cli-test"] if flag.startswith("-") \
        else [command, "cli-test"]
    args = build_parser().parse_args(argv)
    assert getattr(args, flag.lstrip("-").replace("-", "_")) == "cli-test"


def test_dot_builds_a_registered_app(capsys):
    APPS.register("stereo-again", APPS.get("stereo"))
    assert main(["dot", "stereo-again"]) == 0
    assert capsys.readouterr().out.startswith('digraph "stereo"')


def test_dot_without_an_app_exits():
    with pytest.raises(SystemExit, match="--list-apps"):
        main(["dot"])


def test_run_tracker_runs_a_registered_collector(capsys):
    from repro.gc import RefCountGC

    COLLECTORS.register("ref-again", RefCountGC)
    rc = main(["run-tracker", "--gc", "ref-again", "--horizon", "5"])
    assert rc == 0
    assert "memory footprint" in capsys.readouterr().out


def test_unknown_collector_exits_with_suggestion():
    with pytest.raises(SystemExit, match="did you mean 'dgc'"):
        main(["run-tracker", "--gc", "dgcc"])


def test_tenants_spec_with_non_string_scale_policy_fails_cleanly(tmp_path):
    import json

    spec_path = tmp_path / "fleet.json"
    spec_path.write_text(json.dumps({
        "horizon": 1.0,
        "tenants": [{"name": "a", "scale_policy": ["erlang"]}],
    }))
    with pytest.raises(SystemExit,
                       match="error: scale policy must be a registered name"):
        main(["tenants", str(spec_path)])
