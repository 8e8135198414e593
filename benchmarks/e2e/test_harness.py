"""Tests of the e2e benchmark harness itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``; tier-1
does not collect this directory (``testpaths = ["tests"]``).
"""

import json
import re
from pathlib import Path

import layers
import pytest
import run

from repro.errors import ProcessKilled
from repro.sim.engine import Engine

HERE = Path(__file__).resolve().parent


class FakeClock:
    def __init__(self):
        self.t = 0

    def perf_counter_ns(self):
        return self.t


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(layers.time, "perf_counter_ns", fake.perf_counter_ns)
    return fake


def test_self_time_is_inclusive_minus_children(clock):
    tracer = layers.Tracer()

    def leaf():
        clock.t += 5

    def middle():
        clock.t += 10
        leaf()
        leaf()
        clock.t += 1

    def root():
        clock.t += 100
        middle()
        leaf()

    leaf = tracer.wrap(leaf, "c")
    middle = tracer.wrap(middle, "b")
    tracer.wrap(root, "a")()

    edges = tracer.edges()
    assert edges[("", "a")] == [1, 126, 100]
    assert edges[("a", "b")] == [1, 21, 11]
    assert edges[("b", "c")] == [2, 10, 10]
    assert edges[("a", "c")] == [1, 5, 5]
    by_layer = tracer.layers()
    assert by_layer["c"]["calls"] == 3 and by_layer["c"]["self_ns"] == 15
    # Nothing double-counted, nothing lost: self times add up to the root.
    assert sum(v["self_ns"] for v in by_layer.values()) == 126
    spans = tracer.to_json()["spans"]
    assert [s["name"] for s in spans] == ["a", "b", "c", "c", "c"]
    assert [s["parent"] for s in spans] == [-1, 0, 1, 1, 0]


def test_nested_span_of_the_same_layer_is_not_counted_twice(clock):
    tracer = layers.Tracer()

    def inner():
        clock.t += 3

    inner = tracer.wrap(inner, "x")

    def outer():
        clock.t += 4
        inner()

    tracer.wrap(outer, "x")()
    row = tracer.layers()["x"]
    assert (row["calls"], row["inclusive_ns"], row["self_ns"]) == (2, 7, 7)


def test_only_the_first_spans_are_kept_raw(clock):
    tracer = layers.Tracer(keep=3)
    fn = tracer.wrap(lambda: None, "x")
    for _ in range(10):
        fn()
    assert len(tracer.raw) == 3 and tracer.layers()["x"]["calls"] == 10


def test_counted_wrapper_sums_returned_items():
    tracer = layers.Tracer()
    fn = tracer.wrap(lambda n: [0] * n, "gc", count_items=True)
    fn(2), fn(0), fn(5)
    assert tracer.layers()["gc"]["items"] == 7


def test_resume_proxy_forwards_send_throw_close():
    seen = []

    def body():
        try:
            got = yield 1
            seen.append(got)
            try:
                yield 2
            except KeyError as exc:
                seen.append(exc)
            yield 3
        finally:
            seen.append("closed")

    tracer = layers.Tracer()
    proxy = layers.ResumeProxy(body(), tracer, "runtime.thread")
    assert next(proxy) == 1
    assert proxy.send("hello") == 2
    error = KeyError("k")
    assert proxy.throw(error) == 3
    proxy.close()
    assert seen == ["hello", error, "closed"]
    with pytest.raises(StopIteration):
        proxy.send(None)
    assert tracer.layers()["runtime.thread"]["calls"] == 5


def test_process_kill_lands_through_the_proxy():
    engine = Engine()
    log = []

    def body():
        try:
            while True:
                yield engine.timeout(1.0)
                log.append(engine.now)
        except ProcessKilled as exc:
            log.append(f"killed: {exc}")
            raise

    tracer = layers.Tracer()
    process = engine.process(
        layers.ResumeProxy(body(), tracer, "runtime.thread"), name="p")

    def killer():
        yield engine.timeout(2.5)
        process.kill("test")

    engine.process(killer(), name="killer")
    engine.run(until=10.0)
    assert log == [1.0, 2.0, "killed: test"]
    assert not process.is_alive


def _wrapped_attributes():
    import importlib

    from repro.rt_threads.executor import ThreadedRuntime
    from repro.runtime.runtime import Runtime
    from repro.runtime.thread import ThreadDriver

    owners = [(Runtime, "run"), (ThreadedRuntime, "start"),
              (ThreadDriver, "run")]
    for module, cls, names, _layer in layers.SPAN_POINTS:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        owners.extend((owner, name) for name in names)
    return {(owner, name): vars(owner)[name] for owner, name in owners}


def test_wrappers_are_removed_and_do_not_change_results():
    from repro.bench import CellSpec, metrics_fingerprint, run_cell
    from repro.runtime.item import reset_item_ids

    before = _wrapped_attributes()
    spec = CellSpec(config="config2", policy="aru-min", seed=3, horizon=5.0)

    reset_item_ids()
    plain = run_cell(spec)

    reset_item_ids()
    patches = layers.Patches()
    stamps = layers.RunStamps()
    stamps.install(patches)
    tracer = layers.Tracer()
    layers.install_spans(tracer, patches)
    try:
        assert all(vars(owner)[name] is not original
                   for (owner, name), original in before.items())
        traced = run_cell(spec)
    finally:
        patches.restore()

    assert _wrapped_attributes() == before
    assert plain.ok and traced.ok
    assert metrics_fingerprint(plain) == metrics_fingerprint(traced)
    (stamp,) = stamps.runs
    assert stamp["events"] > 0 and stamp["exit"] > stamp["enter"]
    by_layer = tracer.layers()
    engine_span = by_layer["sim"]["inclusive_ns"]
    assert sum(v["self_in_run_ns"] for v in by_layer.values()) == engine_span
    for layer in ("runtime.thread", "runtime.channel", "gc", "control",
                  "metrics.recorder", "metrics.postmortem", "cluster"):
        assert by_layer[layer]["calls"] > 0, layer


def _out_file(tmp_path, name, scale, workload="fleet_10"):
    median = {"wall_s": 5.0 * scale, "setup_s": 0.4, "events_per_s": 1e5 / scale,
              "analysis_s": 0.1, "cpu_s": 5.2 * scale, "peak_rss_mb": 160.0,
              "ops": 3, "ops_failed": 0}
    path = tmp_path / name
    path.write_text(json.dumps(
        {"schema": 1, "workloads": {workload: {"median": median}}}))
    return str(path)


def test_compare_flags_a_regression_and_passes_noise(tmp_path, capsys):
    # Timings of CPU-bound work carry 0.25 on the sim workloads (sandbox
    # noise), wall_s 0.10 on the horizon-bound live ones.
    base = _out_file(tmp_path, "a.json", 1.0)
    assert run.compare(base, _out_file(tmp_path, "b.json", 1.02)) == 0
    assert run.compare(base, _out_file(tmp_path, "c.json", 1.20)) == 0
    assert run.compare(base, _out_file(tmp_path, "d.json", 1.30)) == 1
    out = capsys.readouterr().out
    assert "EXCEEDS" in out and "wall_s" in out
    live = _out_file(tmp_path, "e.json", 1.0, "live_wire")
    assert run.compare(
        live, _out_file(tmp_path, "f.json", 1.02, "live_wire")) == 0
    assert run.compare(
        live, _out_file(tmp_path, "g.json", 1.20, "live_wire")) == 1
    # A faster B is never a regression.
    assert run.compare(base, _out_file(tmp_path, "h.json", 0.8)) == 0


def test_compare_flags_a_change_in_failed_ops(tmp_path):
    base = _out_file(tmp_path, "a.json", 1.0)
    broken = json.loads(Path(base).read_text())
    broken["workloads"]["fleet_10"]["median"]["ops_failed"] = 1
    other = tmp_path / "b.json"
    other.write_text(json.dumps(broken))
    assert run.compare(base, str(other)) == 1


def test_setup_floor_absorbs_small_absolute_changes(tmp_path):
    base = json.loads(Path(_out_file(tmp_path, "a.json", 1.0)).read_text())
    base["workloads"]["fleet_10"]["median"]["analysis_s"] = 0.14  # +40 ms
    other = tmp_path / "b.json"
    other.write_text(json.dumps(base))
    assert run.compare(_out_file(tmp_path, "a.json", 1.0), str(other)) == 0


def test_benchmark_json_names_are_valid_and_emitted():
    contract = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    name_re = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer")
             for e in contract[key]]
    assert all(name_re.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    assert [w["name"] for w in contract["workloads"]] == list(
        run.WORKLOAD_NAMES)

    # run.py emits an end-to-end metric on every workload only when it
    # has a bound on both kinds of workload.
    universal = {m.name: m for m in run.END_TO_END
                 if m.sim_bound is not None and m.live_bound is not None}
    for entry in contract["end_to_end"]:
        metric = universal[entry["name"]]
        assert (entry["unit"], entry["better"]) == (metric.unit, metric.better)
        assert entry["bound"] == max(metric.sim_bound, metric.live_bound)
        assert 0 < entry["bound"] <= 0.25
    assert "setup_s" in {e["name"] for e in contract["end_to_end"]}
    assert [(e["name"], e["unit"], e["better"])
            for e in contract["per_layer"]] == list(layers.PER_LAYER)


def test_per_layer_metrics_emit_every_name():
    trace = {"layers": {"sim": {"calls": 1, "self_ns": 2_000_000,
                                "inclusive_ns": 5_000_000, "items": 0},
                        "gc": {"calls": 4, "self_ns": 1_000_000,
                               "inclusive_ns": 1_000_000, "items": 6}}}
    plain = {"metrics": {"wall_s": 2.0, "cpu_s": 2.1, "analysis_s": 0.5},
             "diag": {}}
    traced = {"workload": "fleet_10", "kind": "sim", "trace": trace,
              "metrics": {"wall_s": 3.0},
              "diag": {"events": 1000, "puts": 10, "skips": 5,
                       "net_bytes": 7}}
    values = layers.per_layer_metrics(plain, traced)
    assert set(values) == {name for name, _u, _b in layers.PER_LAYER}
    assert values["sim.self_us_per_event"] == 2.0
    assert values["gc.freed_per_call"] == 1.5
    assert values["runtime.channel.skip_ratio"] == 0.5
    assert values["trace.overhead_ratio"] == 1.5
    assert values["dist.put_rtt_us"] == 0.0
