"""Round-trip tests for trace persistence."""

import json

import pytest

from repro.aru import aru_min
from repro.cluster import ClusterSpec, NodeSpec
from repro.errors import TraceError
from repro.metrics import (
    PostmortemAnalyzer,
    TraceRecorder,
    jitter,
    latency_stats,
    load_trace,
    save_trace,
    throughput_fps,
    trace_from_dict,
    trace_to_dict,
)
from repro.runtime import (
    Compute,
    Get,
    PeriodicitySync,
    Put,
    Runtime,
    RuntimeConfig,
    Sleep,
    TaskGraph,
)


def run_pipeline():
    def src(ctx):
        ts = 0
        while True:
            yield Sleep(0.02)
            yield Put("c", ts=ts, size=1000)
            ts += 1
            yield PeriodicitySync()

    def dst(ctx):
        while True:
            yield Get("c")
            yield Compute(0.05)
            yield PeriodicitySync()

    g = TaskGraph()
    g.add_thread("src", src)
    g.add_thread("dst", dst, sink=True)
    g.add_channel("c")
    g.connect("src", "c").connect("c", "dst")
    cluster = ClusterSpec(nodes=(NodeSpec(name="node0", sched_noise_cv=0.1),))
    return Runtime(g, RuntimeConfig(cluster=cluster, aru=aru_min(), seed=4)).run(
        until=20.0
    )


class TestRoundTrip:
    def test_dict_round_trip_preserves_analysis(self):
        original = run_pipeline()
        restored = trace_from_dict(trace_to_dict(original))
        pm_a = PostmortemAnalyzer(original)
        pm_b = PostmortemAnalyzer(restored)
        assert pm_a.wasted_memory_fraction == pm_b.wasted_memory_fraction
        assert pm_a.wasted_computation_fraction == pm_b.wasted_computation_fraction
        assert pm_a.footprint().mean() == pm_b.footprint().mean()
        assert pm_a.ideal_footprint().mean() == pm_b.ideal_footprint().mean()
        assert throughput_fps(original) == throughput_fps(restored)
        assert latency_stats(original) == latency_stats(restored)
        assert jitter(original) == jitter(restored)

    def test_file_round_trip(self, tmp_path):
        original = run_pipeline()
        path = tmp_path / "trace.json"
        save_trace(original, path)
        restored = load_trace(path)
        assert len(restored.items) == len(original.items)
        assert len(restored.iterations) == len(original.iterations)
        assert len(restored.stp_samples) == len(original.stp_samples)
        assert restored.t_end == original.t_end

    def test_json_is_valid_and_versioned(self, tmp_path):
        original = run_pipeline()
        path = tmp_path / "trace.json"
        save_trace(original, path)
        data = json.loads(path.read_text())
        assert data["schema"] == 1
        assert data["items"] and data["iterations"]


def test_saved_bytes_match_the_file_written_before_the_columns(tmp_path):
    """``data/tracker_config1_aru_min_seed0_h4.json`` was written by
    ``save_trace`` at the last commit whose recorder kept one object per
    interaction; the same seeded run saves to the same bytes today."""
    from pathlib import Path

    from repro.experiment import ExperimentSpec, run_experiment
    from repro.runtime import reset_item_ids
    from repro.runtime.connection import reset_conn_ids

    reset_item_ids()
    reset_conn_ids()
    result = run_experiment(ExperimentSpec(
        config="config1", policy="aru-min", seed=0, horizon=4.0))
    path = tmp_path / "trace.json"
    save_trace(result.trace, path)
    committed = (Path(__file__).parent / "data"
                 / "tracker_config1_aru_min_seed0_h4.json")
    assert path.read_bytes() == committed.read_bytes()
    # ... and a load/save cycle of the committed file changes nothing.
    save_trace(load_trace(committed), path)
    assert path.read_bytes() == committed.read_bytes()


class TestValidation:
    def test_unfinalized_rejected(self):
        with pytest.raises(TraceError):
            trace_to_dict(TraceRecorder())

    def test_wrong_schema_rejected(self):
        with pytest.raises(TraceError, match="schema"):
            trace_from_dict({"schema": 99})

    def test_duplicate_item_rejected(self):
        original = run_pipeline()
        data = trace_to_dict(original)
        data["items"].append(data["items"][0])
        with pytest.raises(TraceError, match="duplicate"):
            trace_from_dict(data)
