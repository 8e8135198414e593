"""Tests for per-thread waste attribution."""

import pytest

from repro.metrics import PostmortemAnalyzer, TraceRecorder


def build_trace():
    rec = TraceRecorder()

    def alloc(item_id, t, parents=()):
        rec.on_alloc(item_id=item_id, channel="c", node="n", ts=item_id,
                     size=1, producer="p", parents=parents, t=t)

    alloc(1, 0.0)                 # used
    alloc(2, 1.0)                 # dropped
    alloc(3, 2.0, parents=(1,))   # delivered
    rec.on_get(1, 1, "mid", 1.5)
    rec.on_get(3, 2, "sink", 3.0)
    rec.on_iteration("src", 0.0, 0.5, 0.4, 0, 0, (), (1,))
    rec.on_iteration("src", 1.0, 1.5, 0.6, 0, 0, (), (2,))
    rec.on_iteration("mid", 1.5, 2.5, 1.0, 0, 0, (1,), (3,))
    rec.on_iteration("sink", 3.0, 3.5, 0.2, 0, 0, (3,), (), is_sink=True)
    rec.finalize(5.0)
    return rec


def test_attribution_per_thread():
    report = PostmortemAnalyzer(build_trace()).thread_waste_report()
    assert report["src"]["compute"] == pytest.approx(1.0)
    assert report["src"]["wasted"] == pytest.approx(0.6)  # item 2 dropped
    assert report["src"]["wasted_fraction"] == pytest.approx(0.6)
    assert report["src"]["wasted_iterations"] == 1
    assert report["mid"]["wasted"] == 0.0
    assert report["sink"]["wasted"] == 0.0


def test_report_sums_match_aggregate():
    pm = PostmortemAnalyzer(build_trace())
    report = pm.thread_waste_report()
    assert sum(e["compute"] for e in report.values()) \
        == pytest.approx(pm.total_compute)
    assert sum(e["wasted"] for e in report.values()) \
        == pytest.approx(pm.wasted_compute)


def test_on_tracker_run_digitizer_dominates_waste():
    from repro.apps import build_tracker
    from repro.aru import aru_disabled
    from repro.cluster import config1_spec
    from repro.runtime import Runtime, RuntimeConfig

    rec = Runtime(
        build_tracker(),
        RuntimeConfig(cluster=config1_spec(), aru=aru_disabled(), seed=0),
    ).run(until=30.0)
    report = PostmortemAnalyzer(rec).thread_waste_report()
    # the unthrottled camera wastes most of its work; detectors waste none
    assert report["digitizer"]["wasted_fraction"] > 0.5
    assert report["target_detect1"]["wasted_fraction"] < 0.2
    assert report["gui"]["wasted"] == 0.0
