"""Tests for the ASCII Gantt activity renderer."""

import pytest

from repro.metrics import TraceRecorder, activity_buckets, gantt


def make_rec():
    """Thread alternating: 0-5 s pure compute, 5-10 s pure blocking,
    10-15 s pure throttle sleep, 15-20 s idle."""
    rec = TraceRecorder()
    rec.on_iteration("t", 0.0, 5.0, compute=5.0, blocked=0.0, slept=0.0,
                     inputs=(), outputs=())
    rec.on_iteration("t", 5.0, 10.0, compute=0.0, blocked=5.0, slept=0.0,
                     inputs=(), outputs=())
    rec.on_iteration("t", 10.0, 15.0, compute=0.0, blocked=0.0, slept=5.0,
                     inputs=(), outputs=())
    rec.finalize(20.0)
    return rec


class TestBuckets:
    def test_dominant_activity_per_phase(self):
        rec = make_rec()
        cells = activity_buckets(rec, "t", n_buckets=4, t0=0.0, t1=20.0)
        assert cells == ["#", ".", "z", " "]

    def test_fine_buckets(self):
        rec = make_rec()
        cells = activity_buckets(rec, "t", n_buckets=20, t0=0.0, t1=20.0)
        assert cells[:5] == ["#"] * 5
        assert cells[5:10] == ["."] * 5
        assert cells[10:15] == ["z"] * 5
        assert cells[15:] == [" "] * 5

    def test_window_restriction(self):
        rec = make_rec()
        cells = activity_buckets(rec, "t", n_buckets=2, t0=5.0, t1=15.0)
        assert cells == [".", "z"]

    def test_unknown_thread_all_idle(self):
        rec = make_rec()
        assert activity_buckets(rec, "ghost", 4, 0.0, 20.0) == [" "] * 4


class TestGantt:
    def test_renders_all_threads(self):
        rec = TraceRecorder()
        rec.on_iteration("a", 0.0, 1.0, 1.0, 0, 0, (), ())
        rec.on_iteration("b", 0.0, 1.0, 0.0, 1.0, 0, (), ())
        rec.finalize(1.0)
        out = gantt(rec, width=10)
        lines = out.splitlines()
        assert len(lines) == 3  # legend + 2 threads
        assert lines[1].startswith("a ")
        assert "#" in lines[1]
        assert "." in lines[2]

    def test_unfinalized_rejected(self):
        with pytest.raises(ValueError):
            gantt(TraceRecorder())

    def test_empty_run(self):
        rec = TraceRecorder()
        rec.finalize(1.0)
        assert "no iterations" in gantt(rec)

    def test_on_real_tracker_run(self):
        from repro.apps import build_tracker
        from repro.aru import aru_max
        from repro.cluster import config1_spec
        from repro.runtime import Runtime, RuntimeConfig

        rec = Runtime(
            build_tracker(),
            RuntimeConfig(cluster=config1_spec(), aru=aru_max(), seed=0),
        ).run(until=20.0)
        out = gantt(rec, width=60)
        # under ARU-max the digitizer line must show throttle sleep
        digi_line = next(l for l in out.splitlines() if l.startswith("digitizer"))
        assert "z" in digi_line
        # detectors stay compute-saturated
        td_line = next(l for l in out.splitlines()
                       if l.startswith("target_detect2"))
        assert td_line.count("#") > 30
