"""End-to-end: the bundled tracker across real worker processes.

These fork actual worker processes and move real bytes over loopback
TCP, so they are slower than the rest of the suite; horizons are kept
short.
"""

import os
import subprocess
import time

import pytest

from repro.aru import aru_min
from repro.cluster.spec import ClusterSpec, NodeSpec
from repro.control import register_policy
from repro.errors import ConfigError, DistError
from repro.experiment import ExperimentSpec, run_experiment
from repro.faults.spec import FaultSpec
from repro.runtime import Get, Put, Sleep, TaskGraph

_CHILDREN = f"/proc/{os.getpid()}/task/{os.getpid()}/children"


def _ticker(ctx):
    ts = 0
    while True:
        yield Sleep(0.02)
        yield Put("ticks", ts=ts, size=8)
        ts += 1


def _exits_on_first_tick(ctx):
    yield Get("ticks")
    os._exit(3)


def _children():
    """This process's children that have not been reaped, zombies too."""
    with open(_CHILDREN) as f:
        return set(f.read().split())


@pytest.fixture(scope="module")
def tracker_run():
    """A 3 s ``config2`` ``aru-min`` proc run, with the ``STATS`` report
    the launcher received from each worker."""
    from repro.dist import launcher
    from repro.dist.framing import FrameKind

    def no_interpreters(*args, **kwargs):
        raise AssertionError("a proc run must not start an interpreter")

    reports = []
    recv_step = launcher._recv_step

    def recording(worker, expected, timeout):
        payload = recv_step(worker, expected, timeout)
        if expected == FrameKind.STATS:
            reports.append(payload)
        return payload

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(subprocess, "Popen", no_interpreters)
        mp.setattr(launcher, "_recv_step", recording)
        result = run_experiment(ExperimentSpec(
            config="config2", policy="aru-min", seed=0, horizon=3.0,
            backend="proc", telemetry=True,
        ))
    return result, reports


@pytest.mark.slow
def test_tracker_runs_across_worker_processes(tracker_run,
                                             exports_sims_series):
    result, _ = tracker_run
    info = result.runtime
    # >= 2 real worker processes, all exited cleanly
    assert len(info.workers) >= 2
    assert all(w.returncode == 0 for w in info.workers)
    assert all(w.pid for w in info.workers)
    # the pipeline delivered frames end to end
    assert result.trace.sink_iterations()
    # channels crossed node boundaries over TCP
    assert result.stats["network"]["total_bytes"] > 0
    # the ARU feedback plane was live: summary-STP samples were recorded
    assert result.trace.stp_samples
    # merged stats are DES-shaped: per-node, per-buffer, per-thread
    assert len(result.stats["nodes"]) == len(info.workers)
    assert result.stats["buffers"]
    assert result.stats["threads"]
    # item ids carry their worker's stride prefix, so merged traces
    # cannot collide
    from repro.dist.worker import ID_STRIDE

    assert result.trace.items
    assert all(item_id >= ID_STRIDE for item_id in result.trace.items)
    # every worker's hub read its own channels and merged into one that
    # exports what the same spec exports on sim
    exports_sims_series(result)


@pytest.mark.slow
def test_worker_traces_travel_without_pending_anchors(tracker_run):
    """A worker's trace crosses the wire as its rows and name table: no
    latency anchor and no pending-anchor row travels, though a worker
    holds items whose parents another worker allocated. The merge folds
    the anchors again and resolves every one."""
    result, reports = tracker_run
    assert len(reports) == len(result.runtime.workers)
    folded = {"item_anchor", "_pending_row", "_pending_parents",
              "_pending_parents_end"}
    for report in reports:
        trace = report["trace"]
        assert trace.trace_rows and trace.t_end is not None
        assert not folded & set(trace.__getstate__())
    # Cross-worker lineage: a worker alone cannot anchor every item.
    assert any(len(report["trace"]._pending_row) for report in reports)
    anchors = result.trace.anchors()
    assert len(anchors) == len(result.trace.items)
    assert all(a == a for a in anchors)  # no NaN: every anchor resolved


@pytest.mark.slow
def test_policy_registered_at_run_time_reaches_workers():
    # Workers are forks of the launcher, so they see its registries.
    register_policy("aru-min-registered-by-test", aru_min)
    result = run_experiment(ExperimentSpec(
        config="config2", policy="aru-min-registered-by-test", horizon=1.0,
        backend="proc",
    ))
    assert [w.returncode for w in result.runtime.workers] == [0] * 5


@pytest.mark.slow
@pytest.mark.skipif(not os.path.exists(_CHILDREN),
                    reason="needs /proc/<pid>/task/<tid>/children")
def test_failed_run_leaves_no_worker_behind():
    before = _children()
    with pytest.raises(DistError, match="unknown policy"):
        run_experiment(ExperimentSpec(
            config="config2", policy="no-such-policy", horizon=30.0,
            backend="proc",
        ))
    assert _children() - before == set()


@pytest.mark.slow
def test_worker_death_fails_the_run_when_it_happens():
    graph = TaskGraph("dies")
    graph.add_thread("ticker", _ticker, node="n0")
    graph.add_thread("sink", _exits_on_first_tick, node="n1", sink=True)
    graph.add_channel("ticks")
    graph.connect("ticker", "ticks").connect("ticks", "sink")
    spec = ExperimentSpec(
        app=graph, backend="proc", horizon=30.0,
        config=ClusterSpec(nodes=(NodeSpec(name="n0"), NodeSpec(name="n1"))),
    )
    started = time.monotonic()
    with pytest.raises(DistError,
                       match=r"worker 1 \(n1\) died mid-run \(exit 3\)"):
        run_experiment(spec)
    assert time.monotonic() - started < 10.0


class TestProcValidation:
    def test_scripted_faults_rejected(self):
        spec = ExperimentSpec(
            backend="proc", horizon=1.0,
            faults=(FaultSpec(kind="thread_crash", at=0.5,
                              target="tracker"),),
        )
        with pytest.raises(ConfigError, match="does not script faults"):
            run_experiment(spec)

    def test_active_scale_policy_rejected(self):
        spec = ExperimentSpec(backend="proc", horizon=1.0,
                              scale_policy="erlang")
        with pytest.raises(ConfigError, match="elastic scaling"):
            run_experiment(spec)

    @pytest.mark.slow
    def test_scaling_off_runs(self):
        """``no-scale`` is scaling off (``None``), which proc runs."""
        result = run_experiment(ExperimentSpec(
            config="config2", horizon=1.0, backend="proc",
            scale_policy="no-scale"))
        assert [w.returncode for w in result.runtime.workers] == [0] * 5

    def test_transparent_gc_rejected_before_any_worker_starts(self):
        spec = ExperimentSpec(backend="proc", horizon=1.0, gc="tgc")
        with pytest.raises(ConfigError, match="tgc.*backend='sim'"):
            run_experiment(spec)

    def test_unknown_backend_option_rejected(self):
        spec = ExperimentSpec(backend="proc", horizon=1.0,
                              backend_options={"compte_mode": "noop"})
        with pytest.raises(ConfigError):
            run_experiment(spec)

    def test_unpicklable_graph_fails_fast(self):
        g = TaskGraph("closure")
        captured = []

        def body(ctx):  # closes over `captured` -> not picklable by ref
            captured.append(1)
            yield None

        g.add_thread("src", body, sink=True)
        spec = ExperimentSpec(app=g, backend="proc", horizon=1.0)
        with pytest.raises(ConfigError, match="pickl"):
            run_experiment(spec)
