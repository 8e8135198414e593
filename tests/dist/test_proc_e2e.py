"""End-to-end: the bundled tracker across real worker processes.

These spawn actual subprocesses and move real bytes over loopback TCP,
so they are slower than the rest of the suite; horizons are kept short.
"""

import pytest

from repro.errors import ConfigError
from repro.experiment import ExperimentSpec, run_experiment
from repro.faults.spec import FaultSpec


@pytest.mark.slow
def test_tracker_runs_across_worker_processes():
    result = run_experiment(ExperimentSpec(
        config="config2", policy="aru-min", seed=0, horizon=3.0,
        backend="proc",
    ))
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
        from repro.runtime import TaskGraph

        g = TaskGraph("closure")
        captured = []

        def body(ctx):  # closes over `captured` -> not picklable by ref
            captured.append(1)
            yield None

        g.add_thread("src", body, sink=True)
        spec = ExperimentSpec(app=g, backend="proc", horizon=1.0)
        with pytest.raises(ConfigError, match="pickl"):
            run_experiment(spec)
