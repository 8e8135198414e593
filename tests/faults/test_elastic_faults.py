"""Faults x elastic scaling: crashes and partitions around a worker pool.

The elastic machinery must compose with the fault model:

* a replica crashed while the controller is scaling out is reaped (its
  partition slot reassigned, its merge timestamps abandoned) and the
  pool re-converges to the Erlang-C target — no ghost consumers, no
  wedged merge frontier;
* a crash that drops the pool to its ``min_replicas`` floor triggers a
  restart instead of a retirement, so the stage never loses its
  guaranteed capacity;
* partitioning the link under the merge->sink edge stalls delivery but
  not ordering: after the link restores, the sink drains the backlog
  still in timestamp order;
* all of it is deterministic — same schedule, same seed, same trace.
"""

import pytest

from repro.apps import ElasticConfig, elastic_pipeline
from repro.cluster import ClusterSpec, LinkSpec, NodeSpec
from repro.control.scale import ScaleConfig
from repro.faults import FaultInjector, FaultSchedule, FaultSpec
from repro.metrics import trace_to_dict
from repro.runtime import Runtime, RuntimeConfig

HORIZON = 10.0


def quiet_cluster(n_nodes=1, ncpus=8):
    return ClusterSpec(
        nodes=tuple(
            NodeSpec(name=f"n{i}", sched_noise_cv=0.0, ncpus=ncpus)
            for i in range(n_nodes)
        ),
        link=LinkSpec(latency_s=1e-3, bandwidth_bps=10**8),
    )


def fast_scaler(**overrides):
    base = dict(interval=0.25, cooldown=0.5, name="erlang-test")
    base.update(overrides)
    return ScaleConfig(**base)


def elastic_runtime(scale=None, placement=None, n_nodes=1, seed=0, **graph_kw):
    kw = dict(
        replicas=2, min_replicas=1, max_replicas=4,
        worker_cost=0.03, steady_period=0.1,
        swing=(1.0, HORIZON, 8.0), item_size=10_000,
    )
    kw.update(graph_kw)
    graph = elastic_pipeline(ElasticConfig(**kw))
    return Runtime(graph, RuntimeConfig(
        cluster=quiet_cluster(n_nodes=n_nodes),
        placement=placement or {},
        seed=seed,
        scale=scale,
    ))


def install(runtime, *faults, **kwargs):
    return FaultInjector(runtime, FaultSchedule(faults), **kwargs).install()


def assert_no_ghost_consumers(rt):
    """Every partition slot and in-flight item belongs to a live conn."""
    part = rt.buffers["part"]
    live = {c.conn_id for c in part.in_conns}
    assert set(part._pending) == live
    assert set(part.inflight.values()) <= live


def sink_ts_sequence(rt):
    touches = []
    for trace in rt.recorder.items.values():
        for get in trace.gets:
            if get.consumer == "sink":
                touches.append((get.t, trace.ts))
    touches.sort()
    return [ts for (_, ts) in touches]


class TestReplicaCrash:
    def test_crash_mid_scale_out_reconverges(self):
        """Kill a replica while the controller is ramping 2 -> 4."""
        rt = elastic_runtime(scale=fast_scaler())
        inj = install(
            rt,
            FaultSpec(kind="thread_crash", at=2.0, target="workers[1]"),
            detect_interval=0.1)
        rt.run(until=HORIZON)
        # The dead replica was reaped, not left as a ghost slot.
        assert "workers[1]" not in rt.drivers
        assert_no_ghost_consumers(rt)
        # Erlang-C sizing re-filled the pool: ~2.4 erlangs at 0.7 target
        # utilisation wants 4 workers despite losing one mid-ramp.
        assert rt.replica_count("workers") >= 3
        assert rt.graph.stage_spec("workers")["next_index"] >= 4
        # The detector saw the crash...
        assert any(s.symptom == "thread_dead" and s.target == "workers[1]"
                   for s in inj.log.symptoms)
        # ...and the pipeline kept delivering well past it, in order.
        seq = sink_ts_sequence(rt)
        assert seq == sorted(seq)
        late = [it for it in rt.recorder.iterations_of("sink")
                if it.t_end > 4.0]
        assert late

    def test_crash_at_floor_restarts_the_replica(self):
        """At min_replicas the reaper restarts instead of retiring."""
        rt = elastic_runtime(
            scale=fast_scaler(),
            min_replicas=2, swing=None)
        inj = install(
            rt,
            FaultSpec(kind="thread_crash", at=2.0, target="workers[0]"),
            detect_interval=0.1)
        rt.run(until=6.0)
        # Same name, fresh incarnation: the floor is defended.
        assert rt.thread_alive("workers[0]")
        assert rt.replica_count("workers") == 2
        assert rt.graph.replicas_of("workers") == ["workers[0]", "workers[1]"]
        assert_no_ghost_consumers(rt)
        symptoms = [s.symptom for s in inj.log.symptoms
                    if s.target == "workers[0]"]
        assert "thread_dead" in symptoms
        assert "thread_back" in symptoms

    def test_crash_without_controller_wedges_until_reaped(self):
        """No controller: the dead slot pins the merge frontier.

        This is the failure mode the reaper exists for — the crashed
        worker's slot keeps absorbing round-robin items and its
        in-flight timestamp stays outstanding, so the sink wedges. One
        ``reap_dead_replicas`` call (what the controller runs every
        poll) recovers the stage."""
        rt = elastic_runtime(scale=None, swing=None)
        install(rt, FaultSpec(kind="thread_crash", at=2.0,
                              target="workers[1]"))
        rt.advance(6.0)
        assert not rt.thread_alive("workers[1]")
        wedge_t = max((it.t_end for it in rt.recorder.iterations_of("sink")),
                      default=0.0)
        assert wedge_t < 4.0
        assert rt.buffers["merge"].outstanding > 0
        assert rt.reap_dead_replicas("workers") == 1
        assert_no_ghost_consumers(rt)
        rt.advance(4.0)
        rt.finalize()
        seq = sink_ts_sequence(rt)
        assert seq == sorted(seq)
        late = [it for it in rt.recorder.iterations_of("sink")
                if it.t_end > 6.0]
        assert late


class TestLinkPartitionUnderMerge:
    def run_partitioned(self, mode_kwargs):
        rt = elastic_runtime(
            scale=None, swing=None, n_nodes=2,
            placement={"sink": "n1"},
            item_size=100_000, steady_period=0.05, worker_cost=0.02,
        )
        inj = install(
            rt,
            FaultSpec(kind="link_partition", at=2.0, target="n0->n1",
                      duration=1.5, **mode_kwargs),
            detect_interval=0.1)
        rt.run(until=8.0)
        return rt, inj

    def test_fail_mode_partition_is_survived_in_order(self):
        rt, inj = self.run_partitioned({})
        record = inj.log.records[0]
        assert record.detected and record.detected_by == "link_down"
        assert record.recovered
        assert rt.thread_alive("sink")
        # Delivery resumed after restore and stayed ts-ordered through
        # the retry storm.
        seq = sink_ts_sequence(rt)
        assert seq == sorted(seq)
        late = [it for it in rt.recorder.iterations_of("sink")
                if it.t_end > 4.0]
        assert late

    def test_block_mode_partition_parks_then_drains(self):
        rt, inj = self.run_partitioned({"mode": "block"})
        record = inj.log.records[0]
        assert record.detected and record.detected_by == "link_blocked"
        assert rt.network.link("n0", "n1").transfers_blocked > 0
        assert rt.drivers["sink"].transport_errors == 0
        seq = sink_ts_sequence(rt)
        assert seq == sorted(seq)
        # The pool kept producing during the stall (results buffer in
        # the merge channel), so the post-restore drain has a backlog.
        late = [it for it in rt.recorder.iterations_of("sink")
                if it.t_end > 4.0]
        assert late


def test_faulted_elastic_run_is_deterministic():
    """Crash + controller + scaling, replayed: bit-identical traces."""
    from repro.runtime.connection import reset_conn_ids
    from repro.runtime.item import reset_item_ids

    def run_once():
        reset_item_ids(), reset_conn_ids()
        rt = elastic_runtime(scale=fast_scaler())
        install(rt, FaultSpec(kind="thread_crash", at=2.0,
                              target="workers[1]"))
        trace = rt.run(until=HORIZON)
        decisions = tuple(rt.scalers["workers"].decisions)
        return trace_to_dict(trace), decisions, sorted(rt.drivers)

    first = run_once()
    second = run_once()
    assert first[1] == second[1]
    assert first[2] == second[2]
    assert first[0] == second[0]
