"""Tests for replicated stages: partition/merge buffers, graph API, scaling.

Covers the elastic-parallelism building blocks bottom-up:

* partitioners — deterministic slot assignment;
* :class:`PartitionQueue` — per-slot FIFOs, inflight tracking, pending
  reassignment and orphan parking on consumer retirement;
* :class:`MergeChannel` — ts-ordered visibility gated on the
  outstanding frontier, abandon unblocking;
* :class:`TaskGraph` replicated-stage declarations and replica
  add/remove bookkeeping;
* :class:`Runtime` scale_out / scale_in / retire / reap, including
  node admission and the min-replica floor.
"""

import pytest

from repro.apps import ElasticConfig, elastic_pipeline
from repro.cluster import ClusterSpec, NodeSpec
from repro.errors import GraphError, SimulationError
from repro.runtime import (
    HashPartitioner,
    Item,
    MergeChannel,
    PartitionQueue,
    RoundRobinPartitioner,
    Runtime,
    RuntimeConfig,
    TaskGraph,
    make_partitioner,
)
from repro.vt import EARLIEST, LATEST


def put(buf, conn, ts, size=50):
    return buf.commit_put(
        conn, Item(ts=ts, size=size, producer=conn.thread), t=buf.engine.now
    )


def make_stage(h, partition="round-robin", capacity=None):
    """A hand-driven partition/merge pair bound together."""
    q = PartitionQueue(
        h.engine, "part", h.node,
        recorder=h.recorder, capacity=capacity, partition=partition,
    )
    m = MergeChannel(
        h.engine, "merge", h.node, recorder=h.recorder, gc=h.gc,
    )
    q.bind_merge(m)
    return q, m


class TestPartitioners:
    def test_round_robin_cycles_regardless_of_ts(self):
        p = RoundRobinPartitioner()
        assert [p.slot(ts, 3) for ts in (7, 7, 7, 0, 100, 2)] == [0, 1, 2, 0, 1, 2]

    def test_round_robin_advances_per_assignment(self):
        # Reassignments keep rotating: the mapping is a pure function of
        # the assignment history, not of the timestamps involved.
        p = RoundRobinPartitioner()
        assert p.slot(5, 2) == 0
        assert p.slot(5, 2) == 1

    def test_hash_is_sticky_and_in_range(self):
        p = HashPartitioner()
        for n in (1, 2, 3, 5):
            for ts in range(50):
                s = p.slot(ts, n)
                assert 0 <= s < n
                assert p.slot(ts, n) == s  # same key, same slot

    def test_unknown_kind_rejected(self):
        with pytest.raises(SimulationError, match="unknown partition kind"):
            make_partitioner("random")


class TestPartitionQueue:
    def test_round_robin_routes_alternating_slots(self, harness):
        q, _ = make_stage(harness)
        prod = q.register_producer("p")
        c1 = q.register_consumer("w1")
        c2 = q.register_consumer("w2")
        for ts in range(4):
            put(q, prod, ts=ts)
        assert q.pending_of(c1) == 2
        assert q.pending_of(c2) == 2
        assert q.commit_get(c1, None, t=0.0).ts == 0
        assert q.commit_get(c2, None, t=0.0).ts == 1
        assert len(q) == 2

    def test_slots_are_private(self, harness):
        # Items assigned before a second worker joined belong to the
        # first slot; the newcomer cannot steal them.
        q, _ = make_stage(harness)
        prod = q.register_producer("p")
        c1 = q.register_consumer("w1")
        put(q, prod, ts=0)
        c2 = q.register_consumer("w2")
        assert q.try_match(c1) is True
        assert q.try_match(c2) is False
        with pytest.raises(SimulationError, match="empty slot"):
            q.commit_get(c2, None, t=0.0)

    def test_admission_registers_outstanding_on_merge(self, harness):
        q, m = make_stage(harness)
        prod = q.register_producer("p")
        q.register_consumer("w1")
        for ts in (3, 5):
            put(q, prod, ts=ts)
        assert m.outstanding == 2
        assert m.frontier == 3

    def test_inflight_cleared_when_result_merges(self, harness):
        q, m = make_stage(harness)
        prod = q.register_producer("p")
        c1 = q.register_consumer("w1")
        put(q, prod, ts=0)
        q.commit_get(c1, None, t=0.0)
        assert q.inflight == {0: c1.conn_id}
        out = m.register_producer("w1")
        put(m, out, ts=0)
        assert q.inflight == {}
        assert m.outstanding == 0

    def test_retiring_slot_reassigns_pending_and_abandons_inflight(self, harness):
        q, m = make_stage(harness)
        prod = q.register_producer("p")
        c1 = q.register_consumer("w1")
        c2 = q.register_consumer("w2")
        for ts in range(4):
            put(q, prod, ts=ts)
        q.commit_get(c1, None, t=0.0)  # ts 0 in flight on w1
        q.unregister_consumer(c1)
        # ts 0 abandoned on the merge; queued ts 2 reassigned to w2.
        assert q.inflight == {}
        assert m.outstanding == 3
        assert m.frontier == 1
        assert len(q) == 3
        assert q.pending_of(c2) == 3
        # Ghost-consumer guard: every pending slot belongs to a live conn.
        assert set(q._pending) == {c.conn_id for c in q.in_conns}

    def test_last_slot_retirement_parks_orphans(self, harness):
        q, _ = make_stage(harness)
        prod = q.register_producer("p")
        c1 = q.register_consumer("w1")
        for ts in range(2):
            put(q, prod, ts=ts)
        q.unregister_consumer(c1)
        assert len(q) == 2  # parked, not dropped
        c2 = q.register_consumer("w2")
        assert q.pending_of(c2) == 2
        assert [q.commit_get(c2, None, t=0.0).ts for _ in range(2)] == [0, 1]

    def test_puts_with_no_consumer_park_until_one_joins(self, harness):
        q, _ = make_stage(harness)
        prod = q.register_producer("p")
        put(q, prod, ts=7)
        assert len(q) == 1
        c = q.register_consumer("w1")
        assert q.commit_get(c, None, t=0.0).ts == 7

    def test_capacity_counts_all_slots(self, harness):
        q, _ = make_stage(harness, capacity=2)
        prod = q.register_producer("p")
        q.register_consumer("w1")
        q.register_consumer("w2")
        put(q, prod, ts=0)
        put(q, prod, ts=1)
        assert q.has_room() is False
        with pytest.raises(SimulationError, match="full"):
            put(q, prod, ts=2)

    def test_bytes_held_sums_slots_and_orphans(self, harness):
        q, _ = make_stage(harness)
        prod = q.register_producer("p")
        c1 = q.register_consumer("w1")
        put(q, prod, ts=0, size=100)
        put(q, prod, ts=1, size=200)
        assert q.bytes_held == 300
        q.unregister_consumer(c1)
        assert q.bytes_held == 300  # orphaned, still accounted


class TestMergeChannel:
    def test_result_hidden_until_earlier_ts_merges(self, harness):
        q, m = make_stage(harness)
        prod = q.register_producer("p")
        q.register_consumer("w1")
        q.register_consumer("w2")
        put(q, prod, ts=0)
        put(q, prod, ts=1)
        out = m.register_producer("w")
        sink = m.register_consumer("sink")
        put(m, out, ts=1)  # the ts=1 worker finished first
        assert m.try_match(sink, EARLIEST) is False
        put(m, out, ts=0)
        got = [m.commit_get(sink, EARLIEST, t=0.0).ts for _ in range(2)]
        assert got == [0, 1]

    def test_abandon_unblocks_frontier(self, harness):
        q, m = make_stage(harness)
        prod = q.register_producer("p")
        q.register_consumer("w1")
        put(q, prod, ts=0)
        put(q, prod, ts=1)
        out = m.register_producer("w")
        sink = m.register_consumer("sink")
        put(m, out, ts=1)
        assert m.try_match(sink, EARLIEST) is False
        m.abandon(0)  # ts 0's worker died: its result never comes
        assert m.frontier is None
        assert m.commit_get(sink, EARLIEST, t=0.0).ts == 1

    def test_latest_respects_frontier(self, harness):
        q, m = make_stage(harness)
        prod = q.register_producer("p")
        q.register_consumer("w1")
        for ts in range(3):
            put(q, prod, ts=ts)
        out = m.register_producer("w")
        sink = m.register_consumer("sink")
        put(m, out, ts=0)
        put(m, out, ts=2)  # ts 1 still outstanding
        assert m.commit_get(sink, LATEST, t=0.0).ts == 0
        put(m, out, ts=1)
        assert m.commit_get(sink, LATEST, t=0.0).ts == 2

    def test_specific_request_above_frontier_is_invisible(self, harness):
        q, m = make_stage(harness)
        prod = q.register_producer("p")
        q.register_consumer("w1")
        put(q, prod, ts=0)
        put(q, prod, ts=1)
        out = m.register_producer("w")
        sink = m.register_consumer("sink")
        put(m, out, ts=1)
        assert m.try_match(sink, 1) is False
        m.abandon(0)
        assert m.commit_get(sink, 1, t=0.0).ts == 1

    def test_unexpected_ts_passes_straight_through(self, harness):
        # Puts the partition never admitted (e.g. a replayed result)
        # are ordinary channel items: visible below the frontier.
        _, m = make_stage(harness)
        out = m.register_producer("w")
        sink = m.register_consumer("sink")
        m.expect(5)
        put(m, out, ts=2)
        assert m.commit_get(sink, EARLIEST, t=0.0).ts == 2


def worker_body(ctx):  # pragma: no cover - never driven here
    yield


class TestGraphApi:
    def build(self, replicas=2, **kw):
        g = TaskGraph("t")
        g.add_replicated_stage(
            "workers", worker_body, input="part", output="merge",
            replicas=replicas, **kw,
        )
        return g

    def test_declaration_builds_topology(self):
        g = self.build(replicas=2)
        assert g.replicated_stages() == ["workers"]
        assert g.replicas_of("workers") == ["workers[0]", "workers[1]"]
        assert g.attrs("part")["partition_of"] == "workers"
        assert g.attrs("merge")["merge_of"] == "workers"
        spec = g.stage_spec("workers")
        assert spec["input"] == "part"
        assert spec["output"] == "merge"

    def test_duplicate_stage_rejected(self):
        g = self.build()
        with pytest.raises(GraphError, match="duplicate replicated stage"):
            g.add_replicated_stage(
                "workers", worker_body, input="p2", output="m2")

    def test_replica_bounds_validated(self):
        with pytest.raises(GraphError, match="replicas must be >= 1"):
            self.build(replicas=0)
        with pytest.raises(GraphError, match="min_replicas <= replicas"):
            self.build(replicas=1, min_replicas=2)
        with pytest.raises(GraphError, match="min_replicas <= replicas"):
            self.build(replicas=9, max_replicas=4)

    def test_unknown_partition_rejected(self):
        with pytest.raises(GraphError, match="unknown partition"):
            self.build(partition="range")

    def test_add_replica_never_reuses_indices(self):
        g = self.build(replicas=2, max_replicas=8)
        assert g.add_replica("workers") == "workers[2]"
        g.remove_replica("workers", "workers[1]")
        assert g.add_replica("workers") == "workers[3]"
        assert g.replicas_of("workers") == [
            "workers[0]", "workers[2]", "workers[3]"]

    def test_add_replica_puts_a_removed_one_back_under_its_name(self):
        g = self.build(replicas=3, max_replicas=8)
        g.remove_replica("workers", "workers[1]")
        assert g.add_replica("workers", 1) == "workers[1]"
        assert g.replicas_of("workers") == [
            "workers[0]", "workers[1]", "workers[2]"]
        assert g.producers_of("merge")[-1] == "workers[1]"
        assert g.add_replica("workers") == "workers[3]"
        for index in (1, 4, -1):  # live, never added, never valid
            with pytest.raises(GraphError, match="not a removed one"):
                g.add_replica("workers", index)

    def test_remove_replica_guards(self):
        g = self.build(replicas=1)
        g.add_thread("bystander", worker_body, sink=True)
        with pytest.raises(GraphError, match="not a replica"):
            g.remove_replica("workers", "bystander")
        with pytest.raises(GraphError, match="last replica"):
            g.remove_replica("workers", "workers[0]")

    def test_unknown_stage_raises(self):
        g = self.build()
        with pytest.raises(GraphError, match="unknown replicated stage"):
            g.stage_spec("nope")


def elastic_runtime(replicas=2, max_replicas=4, min_replicas=1, ncpus=8):
    graph = elastic_pipeline(ElasticConfig(
        replicas=replicas,
        min_replicas=min_replicas,
        max_replicas=max_replicas,
        worker_cost=0.01,
        steady_period=0.05,
        swing=None,
        item_size=100,
    ))
    cluster = ClusterSpec(
        nodes=(NodeSpec(name="node0", sched_noise_cv=0.0, ncpus=ncpus),),
    )
    return Runtime(graph, RuntimeConfig(cluster=cluster))


class TestRuntimeScaling:
    def test_scale_out_spawns_fresh_replica(self):
        rt = elastic_runtime(replicas=2)
        name = rt.scale_out("workers")
        assert name == "workers[2]"
        assert rt.replica_count("workers") == 3
        assert name in rt.drivers
        assert len(rt.buffers["part"].in_conns) == 3

    def test_scale_out_stops_at_max_replicas(self):
        rt = elastic_runtime(replicas=2, max_replicas=3)
        assert rt.scale_out("workers") == "workers[2]"
        assert rt.scale_out("workers") is None
        assert rt.replica_count("workers") == 3

    def test_scale_out_refused_when_node_is_full(self):
        # source + sink + 2 workers already commit every CPU.
        rt = elastic_runtime(replicas=2, ncpus=4)
        assert rt.scale_out("workers") is None
        assert rt.replica_count("workers") == 2

    def test_scale_in_retires_highest_index_down_to_floor(self):
        rt = elastic_runtime(replicas=2, min_replicas=1)
        assert rt.scale_in("workers") == "workers[1]"
        assert rt.scale_in("workers") is None
        assert rt.replica_count("workers") == 1
        assert "workers[1]" not in rt.drivers
        assert rt.graph.replicas_of("workers") == ["workers[0]"]

    def test_retire_keeps_partition_consumers_consistent(self):
        rt = elastic_runtime(replicas=2)
        rt.advance(0.3)
        rt.retire_replica("workers", "workers[1]")
        buf = rt.buffers["part"]
        assert len(buf.in_conns) == 1
        assert set(buf._pending) == {c.conn_id for c in buf.in_conns}
        assert all(c in {x.conn_id for x in buf.in_conns}
                   for c in buf.inflight.values())

    def test_reap_retires_crashed_replica_above_floor(self):
        rt = elastic_runtime(replicas=3, min_replicas=1)
        rt.advance(0.2)
        rt._processes["workers[2]"].kill("crash")
        rt.advance(0.1)  # deliver the kill
        assert rt.replica_count("workers") == 2
        assert rt.reap_dead_replicas("workers") == 1
        assert "workers[2]" not in rt.drivers
        assert rt.graph.replicas_of("workers") == ["workers[0]", "workers[1]"]

    def test_reap_restarts_crashed_replica_at_floor(self):
        rt = elastic_runtime(replicas=1, min_replicas=1)
        rt.advance(0.2)
        rt._processes["workers[0]"].kill("crash")
        rt.advance(0.1)
        assert rt.replica_count("workers") == 0
        assert rt.reap_dead_replicas("workers") == 1
        assert rt.replica_count("workers") == 1
        assert rt.thread_alive("workers[0]")

    def test_scaled_pipeline_still_delivers_in_order(self):
        rt = elastic_runtime(replicas=1, max_replicas=4)
        rt.advance(1.0)
        rt.scale_out("workers")
        rt.scale_out("workers")
        rt.advance(2.0)
        rt.scale_in("workers")
        rt.advance(1.0)
        rec = rt.finalize()
        sink_gets = [
            e for e in rec.items.values()
            if any(g.consumer == "sink" for g in e.gets)
        ]
        assert sink_gets, "sink consumed nothing"
        merge = rt.buffers["merge"]
        assert merge.outstanding == 0 or merge.frontier is not None
