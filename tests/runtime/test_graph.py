"""Tests for TaskGraph construction and validation."""

import ast

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.runtime import CHANNEL, QUEUE, THREAD, TaskGraph


def dummy(ctx):
    yield


def linear_graph():
    g = TaskGraph("lin")
    g.add_thread("src", dummy)
    g.add_thread("mid", dummy)
    g.add_thread("dst", dummy, sink=True)
    g.add_channel("a")
    g.add_channel("b")
    g.connect("src", "a").connect("a", "mid").connect("mid", "b").connect("b", "dst")
    return g


class TestConstruction:
    def test_kinds(self):
        g = linear_graph()
        assert g.kind("src") == THREAD
        assert g.kind("a") == CHANNEL

    def test_queue_kind(self):
        g = TaskGraph()
        g.add_queue("q")
        assert g.kind("q") == QUEUE
        assert g.queues() == ["q"]

    def test_duplicate_name_rejected(self):
        g = TaskGraph()
        g.add_thread("x", dummy)
        with pytest.raises(GraphError):
            g.add_channel("x")

    def test_bad_name_rejected(self):
        with pytest.raises(GraphError):
            TaskGraph().add_thread("", dummy)

    def test_unknown_endpoint_rejected(self):
        g = TaskGraph()
        g.add_thread("t", dummy)
        with pytest.raises(GraphError):
            g.connect("t", "ghost")

    def test_thread_to_thread_rejected(self):
        g = TaskGraph()
        g.add_thread("a", dummy).add_thread("b", dummy)
        with pytest.raises(GraphError):
            g.connect("a", "b")

    def test_buffer_to_buffer_rejected(self):
        g = TaskGraph()
        g.add_channel("a")
        g.add_channel("b")
        # need a producer for validity, but the edge itself must fail first
        with pytest.raises(GraphError):
            g.connect("a", "b")

    def test_duplicate_edge_rejected(self):
        g = TaskGraph()
        g.add_thread("t", dummy).add_channel("c").connect("t", "c")
        with pytest.raises(GraphError):
            g.connect("t", "c")

    def test_capacity_validation(self):
        with pytest.raises(GraphError):
            TaskGraph().add_channel("c", capacity=0)

    def test_params_stored_and_copied(self):
        params = {"period": 0.03}
        g = TaskGraph()
        g.add_thread("t", dummy, params=params)
        params["period"] = 99
        assert g.attrs("t")["params"]["period"] == 0.03


class TestTopologyQueries:
    def test_producers_consumers(self):
        g = linear_graph()
        assert g.producers_of("a") == ["src"]
        assert g.consumers_of("a") == ["mid"]
        assert g.inputs_of("mid") == ["a"]
        assert g.outputs_of("mid") == ["b"]

    def test_sources_and_sinks(self):
        g = linear_graph()
        assert g.sources() == ["src"]
        assert g.sinks() == ["dst"]

    def test_implicit_sink_when_unmarked(self):
        g = TaskGraph()
        g.add_thread("src", dummy).add_thread("end", dummy)
        g.add_channel("c").connect("src", "c").connect("c", "end")
        assert g.sinks() == ["end"]

    def test_is_source_is_sink(self):
        g = linear_graph()
        assert g.is_source("src") and not g.is_source("mid")
        assert g.is_sink("dst") and not g.is_sink("mid")

    def test_multi_consumer_channel(self):
        g = TaskGraph()
        g.add_thread("p", dummy)
        g.add_thread("c1", dummy)
        g.add_thread("c2", dummy)
        g.add_channel("ch")
        g.connect("p", "ch").connect("ch", "c1").connect("ch", "c2")
        assert sorted(g.consumers_of("ch")) == ["c1", "c2"]


class TestValidation:
    def test_valid_graph_passes(self):
        linear_graph().validate()

    def test_no_threads(self):
        g = TaskGraph()
        g.add_channel("c")
        with pytest.raises(GraphError, match="no threads"):
            g.validate()

    def test_producerless_buffer(self):
        g = TaskGraph()
        g.add_thread("t", dummy)
        g.add_channel("c")
        g.connect("c", "t")
        with pytest.raises(GraphError, match="no producer"):
            g.validate()

    def test_thread_without_body(self):
        g = TaskGraph()
        g.add_thread("t", None)
        with pytest.raises(GraphError, match="no body"):
            g.validate()

    def test_cycle_rejected(self):
        g = TaskGraph()
        g.add_thread("a", dummy).add_thread("b", dummy)
        g.add_channel("x").add_channel("y")
        g.connect("a", "x").connect("x", "b").connect("b", "y").connect("y", "a")
        with pytest.raises(GraphError, match="cycle"):
            g.validate()

    def test_no_source_needs_cycle_so_cycle_fires(self):
        # A graph where every thread has inputs necessarily has a cycle,
        # so the cycle check subsumes the no-source check; verify the
        # no-source branch directly on an acyclic-but-sourceless shape is
        # impossible, hence we just verify sources() on valid graphs.
        assert linear_graph().sources() == ["src"]

    def test_consumerless_channel_allowed(self):
        g = TaskGraph()
        g.add_thread("t", dummy)
        g.add_channel("c")
        g.connect("t", "c")
        g.validate()  # legal: pure waste, metrics will expose it

    def test_unknown_node_attrs(self):
        g = TaskGraph()
        with pytest.raises(GraphError):
            g.attrs("nope")
        with pytest.raises(GraphError):
            g.kind("nope")


class TestMergeCopies:
    def test_merge_copies_params_per_node(self):
        """Task bodies keep counters in ``params``; two copies stamped
        from one graph must not share them (nor write into the source)."""
        g = TaskGraph("one")
        g.add_thread("t", dummy, params={"n": 0})
        g.add_channel("c")
        g.connect("t", "c")
        shared = TaskGraph("shared")
        shared.merge(g, prefix="x/")
        shared.merge(g, prefix="y/")
        x, y = shared.attrs("x/t")["params"], shared.attrs("y/t")["params"]
        assert x == y == g.attrs("t")["params"]
        assert x is not y
        assert x is not g.attrs("t")["params"]
        assert y is not g.attrs("t")["params"]


# -- the two replaced algorithms, with the old ones as oracles ----------------
# Cycle detection used to be networkx's ``find_cycle`` and iteration order
# networkx's; the oracles below are Kahn's elimination and the ordering
# contract spelled with lists.


@st.composite
def bipartite_digraphs(draw):
    """``(threads, buffers, edges)``: every buffer has a producer and
    every thread a body, so the only thing ``validate`` can object to
    is a cycle."""
    threads = [f"t{i}" for i in range(draw(st.integers(1, 5)))]
    buffers = [f"b{i}" for i in range(draw(st.integers(0, 5)))]
    edges = []
    for buffer in buffers:
        producers = draw(st.lists(st.sampled_from(threads), min_size=1,
                                  max_size=3, unique=True))
        consumers = draw(st.lists(st.sampled_from(threads), max_size=3,
                                  unique=True))
        edges += [(p, buffer) for p in producers]
        edges += [(buffer, c) for c in consumers]
    return threads, buffers, draw(st.permutations(edges))


def kahn_leftover(nodes, edges):
    """Nodes Kahn's elimination cannot remove: empty iff acyclic."""
    indegree = {n: 0 for n in nodes}
    for _, v in edges:
        indegree[v] += 1
    ready = [n for n in nodes if indegree[n] == 0]
    while ready:
        u = ready.pop()
        del indegree[u]
        for a, v in edges:
            if a == u:
                indegree[v] -= 1
                if indegree[v] == 0:
                    ready.append(v)
    return set(indegree)


@settings(max_examples=150, deadline=None)
@given(shape=bipartite_digraphs())
def test_validate_reports_a_cycle_iff_kahn_leaves_nodes(shape):
    threads, buffers, edges = shape
    g = TaskGraph("generated")
    for t in threads:
        g.add_thread(t, dummy)
    for b in buffers:
        g.add_channel(b)
    for u, v in edges:
        g.connect(u, v)
    leftover = kahn_leftover(threads + buffers, edges)
    if not leftover:
        g.validate()
        return
    with pytest.raises(GraphError, match="has a cycle") as caught:
        g.validate()
    reported = ast.literal_eval(str(caught.value).split("has a cycle: ")[1])
    assert reported and set(reported) <= set(edges)  # existing edges
    for (_, v), (u, _) in zip(reported, reported[1:] + reported[:1]):
        assert v == u  # each edge starts where the last ended, and closes
    assert {u for u, _ in reported} <= leftover


class ListModel:
    """The ordering contract, spelled with lists."""

    def __init__(self):
        self.nodes, self.succ, self.pred = [], {}, {}

    def add(self, name):
        self.nodes.append(name)
        self.succ[name], self.pred[name] = [], []

    def connect(self, u, v):
        self.succ[u].append(v)
        self.pred[v].append(u)

    def remove(self, name):
        self.nodes.remove(name)
        for v in self.succ.pop(name):
            self.pred[v].remove(name)
        for u in self.pred.pop(name):
            self.succ[u].remove(name)

    def edges(self):
        return [(u, v) for u in self.nodes for v in self.succ[u]]

    def merge(self, other, prefix):
        for name in other.nodes:
            self.add(prefix + name)
        for u, v in other.edges():
            self.connect(prefix + u, prefix + v)


#: Weighted towards what moves things: edges, replica churn, merges.
OPS = (("thread", "channel", "queue") + ("connect", "stage") * 2
       + ("add_replica", "remove_replica", "merge") * 3)
op_lists = st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(0, 30), st.integers(0, 30)),
    min_size=4, max_size=30)


def scan_replicas(g, stage):
    """``replicas_of`` as it was: a scan of every node of the graph."""
    members = [(g.attrs(n)["replica_index"], n) for n in g.threads()
               if g.attrs(n).get("replica_of") == stage]
    return [n for _, n in sorted(members)]


def apply_ops(ops, other_ops=(), check=lambda g, model: None):
    """Run ``ops`` on a TaskGraph and on the list model, calling
    ``check`` after each; ``merge`` stamps in the graph of ``other_ops``."""
    g, model = TaskGraph("generated"), ListModel()
    for count, (op, a, b) in enumerate(ops):
        threads, buffers = g.threads(), g.buffers()
        stages = g.replicated_stages()
        if op == "thread":
            g.add_thread(f"t{count}", dummy, params={"made": count})
            model.add(f"t{count}")
        elif op in ("channel", "queue"):
            getattr(g, f"add_{op}")(f"b{count}")
            model.add(f"b{count}")
        elif op == "connect" and threads and buffers:
            edge = (threads[a % len(threads)], buffers[b % len(buffers)])
            if (a + b) % 2:
                edge = edge[::-1]
            if edge not in g.edges():
                g.connect(*edge)
                model.connect(*edge)
        elif op == "stage":
            stage, replicas = f"s{count}", 1 + a % 3
            g.add_replicated_stage(stage, dummy, input=f"{stage}.in",
                                   output=f"{stage}.out", replicas=replicas)
            model.add(f"{stage}.in")
            model.add(f"{stage}.out")
            for name in g.replicas_of(stage):
                model.add(name)
                model.connect(f"{stage}.in", name)
                model.connect(name, f"{stage}.out")
        elif op == "add_replica" and stages:
            stage = stages[a % len(stages)]
            spec = g.stage_spec(stage)
            name = g.add_replica(stage)
            model.add(name)
            model.connect(spec["input"], name)
            model.connect(name, spec["output"])
        elif op == "remove_replica" and stages:
            stage = stages[a % len(stages)]
            members = g.replicas_of(stage)
            if len(members) > 1:
                victim = members[b % len(members)]
                g.remove_replica(stage, victim)
                model.remove(victim)
        elif op == "merge":
            other, other_model = apply_ops(
                [o for o in other_ops if o[0] != "merge"])
            g.merge(other, prefix=f"m{count}/")
            model.merge(other_model, f"m{count}/")
        check(g, model)
    return g, model


@settings(max_examples=100, deadline=None)
@given(ops=op_lists, other_ops=op_lists)
def test_iteration_orders_are_insertion_orders(ops, other_ops):
    def check(g, model):
        assert g.threads() == [n for n in model.nodes
                               if g.kind(n) == THREAD]
        assert g.buffers() == [n for n in model.nodes
                               if g.kind(n) != THREAD]
        assert g.edges() == model.edges()
        for buffer in g.buffers():
            assert g.producers_of(buffer) == model.pred[buffer]
            assert g.consumers_of(buffer) == model.succ[buffer]
        for thread in g.threads():
            assert g.inputs_of(thread) == model.pred[thread]
            assert g.outputs_of(thread) == model.succ[thread]

    apply_ops(ops, other_ops, check)


@settings(max_examples=100, deadline=None)
@given(ops=op_lists, other_ops=op_lists)
def test_replicas_of_equals_the_whole_graph_scan(ops, other_ops):
    """Under merge (several prefixes), add_replica and remove_replica."""
    def check(g, model):
        for stage in g.replicated_stages():
            assert g.replicas_of(stage) == scan_replicas(g, stage)

    apply_ops(ops, other_ops, check)
