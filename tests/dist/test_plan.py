"""DistPlan: the partition both sides compute independently.

Launcher and workers never exchange the plan — each derives it from the
same spec — so these tests pin the resolution rules to the DES runtime's
placement conventions.
"""

import pytest

from repro.apps.tracker import build_tracker, tracker_placement
from repro.cluster.spec import ClusterSpec, NodeSpec, config2_spec
from repro.dist.plan import build_plan
from repro.errors import ConfigError
from repro.runtime import TaskGraph


def _two_node_cluster():
    return ClusterSpec(nodes=(NodeSpec(name="n0"), NodeSpec(name="n1")))


def _pipeline(chan_node=None):
    g = TaskGraph("p")

    def body(ctx):
        yield None

    g.add_thread("src", body, node="n0")
    g.add_thread("dst", body, node="n1", sink=True)
    g.add_channel("c", node=chan_node)
    g.connect("src", "c").connect("c", "dst")
    return g


def _crossing(plan, graph):
    """Buffers with a producer or consumer on another node than theirs."""
    return sorted(
        buf for buf, host in plan.buffer_nodes.items()
        if any(plan.thread_nodes[t] != host
               for t in (*graph.producers_of(buf), *graph.consumers_of(buf))))


def test_explicit_placement_wins():
    plan = build_plan(_pipeline(), _two_node_cluster(), {"src": "n1"})
    assert plan.thread_nodes["src"] == "n1"


def test_graph_attrs_place_threads():
    plan = build_plan(_pipeline(), _two_node_cluster(), {})
    assert plan.thread_nodes == {"src": "n0", "dst": "n1"}


def test_buffer_defaults_to_producer_node():
    # The Stampede convention: an unplaced buffer lives with its producer.
    plan = build_plan(_pipeline(), _two_node_cluster(), {})
    assert plan.buffer_nodes["c"] == "n0"


def test_buffer_explicit_node_wins():
    plan = build_plan(_pipeline(chan_node="n1"), _two_node_cluster(), {})
    assert plan.buffer_nodes["c"] == "n1"


def test_cross_node_buffers_detected():
    graph = _pipeline()
    plan = build_plan(graph, _two_node_cluster(), {})
    # consumer dst is on n1, buffer on n0 -> crossing
    assert _crossing(plan, graph) == ["c"]
    # co-locate everything -> no crossing
    plan2 = build_plan(graph, _two_node_cluster(),
                       {"src": "n0", "dst": "n0", "c": "n0"})
    assert _crossing(plan2, graph) == []


def test_threads_on_and_buffers_on():
    plan = build_plan(_pipeline(), _two_node_cluster(), {})
    assert plan.threads_on("n0") == ("src",)
    assert plan.threads_on("n1") == ("dst",)
    assert plan.buffers_on("n0") == ("c",)
    assert plan.buffers_on("n1") == ()


def test_unused_nodes_get_no_worker():
    cluster = ClusterSpec(nodes=(NodeSpec(name="n0"), NodeSpec(name="n1"),
                                 NodeSpec(name="spare")))
    plan = build_plan(_pipeline(), cluster, {})
    assert "spare" not in plan.nodes
    assert plan.nodes == ("n0", "n1")


def test_unknown_node_raises():
    with pytest.raises(ConfigError, match="unknown node"):
        build_plan(_pipeline(), _two_node_cluster(), {"src": "nope"})


def test_empty_cluster_raises():
    from types import SimpleNamespace

    # ClusterSpec refuses to construct empty, so build_plan's own guard
    # needs a bare stand-in to be reachable.
    with pytest.raises(ConfigError, match="no nodes"):
        build_plan(_pipeline(), SimpleNamespace(nodes=()), {})


def test_tracker_plan_matches_des_placement():
    """The bundled tracker on config 2 partitions exactly as the paper
    (and the DES) places it."""
    graph = build_tracker()
    placement = tracker_placement()
    plan = build_plan(graph, config2_spec(), placement)
    for thread, node in placement.items():
        if thread in plan.thread_nodes:
            assert plan.thread_nodes[thread] == node
    # every thread and buffer landed on a real node
    names = {n.name for n in config2_spec().nodes}
    assert set(plan.thread_nodes.values()) <= names
    assert set(plan.buffer_nodes.values()) <= names
    # the tracker spans multiple nodes => it has cross-node traffic
    assert len(plan.nodes) >= 2
    assert _crossing(plan, graph)
