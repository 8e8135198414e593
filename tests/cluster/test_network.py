"""Tests for the simulated interconnect."""

import pytest

from repro.cluster import LinkSpec, Network, config2_spec
from repro.errors import ConfigError
from repro.sim import Engine


def make_net(latency=0.001, bw=1_000_000):
    eng = Engine()
    spec = config2_spec(link=LinkSpec(latency_s=latency, bandwidth_bps=bw))
    return eng, Network(eng, spec)


def test_transfer_time_matches_linkspec():
    eng, net = make_net(latency=0.001, bw=1_000_000)

    def proc(eng):
        t = yield eng.process(net.transfer("node0", "node1", 500_000))
        return t

    p = eng.process(proc(eng))
    assert eng.run_until_event(p) == pytest.approx(0.501)
    assert eng.now == pytest.approx(0.501)


def test_local_transfer_is_free():
    eng, net = make_net()

    def proc(eng):
        t = yield from net.transfer("node0", "node0", 10**9)
        return t

    p = eng.process(proc(eng))
    assert eng.run_until_event(p) == 0.0
    assert eng.now == 0.0


def test_link_serializes_transfers():
    eng, net = make_net(latency=0.0, bw=1_000_000)
    done = []

    def proc(eng, label):
        yield eng.process(net.transfer("node0", "node1", 1_000_000))
        done.append((label, eng.now))

    eng.process(proc(eng, "a"))
    eng.process(proc(eng, "b"))
    eng.run()
    assert done == [("a", pytest.approx(1.0)), ("b", pytest.approx(2.0))]


def test_distinct_pairs_do_not_serialize():
    eng, net = make_net(latency=0.0, bw=1_000_000)
    done = []

    def proc(eng, dst):
        yield eng.process(net.transfer("node0", dst, 1_000_000))
        done.append(eng.now)

    eng.process(proc(eng, "node1"))
    eng.process(proc(eng, "node2"))
    eng.run()
    assert done == [pytest.approx(1.0), pytest.approx(1.0)]


def test_direction_matters():
    eng, net = make_net()
    assert net.link("node0", "node1") is not net.link("node1", "node0")
    assert net.link("node0", "node1") is net.link("node0", "node1")


def test_self_link_rejected():
    _, net = make_net()
    with pytest.raises(ConfigError):
        net.link("node0", "node0")


def test_unknown_node_rejected():
    _, net = make_net()
    with pytest.raises(ConfigError):
        net.link("node0", "ghost")


@pytest.mark.parametrize("src, dst", [("ghost", "node0"), ("node0", "ghost"),
                                      ("ghost", "phantom")])
def test_unknown_node_rejected_with_links_built(src, dst):
    _, net = make_net()
    net.link("node0", "node1")
    with pytest.raises(ConfigError, match="unknown node"):
        net.link(src, dst)
    with pytest.raises(ConfigError, match="unknown node"):
        net.link(src, dst)  # a refused pair is not cached


def test_a_built_link_is_looked_up_without_validation(monkeypatch):
    from repro.cluster.spec import ClusterSpec

    _, net = make_net()
    reads = []
    names = ClusterSpec.node_names
    monkeypatch.setattr(ClusterSpec, "node_names", property(
        lambda spec: reads.append(1) or names.fget(spec)))
    link = net.link("node0", "node1")
    assert [net.link("node0", "node1") for _ in range(3)] == [link] * 3
    assert len(reads) == 1


def test_byte_accounting():
    eng, net = make_net()

    def proc(eng):
        yield eng.process(net.transfer("node0", "node1", 1000))
        yield eng.process(net.transfer("node2", "node3", 500))

    eng.process(proc(eng))
    eng.run()
    assert net.total_bytes == 1500
    assert net.link("node0", "node1").bytes_transferred == 1000
