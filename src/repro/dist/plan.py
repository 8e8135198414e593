"""Deterministic graph partition: which worker hosts which thread/buffer.

Launcher and workers each compute the plan independently from the same
spec, so nothing about the partition needs to travel on the wire beyond
each worker's node name. The rules are exactly the DES runtime's
placement resolution (:meth:`repro.runtime.Runtime._resolve_thread_node`
/ ``_resolve_buffer_node``): a thread goes where the placement map or
its graph attrs say, else to the first cluster node; a buffer goes where
placement/attrs say, else to its producer's node (the Stampede
convention — and the paper's config 2). Nodes that end up hosting
neither a thread nor a buffer get no worker process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Tuple

from repro.errors import ConfigError


@dataclass(frozen=True)
class DistPlan:
    """One immutable partition of a task graph over cluster nodes."""

    #: thread name -> cluster node name
    thread_nodes: Mapping[str, str]
    #: buffer name -> cluster node name
    buffer_nodes: Mapping[str, str]
    #: nodes hosting at least one thread or buffer, in cluster order
    nodes: Tuple[str, ...]

    def threads_on(self, node: str) -> Tuple[str, ...]:
        return tuple(t for t, n in self.thread_nodes.items() if n == node)

    def buffers_on(self, node: str) -> Tuple[str, ...]:
        return tuple(b for b, n in self.buffer_nodes.items() if n == node)

    @property
    def cross_node_buffers(self) -> Tuple[str, ...]:
        """Buffers with at least one producer or consumer off-node."""
        return tuple(sorted(self._cross))

    # populated by build_plan (object.__setattr__ on the frozen instance)
    _cross: frozenset = frozenset()


def build_plan(graph, cluster, placement: Mapping[str, str]) -> DistPlan:
    """Partition ``graph`` over ``cluster`` exactly as the DES would."""
    node_names = [n.name for n in cluster.nodes]
    known = set(node_names)
    if not node_names:
        raise ConfigError("cluster has no nodes")
    placement = dict(placement)

    def resolve(name: str, fallback: str) -> str:
        target = placement.get(name) or graph.attrs(name).get("node") or fallback
        if target not in known:
            raise ConfigError(
                f"{name!r} placed on unknown node {target!r} "
                f"(cluster has {sorted(known)})"
            )
        return target

    thread_nodes = {
        t: resolve(t, node_names[0]) for t in graph.threads()
    }
    buffer_nodes = {}
    cross = set()
    for buf in graph.buffers():
        producers = graph.producers_of(buf)
        fallback = thread_nodes[producers[0]] if producers else node_names[0]
        host = resolve(buf, fallback)
        buffer_nodes[buf] = host
        for t in producers:
            if thread_nodes[t] != host:
                cross.add(buf)
        for t in graph.consumers_of(buf):
            if thread_nodes[t] != host:
                cross.add(buf)

    used = set(thread_nodes.values()) | set(buffer_nodes.values())
    nodes = tuple(n for n in node_names if n in used)
    plan = DistPlan(
        thread_nodes=thread_nodes,
        buffer_nodes=buffer_nodes,
        nodes=nodes,
    )
    object.__setattr__(plan, "_cross", frozenset(cross))
    return plan
