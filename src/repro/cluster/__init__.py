"""Simulated cluster hardware: nodes, CPU pools, interconnect."""

from repro.cluster.contention import contention_factor, memory_pressure_factor
from repro.cluster.load import LoadSpec, load_process, spawn_load
from repro.cluster.network import Link, Network
from repro.cluster.node import Node
from repro.cluster.spec import (
    CLUSTERS,
    DEFAULT_LATENCY_S,
    GIGABIT_BPS,
    ClusterSpec,
    LinkSpec,
    NodeSpec,
    config1_spec,
    cluster_spec,
    config2_spec,
)

__all__ = [
    "NodeSpec",
    "LinkSpec",
    "ClusterSpec",
    "Node",
    "Link",
    "Network",
    "contention_factor",
    "memory_pressure_factor",
    "LoadSpec",
    "load_process",
    "spawn_load",
    "config1_spec",
    "config2_spec",
    "CLUSTERS",
    "cluster_spec",
    "GIGABIT_BPS",
    "DEFAULT_LATENCY_S",
]
