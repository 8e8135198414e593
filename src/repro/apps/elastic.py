"""Elastic streaming workloads: replicated stages under load swings.

The ablation bench for ISSUE 6 needs a workload where the *offered*
load changes faster than a fixed worker pool can absorb: a source whose
period represents external arrivals (a camera switching to burst mode,
a sensor fan-in spike) drops by ``factor`` during a swing window, and a
replicated worker stage behind a partition/merge pair either keeps up
(elastic scaling spawns replicas) or falls behind (fixed N — the
backlog, and with it end-to-end latency, grows for the whole window).

Determinism contract: every task body here is **RNG-free** (fixed
compute costs, fixed periods). RNG streams are keyed by thread name, so
replica names entering/leaving the registry would otherwise perturb
run-to-run comparisons between differently-sized pools; with no RNG
draws at all, a fixed-N elastic run is bit-identical across serial and
parallel sweep execution and `no-scale` equals no-replication.

Builders are registered by name (:data:`WORKLOADS`) so sweep cells can
carry ``workload="elastic"`` as a picklable string, mirroring how
policies resolve through the registry.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.errors import ConfigError
from repro.registry import Registry
from repro.runtime.graph import TaskGraph
from repro.runtime.syscalls import (
    Compute,
    Get,
    Now,
    PeriodicitySync,
    Put,
    Sleep,
)
from repro.vt import EARLIEST


def make_swing_source(channel: str, period: float,
                      swing: Optional[Tuple[float, float, float]],
                      size: int, cost: float = 0.002):
    """A paced source whose rate multiplies by ``factor`` in a window.

    ``swing`` is ``(t_on, t_off, factor)``: during ``[t_on, t_off)`` the
    inter-arrival period becomes ``period / factor``. The source reads
    the clock each iteration (:class:`Now`), so the swing needs no
    external scheduling — and the body stays RNG-free.
    """
    if swing is not None:
        t_on, t_off, factor = swing
        if t_off <= t_on:
            raise ConfigError(f"swing window is empty: {swing}")
        if factor <= 0:
            raise ConfigError(f"swing factor must be positive, got {factor}")

    def source(ctx):
        ts = 0
        while True:
            now = yield Now()
            p = period
            if swing is not None and t_on <= now < t_off:
                p = period / factor
            if cost > 0:
                yield Compute(cost)
            yield Put(channel, ts=ts, size=size)
            ts += 1
            yield Sleep(max(0.0, p - cost))
            yield PeriodicitySync()

    return source


def make_pool_worker(in_queue: str, out_channel: str, cost: float,
                     out_size: int):
    """A work-pool worker with a *fixed* per-item cost (RNG-free)."""

    def worker(ctx):
        while True:
            job = yield Get(in_queue, EARLIEST)
            yield Compute(cost)
            yield Put(out_channel, ts=job.ts, size=out_size)
            yield PeriodicitySync()

    return worker


def make_draining_sink(channel: str, cost: float = 0.001):
    """An earliest-draining sink: consumes every merged item in order."""

    def sink(ctx):
        while True:
            item = yield Get(channel, EARLIEST)  # noqa: F841 - lineage
            if cost > 0:
                yield Compute(cost)
            yield PeriodicitySync()

    return sink


def elastic_pipeline(
    replicas: int = 1,
    min_replicas: int = 1,
    max_replicas: int = 6,
    partition: str = "round-robin",
    worker_cost: float = 0.03,
    steady_period: float = 0.12,
    swing: Optional[Tuple[float, float, float]] = (40.0, 80.0, 10.0),
    item_size: int = 100_000,
    sink_cost: float = 0.001,
    source_cost: float = 0.002,
    input_capacity: Optional[int] = None,
    name: str = "elastic",
) -> TaskGraph:
    """``source -> partition -> workers[N] -> merge -> sink``.

    The canonical elastic topology: one swing source feeding a
    replicated worker stage (via :meth:`TaskGraph.add_replicated_stage`)
    whose merged output an earliest-draining sink consumes in timestamp
    order. Defaults put the steady state at ~25% utilisation of one
    worker and the swing at ~2.5 erlangs — beyond any fixed single
    worker but comfortably inside an 8-CPU node at N=4.
    """
    if replicas < 1:
        raise ConfigError(f"replicas must be >= 1, got {replicas}")
    if worker_cost <= 0:
        raise ConfigError(f"worker_cost must be positive, got {worker_cost}")
    if steady_period <= 0:
        raise ConfigError(
            f"steady_period must be positive, got {steady_period}"
        )
    g = TaskGraph(name)
    g.add_thread("source", make_swing_source(
        "part", steady_period, swing, item_size, cost=source_cost))
    g.add_replicated_stage(
        "workers",
        make_pool_worker("part", "merge", worker_cost, item_size),
        input="part",
        output="merge",
        replicas=replicas,
        min_replicas=min_replicas,
        max_replicas=max_replicas,
        partition=partition,
        input_capacity=input_capacity,
    )
    g.add_thread("sink", make_draining_sink("merge", cost=sink_cost),
                 sink=True)
    g.connect("source", "part")
    g.connect("merge", "sink")
    g.validate()
    return g


#: Workloads resolvable by name from sweep cells (picklable strings).
WORKLOADS: Registry[Callable[..., TaskGraph]] = Registry("workload")
WORKLOADS.register(
    "elastic", elastic_pipeline,
    help="source -> replicated worker stage -> sink, with a rate swing")


def build_workload(name: str, **args) -> TaskGraph:
    """Resolve a registered workload builder by name and build it."""
    return WORKLOADS.get(name)(**args)
