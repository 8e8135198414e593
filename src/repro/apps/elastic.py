"""Elastic streaming workloads: replicated stages under load swings.

The elastic-scaling ablation bench needs a workload where the *offered*
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

The pipeline is the builtin app ``"elastic"`` (:data:`repro.apps.APPS`),
so a spec names it and its :class:`ElasticConfig` like any other app.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ConfigError
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


@dataclass(frozen=True)
class ElasticConfig:
    """Knobs of :func:`elastic_pipeline`.

    ``swing`` is ``(t_on, t_off, factor)``: the source's period divides
    by ``factor`` during ``[t_on, t_off)``; ``None`` keeps it steady.
    Defaults put the steady state at ~25% utilisation of one worker and
    the swing at ~2.5 erlangs — beyond any fixed single worker but
    comfortably inside an 8-CPU node at N=4.
    """

    replicas: int = 1
    min_replicas: int = 1
    max_replicas: int = 6
    partition: str = "round-robin"
    worker_cost: float = 0.03
    steady_period: float = 0.12
    swing: Optional[Tuple[float, float, float]] = (40.0, 80.0, 10.0)
    item_size: int = 100_000
    sink_cost: float = 0.001
    source_cost: float = 0.002
    input_capacity: Optional[int] = None
    name: str = "elastic"

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ConfigError(f"replicas must be >= 1, got {self.replicas}")
        if self.worker_cost <= 0:
            raise ConfigError(
                f"worker_cost must be positive, got {self.worker_cost}")
        if self.steady_period <= 0:
            raise ConfigError(
                f"steady_period must be positive, got {self.steady_period}")
        if self.swing is not None:
            # A spec file spells the window as a list.
            object.__setattr__(self, "swing", tuple(self.swing))
            t_on, t_off, factor = self.swing
            if t_off <= t_on:
                raise ConfigError(f"swing window is empty: {self.swing}")
            if factor <= 0:
                raise ConfigError(
                    f"swing factor must be positive, got {factor}")


def elastic_pipeline(cfg: Optional[ElasticConfig] = None) -> TaskGraph:
    """``source -> partition -> workers[N] -> merge -> sink``.

    The canonical elastic topology: one swing source feeding a
    replicated worker stage (via :meth:`TaskGraph.add_replicated_stage`)
    whose merged output an earliest-draining sink consumes in timestamp
    order.
    """
    cfg = cfg or ElasticConfig()
    g = TaskGraph(cfg.name)
    g.add_thread("source", make_swing_source(
        "part", cfg.steady_period, cfg.swing, cfg.item_size,
        cost=cfg.source_cost))
    g.add_replicated_stage(
        "workers",
        make_pool_worker("part", "merge", cfg.worker_cost, cfg.item_size),
        input="part",
        output="merge",
        replicas=cfg.replicas,
        min_replicas=cfg.min_replicas,
        max_replicas=cfg.max_replicas,
        partition=cfg.partition,
        input_capacity=cfg.input_capacity,
    )
    g.add_thread("sink", make_draining_sink("merge", cost=cfg.sink_cost),
                 sink=True)
    g.connect("source", "part")
    g.connect("merge", "sink")
    g.validate()
    return g
