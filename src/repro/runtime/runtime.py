"""Runtime orchestration: graph + config -> a runnable simulated system.

:class:`Runtime` instantiates the cluster (nodes, network), the buffers
(channels/queues with their GC and feedback endpoints), and one
:class:`~repro.runtime.thread.ThreadDriver` per task thread — each with a
control stack assembled by :mod:`repro.control` from the configured
policy — then runs the event engine for a simulated horizon. After
:meth:`run`, the trace in :attr:`recorder` feeds the metrics modules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Optional, Union

from repro.aru.config import AruConfig, aru_disabled
from repro.cluster.load import LoadSpec, spawn_load
from repro.cluster.network import Network
from repro.cluster.node import Node
from repro.cluster.spec import ClusterSpec, config1_spec
from repro.control.propagation import FeedbackBus
from repro.control.scale import ScaleConfig, StageScaleController
from repro.errors import ConfigError, SimulationError
from repro.gc import GarbageCollector, make_gc
from repro.metrics.recorder import TraceRecorder
from repro.obs.hub import resolve_hub
from repro.runtime.channel import Channel
from repro.runtime.graph import CHANNEL, QUEUE, TaskGraph
from repro.runtime.replicated import MergeChannel, PartitionQueue
from repro.runtime.retry import RetryPolicy
from repro.runtime.squeue import SQueue
from repro.runtime.thread import ThreadDriver
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.vt.clock import SimClock


@dataclass(frozen=True)
class RuntimeConfig:
    """Everything outside the task graph that defines a run."""

    cluster: ClusterSpec = field(default_factory=config1_spec)
    gc: Union[str, GarbageCollector, None] = "dgc"
    aru: AruConfig = field(default_factory=aru_disabled)
    seed: int = 0
    #: Overrides graph placement: graph node name -> cluster node name.
    placement: Dict[str, str] = field(default_factory=dict)
    record_stp: bool = True
    #: Background-load bursts injected into the cluster (§1's "current
    #: load"); the ARU loop must adapt through them.
    loads: tuple = ()
    #: Transport retry/backoff for remote put/get under link faults.
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Elastic-parallelism control for replicated stages; ``None`` (or a
    #: disabled/null config) installs no controller processes, keeping
    #: the run bit-identical to a fixed-N one.
    scale: Optional[ScaleConfig] = None
    #: Telemetry: False/None (off, zero overhead), True (default hub),
    #: a :class:`~repro.obs.TelemetryConfig`, or a pre-built
    #: :class:`~repro.obs.TelemetryHub` the caller keeps for export.
    telemetry: object = False


class Scope(NamedTuple):
    """Whom a thread or buffer is wired for — the run itself, or a tenant
    (a built :class:`~repro.tenancy.tenant.Tenant` has these attributes):
    an argument of the wiring, kept by what was wired."""

    name: Optional[str]  #: the owning tenant; None for the run itself
    prefix: str  #: namespace before the names the task bodies declared
    aru: AruConfig
    scale: Optional[ScaleConfig]
    rngs: RngRegistry
    bus: FeedbackBus


def buffer_stats(buffers) -> Dict[str, dict]:
    """The ``"buffers"`` block of every executor's ``stats()``."""
    return {
        name: {
            "kind": buf.kind,
            "depth": len(buf),
            "bytes_held": buf.bytes_held,
            "puts": buf.total_puts,
            "gets": buf.total_gets,
            "skips": getattr(buf, "total_skips", 0),
            "frees": buf.total_frees,
        }
        for name, buf in buffers.items()
    }


class Runtime:
    """A fully-wired simulated Stampede application."""

    def __init__(self, graph: TaskGraph, config: Optional[RuntimeConfig] = None) -> None:
        self.graph = graph
        self.config = config or RuntimeConfig()
        self._validate_graph()

        self.engine = Engine()
        self.clock = SimClock(self.engine)
        self.rngs = RngRegistry(seed=self.config.seed)
        self.recorder = TraceRecorder(record_stp=self.config.record_stp)
        self.obs = resolve_hub(self.config.telemetry).bind(
            time_fn=self.clock.now,
            run={"seed": self.config.seed, "gc": str(self.config.gc),
                 "policy": self.config.aru.policy},
        )
        self.gc = make_gc(self.config.gc)
        self.gc.bind(self)

        self.nodes: Dict[str, Node] = {
            spec.name: Node(self.engine, spec, self.rngs)
            for spec in self.config.cluster.nodes
        }
        self.network = Network(self.engine, self.config.cluster, obs=self.obs)
        self.feedback_bus = FeedbackBus(self.config.aru, time_fn=self.clock.now)

        self.scope = Scope(None, "", self.config.aru, self.config.scale,
                           self.rngs, self.feedback_bus)
        self._thread_placement = {
            t: self._resolve_thread_node(t) for t in graph.threads()
        }
        self.buffers: Dict[str, object] = {}
        self.drivers: Dict[str, ThreadDriver] = {}
        self._processes: Dict[str, object] = {}
        #: Replicated stage -> the scope it was wired for.
        self._stage_scope: Dict[str, Scope] = {}
        self._wire(graph.buffers(), graph.threads(),
                   graph.replicated_stages(), self.scope)
        for load in self.config.loads:
            if not isinstance(load, LoadSpec):
                raise ConfigError(f"loads must be LoadSpec instances, got {load!r}")
            if load.node not in self.nodes:
                raise ConfigError(f"load targets unknown node {load.node!r}")
            spawn_load(self.engine, self.nodes[load.node], load)
        #: Per-stage scale controllers (empty unless elastic scaling is
        #: configured AND the graph has replicated stages — the same
        #: zero-added-events-when-off contract as the fault injector).
        self.scalers: Dict[str, StageScaleController] = {}
        self._scaler_processes: Dict[str, object] = {}
        self._install_scale_controllers(graph.replicated_stages(),
                                        self.config.scale)
        self._ran = False
        #: Failure-detection callback ``(symptom, target, source)``;
        #: installed by a FaultInjector, None in fault-free runs.
        self.fault_hook = None

    def _validate_graph(self) -> None:
        self.graph.validate()

    def _install_scale_controllers(self, stages, scale) -> None:
        """Spawn scale-controller processes for ``stages`` under ``scale``
        (None, disabled or null = none)."""
        if scale is None or not scale.enabled or scale.policy == "null":
            return
        for stage in stages:
            ctl = StageScaleController(self, stage, scale)
            self.scalers[stage] = ctl
            self._scaler_processes[stage] = self.engine.process(
                ctl.run(), name=f"scaler.{stage}"
            )

    # -- placement ---------------------------------------------------------
    def _resolve_thread_node(self, thread: str) -> str:
        attrs = self.graph.attrs(thread)
        name = self.config.placement.get(thread) or attrs.get("node")
        if name is None:
            name = self.config.cluster.nodes[0].name
        if name not in self.nodes:
            raise ConfigError(
                f"thread {thread!r} placed on unknown node {name!r} "
                f"(cluster has {sorted(self.nodes)})"
            )
        return name

    def _resolve_buffer_node(self, buffer: str) -> str:
        attrs = self.graph.attrs(buffer)
        name = self.config.placement.get(buffer) or attrs.get("node")
        if name is None:
            # Stampede convention (and the paper's config 2): a channel
            # lives on its producer's node.
            producers = self.graph.producers_of(buffer)
            if producers:
                name = self._thread_placement[producers[0]]
            else:  # pragma: no cover - validate() rejects producerless buffers
                name = self.config.cluster.nodes[0].name
        if name not in self.nodes:
            raise ConfigError(
                f"buffer {buffer!r} placed on unknown node {name!r} "
                f"(cluster has {sorted(self.nodes)})"
            )
        return name

    # -- construction ----------------------------------------------------
    def _build_buffer(self, name: str, scope: Scope):
        kind = self.graph.kind(name)
        attrs = self.graph.attrs(name)
        args = (self.engine, name, self.nodes[self._resolve_buffer_node(name)])
        common = dict(
            recorder=self.recorder,
            feedback=scope.bus.endpoint_for(name, attrs.get("compress_op")),
            capacity=attrs.get("capacity"),
            obs=self.obs,
        )
        if attrs.get("partition_of") is not None:
            return PartitionQueue(
                *args, partition=attrs.get("partition", "round-robin"), **common)
        if attrs.get("merge_of") is not None:
            return MergeChannel(*args, gc=self.gc, **common)
        if kind == CHANNEL:
            return Channel(*args, gc=self.gc, **common)
        if kind == QUEUE:
            return SQueue(*args, **common)
        raise SimulationError(f"unknown buffer kind {kind!r}")  # pragma: no cover

    def _wire(self, buffers, threads, stages, scope: Scope) -> None:
        """Build and start part of the graph for ``scope``: buffers
        before the drivers that register on them, merges bound after."""
        for name in buffers:
            self.buffers[name] = self._build_buffer(name, scope)
        for name in threads:
            self._spawn(name, scope)
        for stage in stages:
            spec = self.graph.stage_spec(stage)
            self.buffers[spec["input"]].bind_merge(self.buffers[spec["output"]])
            self._stage_scope[stage] = scope

    def _spawn(self, name: str, scope: Scope) -> None:
        """Start a fresh incarnation of thread ``name``: new connections,
        cold meter and control stack, a new engine process."""
        driver = ThreadDriver.assemble(
            self, name, self.nodes[self._thread_placement[name]], scope,
            self.buffers.__getitem__,
        )
        self.drivers[name] = driver
        self._processes[name] = self.engine.process(driver.run(), name=name)

    def _disconnect(self, name: str, collect: bool = True) -> ThreadDriver:
        """Unregister every connection of thread ``name``'s (killed)
        driver — evicting its backwardSTP slots, releasing its DGC
        cursors — and return it. ``collect`` frees what those cursors
        held; a whole-tenant teardown drains the buffers next instead."""
        driver = self.drivers[name]
        now = self.engine.now
        for buffer, conn in driver.in_conns.values():
            buffer.unregister_consumer(conn)
            if collect:
                buffer.maybe_collect(now)
        for buffer, conn in driver.out_conns.values():
            buffer.unregister_producer(conn)
        return driver

    # -- execution ---------------------------------------------------------
    def run(self, until: float) -> TraceRecorder:
        """Simulate ``until`` seconds; returns the finalized trace.

        One-shot convenience over :meth:`advance` + :meth:`finalize`.
        """
        if self._ran:
            raise SimulationError("Runtime.run() may only be called once")
        if until <= 0:
            raise ConfigError(f"simulation horizon must be positive, got {until}")
        self.advance(until - self.engine.now)
        return self.finalize()

    def advance(self, dt: float) -> "Runtime":
        """Simulate ``dt`` more seconds (incremental execution).

        May be called repeatedly — e.g. to inspect channel state or
        inject load between phases — until :meth:`finalize` seals the
        trace. Returns ``self`` for chaining.
        """
        if self._ran:
            raise SimulationError("runtime already finalized")
        if dt <= 0:
            raise ConfigError(f"advance needs a positive dt, got {dt}")
        self.engine.run(until=self.engine.now + dt)
        return self

    def finalize(self) -> TraceRecorder:
        """Stop measuring; returns the finalized trace."""
        if self._ran:
            raise SimulationError("runtime already finalized")
        self._ran = True
        self.recorder.finalize(self.engine.now)
        if self.obs.enabled:
            self.obs.on_finalize(self.stats(), self.engine.now)
        return self.recorder

    # -- runtime-global state -------------------------------------------------
    def global_virtual_time(self) -> Optional[int]:
        """Minimum thread virtual time (transparent GC's low-water mark)."""
        if not self.drivers:
            return None
        return min(d.virtual_time for d in self.drivers.values())

    def channel(self, name: str) -> Channel:
        buf = self.buffers.get(name)
        if not isinstance(buf, Channel):
            raise ConfigError(f"{name!r} is not a channel")
        return buf

    def queue(self, name: str) -> SQueue:
        buf = self.buffers.get(name)
        if not isinstance(buf, SQueue):
            raise ConfigError(f"{name!r} is not a queue")
        return buf

    def kill_thread(self, name: str, reason: str = "killed") -> None:
        """Failure injection: terminate one task thread mid-run.

        The thread's generator receives :class:`~repro.errors.ProcessKilled`
        at its current yield point (releasing held items on the way out);
        the rest of the application keeps running — and mis-reacting, which
        is the point: a dead consumer stops advancing its cursors, so DGC
        guarantees freeze and upstream storage grows. Use between
        :meth:`advance` phases to study such scenarios.
        """
        process = self._processes.get(name)
        if process is None:
            raise ConfigError(f"no thread named {name!r}")
        process.kill(reason)

    def thread_alive(self, name: str) -> bool:
        """Whether the named task thread is still running."""
        process = self._processes.get(name)
        if process is None:
            raise ConfigError(f"no thread named {name!r}")
        return process.is_alive

    def stall_thread(self, name: str, duration: float) -> None:
        """Failure injection: freeze a thread for ``duration`` seconds.

        The thread stops making progress at its next syscall boundary
        but stays alive — the livelock case failure detectors must tell
        apart from a crash (it still holds its connections and its
        backwardSTP slots keep their last values until the TTL).
        """
        driver = self.drivers.get(name)
        if driver is None:
            raise ConfigError(f"no thread named {name!r}")
        driver.stall(duration)

    def restart_thread(self, name: str) -> None:
        """Failure recovery: respawn a task thread with cold state.

        Mirrors a real supervisor restart: the old incarnation is killed
        (if still alive), its connections are unregistered from every
        buffer — evicting its backwardSTP slots and releasing its DGC
        cursors — and a fresh driver (new generator, new connections,
        reset STP meter and ARU state) is registered on the engine. The
        restarted thread re-propagates its summary-STP from scratch on
        its first gets, exactly like a cold-started pipeline stage.
        """
        process = self._processes.get(name)
        if process is None:
            raise ConfigError(f"no thread named {name!r}")
        if process.is_alive:
            process.kill("restart")
        self._spawn(name, self._disconnect(name).scope)

    # -- elastic parallelism ------------------------------------------------
    def replica_count(self, stage: str, alive_only: bool = True) -> int:
        """Worker replicas of a replicated stage (alive by default)."""
        names = self.graph.replicas_of(stage)
        if not alive_only:
            return len(names)
        return sum(1 for n in names if self.thread_alive(n))

    def _admit_replica(self, stage: str, node_name: str) -> bool:
        """R-Storm-style admission: charge the replica against the node.

        A new worker is admitted only while its target node is up and
        has an uncommitted CPU (alive resident threads < ``ncpus``) —
        spawning past the core count would just re-create the
        oversubscription the scale-out is trying to relieve. The
        multi-tenant runtime overrides this to additionally draw the
        replica's CPU from the owning tenant's ledger budget.
        """
        node = self.nodes[node_name]
        if node.failed:
            return False
        alive = sum(
            1 for t in self.threads_on(node_name)
            if self._processes[t].is_alive
        )
        return alive < node.spec.ncpus

    def _on_replica_spawned(self, stage: str, name: str,
                            node_name: str) -> None:
        """Hook: a replica admitted by :meth:`_admit_replica` went live."""

    def _on_replica_retired(self, stage: str, name: str) -> None:
        """Hook: a replica was retired; release anything it drew."""

    def scale_out(self, stage: str, reason: str = "scale-out") -> Optional[str]:
        """Spawn one more worker replica for ``stage``.

        Reuses the restart machinery's spawn half: a fresh generator
        with new connections, a reset STP meter, and cold ARU state —
        a scaled-out worker is indistinguishable from a restarted one.
        Returns the new thread name, or ``None`` if the stage is at
        ``max_replicas`` or node admission refuses the CPU.
        """
        spec = self.graph.stage_spec(stage)
        before = self.replica_count(stage)
        if before >= spec["max_replicas"]:
            return None
        node_name = (self.config.placement.get(stage) or spec["node"]
                     or self.config.cluster.nodes[0].name)
        if node_name not in self.nodes:
            raise ConfigError(
                f"stage {stage!r} placed on unknown node {node_name!r}"
            )
        if not self._admit_replica(stage, node_name):
            return None
        name = self.graph.add_replica(stage)
        self._thread_placement[name] = node_name  # where it was admitted
        self._spawn(name, self._stage_scope[stage])
        self._on_replica_spawned(stage, name, node_name)
        if self.obs.enabled:
            self.obs.on_scale(stage, "out", before, before + 1,
                              self.engine.now, reason, name)
        return name

    def scale_in(self, stage: str, reason: str = "scale-in") -> Optional[str]:
        """Retire one worker replica of ``stage`` (highest index first).

        Refuses to drop below ``min_replicas`` (and never below one).
        Returns the retired thread name, or ``None`` if at the floor.
        """
        spec = self.graph.stage_spec(stage)
        alive = [n for n in self.graph.replicas_of(stage)
                 if self.thread_alive(n)]
        if len(alive) <= max(1, spec["min_replicas"]):
            return None
        victim = alive[-1]
        self.retire_replica(stage, victim, reason=reason)
        return victim

    def retire_replica(self, stage: str, name: str, reason: str = "retire") -> None:
        """Remove one replica entirely (the restart machinery's kill half).

        Killing releases the worker's held items; unregistering its
        consumer connection makes the partition queue reassign the
        replica's pending work to surviving slots and abandon its
        in-flight timestamps on the merge, so the output frontier never
        waits on a retired worker.
        """
        self.graph.stage_spec(stage)  # validates the stage exists
        before = self.replica_count(stage)
        process = self._processes.get(name)
        if process is None:
            raise ConfigError(f"no thread named {name!r}")
        if process.is_alive:
            process.kill(reason)
        self._disconnect(name)
        del self.drivers[name]
        del self._processes[name]
        del self._thread_placement[name]
        self.graph.remove_replica(stage, name)
        self._on_replica_retired(stage, name)
        if self.obs.enabled:
            self.obs.on_scale(stage, "in", before, self.replica_count(stage),
                              self.engine.now, reason, name)

    def reap_dead_replicas(self, stage: str) -> int:
        """Clean up crashed replicas of ``stage``; returns replicas handled.

        A crashed replica above the floor is retired (its partition slot
        reassigned, its merge timestamps abandoned); at or below the
        floor it is restarted instead, so a replicated stage never
        silently loses its minimum capacity.
        """
        spec = self.graph.stage_spec(stage)
        floor = max(1, spec["min_replicas"])
        handled = 0
        for name in self.graph.replicas_of(stage):
            if self.thread_alive(name):
                continue
            if self.replica_count(stage) > floor:
                self.retire_replica(stage, name, reason="reap")
            else:
                self.restart_thread(name)
                if self.obs.enabled:
                    self.obs.on_scale(stage, "restart",
                                      self.replica_count(stage),
                                      self.replica_count(stage),
                                      self.engine.now, "reap", name)
            handled += 1
        return handled

    def threads_on(self, node_name: str) -> list:
        """Task threads placed on the named cluster node."""
        if node_name not in self.nodes:
            raise ConfigError(f"no node named {node_name!r}")
        return [t for t, n in self._thread_placement.items() if n == node_name]

    def crash_node(self, name: str, reason: str = "node crash") -> None:
        """Failure injection: crash a node, killing its resident threads.

        Channel storage placed on the node survives (the fault model's
        stable-storage simplification — see docs/fault-model.md); what a
        crash destroys is the *computation*: every resident thread dies.
        """
        node = self.nodes.get(name)
        if node is None:
            raise ConfigError(f"no node named {name!r}")
        node.fail()
        for thread in self.threads_on(name):
            if self._processes[thread].is_alive:
                self._processes[thread].kill(reason)

    def restart_node(self, name: str) -> None:
        """Failure recovery: bring a node back, respawning its dead threads."""
        node = self.nodes.get(name)
        if node is None:
            raise ConfigError(f"no node named {name!r}")
        node.recover()
        for thread in self.threads_on(name):
            if not self._processes[thread].is_alive:
                self.restart_thread(thread)

    def stats(self) -> Dict[str, dict]:
        """Snapshot of runtime-object statistics (diagnostics/reports)."""
        snapshot = {
            "engine": {
                "now": self.engine.now,
                "events_processed": self.engine.events_processed,
            },
            "nodes": {
                name: {
                    "busy_time": node.busy_time,
                    "mem_in_use": node.mem_in_use,
                    "mem_peak": node.mem_peak,
                    "cpu_grants": node.cpus.total_grants,
                    "cpu_wait_time": node.cpus.total_wait_time,
                }
                for name, node in self.nodes.items()
            },
            "network": {"total_bytes": self.network.total_bytes},
            "buffers": buffer_stats(self.buffers),
            "threads": {
                name: {
                    "iterations": driver.iterations,
                    "virtual_time": driver.virtual_time,
                    "blocked": driver.meter.total_blocked,
                    "slept": driver.meter.total_slept,
                }
                for name, driver in self.drivers.items()
            },
        }
        if self.graph.replicated_stages():
            snapshot["scaling"] = {
                stage: {
                    "replicas": self.replica_count(stage),
                    "decisions": (len(self.scalers[stage].decisions)
                                  if stage in self.scalers else 0),
                    "denied": (self.scalers[stage].denied_total
                               if stage in self.scalers else 0),
                }
                for stage in self.graph.replicated_stages()
            }
        return snapshot
