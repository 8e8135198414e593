"""Simulated SMP node: CPU pool, contention, memory occupancy.

A :class:`Node` turns *requested* compute durations into *actual* busy
times under three effects, applied in this order:

1. **OS scheduling noise** — multiplicative lognormal with the node's
   ``sched_noise_cv`` (drawn from a per-node RNG stream);
2. **SMP contention** — inflation by
   :func:`~repro.cluster.contention.contention_factor` of the number of
   other compute segments in flight at segment start;
3. **memory pressure** — inflation by
   :func:`~repro.cluster.contention.memory_pressure_factor` of the bytes
   of channel storage resident on the node at segment start;
4. **CPU multiplexing** — a FIFO pool of ``ncpus`` units; segments queue
   when the node is oversubscribed.

Memory is pure accounting: channels call :meth:`alloc`/:meth:`free` and
the node tracks occupancy for footprint metrics.
"""

from __future__ import annotations

from typing import Generator

from repro.cluster.contention import contention_factor, memory_pressure_factor
from repro.cluster.spec import NodeSpec
from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.resources import Resource
from repro.sim.rng import RngRegistry, lognormal_with_mean


class Node:
    """Live simulation object for one SMP node."""

    def __init__(self, engine: Engine, spec: NodeSpec, rngs: RngRegistry) -> None:
        self.engine = engine
        self.spec = spec
        self.name = spec.name
        self.cpus = Resource(engine, capacity=spec.ncpus, name=f"{spec.name}.cpus")
        self._noise_rng = rngs.stream(f"node.{spec.name}.sched_noise")
        #: Compute segments currently executing (granted a CPU).
        self.active_segments = 0
        #: Total CPU-seconds consumed on this node.
        self.busy_time = 0.0
        #: Bytes currently allocated on this node.
        self.mem_in_use = 0
        #: High-water mark of :attr:`mem_in_use`.
        self.mem_peak = 0
        #: Fault-injection state: a failed node's resident threads are
        #: dead (the runtime kills them); channel storage survives — the
        #: simplifying "stable storage" assumption of docs/fault-model.md.
        self.failed = False
        #: Number of crash faults applied to this node so far.
        self.crash_count = 0
        # -- scheduler reservations (declarative, see repro.tenancy) ------
        #: CPU cores committed to placed tenants (may be fractional).
        self.cpu_committed = 0.0
        #: Bytes of memory committed to placed tenants.
        self.mem_committed = 0
        #: NIC bytes/second committed to placed tenants.
        self.bw_committed = 0

    # -- scheduler reservations ---------------------------------------------
    def commit(self, cpu: float, mem_bytes: int, bandwidth_bps: int) -> None:
        """Reserve declared tenant demand against this node's budgets.

        Pure accounting for the cluster scheduler — it never gates the
        data path (actual CPU time still flows through :meth:`compute`).
        """
        if cpu < 0 or mem_bytes < 0 or bandwidth_bps < 0:
            raise SimulationError(
                f"node {self.name!r}: negative commitment "
                f"({cpu}, {mem_bytes}, {bandwidth_bps})"
            )
        self.cpu_committed += cpu
        self.mem_committed += mem_bytes
        self.bw_committed += bandwidth_bps

    def uncommit(self, cpu: float, mem_bytes: int, bandwidth_bps: int) -> None:
        """Release a reservation made with :meth:`commit`."""
        if (self.cpu_committed - cpu < -1e-9 or self.mem_committed < mem_bytes
                or self.bw_committed < bandwidth_bps):
            raise SimulationError(
                f"node {self.name!r}: releasing more than committed"
            )
        self.cpu_committed = max(0.0, self.cpu_committed - cpu)
        self.mem_committed -= mem_bytes
        self.bw_committed -= bandwidth_bps

    # -- fault control ------------------------------------------------------
    def fail(self) -> None:
        """Mark the node crashed (bookkeeping; the runtime kills threads)."""
        self.failed = True
        self.crash_count += 1

    def recover(self) -> None:
        """Mark the node back up (the runtime respawns its threads)."""
        self.failed = False

    # -- compute -----------------------------------------------------------
    def effective_duration(self, duration: float) -> float:
        """Requested duration -> actual duration under noise + contention.

        Deterministic given the RNG stream state and the current number of
        active segments. Exposed separately for unit testing.
        """
        if duration < 0:
            raise SimulationError(f"negative compute duration: {duration}")
        noisy = lognormal_with_mean(self._noise_rng, duration, self.spec.sched_noise_cv) \
            if duration > 0 else 0.0
        factor = contention_factor(self.spec.smp_contention_alpha, self.active_segments)
        factor *= memory_pressure_factor(self.spec.mem_pressure_per_mb, self.mem_in_use)
        return noisy * factor

    def compute(self, duration: float) -> Generator:
        """Process generator: occupy one CPU for the effective duration.

        Yields until the segment completes; the generator's return value is
        the actual busy time (used by STP meters and waste accounting).
        """
        yield self.cpus.request()
        actual = self.effective_duration(duration)
        self.active_segments += 1
        try:
            yield self.engine.timeout(actual)
        finally:
            self.active_segments -= 1
            self.busy_time += actual
            self.cpus.release()
        return actual

    # -- memory ------------------------------------------------------------
    def alloc(self, nbytes: int) -> None:
        """Account ``nbytes`` of item storage on this node."""
        if nbytes < 0:
            raise SimulationError(f"negative allocation: {nbytes}")
        self.mem_in_use += nbytes
        if self.mem_in_use > self.mem_peak:
            self.mem_peak = self.mem_in_use

    def free(self, nbytes: int) -> None:
        """Release ``nbytes`` previously allocated with :meth:`alloc`."""
        if nbytes < 0:
            raise SimulationError(f"negative free: {nbytes}")
        if nbytes > self.mem_in_use:
            raise SimulationError(
                f"node {self.name!r}: freeing {nbytes} B with only "
                f"{self.mem_in_use} B in use"
            )
        self.mem_in_use -= nbytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Node {self.name} cpus={self.cpus.in_use}/{self.spec.ncpus} "
            f"mem={self.mem_in_use}B>"
        )
