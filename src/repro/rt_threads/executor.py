"""Real-threads executor: run the same task graphs on ``threading``.

The DES reproduces the paper's numbers; this executor demonstrates the
library as an actually-running streaming runtime. The same task bodies
(generators of syscalls) execute unchanged, interpreted by the same
:class:`~repro.runtime.thread.ThreadDriver`; only the *waits* differ
(:class:`WallDriver`), and one OS thread per task resumes the driver:

* ``Compute(d)`` — by default ``time.sleep(d)`` (models occupancy without
  fighting the GIL; the repro band notes the GIL makes genuine parallel
  compute in Python unfaithful). ``compute_mode="busy"`` spins instead;
  ``compute_mode="noop"`` skips it (use when the task body does real numpy
  work on payloads and should pace itself).
* ``Get``/``Put`` — the blocking surface of the thread-safe channels
  (local :class:`ThreadChannel` or a TCP proxy), same skipping, DGC and
  ARU piggy-back as the simulator because it is the same channel core.
* ``Sleep`` and the source throttle — ``time.sleep``.

Timing fidelity here is subject to OS scheduling; use the DES for
measurements and this executor for live demos and smoke tests.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace
from typing import Dict, List, Optional

from repro.aru.config import AruConfig, aru_disabled
from repro.control.propagation import FeedbackBus
from repro.errors import ConfigError, SimulationError
from repro.gc import make_gc
from repro.metrics.recorder import TraceRecorder
from repro.obs.hub import (TelemetryConfig, buffer_series, resolve_hub,
                           thread_series)
from repro.rt_threads.channel import ThreadChannel
from repro.runtime.graph import TaskGraph
from repro.runtime.runtime import Scope, StatsView, buffer_entry
from repro.runtime.syscalls import Compute, Get, Put, TryGet
from repro.runtime.thread import ThreadDriver
from repro.sim.rng import RngRegistry
from repro.vt.clock import WallClock

_COMPUTE_MODES = ("sleep", "busy", "noop")


def check_live_gc(gc) -> None:
    """Reject the one ``ExperimentSpec.gc`` the live backends cannot run."""
    if make_gc(gc).name == "tgc":
        raise ConfigError(
            "gc='tgc' frees below a global virtual time: every thread's "
            "cursor at one instant, which unsynchronised threads and worker "
            "processes do not have — use backend='sim' (or null/ref/dgc)"
        )


class WallDriver(ThreadDriver):
    """:class:`ThreadDriver` with its waits on the wall clock.

    Dispatch, bookkeeping and the iteration close are inherited; what is
    here is how a real thread waits. Each wait has happened by the time
    its handler returns, so the handlers are plain functions.
    """

    @classmethod
    def _dispatch_table(cls):
        """Every entry wrapped so that stop lands at a syscall boundary:
        the runner closes the generator at the ``yield``, and a get the
        stop cut short never reaches the task as a ``None``."""
        def at_boundary(handler, waits):
            def bounded(self, syscall):
                result = handler(self, syscall)
                if waits:
                    result = yield from result
                if self.runtime.stop_event.is_set():
                    yield
                return result
            return bounded
        return {sc: (at_boundary(handler, waits), True)
                for sc, (handler, waits) in super()._dispatch_table().items()}

    def _do_compute(self, sc: Compute):
        mode = self.runtime.compute_mode
        t0 = self.now()
        if mode == "sleep" and sc.seconds > 0:
            time.sleep(sc.seconds)
        elif mode == "busy":
            deadline = time.monotonic() + sc.seconds
            while time.monotonic() < deadline:
                pass
        actual = self.now() - t0
        self._iter_compute += actual
        return actual

    def _do_get(self, sc: Get):
        channel, conn = self._in_conn(sc.channel)
        if sc.timeout is not None and sc.timeout < 0:
            raise SimulationError(f"negative get timeout: {sc.timeout}")
        self.meter.block_started()
        try:
            view = channel.get(
                conn, sc.request,
                consumer_summary=self.controller.outbound_summary(),
                stop=self.runtime.stop_event,
                max_wait=sc.timeout,
            )
        finally:
            self.meter.block_ended()
        return view and self._own(channel, view, sc.hold)

    def _do_try_get(self, sc: TryGet):
        channel, conn = self._in_conn(sc.channel)
        view = channel.try_get(conn, sc.request,
                               consumer_summary=self.controller.outbound_summary())
        return view and self._own(channel, view, False)

    def _do_put(self, sc: Put):
        channel, conn = self._out_conn(sc.channel)
        item = self._new_item(sc, self.now())
        self._put_done(conn, item, channel.put(conn, item))
        return item.item_id

    def _publish(self, *closed) -> None:
        # Lock order channel -> recorder: the releases that follow the
        # close take channel locks, so only the record is under this one.
        with self.runtime.recorder_lock:
            super()._publish(*closed)


class _TaskThread(threading.Thread):
    """One OS thread resuming one driver's ``run()`` generator.

    Whatever the driver yields is a wait that has already happened, so
    it is resumed at once; the stop event is checked between resumes.
    Stopping closes the generator at its current yield — the driver's
    ``finally`` releases what the thread holds, exactly as a simulated
    kill does.
    """

    def __init__(self, driver: WallDriver, stopping: threading.Event) -> None:
        super().__init__(name=f"stampede-{driver.name}", daemon=True)
        self._driver = driver
        self._stopping = stopping
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        gen = self._driver.run()
        try:
            while not self._stopping.is_set():
                next(gen)
            gen.close()
        except StopIteration:
            pass
        except BaseException as exc:  # surface in join()
            self.error = exc


class ThreadedRuntime:
    """Run a :class:`TaskGraph` on real OS threads.

    Parameters
    ----------
    graph:
        The application graph (queues are not supported by this executor —
        use channels).
    aru:
        ARU policy; defaults to disabled.
    compute_mode:
        How ``Compute(d)`` is realized: ``"sleep"`` (default), ``"busy"``,
        or ``"noop"``.
    gc:
        ``ExperimentSpec.gc``: ``dgc`` (default), ``ref`` or ``null``,
        one collector per channel, run under its lock; ``tgc`` is
        rejected (:func:`check_live_gc`).
    telemetry:
        As ``RuntimeConfig.telemetry``. Spans are recorded by the
        simulator only, so ``True`` or a :class:`TelemetryConfig` builds
        a metrics-only hub that reads the counts the channels and drivers
        keep; only the iteration-length histogram is pushed, at each
        close.
    """

    #: The node every channel and stat is attributed to (a distributed
    #: worker sets its plan node before construction).
    node_name = "local"
    #: A driver's wait of ``d`` seconds: on the wall clock a sleep, over
    #: by the time there is anything to yield.
    timeout = time.sleep
    #: Nothing here is simulated: every handler that reads a driver's
    #: engine is one :class:`WallDriver` overrides.
    engine = None

    def __init__(
        self,
        graph: TaskGraph,
        aru: Optional[AruConfig] = None,
        seed: int = 0,
        compute_mode: str = "sleep",
        gc="dgc",
        telemetry=False,
        trace_rows: bool = True,
    ) -> None:
        if compute_mode not in _COMPUTE_MODES:
            raise ConfigError(
                f"compute_mode must be one of {_COMPUTE_MODES}, got {compute_mode!r}"
            )
        check_live_gc(gc)
        graph.validate()
        if graph.queues():
            raise ConfigError("ThreadedRuntime supports channels only")
        # Streams build their numpy generators on first draw: import them
        # here, so no draw pays the import inside the timed stream.
        import numpy.random  # noqa: F401
        self.graph = graph
        self.aru_config = aru or aru_disabled()
        self.compute_mode = compute_mode
        self.gc = gc
        self.clock = self._make_clock()
        #: The clock read every driver, meter and feedback plane shares.
        self.now = self.clock.now
        if telemetry is True:
            telemetry = TelemetryConfig()
        if isinstance(telemetry, TelemetryConfig):
            telemetry = replace(telemetry, spans=False)
        self.obs = resolve_hub(telemetry).bind(
            time_fn=self.now,
            run={"seed": seed, "gc": str(gc),
                 "policy": self.aru_config.policy},
        )
        self.recorder = TraceRecorder(trace_rows=trace_rows)
        self.recorder_lock = threading.Lock()
        self.stop_event = threading.Event()
        self.rngs = RngRegistry(seed=seed)
        self.feedback_bus = FeedbackBus(self.aru_config, time_fn=self.now)
        self.scope = Scope(None, "", self.aru_config, None, self.rngs,
                           self.feedback_bus)

        self.channels: Dict[str, ThreadChannel] = {}
        for name in self._local_buffers():
            self.channels[name] = self._make_channel(name)
        self.drivers: Dict[str, WallDriver] = {}
        if self.obs.enabled:
            self.obs.read(buffer_series,
                          {name: ch._state for name, ch in self.channels.items()})
            self.obs.read(thread_series, self.drivers, {})
        for name in self._local_threads():
            self.drivers[name] = self._build_driver(name)
        self._threads: List[_TaskThread] = []
        self._ran = False

    # -- overridable hooks (the distributed worker subclasses these) -------
    def _make_clock(self):
        """The executor's clock (workers share an epoch across processes)."""
        return WallClock()

    def _local_threads(self):
        """Thread names this process hosts (a worker hosts its node's)."""
        return self.graph.threads()

    def _local_buffers(self):
        """Buffer names this process hosts channel storage for."""
        return self.graph.buffers()

    def _make_channel(self, name: str) -> ThreadChannel:
        """Build the local channel backing buffer ``name``."""
        feedback = self.feedback_bus.endpoint(
            self.graph.attrs(name).get("compress_op"))
        return ThreadChannel(
            name, self.recorder, self.clock, feedback, self.recorder_lock,
            node=self.node_name, gc=self.gc,
        )

    def _channel_for(self, name: str):
        """The channel object a driver talks to for buffer ``name`` (the
        distributed worker returns a TCP proxy here when the buffer
        lives on another node)."""
        return self.channels[name]

    def _build_driver(self, name: str) -> WallDriver:
        return WallDriver.assemble(self, name, None, self.scope,
                                   self._channel_for)

    # -- lifecycle ---------------------------------------------------------
    # run() = start(); sleep; stop(); join() — split out so the
    # distributed worker can drive the phases from its control protocol.
    def start(self) -> None:
        """Start every task thread (once)."""
        if self._ran:
            raise SimulationError("ThreadedRuntime.run() may only be called once")
        self._ran = True
        self._threads = [_TaskThread(driver, self.stop_event)
                         for driver in self.drivers.values()]
        for thread in self._threads:
            thread.start()

    def stop(self) -> None:
        """Ask every task thread to wind down."""
        self.stop_event.set()

    def join(self, timeout: float = 5.0) -> TraceRecorder:
        """Wait for task threads, re-raise the first task error,
        finalize and return the trace."""
        for thread in self._threads:
            thread.join(timeout=timeout)
        errors = [t.error for t in self._threads if t.error is not None]
        if errors:
            raise errors[0]
        self.recorder.finalize(self.clock.now())
        return self.recorder

    def run(self, duration: float) -> TraceRecorder:
        """Run every task for ``duration`` wall seconds; returns the trace."""
        if duration <= 0:
            raise ConfigError("duration must be positive")
        self.start()
        time.sleep(duration)
        self.stop()
        trace = self.join()
        if self.obs.enabled:
            self.obs.on_finalize(self.stats(), self.clock.now())
        return trace

    def stats(self) -> Dict[str, dict]:
        """Post-run statistics in the same shape the DES produces.

        Wall-clock analogue of :meth:`repro.runtime.Runtime.stats`:
        ``engine.now`` is elapsed wall time, the single node's
        ``busy_time`` is summed measured compute, and fields the live
        executor cannot observe (cpu grants, network bytes here) are
        zero rather than absent so downstream reports need no
        per-backend cases. As there, ``"buffers"`` and ``"threads"`` are
        read from the channels and drivers on lookup.
        """
        busy = sum(d.total_compute for d in self.drivers.values())
        return {
            "engine": {
                "now": self.clock.now(),
                "events_processed": sum(
                    d.meter.iterations for d in self.drivers.values()
                ),
            },
            "nodes": {
                self.node_name: {
                    "busy_time": busy,
                    "mem_in_use": sum(
                        c.bytes_held for c in self.channels.values()
                    ),
                    "mem_peak": 0,
                    "cpu_grants": 0,
                    "cpu_wait_time": 0.0,
                }
            },
            "network": {"total_bytes": 0},
            "buffers": StatsView(self.channels, buffer_entry),
            "threads": StatsView(self.drivers, _thread_entry),
        }


def _thread_entry(driver: WallDriver) -> dict:
    """One driver's entry in the ``"threads"`` block of ``stats()``; its
    ``virtual_time`` is the compute seconds it measured."""
    meter = driver.meter
    return {
        "iterations": meter.iterations,
        "virtual_time": driver.total_compute,
        "blocked": meter.total_blocked,
        "slept": meter.total_slept,
    }


def run_threaded_experiment(spec) -> "object":
    """The registered runner behind ``backend="threads"``.

    Runs the spec's graph on :class:`ThreadedRuntime` for
    ``spec.horizon`` wall seconds and wraps the outcome in the same
    :class:`~repro.experiment.RunResult` shape the simulator returns.
    """
    from repro.experiment import RunResult

    opts = dict(spec.backend_options)
    compute_mode = opts.pop("compute_mode", "sleep")
    if opts:
        raise ConfigError(
            f"unknown threads backend_options {sorted(opts)}; "
            f"expected: compute_mode"
        )
    faults = spec.faults
    if faults is not None:
        from repro.faults import FaultSchedule

        if not isinstance(faults, FaultSchedule):
            faults = FaultSchedule(tuple(faults))
        if not faults.is_empty:
            raise ConfigError(
                "the threads backend does not support fault injection; "
                "use backend='sim' (scripted faults) or backend='proc' "
                "(real worker kills)"
            )
    scale = spec.resolve_scale_policy()
    if scale is not None:
        # "no-scale" resolves to None and is fine; only a scaler needs
        # the simulator.
        raise ConfigError(
            "the threads backend does not support elastic scaling; "
            "use backend='sim'"
        )
    graph = spec.resolve_graph()
    runtime = ThreadedRuntime(
        graph,
        aru=spec.resolve_policy(),
        seed=spec.seed,
        compute_mode=compute_mode,
        gc=spec.gc,
        telemetry=spec.telemetry,
        trace_rows=spec.trace_rows,
    )
    trace = runtime.run(duration=spec.horizon)
    return RunResult(
        spec=spec,
        trace=trace,
        stats=runtime.stats(),
        telemetry=runtime.obs,
        fault_log=None,
        runtime=runtime,
    )
