"""Real-threads executor: run the same task graphs on ``threading``.

The DES reproduces the paper's numbers; this executor demonstrates the
library as an actually-running streaming runtime. The same task bodies
(generators of syscalls) execute unchanged; only the interpretation
differs:

* ``Compute(d)`` — by default ``time.sleep(d)`` (models occupancy without
  fighting the GIL; the repro band notes the GIL makes genuine parallel
  compute in Python unfaithful). ``compute_mode="busy"`` spins instead;
  ``compute_mode="noop"`` skips it (use when the task body does real numpy
  work on payloads and should pace itself).
* ``Get``/``Put`` — thread-safe channels with identical skipping, DGC, and
  ARU-piggyback semantics.
* ``PeriodicitySync`` — wall-clock STP metering and source throttling.

Timing fidelity here is subject to OS scheduling; use the DES for
measurements and this executor for live demos and smoke tests.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

from repro.aru.config import AruConfig, aru_disabled
from repro.aru.filters import resolve_factory
from repro.aru.stp import StpMeter
from repro.control.controller import ThreadController
from repro.control.factory import build_thread_controller
from repro.control.propagation import FeedbackBus
from repro.errors import ConfigError, SimulationError
from repro.metrics.recorder import TraceRecorder
from repro.rt_threads.channel import ThreadChannel
from repro.runtime.graph import TaskGraph
from repro.runtime.item import Item
from repro.runtime.syscalls import (
    CheckDead,
    Compute,
    Get,
    Now,
    PeriodicitySync,
    Put,
    Release,
    Sleep,
    TryGet,
)
from repro.runtime.thread import TaskContext
from repro.sim.rng import RngRegistry
from repro.vt.clock import WallClock

_COMPUTE_MODES = ("sleep", "busy", "noop")


class _ThreadDriver(threading.Thread):
    """One real thread interpreting a task body."""

    def __init__(self, executor: "ThreadedRuntime", name: str, fn, ctx: TaskContext,
                 controller: ThreadController) -> None:
        super().__init__(name=f"stampede-{name}", daemon=True)
        self.executor = executor
        self.task_name = name
        self.fn = fn
        self.ctx = ctx
        self.controller = controller
        self.meter = controller.meter
        self.throttled = controller.throttled
        self.in_conns: Dict[str, tuple] = {}
        self.out_conns: Dict[str, tuple] = {}
        self._held = []
        self._retained = {}
        self._iter_inputs = []
        self._iter_outputs = []
        self._iter_compute = 0.0
        self._prev_blocked = 0.0
        self._iter_start = 0.0
        self.iterations = 0
        self.total_compute = 0.0
        self.error: Optional[BaseException] = None

    # ------------------------------------------------------------------
    @property
    def aru(self):
        """Compat accessor: the policy's ThreadAruState, when it has one."""
        return getattr(self.controller.policy, "state", None)

    def my_summary(self) -> Optional[float]:
        return self.controller.outbound_summary()

    def run(self) -> None:  # pragma: no cover - exercised via integration tests
        try:
            self._run()
        except BaseException as exc:  # surface in join()
            self.error = exc

    def _run(self) -> None:
        stop = self.executor.stop_event
        self._iter_start = self.executor.clock.now()
        gen = self.fn(self.ctx)
        if not hasattr(gen, "send"):
            raise SimulationError(f"task body of {self.task_name!r} must be a generator")
        to_send = None
        while not stop.is_set():
            try:
                syscall = gen.send(to_send)
            except StopIteration:
                break
            to_send = self._execute(syscall)
            if to_send is _STOPPED:
                break
        self._release_held()
        self._release_retained()

    # ------------------------------------------------------------------
    def _execute(self, syscall):
        ex = self.executor
        if isinstance(syscall, Compute):
            return self._do_compute(syscall.seconds)
        if isinstance(syscall, Get):
            channel, conn = self._conn(self.in_conns, syscall.channel)
            self.meter.block_started()
            try:
                view = channel.get(
                    conn, syscall.request,
                    consumer_summary=self.my_summary(),
                    stop=ex.stop_event,
                    max_wait=syscall.timeout,
                )
            finally:
                self.meter.block_ended()
            if view is None:
                # distinguish shutdown from a timed-get expiry
                if syscall.timeout is not None and not ex.stop_event.is_set():
                    return None
                return _STOPPED
            if syscall.hold:
                self._retained[view.item_id] = (channel, view)
            else:
                self._held.append((channel, view))
            self._iter_inputs.append(view.item_id)
            return view
        if isinstance(syscall, TryGet):
            channel, conn = self._conn(self.in_conns, syscall.channel)
            view = channel.try_get(conn, syscall.request,
                                   consumer_summary=self.my_summary())
            if view is not None:
                self._held.append((channel, view))
                self._iter_inputs.append(view.item_id)
            return view
        if isinstance(syscall, Put):
            channel, conn = self._conn(self.out_conns, syscall.channel)
            item = Item(
                ts=int(syscall.ts),
                size=syscall.size,
                payload=syscall.payload,
                producer=self.task_name,
                parents=tuple(self._iter_inputs),
                created_at=ex.clock.now(),
            )
            feedback = channel.put(conn, item)
            self.controller.on_feedback(conn.conn_id, feedback)
            self._iter_outputs.append(item.item_id)
            return item.item_id
        if isinstance(syscall, Sleep):
            if syscall.seconds > 0:
                time.sleep(syscall.seconds)
            return None
        if isinstance(syscall, Release):
            entry = self._retained.pop(getattr(syscall.view, "item_id", None), None)
            if entry is None:
                raise SimulationError(
                    f"thread {self.task_name!r} released an item it does not hold"
                )
            channel, view = entry
            channel.release(view._item)
            return None
        if isinstance(syscall, PeriodicitySync):
            return self._do_sync()
        if isinstance(syscall, Now):
            return ex.clock.now()
        if isinstance(syscall, CheckDead):
            channel, _conn = self._conn(self.out_conns, syscall.channel)
            return channel.check_dead(int(syscall.ts))
        raise SimulationError(
            f"thread {self.task_name!r} yielded {syscall!r}; expected a syscall"
        )

    def _conn(self, table, channel_name):
        try:
            return table[channel_name]
        except KeyError:
            raise SimulationError(
                f"thread {self.task_name!r} has no connection to {channel_name!r}"
            ) from None

    def _do_compute(self, seconds: float) -> float:
        mode = self.executor.compute_mode
        t0 = self.executor.clock.now()
        if mode == "sleep" and seconds > 0:
            time.sleep(seconds)
        elif mode == "busy":
            deadline = time.monotonic() + seconds
            while time.monotonic() < deadline:
                pass
        actual = self.executor.clock.now() - t0
        self._iter_compute += actual
        self.total_compute += actual
        return actual

    def _do_sync(self):
        ex = self.executor
        slept = 0.0
        target, sleep_t = self.controller.plan_throttle()
        if sleep_t > 0:
            self.meter.sleep_started()
            time.sleep(sleep_t)
            self.meter.sleep_ended()
            slept = sleep_t
        stp = self.meter.sync()
        t_end = ex.clock.now()
        blocked = self.meter.total_blocked - self._prev_blocked
        self._prev_blocked = self.meter.total_blocked
        with ex.recorder_lock:
            ex.recorder.on_iteration(
                thread=self.task_name,
                t_start=self._iter_start,
                t_end=t_end,
                compute=self._iter_compute,
                blocked=blocked,
                slept=slept,
                inputs=tuple(self._iter_inputs),
                outputs=tuple(self._iter_outputs),
                is_sink=self.ctx.is_sink,
            )
            ex.recorder.on_stp(self.task_name, t_end, stp, self.my_summary(),
                               target, slept)
        self.iterations += 1
        self._release_held()
        self._iter_inputs = []
        self._iter_outputs = []
        self._iter_compute = 0.0
        self._iter_start = t_end
        return stp

    def _release_held(self) -> None:
        for channel, view in self._held:
            channel.release(view._item)
        self._held.clear()

    def _release_retained(self) -> None:
        for channel, view in self._retained.values():
            channel.release(view._item)
        self._retained.clear()


_STOPPED = object()


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
    """

    #: The node every channel and stat is attributed to (a distributed
    #: worker sets its plan node before construction).
    node_name = "local"

    def __init__(
        self,
        graph: TaskGraph,
        aru: Optional[AruConfig] = None,
        seed: int = 0,
        compute_mode: str = "sleep",
    ) -> None:
        if compute_mode not in _COMPUTE_MODES:
            raise ConfigError(
                f"compute_mode must be one of {_COMPUTE_MODES}, got {compute_mode!r}"
            )
        graph.validate()
        if graph.queues():
            raise ConfigError("ThreadedRuntime supports channels only")
        self.graph = graph
        self.aru_config = aru or aru_disabled()
        self.compute_mode = compute_mode
        self.clock = self._make_clock()
        self.recorder = TraceRecorder()
        self.recorder_lock = threading.Lock()
        self.stop_event = threading.Event()
        self.rngs = RngRegistry(seed=seed)
        self.feedback_bus = FeedbackBus(self.aru_config, time_fn=self.clock.now)

        self.channels: Dict[str, ThreadChannel] = {}
        for name in self._local_buffers():
            self.channels[name] = self._make_channel(name)

        self.drivers: Dict[str, _ThreadDriver] = {}
        for name in self._local_threads():
            self.drivers[name] = self._build_driver(name)
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
        feedback = self.feedback_bus.endpoint_for(
            name, self.graph.attrs(name).get("compress_op")
        )
        return ThreadChannel(
            name, self.recorder, self.clock, feedback, self.recorder_lock,
            node=self.node_name,
        )

    def _channel_for(self, name: str, thread: str, role: str):
        """The channel object a driver talks to for buffer ``name``.

        ``role`` is ``"consumer"`` or ``"producer"``; the distributed
        worker returns a TCP proxy here when the buffer lives on another
        node.
        """
        return self.channels[name]

    def _build_driver(self, name: str) -> _ThreadDriver:
        attrs = self.graph.attrs(name)
        cfg = self.aru_config
        meter = StpMeter(self.clock, stp_filter=resolve_factory(cfg.stp_filter)())
        is_source = self.graph.is_source(name)
        is_sink = self.graph.is_sink(name)
        controller = build_thread_controller(
            cfg,
            name,
            meter,
            self.clock.now,
            is_source,
            compress_op=attrs.get("compress_op"),
        )
        ctx = TaskContext(
            name=name,
            params=attrs.get("params", {}),
            rng=self.rngs.stream(f"task.{name}"),
            clock=self.clock,
            is_source=is_source,
            is_sink=is_sink,
        )
        driver = _ThreadDriver(self, name, attrs["fn"], ctx, controller)
        for buf in self.graph.inputs_of(name):
            channel = self._channel_for(buf, name, "consumer")
            driver.in_conns[buf] = (channel, channel.register_consumer(name))
        for buf in self.graph.outputs_of(name):
            channel = self._channel_for(buf, name, "producer")
            driver.out_conns[buf] = (channel, channel.register_producer(name))
        return driver

    # -- lifecycle ---------------------------------------------------------
    # run() = start(); sleep; stop(); join() — split out so the
    # distributed worker can drive the phases from its control protocol.
    def start(self) -> None:
        """Start every task thread (once)."""
        if self._ran:
            raise SimulationError("ThreadedRuntime.run() may only be called once")
        self._ran = True
        for driver in self.drivers.values():
            driver.start()

    def stop(self) -> None:
        """Ask every task thread to wind down."""
        self.stop_event.set()

    def join(self, timeout: float = 5.0) -> TraceRecorder:
        """Wait for task threads, re-raise the first task error,
        finalize and return the trace."""
        for driver in self.drivers.values():
            driver.join(timeout=timeout)
        errors = [d.error for d in self.drivers.values() if d.error is not None]
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
        return self.join()

    def stats(self) -> Dict[str, dict]:
        """Post-run statistics in the same shape the DES produces.

        Wall-clock analogue of :meth:`repro.runtime.Runtime.stats`:
        ``engine.now`` is elapsed wall time, the single node's
        ``busy_time`` is summed measured compute, and fields the live
        executor cannot observe (cpu grants, network bytes here) are
        zero rather than absent so downstream reports need no
        per-backend cases.
        """
        busy = sum(d.total_compute for d in self.drivers.values())
        return {
            "engine": {
                "now": self.clock.now(),
                "events_processed": sum(
                    d.iterations for d in self.drivers.values()
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
            "buffers": {
                name: {
                    "kind": buf.kind,
                    "depth": len(buf),
                    "bytes_held": buf.bytes_held,
                    "puts": buf.total_puts,
                    "gets": buf.total_gets,
                    "skips": buf.total_skips,
                    "frees": buf.total_frees,
                }
                for name, buf in self.channels.items()
            },
            "threads": {
                name: {
                    "iterations": driver.iterations,
                    "virtual_time": driver.total_compute,
                    "blocked": driver.meter.total_blocked,
                    "slept": driver.meter.total_slept,
                }
                for name, driver in self.drivers.items()
            },
        }


def run_threaded_experiment(spec) -> "object":
    """The registered runner behind ``backend="threads"``.

    Runs the spec's graph on :class:`ThreadedRuntime` for
    ``spec.horizon`` wall seconds and wraps the outcome in the same
    :class:`~repro.experiment.RunResult` shape the simulator returns.
    """
    from repro.experiment import RunResult
    from repro.obs import NULL_HUB

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
    if scale is not None and scale.enabled:
        # A disabled ScaleConfig (e.g. the registered "no-scale") is a
        # no-op and fine; only an *active* scaler needs the simulator.
        raise ConfigError(
            "the threads backend does not support elastic scaling; "
            "use backend='sim'"
        )
    if spec.telemetry not in (False, None):
        raise ConfigError(
            "the threads backend is not instrumented for telemetry; "
            "use backend='sim'"
        )
    graph = spec.resolve_graph()
    runtime = ThreadedRuntime(
        graph,
        aru=spec.resolve_policy(),
        seed=spec.seed,
        compute_mode=compute_mode,
    )
    trace = runtime.run(duration=spec.horizon)
    return RunResult(
        spec=spec,
        trace=trace,
        stats=runtime.stats(),
        telemetry=NULL_HUB,
        fault_log=None,
        runtime=runtime,
    )
