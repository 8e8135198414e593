"""The thread driver: the one interpreter of task bodies, on every backend.

A task body is a generator of syscalls (:mod:`repro.runtime.syscalls`).
:class:`ThreadDriver` is the *interpreter*: dispatch, connection lookup,
reference bookkeeping and the whole iteration close are written here and
nowhere else. As written it waits on the simulated cluster — it runs as
one DES process and yields engine events for channels, CPU pools and
network links. A wall-clock shell
(:class:`repro.rt_threads.executor.WallDriver`) overrides only *how to
wait* — the sleep, ``_do_compute``, ``_do_get``, ``_do_try_get`` and
``_do_put`` — and inherits everything else; what it yields is a wait
that has already happened, so its thread resumes it at once. Either way
the driver does the bookkeeping the paper's mechanisms require —

* STP metering with blocking/throttle exclusion (§3.3.1);
* feedback piggybacking on every put/get and source throttling at
  ``periodicity_sync()`` (§3.3.2), both delegated to the thread's
  :class:`~repro.control.controller.ThreadController` — the driver
  transports values and realizes planned sleeps, the control plane
  decides;
* reference management (gets hold items until the end of the iteration);
* the per-iteration trace records driving the §4 metrics.
"""

from __future__ import annotations

from inspect import isgeneratorfunction
from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.aru.filters import resolve_factory
from repro.aru.stp import StpMeter
from repro.control.controller import ThreadController
from repro.control.factory import build_thread_controller
from repro.errors import LinkDown, MessageDropped, SimulationError
from repro.runtime.connection import InputConnection, OutputConnection
from repro.runtime.item import Item, ItemView
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

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.runtime import Runtime


class TaskContext:
    """Read-only environment handed to task bodies.

    Attributes
    ----------
    name / params / is_source / is_sink:
        Identity and per-task configuration from the graph.
    rng:
        A dedicated seeded random stream for this task's data-dependent
        behaviour (service-time draws, synthetic content).
    """

    def __init__(
        self,
        name: str,
        params: Dict[str, Any],
        rng: np.random.Generator,
        clock,
        is_source: bool,
        is_sink: bool,
    ) -> None:
        self.name = name
        self.params = params
        self.rng = rng
        self._clock = clock
        self.is_source = is_source
        self.is_sink = is_sink

    def now(self) -> float:
        """Current time (simulated seconds in the DES executor)."""
        return self._clock.now()


class ThreadDriver:
    """Runs one task body as a Stampede thread (simulated, as written)."""

    @classmethod
    def assemble(cls, runtime, name: str, node, scope,
                 buffer_for) -> "ThreadDriver":
        """Connect thread ``name`` to its buffers (``buffer_for(buffer
        name)`` is how this executor reaches one) and build its STP
        meter, control stack and task context for ``scope`` — the one
        assembly every executor uses. Connection keys and the RNG
        stream drop the scope's prefix: the names the task declared."""
        graph, clock = runtime.graph, runtime.clock
        attrs = graph.attrs(name)
        strip = len(scope.prefix)
        is_source, is_sink = graph.is_source(name), graph.is_sink(name)
        in_conns, out_conns = {}, {}
        for buf in graph.inputs_of(name):
            buffer = buffer_for(buf)
            in_conns[buf[strip:]] = (buffer, buffer.register_consumer(name))
        for buf in graph.outputs_of(name):
            buffer = buffer_for(buf)
            out_conns[buf[strip:]] = (buffer, buffer.register_producer(name))
        aru = scope.aru
        meter = StpMeter(clock, stp_filter=resolve_factory(aru.stp_filter)())
        controller = build_thread_controller(
            aru,
            name,
            meter,
            clock.now,
            is_source,
            compress_op=attrs.get("compress_op"),
        )
        ctx = TaskContext(
            name=name,
            params=attrs.get("params", {}),
            rng=scope.rngs.stream(f"task.{name[strip:]}"),
            clock=clock,
            is_source=is_source,
            is_sink=is_sink,
        )
        driver = cls(
            runtime=runtime,
            name=name,
            fn=attrs["fn"],
            node=node,
            in_conns=in_conns,
            out_conns=out_conns,
            ctx=ctx,
            controller=controller,
        )
        driver.scope = scope
        if is_sink and scope.name is not None and runtime.obs.enabled:
            driver._deliver_h = runtime.obs.tenant_handle(scope.name)
        return driver

    def __init__(
        self,
        runtime: "Runtime",
        name: str,
        fn,
        node,
        in_conns: Dict[str, Tuple[object, InputConnection]],
        out_conns: Dict[str, Tuple[object, OutputConnection]],
        ctx: TaskContext,
        controller: ThreadController,
    ) -> None:
        # NOTE: the deprecated ``headroom`` kwarg was removed; set
        # ``AruConfig.headroom`` (the actuator's single source of truth).
        self.runtime = runtime
        self.engine = runtime.engine
        self.now = runtime.clock.now  # the clock's own: one frame per read
        #: Wait ``d`` seconds — what Sleep, stall and the source throttle
        #: yield. Bound once: the simulated engine's timeout event here;
        #: a wall-clock runtime's engine sleeps and returns when ``d``
        #: has passed, so what is yielded has already happened.
        self._timeout = self.engine.timeout
        self.name = name
        self.fn = fn
        self.node = node
        self.in_conns = in_conns
        self.out_conns = out_conns
        self.ctx = ctx
        self.controller = controller
        self.meter = controller.meter
        # Fixed-slot telemetry handle for the per-iteration sync close,
        # resolved once per thread instead of eight registry lookups per
        # iteration (ISSUE 7). No-op when telemetry/metrics are off.
        self._sync_h = runtime.obs.sync_handle(name)
        #: Assigned by :meth:`assemble`: whom this thread is wired for, and
        #: (a tenant's sink thread, telemetry on) its delivery counter.
        self.scope = None
        self._deliver_h = None
        # per-iteration accumulators (``run`` stamps the first start)
        self._iter_start = 0.0
        self._iter_inputs: List[int] = []
        self._iter_outputs: List[int] = []
        self._iter_compute = 0.0
        self._held: List[Tuple[object, ItemView]] = []
        #: Items gotten with hold=True, keyed by item id; released only
        #: via an explicit Release syscall (or at task termination).
        self._retained: Dict[int, Tuple[object, ItemView]] = {}
        self._prev_blocked = 0.0
        self._next_src_ts = 0
        #: Completed iterations (mirrors the recorder, cheap to read).
        self.iterations = 0
        # fault-injection state
        self._stalled = False
        self._stall_until = 0.0
        #: Remote transfers retried after a transport error.
        self.transport_retries = 0
        #: Transport errors (LinkDown/MessageDropped) this thread hit.
        self.transport_errors = 0
        #: Set to the final transport error's message when exhausted
        #: retries killed this thread; None while healthy.
        self.transport_death = None

    # ------------------------------------------------------------------
    @property
    def virtual_time(self) -> int:
        """This thread's VT for transparent GC: one past the oldest input
        cursor, or (for sources) the next timestamp it will produce."""
        if self.in_conns:
            return min(conn.last_got for (_b, conn) in self.in_conns.values()) + 1
        return self._next_src_ts

    @property
    def waiting(self) -> bool:
        """Whether the thread is inside a legitimate wait (blocked on a
        peer stage or throttle-sleeping). Failure detectors use this to
        tell a stalled thread from one that is merely starved."""
        return self.meter._pause_kind is not None

    @property
    def aru(self):
        """The thread's backwardSTP state, when its policy keeps one
        (compatibility accessor; None for null/disabled stacks)."""
        return getattr(self.controller.policy, "state", None)

    # -- fault injection ---------------------------------------------------
    def stall(self, duration: float) -> None:
        """Freeze this thread for ``duration`` seconds (livelock fault).

        Takes effect at the thread's next syscall boundary. Unlike
        blocking or throttle sleep, stall time is *not* excluded from the
        STP — a hung thread looks slow to the ARU loop, which is the
        point of injecting it.
        """
        if duration <= 0:
            raise SimulationError(f"stall duration must be positive: {duration}")
        self._stalled = True
        self._stall_until = max(self._stall_until, self.now() + duration)

    def _stall_wait(self) -> Generator:
        while True:
            remaining = self._stall_until - self.now()
            if remaining <= 0:
                self._stalled = False
                return
            yield self._timeout(remaining)

    # -- main loop -----------------------------------------------------------
    def run(self) -> Generator:
        """Interpret syscalls until the task returns.

        The body of one DES process, or of one OS thread that resumes
        it after every yielded (already finished) wait. Closing or
        killing the generator at a yield unwinds through the ``finally``
        — which is how a wall-clock stop and a simulated kill both end a
        thread without leaving references behind.
        """
        # The first iteration starts when the thread starts *running* (a
        # distributed worker builds drivers seconds before it starts
        # them); on the simulator that is the construction instant.
        self._iter_start = self.now()
        gen = self.fn(self.ctx)
        if not hasattr(gen, "send"):
            raise SimulationError(
                f"task body of {self.name!r} must be a generator function"
            )
        table = self._dispatch
        to_send = None
        try:
            while True:
                try:
                    syscall = gen.send(to_send)
                except StopIteration:
                    break
                if self._stalled:
                    yield from self._stall_wait()
                try:
                    handler, waits = table[syscall.__class__]
                except KeyError:
                    raise SimulationError(
                        f"thread {self.name!r} yielded {syscall!r}; "
                        "expected a syscall") from None
                try:
                    if waits:
                        to_send = yield from handler(self, syscall)
                    else:
                        to_send = handler(self, syscall)
                except (LinkDown, MessageDropped) as exc:
                    # Transport retries exhausted (finite RetryPolicy): the
                    # thread dies cleanly — the simulation continues and
                    # the failure detector observes a thread_dead.
                    self.transport_death = str(exc)
                    gen.close()
                    break
        finally:
            # Runs on normal return, task error, and kill-injection alike:
            # release everything held so channel storage is not pinned.
            self._release_held()
            self._release_retained()

    # -- dispatch ----------------------------------------------------------
    #: Syscall class -> handler name. ``run`` delegates to a handler that
    #: waits (a generator function) and plainly calls one that does not.
    _SYSCALLS = {
        Compute: "_do_compute", Get: "_do_get", Put: "_do_put",
        PeriodicitySync: "_do_sync", TryGet: "_do_try_get",
        Sleep: "_do_sleep", Now: "_do_now", Release: "_do_release",
        CheckDead: "_do_check_dead",
    }

    @classmethod
    def _dispatch_table(cls) -> Dict[type, Tuple[Any, bool]]:
        """``syscall class -> (handler, waits)`` with a shell's overrides.
        Per class, not per driver: bound methods would tie each driver
        into a cycle; dispatch must stay cycle-free (DESIGN.md §5c)."""
        return {sc: (fn := getattr(cls, name), isgeneratorfunction(fn))
                for sc, name in cls._SYSCALLS.items()}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._dispatch = cls._dispatch_table()

    def _do_sleep(self, sc: Sleep) -> Generator:
        if sc.seconds > 0:
            yield self._timeout(sc.seconds)

    def _do_now(self, sc: Now) -> float:
        return self.now()

    def _do_release(self, sc: Release) -> None:
        view = sc.view
        entry = self._retained.pop(getattr(view, "item_id", None), None)
        if entry is None:
            raise SimulationError(
                f"thread {self.name!r} released {view!r}, which it does "
                "not hold (double release, or missing hold=True?)")
        buffer, held_view = entry
        buffer.release(held_view._item, self.now())

    def _do_check_dead(self, sc: CheckDead) -> bool:
        buffer, _conn = self._out_conn(sc.channel)
        return buffer.check_dead(int(sc.ts))

    def _remote_transfer(self, src: str, dst: str, nbytes: int) -> Generator:
        """Ship bytes over the network, retrying transport errors.

        Failed attempts (:class:`LinkDown`, :class:`MessageDropped`) are
        reported to the runtime's fault hook (failure detection), then
        retried after the :class:`~repro.runtime.retry.RetryPolicy`'s
        capped-exponential backoff. Backoff waits count as blocked time —
        like any wait on an unavailable peer, they are excluded from the
        STP. Re-raises once the policy is exhausted.
        """
        policy = self.runtime.config.retry
        attempt = 0
        while True:
            try:
                return (yield self.engine.process(
                    self.runtime.network.transfer(src, dst, nbytes)
                ))
            except (LinkDown, MessageDropped) as exc:
                attempt += 1
                self.transport_errors += 1
                hook = self.runtime.fault_hook
                if hook is not None:
                    symptom = ("message_dropped" if isinstance(exc, MessageDropped)
                               else "link_down")
                    hook(symptom, f"{src}->{dst}", self.name)
                if policy.exhausted(attempt):
                    raise
                self.transport_retries += 1
                delay = policy.backoff(attempt)
                if delay > 0:
                    self.meter.block_started()
                    yield self._timeout(delay)
                    self.meter.block_ended()

    def _do_compute(self, sc: Compute) -> Generator:
        actual = yield self.engine.process(self.node.compute(sc.seconds))
        self._iter_compute += actual
        return actual

    def _in_conn(self, channel: str):
        try:
            return self.in_conns[channel]
        except KeyError:
            raise SimulationError(
                f"thread {self.name!r} has no input connection to {channel!r}"
            ) from None

    def _out_conn(self, channel: str):
        try:
            return self.out_conns[channel]
        except KeyError:
            raise SimulationError(
                f"thread {self.name!r} has no output connection to {channel!r}"
            ) from None

    def _do_get(self, sc: Get) -> Generator:
        buffer, conn = self._in_conn(sc.channel)
        deadline = None
        if sc.timeout is not None:
            if sc.timeout < 0:
                raise SimulationError(f"negative get timeout: {sc.timeout}")
            deadline = self.now() + sc.timeout
        while True:
            ev = buffer.request_get(conn, sc.request)
            if not ev.triggered:
                self.meter.block_started()
                if deadline is None:
                    yield ev
                else:
                    remaining = deadline - self.now()
                    if remaining <= 0:
                        self.meter.block_ended()
                        buffer.cancel_get(ev)
                        return None
                    idx, _ = yield self.engine.any_of(
                        [ev, self.engine.timeout(remaining)]
                    )
                    if idx == 1 and not ev.triggered:
                        self.meter.block_ended()
                        buffer.cancel_get(ev)
                        return None
                self.meter.block_ended()
            else:
                yield ev
            # Queues are destructive: a sibling worker woken by the same
            # put may have popped the item before we resumed — re-check.
            if buffer.try_match(conn, sc.request):
                break
            if deadline is not None and self.now() >= deadline:
                return None
        return (yield from self._finish_get(buffer, conn, sc.request,
                                            hold=sc.hold))

    def _do_try_get(self, sc: TryGet) -> Generator:
        buffer, conn = self._in_conn(sc.channel)
        if not buffer.try_match(conn, sc.request):
            return None
        return (yield from self._finish_get(buffer, conn, sc.request))

    def _finish_get(self, buffer, conn, request, hold: bool = False) -> Generator:
        view = buffer.commit_get(
            conn, request, t=self.now(),
            consumer_summary=self.controller.outbound_summary(),
        )
        # Own the reference before any yield: commit_get took it, and a
        # kill landing mid-transfer must still find it in the held set
        # or the item stays pinned in the channel forever.
        self._own(buffer, view, hold)
        # Remote get: ship the item's bytes to the consumer's node. This is
        # production-path time, *included* in the STP.
        if buffer.node.name != self.node.name and view.size > 0:
            yield from self._remote_transfer(
                buffer.node.name, self.node.name, view.size
            )
        return view

    def _own(self, buffer, view: ItemView, hold: bool) -> ItemView:
        """Book the reference a committed get just took: released at the
        next sync, or — ``hold=True`` — only by an explicit ``Release``
        (or when the thread ends); either way an input of this iteration."""
        if hold:
            self._retained[view.item_id] = (buffer, view)
        else:
            self._held.append((buffer, view))
        self._iter_inputs.append(view.item_id)
        return view

    def _do_put(self, sc: Put) -> Generator:
        buffer, conn = self._out_conn(sc.channel)
        # Remote put: ship the bytes to the channel's node first.
        if buffer.node.name != self.node.name and sc.size > 0:
            yield from self._remote_transfer(
                self.node.name, buffer.node.name, sc.size
            )
        # Back-pressure (capacity extension): waiting for room is excluded
        # from the STP like any other wait on a peer stage.
        while not buffer.has_room():
            ev = buffer.wait_for_room()
            if not ev.triggered:
                self.meter.block_started()
                yield ev
                self.meter.block_ended()
            else:
                yield ev
        t = self.now()
        item = self._new_item(sc, t)
        self._put_done(conn, item, buffer.commit_put(conn, item, t=t))
        if not self.in_conns:
            self._next_src_ts = max(self._next_src_ts, item.ts + 1)
        return item.item_id

    def _new_item(self, sc: Put, t: float) -> Item:
        """The item a ``Put`` creates: its lineage parents are the items
        this iteration has consumed so far."""
        return Item(
            ts=int(sc.ts),
            size=sc.size,
            payload=sc.payload,
            producer=self.name,
            parents=tuple(self._iter_inputs),
            created_at=t,
        )

    def _put_done(self, conn, item: Item, feedback: Optional[float]) -> None:
        """The piggy-back: a committed put hands back the channel's
        summary-STP for the control stack, and is an output of this
        iteration."""
        self.controller.on_feedback(conn.conn_id, feedback)
        self._iter_outputs.append(item.item_id)

    def _do_sync(self, sc: PeriodicitySync) -> Generator:
        # 1. Source throttling (the actuation) — the policy turns the
        #    propagated feedback into a target period, the actuator into
        #    a sleep that stretches the iteration to it.
        slept = 0.0
        target, sleep_t = self.controller.plan_throttle()
        if sleep_t > 0:
            self.meter.sleep_started()
            yield self._timeout(sleep_t)
            self.meter.sleep_ended()
            slept = sleep_t
        # 2. Close the iteration: current-STP per fig. 2.
        stp = self.meter.sync()
        t_end = self.now()
        blocked = self.meter.total_blocked - self._prev_blocked
        self._prev_blocked = self.meter.total_blocked
        self._publish(t_end, blocked, slept, stp, target)
        # 3. Release this iteration's item references.
        self._release_held()
        self._iter_inputs = []
        self._iter_outputs = []
        self._iter_compute = 0.0
        self._iter_start = t_end
        self.iterations += 1
        return stp

    def _publish(self, t_end: float, blocked: float, slept: float,
                 stp, target) -> None:
        """Hand the closed iteration to the recorder and the telemetry
        hub. Its own method so that a shell whose threads are real can
        run exactly this — and not the releases after it — under the
        recorder lock its channels share."""
        summary = self.controller.outbound_summary()
        recorder = self.runtime.recorder
        recorder.on_iteration(
            thread=self.name,
            t_start=self._iter_start,
            t_end=t_end,
            compute=self._iter_compute,
            blocked=blocked,
            slept=slept,
            inputs=tuple(self._iter_inputs),
            outputs=tuple(self._iter_outputs),
            is_sink=self.ctx.is_sink,
        )
        recorder.on_stp(
            thread=self.name,
            t=t_end,
            current_stp=stp,
            summary=summary,
            throttle_target=target,
            slept=slept,
        )
        obs = self.runtime.obs
        if obs.enabled:
            self._sync_h.update(
                self._iter_start, t_end, self._iter_compute, blocked,
                slept, stp, summary, target,
            )
            if self._deliver_h is not None:
                self._deliver_h.inc()
            if obs.spans_on:
                obs.span_sync(
                    self.name, self._iter_start, t_end, self._iter_compute,
                    blocked, slept, stp, summary,
                )

    def _release_held(self) -> None:
        t = self.now()
        for buffer, view in self._held:
            buffer.release(view._item, t)
        self._held.clear()

    def _release_retained(self) -> None:
        """Drop every held reference (task termination cleanup)."""
        t = self.now()
        for buffer, view in self._retained.values():
            buffer.release(view._item, t)
        self._retained.clear()


ThreadDriver._dispatch = ThreadDriver._dispatch_table()
