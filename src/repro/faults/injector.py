"""Fault execution and failure detection against a live Runtime.

:class:`FaultInjector` turns a :class:`~repro.faults.spec.FaultSchedule`
into engine processes: one walks the schedule applying faults through the
runtime's fault primitives (``kill_thread``, ``restart_thread``,
``crash_node``, link state); windowed faults spawn an expiry process that
clears them. :class:`FaultDetector` is the honest observer: it polls
thread liveness and progress and listens to transport-error and link
observations, emitting *symptoms* into the shared
:class:`~repro.metrics.faultlog.FaultEventLog` — it never reads the
schedule, so a fault counts as detected only when its effects are
actually visible.

Determinism: ``install()`` on an empty schedule registers nothing — no
processes, no hooks — so the run is bit-identical to a fault-free one.
With faults, all decisions derive from engine time and the runtime's
seeded RNG registry (``faults.drop.<link>`` streams), so equal seeds and
schedules reproduce equal traces in any worker layout.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, Optional

from repro.errors import FaultError
from repro.faults.spec import RECOVERY_KINDS, FaultSchedule, FaultSpec
from repro.metrics.faultlog import FaultEventLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.runtime import Runtime


class FaultDetector:
    """Polling failure detector plus symptom listeners.

    Detection channels:

    * **liveness poll** (every ``interval`` s): a thread transitioning
      alive->dead emits ``thread_dead``; dead->alive emits ``thread_back``.
      A node whose resident threads are all dead emits ``node_dead``
      (and ``node_back`` on recovery).
    * **stall detection**: a live thread that completed no iteration for
      ``stall_timeout`` seconds while *not* legitimately waiting
      (blocked on a peer or throttle-sleeping) emits ``thread_stalled``.
      ``stall_timeout`` must exceed the longest legitimate compute
      segment, or healthy threads get flagged.
    * **transport errors** (pushed by thread drivers): ``link_down`` /
      ``message_dropped`` with the failing link as target.
    * **link observations** (pushed by links): completed transfers whose
      duration exceeds ``degrade_ratio`` x nominal flip the link to
      *slow* (``link_slow``); returning under the ratio flips it back
      (``link_ok``). Block-mode partitions emit ``link_blocked`` when a
      transfer parks.
    """

    def __init__(self, runtime: "Runtime", log: FaultEventLog,
                 interval: float = 0.25, stall_timeout: float = 1.0,
                 degrade_ratio: float = 1.5) -> None:
        if interval <= 0:
            raise FaultError(f"detector interval must be positive: {interval}")
        if stall_timeout <= 0:
            raise FaultError(f"stall_timeout must be positive: {stall_timeout}")
        if degrade_ratio <= 1.0:
            raise FaultError(f"degrade_ratio must be > 1: {degrade_ratio}")
        self.runtime = runtime
        self.log = log
        self.interval = interval
        self.stall_timeout = stall_timeout
        self.degrade_ratio = degrade_ratio
        self._thread_alive: Dict[str, bool] = {
            name: True for name in runtime.drivers
        }
        #: thread -> (iterations at last progress, time of last progress)
        self._progress: Dict[str, tuple] = {}
        self._stalled_flagged: Dict[str, bool] = {}
        self._node_up: Dict[str, bool] = {name: True for name in runtime.nodes}
        self._link_state: Dict[str, str] = {}

    def _symptom(self, symptom: str, target: str, t: float,
                 source: Optional[str] = None) -> None:
        """Log one detected symptom and mirror it into telemetry."""
        if source is not None:
            self.log.on_symptom(symptom, target, t, source=source)
        else:
            self.log.on_symptom(symptom, target, t)
        obs = self.runtime.obs
        if obs.enabled:
            obs.on_fault("detected", symptom, target, t, source=source)

    # -- pushed symptoms ---------------------------------------------------
    def on_transport_error(self, symptom: str, target: str, source: str) -> None:
        """Runtime fault-hook: a thread hit LinkDown/MessageDropped."""
        t = self.runtime.engine.now
        if symptom == "link_down":
            self._link_state[target] = "down"
        self._symptom(symptom, target, t, source=source)

    def on_link_observation(self, symptom: str, link_name: str, **info) -> None:
        """Link observer: transfer outcomes and blocked partitions."""
        t = self.runtime.engine.now
        if symptom == "link_blocked":
            self._link_state[link_name] = "down"
            self._symptom("link_blocked", link_name, t)
            return
        if symptom != "transfer_ok":  # pragma: no cover - future symptoms
            self._symptom(symptom, link_name, t)
            return
        nominal = info.get("nominal", 0.0)
        duration = info.get("duration", 0.0)
        slow = nominal > 0 and duration > self.degrade_ratio * nominal
        previous = self._link_state.get(link_name, "ok")
        if slow and previous != "slow":
            self._link_state[link_name] = "slow"
            self._symptom("link_slow", link_name, t)
        elif not slow and previous != "ok":
            self._link_state[link_name] = "ok"
            self._symptom("link_ok", link_name, t)

    # -- liveness/stall poll ----------------------------------------------
    def poll(self) -> Generator:
        """DES process: periodic liveness and progress checks."""
        runtime = self.runtime
        while True:
            t = runtime.engine.now
            for name in list(runtime.drivers):
                alive = runtime.thread_alive(name)
                was_alive = self._thread_alive.get(name, True)
                if was_alive and not alive:
                    self._symptom("thread_dead", name, t)
                    self._progress.pop(name, None)
                    self._stalled_flagged.pop(name, None)
                elif alive and not was_alive:
                    self._symptom("thread_back", name, t)
                self._thread_alive[name] = alive
                if not alive:
                    continue
                driver = runtime.drivers[name]
                iterations = driver.meter.iterations
                last = self._progress.get(name)
                if last is None or last[0] != iterations:
                    self._progress[name] = (iterations, t)
                    self._stalled_flagged.pop(name, None)
                elif (t - last[1] > self.stall_timeout
                      and not driver.waiting
                      and not self._stalled_flagged.get(name)):
                    self._stalled_flagged[name] = True
                    self._symptom("thread_stalled", name, t)
            for node_name in self._node_up:
                residents = runtime.threads_on(node_name)
                if not residents:
                    continue
                down = all(not self._thread_alive[th] for th in residents)
                was_up = self._node_up[node_name]
                if was_up and down:
                    self._symptom("node_dead", node_name, t)
                elif not was_up and not down:
                    self._symptom("node_back", node_name, t)
                self._node_up[node_name] = not down
            yield runtime.engine.timeout(self.interval)


class FaultInjector:
    """Executes a fault schedule against a runtime, logging the lifecycle."""

    def __init__(self, runtime: "Runtime", schedule, log: Optional[FaultEventLog] = None,
                 detect_interval: float = 0.25, stall_timeout: float = 1.0,
                 degrade_ratio: float = 1.5) -> None:
        if not isinstance(schedule, FaultSchedule):
            schedule = FaultSchedule(schedule)
        self.runtime = runtime
        self.schedule = schedule
        self.log = log if log is not None else FaultEventLog()
        self.detector = FaultDetector(
            runtime, self.log, interval=detect_interval,
            stall_timeout=stall_timeout, degrade_ratio=degrade_ratio,
        )
        self._installed = False

    # ------------------------------------------------------------------
    def _validate_targets(self) -> None:
        runtime = self.runtime
        for spec in self.schedule:
            family = spec.kind.split("_")[0]
            if family == "thread" and spec.target not in runtime.drivers:
                raise FaultError(
                    f"fault {spec.kind!r} targets unknown thread "
                    f"{spec.target!r} (threads: {sorted(runtime.drivers)})"
                )
            if family == "node" and spec.target not in runtime.nodes:
                raise FaultError(
                    f"fault {spec.kind!r} targets unknown node "
                    f"{spec.target!r} (nodes: {sorted(runtime.nodes)})"
                )
            if family in ("link", "message"):
                src, dst = spec.link_endpoints
                if src == dst or src not in runtime.nodes or dst not in runtime.nodes:
                    raise FaultError(
                        f"fault {spec.kind!r} targets invalid link "
                        f"{spec.target!r} (nodes: {sorted(runtime.nodes)})"
                    )

    def install(self) -> "FaultInjector":
        """Register the injector and detector processes on the engine.

        No-op for an empty schedule — zero added events, keeping the run
        bit-identical to a fault-free one.
        """
        if self._installed:
            raise FaultError("FaultInjector.install() called twice")
        self._installed = True
        if self.schedule.is_empty:
            return self
        self._validate_targets()
        runtime = self.runtime
        runtime.fault_hook = self.detector.on_transport_error
        runtime.network.set_observer(self.detector.on_link_observation)
        runtime.engine.process(self._inject(), name="fault-injector")
        runtime.engine.process(self.detector.poll(), name="fault-detector")
        return self

    # ------------------------------------------------------------------
    def _inject(self) -> Generator:
        engine = self.runtime.engine
        for spec in self.schedule:
            delay = spec.at - engine.now
            if delay > 0:
                yield engine.timeout(delay)
            self._apply(spec)
        return None

    def _expire(self, spec: FaultSpec, undo) -> Generator:
        yield self.runtime.engine.timeout(spec.duration)
        undo()
        t = self.runtime.engine.now
        self.log.on_recovered(spec.target, t, kinds=(spec.kind,))
        obs = self.runtime.obs
        if obs.enabled:
            obs.on_fault("recovered", spec.kind, spec.target, t)

    def _window(self, spec: FaultSpec, undo) -> None:
        if spec.duration is not None:
            self.runtime.engine.process(
                self._expire(spec, undo),
                name=f"fault-expire.{spec.kind}.{spec.target}",
            )

    def _apply(self, spec: FaultSpec) -> None:
        runtime = self.runtime
        t = runtime.engine.now
        detail = ""
        if spec.duration is not None:
            detail = f"for {spec.duration:g}s"
        record = self.log.on_injected(spec.kind, spec.target, t, detail=detail)
        obs = runtime.obs
        if obs.enabled:
            obs.on_fault("injected", spec.kind, spec.target, t)
        kind = spec.kind
        if kind in RECOVERY_KINDS:
            # A recovery action is its own recovery; what remains open is
            # its *detection* (the detector must see the component back).
            record.t_recovered = t
        if kind == "thread_crash":
            runtime.kill_thread(spec.target, reason="fault: thread_crash")
        elif kind == "thread_stall":
            runtime.stall_thread(spec.target, spec.duration)
            self._window(spec, lambda: None)  # the stall clears itself
        elif kind == "thread_restart":
            runtime.restart_thread(spec.target)
            self.log.on_recovered(spec.target, t, kinds=RECOVERY_KINDS[kind])
        elif kind == "node_crash":
            runtime.crash_node(spec.target, reason="fault: node_crash")
        elif kind == "node_restart":
            runtime.restart_node(spec.target)
            self.log.on_recovered(spec.target, t, kinds=RECOVERY_KINDS[kind])
        elif kind == "link_degrade":
            link = self._link(spec)
            link.degrade(spec.factor)
            self._window(spec, link.clear_degrade)
        elif kind == "link_partition":
            link = self._link(spec)
            link.partition(mode=spec.mode)
            self._window(spec, link.clear_partition)
        elif kind == "link_restore":
            self._link(spec).restore()
            self.log.on_recovered(spec.target, t, kinds=RECOVERY_KINDS[kind])
        elif kind == "message_drop":
            link = self._link(spec)
            rng = runtime.rngs.stream(
                f"faults.drop.{spec.target}#{spec.seed}"
            )
            link.set_message_drop(spec.probability, rng)
            self._window(spec, link.clear_message_drop)
        else:  # pragma: no cover - FaultSpec validates kinds
            raise FaultError(f"unhandled fault kind {kind!r}")

    def _link(self, spec: FaultSpec):
        src, dst = spec.link_endpoints
        return self.runtime.network.link(src, dst)
