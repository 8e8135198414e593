"""Generator-based simulated processes.

A *process* is a Python generator that ``yield``\\ s :class:`Event` objects;
the engine resumes the generator with the event's value once it fires.
Yielding another :class:`Process` waits for that process to finish (its
return value becomes the value of the ``yield`` expression).

A process is itself an :class:`Event` which succeeds with the generator's
return value, so processes compose: parents can wait on children.

Hot-path note: resuming a generator is the single most frequent kernel
operation (once per event with a waiter), so the resume paths call
``gen.send``/``gen.throw`` directly — no per-step closures, no relay
:class:`Event` allocation. Yields of already-fired events stay
asynchronous through the engine's slim ``_Resume`` calendar entries,
which preserve the pre-existing dispatch order exactly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.errors import ProcessKilled, SimulationError
from repro.sim.events import _PENDING, Event, _Resume

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine


class Process(Event):
    """Handle for a running simulated process.

    Parameters
    ----------
    engine:
        Owning engine.
    gen:
        The generator to drive. It is started at the next engine step
        (via an immediately-scheduled resume entry), never synchronously,
        so creation order does not leak into event order.
    name:
        Optional human-readable label used in error messages.
    """

    __slots__ = ("gen", "name", "_waiting_on", "_killed")

    def __init__(self, engine: "Engine", gen: Generator, name: str = "") -> None:
        if not hasattr(gen, "send"):
            raise TypeError(f"process body must be a generator, got {type(gen)!r}")
        # Inlined Event.__init__: processes are spawned per compute/transfer
        # in the runtime, so construction is itself a hot path.
        self.engine = engine
        self.callbacks = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self.defused = False
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._killed = False
        self._waiting_on = engine._schedule_resume(self, True, None)

    # ------------------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def kill(self, reason: str = "killed") -> None:
        """Forcibly terminate the process.

        The generator receives a :class:`ProcessKilled` exception at its
        current yield point at the next engine step. Killing an already
        finished process is a no-op.
        """
        if self.triggered or self._killed:
            return
        self._killed = True
        waiting = self._waiting_on
        if type(waiting) is _Resume:
            # A resume already in flight (its start, or an already-fired
            # yield) would run the generator to its next syscall before
            # the kill lands, on connections a restart has just taken.
            waiting.cancelled = True
        tick = Event(self.engine)
        tick.callbacks.append(self._deliver_kill)
        tick.succeed(reason)

    def _deliver_kill(self, tick: Event) -> None:
        if self.triggered:
            return
        waiting = self._waiting_on
        if waiting is not None:
            # Detach from whatever we were waiting on.
            if type(waiting) is _Resume:
                waiting.cancelled = True
            elif waiting.callbacks is not None:
                try:
                    waiting.callbacks.remove(self)
                except ValueError:  # pragma: no cover
                    pass
        self._waiting_on = None
        self._throw(ProcessKilled(tick.value))

    # ------------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Callback: advance the generator with the fired event's outcome."""
        if self._value is not _PENDING:  # killed while the event was in flight
            return
        self._waiting_on = None
        if event._ok:
            self._send(event._value)
        else:
            event.defused = True
            self._throw(event._value)

    #: Processes register *themselves* in event callback lists (saves a
    #: bound-method allocation per wait); generic ``cb(event)`` dispatch
    #: then lands here.
    __call__ = _resume

    def _resume_direct(self, ok: bool, value: Any) -> None:
        """Advance the generator from a slim ``_Resume`` calendar entry."""
        if self._value is not _PENDING:  # killed while the resume was in flight
            return
        self._waiting_on = None
        if ok:
            self._send(value)
        else:
            self._throw(value)

    def _send(self, value: Any) -> None:
        try:
            target = self.gen.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except ProcessKilled as exc:
            # A killed process that lets the exception propagate terminates
            # "successfully dead": nobody should see this as a model error.
            # It is stored without its traceback, which would otherwise
            # close a reference cycle (this process -> exception ->
            # traceback -> this very frame's ``self``) that also pins the
            # dead generator's frames and everything their locals reach.
            self.defused = True
            self.fail(exc.with_traceback(None))
            return
        except BaseException as exc:
            self.fail(exc)
            return
        self._wait_on(target)

    def _throw(self, exc: BaseException) -> None:
        try:
            target = self.gen.throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except ProcessKilled as killed:
            self.defused = True
            self.fail(killed.with_traceback(None))
            return
        except BaseException as err:
            self.fail(err)
            return
        self._wait_on(target)

    def _wait_on(self, target) -> None:
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must "
                "yield Event instances"
            )
        callbacks = target.callbacks
        if callbacks is None:
            # Already fired: resume via a fresh calendar entry to stay async.
            if target._ok:
                self._waiting_on = self.engine._schedule_resume(
                    self, True, target._value
                )
            else:
                target.defused = True
                self._waiting_on = self.engine._schedule_resume(
                    self, False, target._value
                )
        else:
            callbacks.append(self)
            self._waiting_on = target

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.triggered else "alive"
        return f"<Process {self.name!r} {state}>"
