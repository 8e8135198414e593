"""Task syscalls: the instruction set of task bodies.

A task body is a generator that ``yield``\\ s these objects; one
interpreter, :class:`repro.runtime.thread.ThreadDriver`, reads them on
every backend — an executor supplies only how a wait is carried out
(engine events under simulated time, blocking calls on real threads).
That is what lets one task definition run on both, with the same errors
for the same misuse.

The ``yield`` expression evaluates to the syscall's result:

=====================  =====================================================
syscall                yields back
=====================  =====================================================
``Get(chan)``          :class:`~repro.runtime.item.ItemView` (blocks)
``TryGet(chan)``       ``ItemView`` or ``None`` (never blocks)
``Put(chan, ...)``     the new item's id
``Compute(seconds)``   actual busy seconds (after noise/contention)
``Sleep(seconds)``     ``None`` — app-paced delay, *included* in the STP
``PeriodicitySync()``  the iteration's current-STP (throttles sources)
``Now()``              current time (float seconds)
=====================  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Union

from repro.vt.timestamp import LATEST, Timestamp, _Sentinel


@dataclass(frozen=True)
class Get:
    """Blocking get from a channel/queue.

    ``request`` is :data:`~repro.vt.LATEST` (default — skip to the newest
    unseen item, the paper's interactive semantics),
    :data:`~repro.vt.EARLIEST` (oldest unseen), or an exact integer
    timestamp.

    ``timeout`` (seconds) bounds the wait: the get yields ``None`` if no
    matching item arrives in time — Stampede's timed-get variant, useful
    for stages that must stay responsive (a GUI redrawing even when a
    detector stalls).

    ``hold=True`` keeps the reference across iterations: the item is NOT
    auto-released at the next ``periodicity_sync()``; the task must
    release it explicitly with :class:`Release`. This is what §1's
    sliding-window consumers ("a gesture recognition module may need to
    analyze a sliding window over a video stream") use to pin a window
    of items while the rest of the pipeline skips ahead.
    """

    channel: str
    request: Union[_Sentinel, int, Timestamp] = LATEST
    timeout: Union[float, None] = None
    hold: bool = False


@dataclass(frozen=True)
class TryGet:
    """Non-blocking get: returns ``None`` when nothing matches."""

    channel: str
    request: Union[_Sentinel, int, Timestamp] = LATEST


@dataclass(frozen=True)
class Put:
    """Put a timestamped item.

    ``size`` drives memory accounting (bytes). The runtime records the
    items consumed since the last ``PeriodicitySync`` as the new item's
    lineage parents.
    """

    channel: str
    ts: Union[int, Timestamp]
    size: int
    payload: Any = None


@dataclass(frozen=True)
class Compute:
    """Model ``seconds`` of CPU work on the thread's node.

    Subject to OS-scheduling noise and SMP contention; occupies one CPU
    from the node's pool.
    """

    seconds: float


@dataclass(frozen=True)
class Sleep:
    """Application-paced delay (e.g. a camera's frame interval).

    Unlike blocking and throttle sleep, this time **counts toward the
    STP** — it is part of the thread's intrinsic production period.
    """

    seconds: float


@dataclass(frozen=True)
class PeriodicitySync:
    """End-of-iteration marker — the paper's ``periodicity_sync()`` API.

    Computes the thread's current-STP, records the iteration trace,
    releases the references taken by this iteration's gets, and — for
    source threads under ARU — sleeps to stretch the iteration to the
    propagated summary-STP target.
    """


@dataclass(frozen=True)
class Now:
    """Read the current time (simulated or wall, depending on executor)."""


@dataclass(frozen=True)
class Release:
    """Explicitly release an item obtained with ``Get(..., hold=True)``.

    ``view`` is the :class:`~repro.runtime.item.ItemView` the get yielded.
    Releasing twice, or releasing a view that was not held, is an error.
    """

    view: object


@dataclass(frozen=True)
class CheckDead:
    """Ask whether an item with timestamp ``ts`` put into ``channel`` now
    would be dead on arrival (every consumer's get cursor has passed it).

    This is the *upstream computation elimination* primitive of the dead-
    timestamp GC lineage [Harel et al., ICPP 2002] that the paper's §3.2
    discusses: a producer can skip computing an output that downstream
    could never consume. The paper notes such techniques "have shown
    limited success" because upstream threads run ahead of their
    consumers' cursors — the ablation bench quantifies exactly that.

    Yields back ``True`` when the would-be item is provably dead.
    """

    channel: str
    ts: Union[int, Timestamp]


Syscall = Union[
    Get, TryGet, Put, Compute, Sleep, PeriodicitySync, Now, CheckDead, Release
]
