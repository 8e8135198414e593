"""Sensors: turn runtime instruments into :class:`~repro.control.signals.Signals`.

The sensor is the measurement layer of the control plane. It owns *how*
a thread's observable state is sampled — today by wrapping the paper's
:class:`~repro.aru.stp.StpMeter` (§3.3.1) — and hands immutable
snapshots to the policy layer. Policies never touch the meter directly,
so a policy written against :class:`Signals` works unchanged on the DES
executor, the real-threads executor, or a hand-built test harness.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.aru.stp import StpMeter
from repro.control.signals import Signals


class Sensor:
    """Measurement interface of the control plane.

    ``read()`` returns one :class:`Signals` snapshot; implementations
    must be side-effect free (a read must never advance meter state —
    the thread driver owns block/sleep/sync bookkeeping). Not read for
    a policy that does not propagate: nothing depends on the answer.
    """

    def read(self) -> Signals:
        raise NotImplementedError

    @property
    def meter(self) -> StpMeter:
        """The underlying STP meter (drivers do their exclusion-window
        bookkeeping against it directly)."""
        raise NotImplementedError


class StpSensor(Sensor):
    """The paper's sensor: sustainable-thread-period metering only."""

    def __init__(self, meter: StpMeter, time_fn: Callable[[], float]) -> None:
        self._meter = meter
        self._time_fn = time_fn

    @property
    def meter(self) -> StpMeter:
        return self._meter

    def read(self) -> Signals:
        m = self._meter
        return Signals(
            now=self._time_fn(),
            current_stp=m.current_stp,
            raw_stp=m.raw_stp,
            iteration_elapsed=m.iteration_elapsed,
            iterations=m.iterations,
        )


class PipelineSensor(StpSensor):
    """STP metering plus input-queue depth and drop (skip) counts.

    ``in_conns`` is the driver's input table, ``{buffer_name: (buffer,
    connection)}``. Queue depth is total items buffered across inputs;
    drops are items this thread skipped over unread — the congestion
    signals a backpressure- or loss-aware policy wants in addition to
    periods.
    """

    def __init__(
        self,
        meter: StpMeter,
        time_fn: Callable[[], float],
        in_conns: Dict[str, Tuple[object, object]],
    ) -> None:
        super().__init__(meter, time_fn)
        self._in_conns = in_conns

    def read(self) -> Signals:
        base = super().read()
        depth = 0
        drops = 0
        for buffer, conn in self._in_conns.values():
            depth += len(buffer)
            drops += conn.skips
        return Signals(
            now=base.now,
            current_stp=base.current_stp,
            raw_stp=base.raw_stp,
            iteration_elapsed=base.iteration_elapsed,
            iterations=base.iterations,
            queue_depth=depth,
            drops=drops,
        )
