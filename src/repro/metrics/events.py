"""Trace record types for the measurement infrastructure.

The paper (§4): *"Each interaction of an item with the operating system
(e.g., allocation, deallocation, etc.) is recorded. Items that do not make
it to the end of the pipeline are marked to differentiate between wasted
and successful memory and computations. A postmortem analysis program uses
these statistics to derive the metrics of interest."*

We keep two structured record kinds instead of a flat event log:

* :class:`ItemTrace` — one per item: allocation, size, placement,
  lineage (the items consumed by the iteration that produced it), every
  get/skip touch, and the free time.
* :class:`IterationTrace` — one per completed thread-loop iteration:
  timing decomposition (compute / blocked / throttle-slept), consumed
  inputs and produced outputs.

These two are sufficient to derive every metric in the paper's evaluation
(memory footprint mean/σ, wasted memory %, wasted computation %, latency,
throughput, jitter, and the IGC bound).

These classes are value types, not storage: the recorder keeps the trace
as typed columns (:mod:`repro.metrics.recorder`) and builds a record when
a view is indexed or iterated, as a snapshot of its row at that moment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple


@dataclass(slots=True)
class Touch:
    """One consumer interaction with an item (a get or a skip)."""

    conn_id: int
    consumer: str
    t: float


@dataclass(slots=True)
class ItemTrace:
    """Lifetime record of one timestamped item."""

    item_id: int
    channel: str
    node: str
    ts: int
    size: int
    producer: str
    parents: Tuple[int, ...]
    t_alloc: float
    t_free: Optional[float] = None
    gets: List[Touch] = field(default_factory=list)
    skips: List[Touch] = field(default_factory=list)

    @property
    def freed(self) -> bool:
        return self.t_free is not None

    @property
    def ever_got(self) -> bool:
        return bool(self.gets)

    def last_get_time(self) -> Optional[float]:
        """Time of the final get, or None if never consumed."""
        if not self.gets:
            return None
        return max(touch.t for touch in self.gets)

    def lifetime(self, horizon: float) -> float:
        """Seconds the item occupied memory, up to ``horizon`` if unfreed."""
        end = self.t_free if self.t_free is not None else horizon
        return max(0.0, end - self.t_alloc)


@dataclass(slots=True)
class IterationTrace:
    """Timing + data-flow record of one thread-loop iteration."""

    thread: str
    index: int
    t_start: float
    t_end: float
    compute: float
    blocked: float
    slept: float
    inputs: Tuple[int, ...]
    outputs: Tuple[int, ...]
    is_sink: bool = False

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


@dataclass(slots=True)
class StpSample:
    """One feedback-loop sample: a thread's STP and summary at a sync point.

    Not needed for the paper's tables; recorded (cheaply) to let ablation
    benches and examples plot the control signal itself.
    """

    thread: str
    t: float
    current_stp: float
    summary: Optional[float]
    throttle_target: Optional[float]
    slept: float
