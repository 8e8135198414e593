"""Stampede-flavoured public API facade.

The paper describes ARU as additions to Stampede's C API: a
``periodicity_sync()`` call, summary-STP piggybacking on ``put/get``, and
an optional dependency-operator parameter on ``spd_chan_alloc()``. This
module mirrors that surface so application code reads like the paper:

>>> from repro.runtime.api import StampedeApp, get, put, compute, periodicity_sync
>>> app = StampedeApp("demo")
>>> def digitizer(ctx):
...     ts = 0
...     while True:
...         yield compute(0.01)
...         yield put("frames", ts=ts, size=1000)
...         ts += 1
...         yield periodicity_sync()
>>> def tracker(ctx):
...     while True:
...         frame = yield get("frames")
...         yield compute(0.05)
...         yield periodicity_sync()
>>> app.spd_thread_create("digitizer", digitizer)     # doctest: +ELLIPSIS
<...>
>>> app.spd_chan_alloc("frames", compress_op="min")   # doctest: +ELLIPSIS
<...>
>>> app.spd_thread_create("tracker", tracker, sink=True)  # doctest: +ELLIPSIS
<...>
>>> app.spd_attach_output("digitizer", "frames")      # doctest: +ELLIPSIS
<...>
>>> app.spd_attach_input("frames", "tracker")         # doctest: +ELLIPSIS
<...>
>>> trace = app.run_simulated(until=5.0)
>>> len(trace.sink_iterations()) > 0
True

The lowercase helpers (:func:`get`, :func:`put`, :func:`compute`,
:func:`sleep`, :func:`try_get`, :func:`now`, :func:`periodicity_sync`)
are constructors for the corresponding syscalls.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Union

from repro.aru.config import AruConfig, aru_disabled
from repro.cluster.spec import ClusterSpec
from repro.metrics.recorder import TraceRecorder
from repro.runtime.graph import TaskGraph
from repro.runtime.syscalls import (
    Compute,
    Get,
    Now,
    PeriodicitySync,
    Put,
    Sleep,
    TryGet,
)
from repro.vt.timestamp import LATEST


# -- syscall constructors (lowercase, paper-style) ---------------------------

def get(channel: str, request=LATEST) -> Get:
    """Blocking get (``spd_get``); defaults to get-LATEST."""
    return Get(channel, request)


def try_get(channel: str, request=LATEST) -> TryGet:
    """Non-blocking get; yields ``None`` when nothing matches."""
    return TryGet(channel, request)


def put(channel: str, ts: int, size: int, payload: Any = None) -> Put:
    """Put a timestamped item (``spd_put``)."""
    return Put(channel, ts=ts, size=size, payload=payload)


def compute(seconds: float) -> Compute:
    """Model ``seconds`` of CPU work."""
    return Compute(seconds)


def sleep(seconds: float) -> Sleep:
    """Application-paced delay (counts toward the STP)."""
    return Sleep(seconds)


def now() -> Now:
    """Read the current time."""
    return Now()


def periodicity_sync() -> PeriodicitySync:
    """End-of-iteration marker — the API call the paper adds to Stampede."""
    return PeriodicitySync()


# -- application builder ------------------------------------------------------

class StampedeApp:
    """Builder mirroring Stampede's allocation API.

    Wraps a :class:`~repro.runtime.graph.TaskGraph` and provides run
    entry points for both executors.
    """

    def __init__(self, name: str = "app") -> None:
        self.graph = TaskGraph(name)

    # -- allocation ------------------------------------------------------
    def spd_thread_create(
        self,
        name: str,
        fn: Callable,
        *,
        node: Optional[str] = None,
        sink: bool = False,
        params: Optional[Dict[str, Any]] = None,
        compress_op: Optional[object] = None,
    ) -> "StampedeApp":
        """Declare a task thread (cf. Stampede ``spd_thread_create``)."""
        self.graph.add_thread(
            name, fn, node=node, sink=sink, params=params, compress_op=compress_op
        )
        return self

    def spd_chan_alloc(
        self,
        name: str,
        *,
        node: Optional[str] = None,
        compress_op: Optional[object] = None,
        capacity: Optional[int] = None,
    ) -> "StampedeApp":
        """Allocate a channel. ``compress_op`` is the paper's added
        optional dependency-operator parameter."""
        self.graph.add_channel(
            name, node=node, compress_op=compress_op, capacity=capacity
        )
        return self

    def spd_queue_alloc(
        self,
        name: str,
        *,
        node: Optional[str] = None,
        compress_op: Optional[object] = None,
        capacity: Optional[int] = None,
    ) -> "StampedeApp":
        """Allocate a FIFO queue."""
        self.graph.add_queue(
            name, node=node, compress_op=compress_op, capacity=capacity
        )
        return self

    def spd_attach_output(self, thread: str, buffer: str) -> "StampedeApp":
        """Connect ``thread``'s output to ``buffer``."""
        self.graph.connect(thread, buffer)
        return self

    def spd_attach_input(self, buffer: str, thread: str) -> "StampedeApp":
        """Connect ``buffer`` as an input of ``thread``."""
        self.graph.connect(buffer, thread)
        return self

    # -- pythonic aliases --------------------------------------------------
    # Preferred spellings for new code (see docs/tutorial.md); the
    # ``spd_*`` names mirror the paper's Stampede C API and stay.
    create_thread = spd_thread_create
    alloc_channel = spd_chan_alloc
    alloc_queue = spd_queue_alloc
    attach_output = spd_attach_output
    attach_input = spd_attach_input

    # -- execution ---------------------------------------------------------
    def run_simulated(
        self,
        until: float,
        *,
        cluster: Optional[ClusterSpec] = None,
        aru: Optional[AruConfig] = None,
        gc: Union[str, None] = "dgc",
        seed: int = 0,
        placement: Optional[Dict[str, str]] = None,
        telemetry: Any = False,
    ) -> TraceRecorder:
        """Run on the DES executor; returns the finalized trace.

        Delegates to :func:`repro.run_experiment` (the unified front
        door); use that directly when you want the full
        :class:`~repro.experiment.RunResult` instead of just the trace.
        """
        from repro.experiment import ExperimentSpec, run_experiment

        spec = ExperimentSpec(
            app=self.graph,
            config=cluster,
            policy=aru or aru_disabled(),
            gc=gc,
            seed=seed,
            horizon=until,
            placement=placement or {},
            telemetry=telemetry,
        )
        return run_experiment(spec).trace
