"""Outside-in per-layer tracing for the e2e benchmark.

Nothing under ``src/`` is edited: every span is recorded from here, by
class-level wrappers around the calls *into* each layer's public
functions. A layer is named after its package under ``src/repro/``.

* :class:`Patches` swaps class/module attributes and puts them back.
* :class:`RunStamps` is the two-wall-clock-stamp hook on ``Runtime.run``
  (and ``ThreadedRuntime.start``) that splits set-up / run / analysis.
  It is one call per run and stays on in untraced runs.
* :class:`Tracer` keeps a thread-local span stack of
  ``(name, start_ns, end_ns, parent)``, aggregates online per
  parent->child edge into count / inclusive ns / self ns (self =
  inclusive - child spans), and keeps the first ``keep`` raw spans.
* :func:`install_spans` applies the wrappers listed in
  :data:`SPAN_POINTS`; ``Patches.restore`` removes every one of them.
* :func:`drive_dist` / :func:`drive_thread_channel` measure ``dist`` and
  ``rt_threads`` by driving their public classes directly in this
  process (in-worker tracing of ``proc`` is a later issue).
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from statistics import median
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Raw spans kept per workload (the aggregate covers every span).
KEEP_SPANS = 2000

#: (module, class or None for a module function, attribute names, layer).
#: Wrapped at class level, so subclasses that inherit a method (e.g.
#: ``TenantRuntime`` -> ``Runtime``) are covered by one entry.
SPAN_POINTS: Tuple[Tuple[str, Optional[str], Tuple[str, ...], str], ...] = (
    ("repro.sim.engine", "Engine", ("run",), "sim"),
    ("repro.runtime.channel", "Channel",
     ("commit_put", "commit_get", "release", "maybe_collect"),
     "runtime.channel"),
    ("repro.runtime.squeue", "SQueue",
     ("commit_put", "commit_get", "release", "maybe_collect"),
     "runtime.channel"),
    ("repro.gc.dgc", "DeadTimestampGC", ("dead_items",), "gc"),
    ("repro.control.controller", "ThreadController",
     ("outbound_summary", "on_feedback", "plan_throttle"), "control"),
    ("repro.control.sensor", "StpSensor", ("read",), "control"),
    ("repro.control.propagation", "FeedbackEndpoint",
     ("receive", "advertise"), "control"),
    ("repro.metrics.recorder", "TraceRecorder",
     ("on_alloc", "on_get", "on_skip", "on_free", "on_iteration", "on_stp"),
     "metrics.recorder"),
    ("repro.bench.experiments", None, ("metrics_from_trace",),
     "metrics.postmortem"),
    ("repro.metrics.performance", None, ("latency_samples_by_thread",),
     "metrics.postmortem"),
    ("repro.cluster.network", "Network", ("transfer",), "cluster"),
    ("repro.runtime.graph", "TaskGraph", ("validate",), "runtime.graph"),
    ("repro.tenancy.scheduler", "Scheduler", ("admit", "try_place"),
     "tenancy.placement"),
    ("repro.tenancy.runtime", "TenantRuntime",
     ("arrive", "depart_tenant", "revoke_tenant", "migrate_tenant",
      "retry_queued"), "tenancy.lifecycle"),
    ("repro.tenancy.arbiter", "ArbiterController", ("step",),
     "tenancy.arbiter"),
    ("repro.rt_threads.channel", "ThreadChannel", ("put", "get"),
     "rt_threads.channel"),
)

#: The generator returned by ``ThreadDriver.run`` is wrapped in a
#: :class:`ResumeProxy` under this layer name.
THREAD_LAYER = "runtime.thread"
#: ``DeadTimestampGC.dead_items`` also counts the items it returns.
GC_LAYER = "gc"


class Patches:
    """Attribute swaps on classes and modules, undone by :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()


class RunStamps:
    """Wall-clock stamps around every simulated or threaded run.

    ``runs`` holds one dict per ``Runtime.run`` call: ``enter``/``exit``
    (``time.perf_counter``), the engine's ``events`` and, read off the
    finished runtime's public counters, ``puts``/``skips``/``net_bytes``.
    ``threads_started`` is the ``perf_counter`` at which
    ``ThreadedRuntime.start`` returned (None for simulated workloads).
    """

    def __init__(self) -> None:
        self.runs: List[Dict[str, float]] = []
        self.threads_started: Optional[float] = None

    def install(self, patches: Patches) -> None:
        from repro.rt_threads.executor import ThreadedRuntime
        from repro.runtime.runtime import Runtime

        now = time.perf_counter
        runs = self.runs
        sim_run = vars(Runtime)["run"]
        start_threads = vars(ThreadedRuntime)["start"]

        def run(runtime, until):
            enter = now()
            try:
                return sim_run(runtime, until)
            finally:
                exit_ = now()
                buffers = runtime.buffers.values()
                runs.append({
                    "enter": enter,
                    "exit": exit_,
                    "events": runtime.engine.events_processed,
                    "puts": sum(b.total_puts for b in buffers),
                    "skips": sum(getattr(b, "total_skips", 0)
                                 for b in buffers),
                    "net_bytes": runtime.network.total_bytes,
                })

        def start(runtime):
            start_threads(runtime)
            self.threads_started = now()

        patches.set(Runtime, "run", run)
        patches.set(ThreadedRuntime, "start", start)


class _ThreadState:
    """One thread's span stack and aggregates (merged at the end)."""

    __slots__ = ("stack", "edges", "in_run", "items")

    def __init__(self) -> None:
        #: Open spans, innermost last: [layer, start_ns, child_ns, span_id].
        self.stack: List[list] = []
        #: (parent layer or "", layer) -> [count, inclusive_ns, self_ns].
        self.edges: Dict[Tuple[str, str], List[int]] = {}
        #: layer -> self ns spent below an ``Engine.run`` span.
        self.in_run: Dict[str, int] = {}
        #: layer -> items returned by counted calls (``gc`` only).
        self.items: Dict[str, int] = {}


class Tracer:
    """Span stack + online per-edge aggregation; see the module docstring."""

    def __init__(self, keep: int = KEEP_SPANS) -> None:
        self.keep = keep
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._ids = itertools.count()
        #: (span_id, layer, start_ns, end_ns, parent span_id or -1)
        self.raw: List[Tuple[int, str, int, int, int]] = []

    # -- the span stack ---------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def push(self, layer: str) -> list:
        state = self._state()
        span_id = next(self._ids)
        frame = [layer, 0, 0, span_id]
        state.stack.append(frame)
        frame[1] = time.perf_counter_ns()
        return frame

    def pop(self, frame: list) -> None:
        end = time.perf_counter_ns()
        state = self._local.state
        stack = state.stack
        stack.pop()
        layer, start, child_ns, span_id = frame
        inclusive = end - start
        own = inclusive - child_ns
        if stack:
            parent = stack[-1]
            parent[2] += inclusive
            key = (parent[0], layer)
            parent_id = parent[3]
            if stack[0][0] == "sim":
                state.in_run[layer] = state.in_run.get(layer, 0) + own
        else:
            key = ("", layer)
            parent_id = -1
            if layer == "sim":
                state.in_run[layer] = state.in_run.get(layer, 0) + own
        edge = state.edges.get(key)
        if edge is None:
            state.edges[key] = [1, inclusive, own]
        else:
            edge[0] += 1
            edge[1] += inclusive
            edge[2] += own
        if span_id < self.keep:
            self.raw.append((span_id, layer, start, end, parent_id))

    def wrap(self, fn: Callable, layer: str,
             count_items: bool = False) -> Callable:
        """``fn`` with a span of ``layer`` around every call."""
        push, pop = self.push, self.pop

        if count_items:
            def counted(*args, **kwargs):
                frame = push(layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    pop(frame)
                items = self._local.state.items
                items[layer] = items.get(layer, 0) + len(result)
                return result
            counted.__wrapped__ = fn
            return counted

        def traced(*args, **kwargs):
            frame = push(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                pop(frame)
        traced.__wrapped__ = fn
        return traced

    # -- results ------------------------------------------------------------
    def edges(self) -> Dict[Tuple[str, str], List[int]]:
        merged: Dict[Tuple[str, str], List[int]] = {}
        for state in self._states:
            for key, (count, inclusive, own) in state.edges.items():
                edge = merged.setdefault(key, [0, 0, 0])
                edge[0] += count
                edge[1] += inclusive
                edge[2] += own
        return merged

    def layers(self) -> Dict[str, Dict[str, int]]:
        """layer -> calls / inclusive_ns / self_ns / self_in_run_ns / items."""
        out: Dict[str, Dict[str, int]] = {}

        def row(layer: str) -> Dict[str, int]:
            return out.setdefault(layer, {
                "calls": 0, "inclusive_ns": 0, "self_ns": 0,
                "self_in_run_ns": 0, "items": 0,
            })

        for (parent, layer), (count, inclusive, own) in self.edges().items():
            entry = row(layer)
            entry["calls"] += count
            entry["self_ns"] += own
            if parent != layer:
                # A span nested in its own layer is already inside the
                # outer span's inclusive time.
                entry["inclusive_ns"] += inclusive
        for state in self._states:
            for layer, own in state.in_run.items():
                row(layer)["self_in_run_ns"] += own
            for layer, n in state.items.items():
                row(layer)["items"] += n
        return out

    def to_json(self) -> Dict[str, Any]:
        return {
            "layers": self.layers(),
            "edges": [
                {"parent": parent, "child": child, "count": count,
                 "inclusive_ns": inclusive, "self_ns": own}
                for (parent, child), (count, inclusive, own)
                in sorted(self.edges().items())
            ],
            "spans": [
                {"id": span_id, "name": layer, "start_ns": start,
                 "end_ns": end, "parent": parent}
                for span_id, layer, start, end, parent in sorted(self.raw)
            ],
            "spans_total": sum(e[0] for e in self.edges().values()),
        }


class ResumeProxy:
    """Stands in for a process generator; times every resume.

    The engine drives process bodies through ``gen.send`` / ``gen.throw``
    (and ``close`` on teardown); each is forwarded unchanged, so a
    ``Process.kill`` still lands at the generator's current yield.
    """

    __slots__ = ("_gen", "_tracer", "_layer")

    def __init__(self, gen, tracer: Tracer, layer: str) -> None:
        self._gen = gen
        self._tracer = tracer
        self._layer = layer

    def send(self, value):
        tracer = self._tracer
        frame = tracer.push(self._layer)
        try:
            return self._gen.send(value)
        finally:
            tracer.pop(frame)

    def throw(self, *exc_info):
        tracer = self._tracer
        frame = tracer.push(self._layer)
        try:
            return self._gen.throw(*exc_info)
        finally:
            tracer.pop(frame)

    def close(self):
        tracer = self._tracer
        frame = tracer.push(self._layer)
        try:
            return self._gen.close()
        finally:
            tracer.pop(frame)

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)


def install_spans(tracer: Tracer, patches: Patches) -> None:
    """Wrap every :data:`SPAN_POINTS` entry and ``ThreadDriver.run``."""
    for module_name, class_name, names, layer in SPAN_POINTS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        for name in names:
            patches.set(owner, name, tracer.wrap(
                vars(owner)[name], layer, count_items=(layer == GC_LAYER)))

    from repro.runtime.thread import ThreadDriver

    driver_run = vars(ThreadDriver)["run"]

    def run(driver):
        return ResumeProxy(driver_run(driver), tracer, THREAD_LAYER)

    run.__wrapped__ = driver_run
    patches.set(ThreadDriver, "run", run)


# -- direct drive: dist and rt_threads measured through their public API --

#: Round trips per direct-drive measurement.
DRIVE_ROUNDS = 2000
#: Declared size of the items the drive loops move (the tracker's
#: largest channel item; payloads are None, as in the live workloads).
DRIVE_ITEM_SIZE = 230_400


def _p50_us(samples_ns: List[int]) -> float:
    return median(samples_ns) / 1e3


def drive_thread_channel(rounds: int = DRIVE_ROUNDS) -> Dict[str, float]:
    """Single-thread put -> get -> release on one ``ThreadChannel``."""
    from repro.metrics.recorder import TraceRecorder
    from repro.rt_threads.channel import ThreadChannel
    from repro.runtime.item import Item
    from repro.vt.clock import WallClock

    clock = WallClock()
    channel = ThreadChannel("drive", TraceRecorder(), clock)
    producer = channel.register_producer("p")
    consumer = channel.register_consumer("c")
    now = time.perf_counter_ns
    puts, gets, cycles = [], [], []
    for ts in range(rounds):
        item = Item(ts=ts, size=DRIVE_ITEM_SIZE, payload=None, producer="p",
                    parents=(), created_at=clock.now())
        t0 = now()
        channel.put(producer, item)
        t1 = now()
        view = channel.get(consumer)
        t2 = now()
        channel.release(view._item)
        t3 = now()
        puts.append(t1 - t0)
        gets.append(t2 - t1)
        cycles.append(t3 - t0)
    if channel.total_gets != rounds or channel.total_skips:
        raise RuntimeError("thread-channel drive lost or skipped items")
    return {
        "rt_threads.channel.put_us": _p50_us(puts),
        "rt_threads.channel.get_us": _p50_us(gets),
        "rt_threads.channel.put_get_us": _p50_us(cycles),
    }


def drive_dist(rounds: int = DRIVE_ROUNDS) -> Dict[str, float]:
    """One ``ChannelServer`` + ``RemoteChannelClient`` pair on loopback."""
    import pickle

    from repro.dist.channels import (
        ChannelServer,
        RemoteChannelClient,
        item_to_wire,
    )
    from repro.dist.framing import FrameDecoder, FrameKind, encode_frame
    from repro.metrics.recorder import TraceRecorder
    from repro.rt_threads.channel import ThreadChannel
    from repro.runtime.item import Item
    from repro.vt.clock import WallClock

    clock = WallClock()
    channel = ThreadChannel("drive", TraceRecorder(), clock)
    stop = threading.Event()
    server = ChannelServer({"drive": channel}, stop)
    server.start()
    address = (server.host, server.port)
    producer = RemoteChannelClient("drive", address, stop=stop)
    consumer = RemoteChannelClient("drive", address, stop=stop)
    now = time.perf_counter_ns
    puts, gets = [], []
    try:
        pconn = producer.register_producer("p")
        cconn = consumer.register_consumer("c")
        for ts in range(rounds):
            item = Item(ts=ts, size=DRIVE_ITEM_SIZE, payload=None,
                        producer="p", parents=(), created_at=clock.now())
            t0 = now()
            producer.put(pconn, item)
            t1 = now()
            view = consumer.get(cconn)
            consumer.release(view._item)
            t2 = now()
            puts.append(t1 - t0)
            gets.append(t2 - t1)
    finally:
        stop.set()
        producer.close()
        consumer.close()
        server.close()
    if channel.total_gets != rounds or channel.total_skips:
        raise RuntimeError("dist drive lost or skipped items")

    reply = pickle.dumps({"item": item_to_wire(item)},
                         protocol=pickle.HIGHEST_PROTOCOL)
    codec = []
    for _ in range(rounds):
        decoder = FrameDecoder()
        t0 = now()
        frames = decoder.feed(encode_frame(FrameKind.GET_REPLY, reply))
        codec.append(now() - t0)
    if len(frames) != 1 or frames[0].payload != reply:
        raise RuntimeError("frame codec round trip changed the payload")
    return {
        "dist.put_rtt_us": _p50_us(puts),
        "dist.get_rtt_us": _p50_us(gets),
        "dist.bytes_per_put":
            (producer.bytes_sent + producer.bytes_received) / rounds,
        "dist.bytes_per_get":
            (consumer.bytes_sent + consumer.bytes_received) / rounds,
        "dist.frame_codec_us": _p50_us(codec),
    }


# -- the per-layer metrics of BENCHMARK.json ----------------------------------

#: (name, unit, better). Every name is emitted for every workload; a
#: layer a workload does not enter reads 0. The last six are the
#: end-to-end numbers BENCHMARK.json cannot bound (see README.md, "What
#: BENCHMARK.json carries"), taken from the untraced repetition of a
#: ``--traced`` run.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("sim.events", "count", "lower"),
    ("sim.self_us_per_event", "us", "lower"),
    ("runtime.thread.resumes", "count", "lower"),
    ("runtime.thread.self_us_per_event", "us", "lower"),
    ("runtime.channel.calls", "count", "lower"),
    ("runtime.channel.self_us_per_event", "us", "lower"),
    ("runtime.channel.skip_ratio", "ratio", "lower"),
    ("gc.calls", "count", "lower"),
    ("gc.self_us_per_event", "us", "lower"),
    ("gc.freed_per_call", "count", "higher"),
    ("control.calls", "count", "lower"),
    ("control.self_us_per_event", "us", "lower"),
    ("metrics.recorder.calls", "count", "lower"),
    ("metrics.recorder.self_us_per_event", "us", "lower"),
    ("metrics.postmortem.self_s", "s", "lower"),
    ("cluster.transfers", "count", "lower"),
    ("cluster.bytes", "B", "lower"),
    ("runtime.graph.validate_s", "s", "lower"),
    ("tenancy.placement.calls", "count", "lower"),
    ("tenancy.placement.self_s", "s", "lower"),
    ("tenancy.lifecycle.calls", "count", "lower"),
    ("tenancy.lifecycle.self_s", "s", "lower"),
    ("tenancy.arbiter.ticks", "count", "lower"),
    ("tenancy.arbiter.self_s", "s", "lower"),
    ("dist.launch_s", "s", "lower"),
    ("dist.collect_s", "s", "lower"),
    ("dist.bytes_per_frame", "B", "lower"),
    ("dist.put_rtt_us", "us", "lower"),
    ("dist.get_rtt_us", "us", "lower"),
    ("dist.bytes_per_put", "B", "lower"),
    ("dist.bytes_per_get", "B", "lower"),
    ("dist.frame_codec_us", "us", "lower"),
    ("rt_threads.channel.calls", "count", "lower"),
    ("rt_threads.channel.put_us", "us", "lower"),
    ("rt_threads.channel.get_us", "us", "lower"),
    ("rt_threads.channel.put_get_us", "us", "lower"),
    ("rt_threads.skip_ratio", "ratio", "lower"),
    ("live.latency_p95_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("analysis_s", "s", "lower"),
    ("teardown_s", "s", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("delivered_fps", "1/s", "higher"),
)


def per_layer_metrics(untraced: Dict[str, Any],
                      traced: Dict[str, Any]) -> Dict[str, float]:
    """Every :data:`PER_LAYER` value from one untraced + one traced result."""
    out = {name: 0.0 for name, _unit, _better in PER_LAYER}
    layers = traced["trace"]["layers"]
    diag, plain = traced["diag"], untraced["metrics"]

    def layer(name: str) -> Dict[str, int]:
        return layers.get(name, {"calls": 0, "self_ns": 0, "items": 0})

    events = diag.get("events", 0) if traced["kind"] == "sim" else 0
    out["sim.events"] = events
    out["runtime.thread.resumes"] = layer("runtime.thread")["calls"]
    for name in ("runtime.channel", "gc", "control", "metrics.recorder"):
        out[f"{name}.calls"] = layer(name)["calls"]
    if events:
        for name in ("sim", "runtime.thread", "runtime.channel", "gc",
                     "control", "metrics.recorder"):
            out[f"{name}.self_us_per_event"] = (
                layer(name)["self_ns"] / 1e3 / events)
    gc = layer("gc")
    if gc["calls"]:
        out["gc.freed_per_call"] = gc["items"] / gc["calls"]
    out["metrics.postmortem.self_s"] = layer("metrics.postmortem")["self_ns"] / 1e9
    out["cluster.transfers"] = layer("cluster")["calls"]
    out["runtime.graph.validate_s"] = layer("runtime.graph")["self_ns"] / 1e9
    out["tenancy.placement.calls"] = layer("tenancy.placement")["calls"]
    out["tenancy.placement.self_s"] = layer("tenancy.placement")["self_ns"] / 1e9
    out["tenancy.lifecycle.calls"] = layer("tenancy.lifecycle")["calls"]
    out["tenancy.lifecycle.self_s"] = layer("tenancy.lifecycle")["self_ns"] / 1e9
    out["tenancy.arbiter.ticks"] = layer("tenancy.arbiter")["calls"]
    out["tenancy.arbiter.self_s"] = layer("tenancy.arbiter")["self_ns"] / 1e9
    out["trace.overhead_ratio"] = (
        traced["metrics"]["wall_s"] / plain["wall_s"])
    out["wall_s"] = plain["wall_s"]
    out["cpu_s"] = plain["cpu_s"]

    if traced["kind"] == "sim":
        if diag.get("puts"):
            out["runtime.channel.skip_ratio"] = diag["skips"] / diag["puts"]
        out["cluster.bytes"] = diag.get("net_bytes", 0)
        out["analysis_s"] = plain.get("analysis_s", 0.0)
        return out

    for name, value in traced.get("drive", {}).items():
        out[name] = value
    out["rt_threads.channel.calls"] = (
        layer("rt_threads.channel")["calls"] or diag.get("channel_calls", 0))
    out["rt_threads.skip_ratio"] = diag.get("skip_ratio", 0.0)
    plain_diag = untraced["diag"]
    out["live.latency_p95_ms"] = plain_diag.get("latency_p95_ms", 0.0)
    for name in ("teardown_s", "latency_p50_ms", "delivered_fps"):
        out[name] = plain.get(name, 0.0)
    if traced["workload"] == "live_wire":
        out["dist.launch_s"] = plain.get("setup_s", 0.0)
        out["dist.collect_s"] = plain.get("teardown_s", 0.0)
        if plain_diag.get("sink_frames"):
            out["dist.bytes_per_frame"] = (
                plain_diag["net_bytes"] / plain_diag["sink_frames"])
    return out
