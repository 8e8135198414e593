"""The telemetry hub: one object owning a run's metrics and spans.

Design constraints:

* **zero overhead when disabled** — a runtime without telemetry holds
  the module-level :data:`NULL_HUB` singleton, whose ``enabled`` is
  False; every instrumentation point is guarded by one attribute check
  (``if obs.enabled:``), so the disabled hot path pays a single load +
  branch and the micro-bench gate in ``benchmarks/check_regression.py``
  stays within threshold;
* **counts are read, not pushed** — the puts, gets, skips and frees a
  buffer keeps for itself are read when the registry is
  (:meth:`TelemetryHub.read_buffers`), so those paths write no
  telemetry at all; only what the runtime does not keep is pushed;
* **cheap when pushed** — the pushed sites (iteration close, link
  transfer, fault, tenant delivery) resolve *fixed-slot handles* once
  at wiring time (``sync_handle``/``transfer_handle``/...); the
  per-operation cost is then a few flat-array adds into the registry's
  :class:`~repro.obs.metrics.SlotBank` — no ``(name, labels)`` dict
  lookup, no ``str()`` churn, no timestamp call. Label resolution and
  export are deferred to ``snapshot()``;
* **observation must not perturb** — hook bodies only *read* runtime
  state and write hub-private structures; they never touch the engine
  calendar, the RNG registry, or ARU state, so a telemetry-on run is
  bit-identical to a telemetry-off run (asserted by
  ``tests/obs/test_integration.py`` via ``metrics_fingerprint``);
* **sampling-aware** — item spans/flows are kept for every Nth item
  (:attr:`TelemetryConfig.span_sample`), and the span store is bounded
  with an explicit dropped counter. Spans are recorded by the
  simulator only; the live backends build a metrics-only hub.

The hub exposes two API tiers. Hot sites (link transfer, iteration
close) request a handle at wiring time and pair it with the matching
``span_*`` helper behind the hub's precomputed ``metrics_on``/
``spans_on`` flags; a buffer calls only its ``span_*`` helpers. The
*semantic* hooks
(``on_fault``, ``on_scale``, ``on_tenant``, ``on_arbiter``,
``on_finalize``) serve the cold sites and route through cached handles
themselves. The registry and tracer stay reachable for ad-hoc instruments
(``hub.metrics.counter(...)``) and for the exporters in
:mod:`repro.obs.export`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Iterator, Mapping, Optional, Tuple, Union

from repro.errors import ConfigError
from repro.obs.metrics import NOOP_HANDLE, CounterHandle, MetricsRegistry
from repro.obs.spans import SpanTracer


@dataclass(frozen=True)
class TelemetryConfig:
    """Declarative description of one run's telemetry.

    Attributes
    ----------
    enabled:
        Master switch; False resolves to :data:`NULL_HUB`.
    metrics / spans:
        Record the metric registry / the span trace. Both default on;
        turning ``spans`` off keeps counters at a fraction of the
        memory for long runs — that is the "telemetry you can leave
        on" configuration (see docs/observability.md).
    span_sample:
        Keep every Nth item's residency span and producer→consumer
        flows (1 = every item). Iteration and transfer spans are not
        sampled — there is one per iteration, not one per item.
    max_spans:
        Upper bound on recorded span/instant/flow events; overflow is
        counted, never silent.
    """

    enabled: bool = True
    metrics: bool = True
    spans: bool = True
    span_sample: int = 1
    max_spans: int = 200_000

    def __post_init__(self) -> None:
        if self.span_sample < 1:
            raise ConfigError(
                f"span_sample must be >= 1, got {self.span_sample}"
            )
        if self.max_spans < 1:
            raise ConfigError(f"max_spans must be >= 1, got {self.max_spans}")


class _SyncHandle:
    """Preresolved slots for one thread's ``periodicity_sync`` close.

    One iteration writes: iteration count, iteration-length histogram,
    compute/blocked second totals, optional throttle-sleep total, and
    the three control-loop gauges (current STP, summary STP, throttle
    target). Gauge slots start NaN and are only exported once written,
    matching the legacy "set only when present" hook behaviour.
    """

    __slots__ = ("_values", "_iters", "_hist", "_compute", "_blocked",
                 "_slept", "_stp", "_summary", "_target")

    def __init__(self, values, iters, hist, compute, blocked, slept,
                 stp, summary, target) -> None:
        self._values = values
        self._iters = iters
        self._hist = hist
        self._compute = compute
        self._blocked = blocked
        self._slept = slept
        self._stp = stp
        self._summary = summary
        self._target = target

    def update(self, t_start: float, t_end: float, compute: float,
               blocked: float, slept: float, stp: Optional[float],
               summary: Optional[float], target: Optional[float]) -> None:
        values = self._values
        values[self._iters] += 1.0
        self._hist.observe(t_end - t_start)
        values[self._compute] += compute
        values[self._blocked] += blocked
        if slept:
            values[self._slept] += slept
        if stp is not None:
            values[self._stp] = stp
        if summary is not None:
            values[self._summary] = summary
        if target is not None:
            values[self._target] = target


class _TransferHandle:
    """Preresolved slots for one link: bytes + count + duration histogram."""

    __slots__ = ("_values", "_bytes", "_count", "_hist")

    def __init__(self, values, bytes_slot, count_slot, hist) -> None:
        self._values = values
        self._bytes = bytes_slot
        self._count = count_slot
        self._hist = hist

    def update(self, nbytes: float, duration: float) -> None:
        values = self._values
        values[self._bytes] += nbytes
        values[self._count] += 1.0
        self._hist.observe(duration)


class NullTelemetryHub:
    """The disabled hub: every hook is a no-op, ``enabled`` is False.

    Hot paths guard with ``if obs.enabled:`` and never call further; the
    no-op methods exist so unguarded diagnostic code is still safe, and
    the ``*_handle`` factories hand back the shared
    :data:`~repro.obs.metrics.NOOP_HANDLE` so wiring code is branch-free.
    """

    __slots__ = ()

    enabled = False
    metrics_on = False
    spans_on = False

    def __bool__(self) -> bool:
        return False

    def bind(self, time_fn=None, run=None) -> "NullTelemetryHub":
        return self

    def on_fault(self, *a, **k) -> None: ...
    def on_scale(self, *a, **k) -> None: ...
    def on_tenant(self, *a, **k) -> None: ...
    def on_arbiter(self, *a, **k) -> None: ...
    def on_finalize(self, *a, **k) -> None: ...

    def transfer_handle(self, *a, **k):
        return NOOP_HANDLE

    def sync_handle(self, *a, **k):
        return NOOP_HANDLE

    def fault_handle(self, *a, **k):
        return NOOP_HANDLE

    def tenant_handle(self, *a, **k):
        return NOOP_HANDLE

    def span_transfer(self, *a, **k) -> None: ...
    def span_sync(self, *a, **k) -> None: ...
    def span_fault(self, *a, **k) -> None: ...

    def snapshot(self) -> dict:
        return {"enabled": False, "metrics": [], "spans": {}, "meta": {}}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<NullTelemetryHub>"


#: The module-level disabled hub every un-instrumented runtime shares.
NULL_HUB = NullTelemetryHub()


class TelemetryHub:
    """A live telemetry sink for one run."""

    enabled = True

    def __init__(self, config: Optional[TelemetryConfig] = None,
                 time_fn: Optional[Callable[[], float]] = None) -> None:
        self.config = config or TelemetryConfig()
        self.metrics = MetricsRegistry(time_fn)
        self.tracer = SpanTracer(sample=self.config.span_sample,
                                 max_spans=self.config.max_spans)
        self.run_meta: Dict[str, object] = {}
        self.t_end: Optional[float] = None
        #: Precomputed mode flags: hot sites read these attributes once
        #: per call instead of chasing ``self.config.metrics``.
        self.metrics_on: bool = self.config.metrics
        self.spans_on: bool = self.config.spans
        #: Wiring-time handle cache, keyed on the site identity tuple.
        self._handles: Dict[Tuple, object] = {}

    # -- lifecycle ----------------------------------------------------------
    def bind(self, time_fn: Optional[Callable[[], float]] = None,
             run: Optional[Dict[str, object]] = None) -> "TelemetryHub":
        """Attach the DES clock (metric timestamps) and run metadata."""
        if time_fn is not None:
            self.metrics.time_fn = time_fn
        if run:
            self.run_meta.update(run)
        return self

    # -- read counts --------------------------------------------------------
    def read_buffers(self, buffers: Mapping[str, object]) -> None:
        """Export the counts every buffer in ``buffers`` keeps itself.

        The mapping is read whenever the registry is, so a buffer wired
        after this call is exported too, and one the runtime drained
        keeps its totals. With metrics off nothing is registered.
        """
        if self.metrics_on:
            self.metrics.sources.append(partial(buffer_series, buffers))

    # -- fixed-slot handle wiring ------------------------------------------
    # Each factory is idempotent per site identity and resolves labels
    # exactly once; with metrics off it returns NOOP_HANDLE so callers
    # can wire unconditionally (spans-only mode creates zero instruments).

    def transfer_handle(self, link: str):
        """Handle for one link: ``.update(nbytes, duration)`` per transfer."""
        if not self.metrics_on:
            return NOOP_HANDLE
        key = ("transfer", link)
        handle = self._handles.get(key)
        if handle is None:
            bank = self.metrics.bank
            labels = {"link": link}
            nbytes = bank.counter_slot("repro_link_transfer_bytes_total",
                                       labels)
            count = bank.counter_slot("repro_link_transfers_total", labels)
            hist = bank.histogram_handle("repro_link_transfer_seconds", labels)
            handle = _TransferHandle(bank.values, nbytes, count, hist)
            self._handles[key] = handle
        return handle

    def sync_handle(self, thread: str):
        """Handle for one thread's iteration close (``periodicity_sync``)."""
        if not self.metrics_on:
            return NOOP_HANDLE
        key = ("sync", thread)
        handle = self._handles.get(key)
        if handle is None:
            bank = self.metrics.bank
            labels = {"thread": thread}
            handle = _SyncHandle(
                bank.values,
                bank.counter_slot("repro_iterations_total", labels),
                bank.histogram_handle("repro_iteration_seconds", labels),
                bank.counter_slot("repro_compute_seconds_total", labels),
                bank.counter_slot("repro_blocked_seconds_total", labels),
                bank.counter_slot("repro_throttle_sleep_seconds_total",
                                  labels),
                bank.gauge_slot("repro_stp_current_seconds", labels),
                bank.gauge_slot("repro_stp_summary_seconds", labels),
                bank.gauge_slot("repro_throttle_target_seconds", labels),
            )
            self._handles[key] = handle
        return handle

    def fault_handle(self, phase: str, kind: str):
        """Handle for one fault lifecycle cell: ``.inc()`` per event."""
        if not self.metrics_on:
            return NOOP_HANDLE
        key = ("fault", phase, kind)
        handle = self._handles.get(key)
        if handle is None:
            bank = self.metrics.bank
            slot = bank.counter_slot("repro_fault_events_total",
                                     {"phase": phase, "kind": kind})
            handle = CounterHandle(bank.values, slot)
            self._handles[key] = handle
        return handle

    def tenant_handle(self, tenant: str):
        """Handle for one tenant's sink deliveries: ``.inc()`` per frame."""
        if not self.metrics_on:
            return NOOP_HANDLE
        key = ("tenant", tenant)
        handle = self._handles.get(key)
        if handle is None:
            bank = self.metrics.bank
            slot = bank.counter_slot("repro_tenant_deliveries_total",
                                     {"tenant": tenant})
            handle = CounterHandle(bank.values, slot)
            self._handles[key] = handle
        return handle

    # -- span helpers -------------------------------------------------------
    # The span side of each hot site, called behind ``if obs.spans_on:``
    # so metrics-only runs skip the frames.

    def span_put(self, buffer: str, item, t: float) -> None:
        tracer = self.tracer
        item_id = item.item_id
        if tracer.sampled(item_id):
            parent = None
            for pid in item.parents:
                parent = tracer.item_span.get(pid)
                if parent is not None:
                    break
            span = tracer.begin(
                name=f"ts={item.ts}", cat="item",
                track=f"buffer/{buffer}", t=t, parent_id=parent,
                args={"item_id": item_id, "producer": item.producer,
                      "size": item.size},
            )
            if span is not None:
                tracer.item_span[item_id] = span.span_id
            tracer.flow("s", item_id, f"thread/{item.producer}", t)

    def span_get(self, item, consumer: str, t: float) -> None:
        if self.tracer.sampled(item.item_id):
            self.tracer.flow("f", item.item_id, f"thread/{consumer}", t)

    def span_free(self, item, t: float) -> None:
        span_id = self.tracer.item_span.get(item.item_id)
        if span_id is not None:
            self.tracer.end_id(span_id, t)

    def span_transfer(self, link: str, nbytes: int, duration: float,
                      t: float) -> None:
        span = self.tracer.begin(
            name=f"{nbytes}B", cat="transfer", track=f"link/{link}",
            t=t - duration, args={"bytes": nbytes},
        )
        self.tracer.end(span, t)

    def span_sync(self, thread: str, t_start: float, t_end: float,
                  compute: float, blocked: float, slept: float,
                  stp: Optional[float], summary: Optional[float]) -> None:
        args: Dict[str, object] = {"compute": compute, "blocked": blocked}
        if stp is not None:
            args["stp"] = stp
        if summary is not None:
            args["summary_stp"] = summary
        if slept:
            args["throttle_sleep"] = slept
        span = self.tracer.begin(name="iteration", cat="iteration",
                                 track=f"thread/{thread}", t=t_start,
                                 args=args)
        self.tracer.end(span, t_end)

    def span_fault(self, phase: str, kind: str, target: str, t: float,
                   source: Optional[str] = None) -> None:
        args: Dict[str, object] = {"kind": kind, "target": target}
        if source:
            args["source"] = source
        self.tracer.instant(f"{phase}:{kind}", cat="fault",
                            track="faults", t=t, args=args)

    # -- fault path ---------------------------------------------------------
    def on_fault(self, phase: str, kind: str, target: str, t: float,
                 source: Optional[str] = None) -> None:
        """A fault lifecycle event: ``injected``/``symptom``/``recovered``."""
        if self.metrics_on:
            self.fault_handle(phase, kind).inc()
        if self.spans_on:
            self.span_fault(phase, kind, target, t, source)

    # -- scaling path -------------------------------------------------------
    def on_scale(self, stage: str, action: str, replicas_from: int,
                 replicas_to: int, t: float, reason: str = "",
                 replica: Optional[str] = None) -> None:
        """A replicated stage changed size: ``out``/``in``/``restart``.

        Stays on ad-hoc instruments: scale events are O(decisions), not
        O(items), so preresolved slots would buy nothing.
        """
        if self.metrics_on:
            m = self.metrics
            m.gauge("repro_replicas", {"stage": stage}).set(replicas_to)
            m.counter("repro_scale_events_total",
                      {"stage": stage, "action": action}).inc()
        if self.spans_on:
            args: Dict[str, object] = {
                "stage": stage, "from": replicas_from, "to": replicas_to,
            }
            if reason:
                args["reason"] = reason
            if replica:
                args["replica"] = replica
            self.tracer.instant(f"scale:{action}", cat="scale",
                                track="scaling", t=t, args=args)

    # -- tenancy path -------------------------------------------------------
    def on_tenant(self, phase: str, tenant: str, t: float,
                  detail: str = "") -> None:
        """A tenant lifecycle event: admitted/queued/rejected/departed/
        evicted/replaced. O(tenant transitions), so ad-hoc instruments."""
        if self.metrics_on:
            self.metrics.counter("repro_tenant_events_total",
                                 {"phase": phase}).inc()
        if self.spans_on:
            args: Dict[str, object] = {"tenant": tenant}
            if detail:
                args["detail"] = detail
            self.tracer.instant(f"tenant:{phase}", cat="tenant",
                                track="tenants", t=t, args=args)

    #: Arbitration action -> the counter it increments. Explicit names
    #: (not a label on one counter) so dashboards alert on revocations
    #: and denials without PromQL label gymnastics.
    _ARBITER_COUNTERS = {
        "revoke": "repro_arbiter_revocations_total",
        "migrate": "repro_arbiter_migrations_total",
        "deny": "repro_arbiter_grant_denials_total",
        "grant": "repro_arbiter_grants_total",
        "grow": "repro_arbiter_budget_changes_total",
        "shrink": "repro_arbiter_budget_changes_total",
    }

    def on_arbiter(self, action: str, tenant: str, t: float,
                   detail: str = "") -> None:
        """An arbitration act: revoke/migrate/grow/shrink/grant/deny.

        O(arbiter decisions) — a few per arbitration period — so ad-hoc
        instruments, same as the scale and tenant paths."""
        if self.metrics_on:
            name = self._ARBITER_COUNTERS.get(
                action, "repro_arbiter_actions_total")
            self.metrics.counter(name, {"tenant": tenant}).inc()
        if self.spans_on:
            args: Dict[str, object] = {"tenant": tenant}
            if detail:
                args["detail"] = detail
            self.tracer.instant(f"arbiter:{action}", cat="arbiter",
                                track="tenants", t=t, args=args)

    # -- run lifecycle ------------------------------------------------------
    def on_finalize(self, stats: Dict[str, dict], t: float) -> None:
        """Fold end-of-run runtime statistics into gauges; flush spans.

        Runs once per run (cold), so it uses ad-hoc instruments too.
        """
        self.t_end = t
        if self.metrics_on:
            m = self.metrics
            engine = stats.get("engine", {})
            m.gauge("repro_engine_events_processed").set(
                engine.get("events_processed", 0))
            m.gauge("repro_sim_time_seconds").set(engine.get("now", t))
            for name, node in stats.get("nodes", {}).items():
                labels = {"node": name}
                m.gauge("repro_node_mem_peak_bytes", labels).set(node["mem_peak"])
                m.gauge("repro_node_busy_seconds", labels).set(node["busy_time"])
            network = stats.get("network", {})
            m.gauge("repro_network_bytes_total").set(
                network.get("total_bytes", 0))
        if self.spans_on:
            self.tracer.close_open_spans(t)

    # -- export -------------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-data view of the whole hub (picklable, JSON-able)."""
        return {
            "enabled": True,
            "meta": dict(self.run_meta),
            "t_end": self.t_end,
            "metrics": self.metrics.snapshot(),
            "spans": self.tracer.stats(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TelemetryHub metrics={len(self.metrics)} "
                f"spans={self.tracer.stats()['spans']}>")


def buffer_series(buffers: Mapping[str, object]) -> Iterator[tuple]:
    """The ``repro_buffer_*`` and ``repro_gc_reclaimed_*`` rows of
    ``buffers``, read from the counts each buffer keeps
    (:class:`~repro.runtime.buffer.Buffer`)."""
    for name, buf in buffers.items():
        kind = buf.kind
        labels = (("buffer", name), ("kind", kind))
        yield "counter", "repro_buffer_puts_total", labels, buf.total_puts
        yield ("gauge", "repro_buffer_depth", labels,
               buf.total_puts - buf.total_frees)
        yield "gauge", "repro_buffer_bytes_held", labels, buf.unfreed_bytes
        gc = (("buffer", name), ("gc", buf.collector))
        yield "counter", "repro_gc_reclaimed_items_total", gc, buf.total_frees
        yield "counter", "repro_gc_reclaimed_bytes_total", gc, buf.freed_bytes
        reads = [(c.thread, c.gets, c.skips) for c in buf.in_conns]
        reads.extend((thread, gets, skips) for thread, (gets, skips)
                     in (buf.retired_reads or {}).items())
        for thread, gets, skips in reads:
            yield ("counter", "repro_buffer_gets_total",
                   (("buffer", name), ("consumer", thread), ("kind", kind)),
                   gets)
            yield ("counter", "repro_buffer_skips_total",
                   (("buffer", name), ("consumer", thread)), skips)


#: What call sites may hand to :func:`resolve_hub`.
TelemetryLike = Union[None, bool, TelemetryConfig, TelemetryHub,
                      NullTelemetryHub]


def resolve_hub(value: TelemetryLike) -> Union[TelemetryHub, NullTelemetryHub]:
    """Coerce a config-surface value into a live (or null) hub.

    ``None``/``False`` → :data:`NULL_HUB`; ``True`` → a fresh default
    hub; a :class:`TelemetryConfig` → a hub built from it (or
    :data:`NULL_HUB` when it is disabled); an existing hub passes
    through so callers can keep a handle for post-run export.
    """
    if value is None or value is False:
        return NULL_HUB
    if value is True:
        return TelemetryHub()
    if isinstance(value, TelemetryConfig):
        return TelemetryHub(value) if value.enabled else NULL_HUB
    if isinstance(value, (TelemetryHub, NullTelemetryHub)):
        return value
    raise ConfigError(
        f"telemetry must be a bool, TelemetryConfig, or TelemetryHub; "
        f"got {value!r}"
    )
