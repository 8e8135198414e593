"""The telemetry hub: one object owning a run's metrics and spans.

Design constraints:

* **zero overhead when disabled** — a runtime without telemetry holds
  the module-level :data:`NULL_HUB` singleton, whose ``enabled`` is
  False; every instrumentation point is guarded by one attribute check
  (``if obs.enabled:``), so the disabled hot path pays a single load +
  branch and the micro-bench gate in ``benchmarks/check_regression.py``
  stays within threshold;
* **counts are read, not pushed** — what a buffer, a thread or a link
  keeps for itself (puts, gets and frees; iterations, compute, blocked
  and slept seconds, the last STP, summary-STP and throttle target;
  bytes and transfers) is read when the registry is (:meth:`TelemetryHub.read`
  with :func:`buffer_series`, :func:`thread_series`, :func:`link_series`),
  so those paths write no telemetry at all. Only the two histograms the
  runtime does not keep are pushed — ``repro_iteration_seconds`` at an
  iteration close, ``repro_link_transfer_seconds`` at a transfer — each
  an ordinary :class:`~repro.obs.metrics.Histogram` looked up once at
  wiring;
* **observation must not perturb** — hook bodies only *read* runtime
  state and write hub-private structures; they never touch the engine
  calendar, the RNG registry, or ARU state, so a telemetry-on run is
  bit-identical to a telemetry-off run (asserted by
  ``tests/obs/test_integration.py`` via ``metrics_fingerprint``);
* **sampling-aware** — item spans/flows are kept for every Nth item
  (:attr:`TelemetryConfig.span_sample`), and the span store is bounded
  with an explicit dropped counter. Spans are recorded by the
  simulator only; the live backends build a metrics-only hub.

The registry has two ways in: sources, which read the runtime's counts
(registered with :meth:`TelemetryHub.read` at wiring), and ordinary
instruments. The pushed histograms pair with the matching ``span_*``
helper behind the hub's precomputed ``metrics_on``/``spans_on`` flags;
a buffer calls only its ``span_*`` helpers. The *semantic* hooks
(``on_fault``, ``on_scale``, ``on_tenant``, ``on_arbiter``,
``on_finalize``) serve the cold sites with ad-hoc instruments
(``hub.metrics.counter(...)``), which the exporters in
:mod:`repro.obs.export` read like any other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Iterator, Mapping, Optional, Union

from repro.errors import ConfigError
from repro.obs.metrics import MetricsRegistry
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


class NullTelemetryHub:
    """The disabled hub: every hook is a no-op, ``enabled`` is False.

    Hot paths guard with ``if obs.enabled:`` and never call further; the
    no-op hooks exist so unguarded diagnostic code is still safe.
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
    def read(self, series: Callable[..., Iterator[tuple]], *args) -> None:
        """Export the rows ``series(*args)`` yields whenever the registry
        is read — :func:`buffer_series` over a runtime's buffers,
        :func:`thread_series` over its drivers, :func:`link_series` over
        its links. The arguments are read then, not now, so what is wired
        later is exported too. With metrics off nothing is registered.
        """
        if self.metrics_on:
            self.metrics.sources.append(partial(series, *args))

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

    # -- fault path ---------------------------------------------------------
    def on_fault(self, phase: str, kind: str, target: str, t: float,
                 source: Optional[str] = None) -> None:
        """A fault lifecycle event: ``injected``/``symptom``/``recovered``.
        O(faults), so an ad-hoc instrument, stamped at the event."""
        if self.metrics_on:
            self.metrics.counter("repro_fault_events_total",
                                 {"phase": phase, "kind": kind}).inc()
        if self.spans_on:
            args: Dict[str, object] = {"kind": kind, "target": target}
            if source:
                args["source"] = source
            self.tracer.instant(f"{phase}:{kind}", cat="fault",
                                track="faults", t=t, args=args)

    # -- scaling path -------------------------------------------------------
    def on_scale(self, stage: str, action: str, replicas_from: int,
                 replicas_to: int, t: float, reason: str = "",
                 replica: Optional[str] = None) -> None:
        """A replicated stage changed size: ``out``/``in``/``restart``.

        Ad-hoc instruments: scale events are O(decisions), not O(items).
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


def thread_series(drivers: Mapping[str, object],
                  retired: Mapping[str, tuple]) -> Iterator[tuple]:
    """The per-thread ``repro_*`` rows and each tenant's
    ``repro_tenant_deliveries_total`` (its sink threads' iterations),
    read from what each driver kept at its last iteration close
    (:meth:`~repro.runtime.thread.ThreadDriver.closed_counts`) on top of
    ``retired``, what earlier incarnations of the same thread closed.

    Reading never calls into the control stack: an outbound summary
    evicts stale backward-STP slots, so computing one here would change
    the run."""
    counts = dict(retired)
    for name, driver in drivers.items():
        counts[name] = driver.closed_counts(counts.get(name))
    for name, c in counts.items():
        labels = (("thread", name),)
        yield "counter", "repro_iterations_total", labels, c.iterations
        yield "counter", "repro_compute_seconds_total", labels, c.compute
        yield "counter", "repro_blocked_seconds_total", labels, c.blocked
        yield ("counter", "repro_throttle_sleep_seconds_total", labels,
               c.slept)
        # A gauge is exported once its thread has advertised a value.
        for gauge, v in (("repro_stp_current_seconds", c.stp),
                         ("repro_stp_summary_seconds", c.summary),
                         ("repro_throttle_target_seconds", c.target)):
            if v is not None:
                yield "gauge", gauge, labels, v
        if c.tenant is not None:
            yield ("counter", "repro_tenant_deliveries_total",
                   (("tenant", c.tenant),), c.iterations)


def link_series(links: Mapping[object, object]) -> Iterator[tuple]:
    """The ``repro_link_*`` totals of every link in ``links``, read from
    the counts each :class:`~repro.cluster.network.Link` keeps."""
    for link in links.values():
        labels = (("link", link.name),)
        yield ("counter", "repro_link_transfer_bytes_total", labels,
               link.bytes_transferred)
        yield "counter", "repro_link_transfers_total", labels, link.transfers


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
