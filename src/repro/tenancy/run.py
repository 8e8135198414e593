"""One front door for multi-tenant runs: ``repro.run_tenants``.

Mirrors :mod:`repro.experiment`: a declarative :class:`TenancySpec`
resolves to one :class:`~repro.tenancy.runtime.TenantRuntime`, every
tenant coexisting in a *single* engine run — contending for the same
nodes and links, scheduled by one :class:`~repro.tenancy.Scheduler` —
and returns a :class:`TenancyResult` bundling per-tenant records, the
cross-tenant fairness report, the shared trace, and the admission log.

Arrival dynamics ride the DES clock: tenants with ``arrival=0`` admit
before the run starts (in priority order); later arrivals and departures
are driven by one manager process — spawned *only* when the schedule
needs it, so a static single-tenant run adds zero engine events over
:func:`repro.run_experiment` (the equivalence contract asserted in
``tests/tenancy/test_equivalence.py``).

>>> import repro
>>> from repro.tenancy import TenancySpec, TenantSpec
>>> result = repro.run_tenants(TenancySpec(
...     tenants=(TenantSpec("a"), TenantSpec("b")), horizon=3.0))
>>> sorted(result.records) == ["a", "b"]
True
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.errors import ConfigError
from repro.schema import as_object, build
from repro.sim.engine import paused_collector
from repro.tenancy.fairness import FairnessReport, fairness_report
from repro.tenancy.runtime import TenantRuntime
from repro.tenancy.scheduler import Scheduler
from repro.tenancy.tenant import DEPARTED, RUNNING, Tenant, TenantSpec


@dataclass(frozen=True)
class TenancySpec:
    """Everything one multi-tenant run needs, in one declarative value.

    Attributes
    ----------
    tenants:
        The :class:`~repro.tenancy.TenantSpec` population (unique names;
        at most one with the empty namespace).
    cluster:
        Anything :func:`~repro.cluster.spec.cluster_spec` takes (a
        :class:`~repro.cluster.ClusterSpec`, an int node count, a
        :data:`~repro.cluster.CLUSTERS` name or ``{"kind": ...}``
        object), or None for four uniform nodes.
    placement:
        Placement strategy name (``rstorm`` / ``round-robin`` /
        ``spread``, or anything registered) or a strategy instance.
    admission:
        Over-capacity behaviour: ``"queue"`` (wait for departures) or
        ``"reject"``.
    arbiter:
        Cross-tenant arbitration: None (off — the pack-only plane, no
        added engine events), a registered arbiter name
        (``proportional`` / ``demand``), or an
        :class:`~repro.tenancy.arbiter.ArbiterConfig`. When on, a
        controller process periodically re-solves the allocation:
        granting/shrinking elastic budgets, revoking over-share
        tenants when the queue starves, and migrating tenants to
        defragment or re-balance.
    gc / seed / retry / telemetry / horizon:
        As in :class:`~repro.experiment.ExperimentSpec`. ``seed`` is the
        *root* seed tenant seeds derive from.
    trace_rows:
        As in :class:`~repro.experiment.ExperimentSpec`, but off by
        default: a fleet's product is its tenant records
        (:class:`TenantRecord`), which read only each item's latency
        anchor, the sink table and the iteration counts, so
        :attr:`TenancyResult.trace` keeps no rows unless this is True —
        and a fleet's postmortem (``PostmortemAnalyzer``) needs them.
    faults:
        A tuple of :class:`~repro.faults.FaultSpec` (or a schedule);
        node crashes flow through the scheduler's evict/re-place path.
    """

    tenants: Tuple[TenantSpec, ...] = ()
    cluster: Any = None
    placement: Any = "rstorm"
    admission: str = "queue"
    arbiter: Any = None
    gc: Any = "dgc"
    seed: int = 0
    horizon: float = 30.0
    faults: Any = ()
    retry: Any = None
    trace_rows: bool = False
    telemetry: Any = False

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ConfigError(f"horizon must be positive, got {self.horizon}")
        if self.arbiter is not None:
            from repro.tenancy.arbiter import resolve_arbiter_config
            resolve_arbiter_config(self.arbiter)  # fail fast on bad names
        seen = set()
        blank = None
        for spec in self.tenants:
            if not isinstance(spec, TenantSpec):
                raise ConfigError(
                    f"tenants must be TenantSpec instances, got {spec!r}"
                )
            if spec.name in seen:
                raise ConfigError(f"duplicate tenant name {spec.name!r}")
            seen.add(spec.name)
            if spec.prefix == "":
                if blank is not None:
                    raise ConfigError(
                        f"at most one blank-namespace tenant per run "
                        f"(got {blank!r} and {spec.name!r})"
                    )
                blank = spec.name

    def with_(self, **changes) -> "TenancySpec":
        return replace(self, **changes)

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "TenancySpec":
        """The ``repro tenants`` file form: an object whose keys are this
        class's fields.

        Each ``tenants`` entry is a :meth:`TenantSpec.from_dict` object;
        one with ``count: N`` expands to ``name-0 .. name-(N-1)``, each
        deriving its own seed from the run seed (the fleet idiom).
        ``faults`` entries are :class:`~repro.faults.FaultSpec` objects.
        """
        from repro.faults.spec import FaultSchedule
        from repro.tenancy.arbiter import resolve_arbiter_config

        spec = build(cls, raw, "tenancy spec", parse={
            "tenants": _tenants_from_list,
            "arbiter": resolve_arbiter_config,
            "faults": lambda value: FaultSchedule.from_dicts(value).faults,
        })
        if not spec.tenants:
            raise ConfigError("tenancy spec needs a non-empty 'tenants' list")
        return spec

    def resolve_cluster(self):
        """The :class:`~repro.cluster.ClusterSpec` to run on: anything
        :func:`~repro.cluster.spec.cluster_spec` takes, or None for four
        uniform nodes."""
        from repro.cluster.spec import cluster_spec, uniform_spec

        if self.cluster is None:
            return uniform_spec()
        return cluster_spec(self.cluster)

    def runtime_config(self):
        """The shared runtime's config (per-tenant knobs live on tenants)."""
        from repro.aru.config import aru_disabled
        from repro.runtime.retry import RetryPolicy
        from repro.runtime.runtime import RuntimeConfig

        kwargs: Dict[str, Any] = dict(
            cluster=self.resolve_cluster(),
            gc=self.gc,
            aru=aru_disabled(),
            seed=self.seed,
            placement={},
            trace_rows=self.trace_rows,
            telemetry=self.telemetry,
        )
        if self.retry is not None:
            if not isinstance(self.retry, RetryPolicy):
                raise ConfigError(
                    f"retry must be a RetryPolicy, got {self.retry!r}"
                )
            kwargs["retry"] = self.retry
        return RuntimeConfig(**kwargs)


def _tenants_from_list(entries: Any) -> Tuple[TenantSpec, ...]:
    if not isinstance(entries, list):
        raise ConfigError(f"tenants must be a list, got {entries!r}")
    tenants: List[TenantSpec] = []
    for index, entry in enumerate(entries):
        where = f"tenants[{index}]"
        entry = dict(as_object(entry, where))
        count = entry.pop("count", 1)
        if not isinstance(count, int) or count < 1:
            raise ConfigError(f"{where}: count must be an int >= 1, "
                              f"got {count!r}")
        tenant = TenantSpec.from_dict(entry, where)
        if count == 1:
            tenants.append(tenant)
        elif tenant.namespace == "":
            raise ConfigError(
                f"{where}: a blank namespace cannot expand (count={count})")
        else:
            tenants.extend(tenant.with_(name=f"{tenant.name}-{i}")
                           for i in range(count))
    return tuple(tenants)


@dataclass
class TenantRecord:
    """What one tenant experienced over the run."""

    name: str
    state: str
    #: Namespaced thread -> cluster node (final placement; {} if never
    #: admitted).
    placement: Dict[str, str] = field(default_factory=dict)
    deliveries: int = 0
    #: Deliveries per resident second (0 if never admitted).
    goodput: float = 0.0
    latency_p50: float = float("nan")
    latency_p95: float = float("nan")
    #: get-latest skips across the tenant's buffers.
    drops: int = 0
    admitted_at: Optional[float] = None
    departed_at: Optional[float] = None
    #: Cumulative placement-holding seconds (across revocations).
    residence: float = 0.0
    #: Arbitration acts the tenant was subject to.
    revocations: int = 0
    migrations: int = 0
    detail: str = ""


@dataclass
class TenancyResult:
    """Everything one finished multi-tenant run produced."""

    spec: TenancySpec
    #: tenant name -> :class:`TenantRecord`, in spec order.
    records: Dict[str, TenantRecord]
    fairness: FairnessReport
    #: The shared :class:`~repro.metrics.TraceRecorder`: latency anchors,
    #: sink table and iteration counts only, unless the spec set
    #: ``trace_rows=True``.
    trace: Any
    stats: Dict[str, dict]
    telemetry: Any
    fault_log: Any = None
    runtime: Any = None
    #: ``(t, tenant, decision, detail)`` admission history.
    admission_log: List[tuple] = field(default_factory=list)
    #: The arbiter controller's end-of-run digest (None = arbitration
    #: off): ticks, revocations, migrations, budget changes, per-tenant
    #: grant/denial audit, and the full action log.
    arbitration: Optional[Dict[str, Any]] = None

    @property
    def admitted(self) -> List[str]:
        """Tenants that held a placement at any point."""
        return [n for n, r in self.records.items()
                if r.admitted_at is not None or r.residence > 0]

    def format(self) -> str:
        """Human-readable run summary (CLI output)."""
        lines = []
        width = max((len(n) for n in self.records), default=0)
        for name, rec in self.records.items():
            lat = ("-" if rec.latency_p95 != rec.latency_p95
                   else f"{rec.latency_p95 * 1e3:7.1f}ms")
            lines.append(
                f"  {name:<{width}}  {rec.state:<9}"
                f" deliveries={rec.deliveries:<6d}"
                f" goodput={rec.goodput:8.3f}/s p95={lat}"
            )
        lines.append(self.fairness.format())
        if self.arbitration is not None:
            a = self.arbitration
            lines.append(
                f"arbitration: {a['arbiter']} ticks={a['ticks']}"
                f" revocations={a['revocations']}"
                f" migrations={a['migrations']}"
                f" budget-changes={a['grows'] + a['shrinks']}"
                f" grants={a['grants']} denials={a['grant_denials']}"
            )
        return "\n".join(lines)


# -- arrival schedules -------------------------------------------------------


def poisson_arrivals(tenants, rate: float, seed: int = 0,
                     start: float = 0.0) -> Tuple[TenantSpec, ...]:
    """Re-stamp arrivals as a Poisson process (``rate`` tenants/sec).

    Deterministic for a fixed seed; tenants keep their declared order
    (inter-arrival gaps are exponential draws: those of
    ``numpy.random.default_rng(seed)``, drawn without numpy by
    :class:`repro.sim.pcg64.PCG64`).
    """
    if rate <= 0:
        raise ConfigError(f"arrival rate must be positive, got {rate}")
    from repro.sim.pcg64 import PCG64

    rng = PCG64(seed)
    t = start
    out = []
    for spec in tenants:
        t += rng.exponential(1.0 / rate)
        out.append(spec.with_(arrival=t, departure=None)
                   if spec.departure is not None and spec.departure <= t
                   else spec.with_(arrival=t))
    return tuple(out)


def churn(tenants, rate: float, mean_lifetime: float, seed: int = 0,
          start: float = 0.0) -> Tuple[TenantSpec, ...]:
    """Poisson arrivals plus exponential lifetimes: continuous churn.

    Each tenant arrives per :func:`poisson_arrivals` and departs after
    an exponential residence of mean ``mean_lifetime`` seconds;
    ``rate == 0`` makes every tenant arrive at ``start``. Gaps and
    lifetimes alternate on one :class:`repro.sim.pcg64.PCG64` stream.
    """
    if rate < 0:
        raise ConfigError(f"arrival rate must be positive, got {rate}")
    if mean_lifetime <= 0:
        raise ConfigError(
            f"mean_lifetime must be positive, got {mean_lifetime}"
        )
    from repro.sim.pcg64 import PCG64

    rng = PCG64(seed)
    t = start
    out = []
    for spec in tenants:
        t += rng.exponential(1.0 / rate) if rate > 0 else 0.0
        lifetime = rng.exponential(mean_lifetime)
        out.append(spec.with_(arrival=t, departure=t + max(1e-6, lifetime)))
    return tuple(out)


def scaled_tracker_config(factor: float, frame_period: Optional[float] = None,
                          cv: Optional[float] = None):
    """A tracker config with every stage cost scaled by ``factor``.

    The fleet benches run hundreds of tracker tenants in one engine;
    scaling the per-stage compute down (and the frame period up) keeps
    the *shape* of the pipeline while bounding total event count.
    ``cv`` optionally overrides every stage's jitter (0 = deterministic
    service times).
    """
    from repro.apps.tracker import TrackerConfig
    from repro.apps.vision import StageCost

    if factor <= 0:
        raise ConfigError(f"cost factor must be positive, got {factor}")
    cfg = TrackerConfig()
    changes: Dict[str, Any] = {}
    for name in cfg.__dataclass_fields__:
        value = getattr(cfg, name)
        if isinstance(value, StageCost):
            changes[name] = StageCost(
                mean=value.mean * factor,
                cv=value.cv if cv is None else cv,
                activity_amp=value.activity_amp,
                activity_period=value.activity_period,
            )
    if frame_period is not None:
        changes["frame_period"] = frame_period
    return cfg.with_(**changes)


# -- execution ---------------------------------------------------------------


def _tenancy_manager(runtime: TenantRuntime, events):
    """The one engine process driving arrivals and departures."""
    engine = runtime.engine
    for at, _seq, kind, tenant in events:
        delay = at - engine.now
        if delay > 0:
            yield engine.timeout(delay)
        if kind == "arrive":
            runtime.arrive(tenant)
        elif tenant.state == RUNNING:
            runtime.depart_tenant(tenant)
            runtime.retry_queued()
        elif tenant in runtime.queued:
            # Departure while still waiting: the tenant gives up its
            # queue slot rather than lingering past its own deadline.
            runtime.queued.remove(tenant)
            tenant.state = DEPARTED
            tenant.departed_at = engine.now
            runtime.admission_log.append(
                (engine.now, tenant.name, "departed", "left queue")
            )


def run_tenants(spec: Union[TenancySpec, None] = None,
                **overrides) -> TenancyResult:
    """Run one multi-tenant experiment end to end.

    Accepts a :class:`TenancySpec` or keyword overrides over the default
    spec (mirroring :func:`repro.run_experiment`).
    """
    if spec is None:
        spec = TenancySpec(**overrides)
    elif isinstance(spec, TenancySpec):
        if overrides:
            spec = spec.with_(**overrides)
    else:
        raise ConfigError(
            f"run_tenants takes a TenancySpec, got {spec!r}"
        )
    if not spec.tenants:
        raise ConfigError("run_tenants needs at least one tenant")

    config = spec.runtime_config()
    scheduler = Scheduler(config.cluster, placement=spec.placement,
                          admission=spec.admission)
    runtime = TenantRuntime(config, scheduler)

    tenants = [Tenant(t) for t in spec.tenants]
    static = [t for t in tenants if t.spec.arrival <= 0]
    static.sort(key=lambda t: -t.priority)  # stable: ties keep spec order
    with paused_collector():  # admission builds no cycles (DESIGN.md)
        for tenant in static:
            runtime.arrive(tenant)

    # Arbitration installs only when configured — the
    # no-arbiter default stays event-for-event identical to pack-only.
    controller = None
    if spec.arbiter is not None:
        from repro.tenancy.arbiter import (
            install_arbiter,
            resolve_arbiter_config,
        )
        controller = install_arbiter(
            runtime, resolve_arbiter_config(spec.arbiter)
        )

    # Faults install after static admissions so thread targets validate
    # against the populated graph.
    fault_log = None
    faults = spec.faults
    if faults is not None:
        from repro.faults import FaultInjector, FaultSchedule

        if not isinstance(faults, FaultSchedule):
            faults = FaultSchedule(tuple(faults))
        if not faults.is_empty:
            injector = FaultInjector(runtime, faults)
            injector.install()
            fault_log = injector.log

    events = []
    for index, tenant in enumerate(tenants):
        if tenant.spec.arrival > 0:
            events.append((tenant.spec.arrival, index, "arrive", tenant))
        if tenant.spec.departure is not None:
            events.append((tenant.spec.departure, index, "depart", tenant))
    if events:
        # Dynamic population: one manager process walks the schedule.
        # Skipped entirely for static populations — the zero-added-events
        # half of the single-tenant equivalence contract.
        events.sort(key=lambda e: (e[0], e[1]))
        runtime.engine.process(
            _tenancy_manager(runtime, events), name="tenancy.manager"
        )

    trace = runtime.run(until=spec.horizon)

    from repro.metrics.performance import latency_samples_by_thread, percentile

    by_thread = latency_samples_by_thread(trace)
    records: Dict[str, TenantRecord] = {}
    goodput: Dict[str, float] = {}
    weights: Dict[str, float] = {}
    for tenant in tenants:
        samples: List[float] = []
        deliveries = 0
        drops = 0
        for sink in tenant.sinks:
            deliveries += trace.iteration_count(sink)
            samples.extend(by_thread.get(sink, ()))
        for name in tenant.buffers:
            buf = runtime.buffers.get(name)
            drops += buf.total_skips if buf else 0
        residence = tenant.residence(spec.horizon)
        rate = deliveries / residence if residence > 0 else 0.0
        records[tenant.name] = TenantRecord(
            name=tenant.name,
            state=tenant.state,
            placement=dict(tenant.placement),
            deliveries=deliveries,
            goodput=rate,
            latency_p50=percentile(samples, 50),
            latency_p95=percentile(samples, 95),
            drops=drops,
            admitted_at=tenant.admitted_at,
            departed_at=tenant.departed_at,
            residence=residence,
            revocations=tenant.revocations,
            migrations=tenant.migrations,
            detail=tenant.detail,
        )
        if tenant.admitted_at is not None or residence > 0:
            goodput[tenant.name] = rate
            weights[tenant.name] = tenant.weight

    return TenancyResult(
        spec=spec,
        records=records,
        fairness=fairness_report(
            goodput, weights, utilization=scheduler.utilization()
        ),
        trace=trace,
        stats=runtime.stats(),
        telemetry=runtime.obs,
        fault_log=fault_log,
        runtime=runtime,
        admission_log=list(runtime.admission_log),
        arbitration=controller.summary() if controller else None,
    )
