"""One front door for running experiments: ``repro.run_experiment``.

Before this facade the repo had three ways to run the same simulation —
:meth:`repro.runtime.api.StampedeApp.run_simulated` (hand-built apps),
:class:`repro.runtime.Runtime` driven directly (tests, notebooks), and
the sweep runner's cell executor (benches) — each wiring
cluster/policy/GC/faults slightly differently. :func:`run_experiment`
unifies them: every entry style builds an :class:`ExperimentSpec`,
resolves it to one :class:`~repro.runtime.Runtime`, and returns a
:class:`RunResult` bundling the trace, runtime statistics, the fault
log, and the telemetry hub. The legacy entry points now delegate here,
so behaviour (and determinism fingerprints) cannot drift between them.

>>> import repro
>>> result = repro.run_experiment(repro.ExperimentSpec(horizon=5.0))
>>> len(result.trace.sink_iterations()) > 0
True
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Tuple, Union

from repro.errors import ConfigError
from repro.schema import build


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything one experiment needs, in one declarative value.

    Attributes
    ----------
    app:
        What to run: a builtin app name (see :data:`repro.apps.APPS`),
        a :class:`~repro.runtime.TaskGraph`, or a
        :class:`~repro.runtime.api.StampedeApp` (its graph is used).
    app_config:
        Per-app config object (e.g. ``TrackerConfig``) when ``app`` is a
        name; must be None for graph/app instances.
    config:
        Cluster: a name registered in :data:`repro.cluster.CLUSTERS`
        (the paper's ``"config1"`` / ``"config2"``...), a
        ``{"kind": name, ...}`` object, a
        :class:`~repro.cluster.ClusterSpec`, or None for config1 (see
        :func:`~repro.cluster.spec.cluster_spec`). The tracker on
        ``"config2"`` gets the paper's placement by default.
    policy:
        ARU policy: an :class:`~repro.aru.AruConfig`, a registered
        policy name (``"aru-max"``...), or None for disabled.
    scale_policy:
        Elastic-parallelism policy for replicated stages: a
        :class:`~repro.control.ScaleConfig`, a registered name
        (``"erlang"``...), or None for not configured. Only meaningful
        when the resolved graph declares replicated stages.
    gc / seed / placement / loads / retry:
        Forwarded to :class:`~repro.runtime.RuntimeConfig`.
    trace_rows:
        Keep the trace's rows — item sites, sizes, lineage and
        lifetimes, touches, iterations, STP samples — beside the latency
        anchors, sink table and iteration counts every run keeps (True,
        the default: a single experiment's trace is its product).
        Without them the postmortem (``PostmortemAnalyzer``,
        ``metrics_from_trace``), ``save_trace``, the Gantt chart,
        ``control_series`` and the record views raise
        :class:`~repro.errors.TraceError`; the latency, throughput and
        jitter functions run either way. ``proc`` needs them to merge
        its workers' traces.
    faults:
        A tuple of :class:`~repro.faults.FaultSpec` (or a
        :class:`~repro.faults.FaultSchedule`); empty injects nothing.
    telemetry:
        False (off, zero overhead), True, a
        :class:`~repro.obs.TelemetryConfig`, or a pre-built
        :class:`~repro.obs.TelemetryHub`.
    horizon:
        Simulated seconds to run (wall-clock seconds on the live
        ``threads``/``proc`` backends).
    backend:
        Which executor runs the spec: a name registered in
        :mod:`repro.backends` (``"sim"``, ``"threads"``, ``"proc"``,
        or an extension). The default ``"sim"`` is the deterministic
        discrete-event simulation.
    backend_options:
        Backend-specific knobs (e.g. ``{"compute_mode": "spin"}`` for
        the threads backend); must be empty for ``sim``.
    """

    app: Any = "tracker"
    app_config: Any = None
    config: Any = None
    policy: Any = None
    scale_policy: Any = None
    gc: Any = "dgc"
    seed: int = 0
    horizon: float = 120.0
    placement: Mapping[str, str] = field(default_factory=dict)
    loads: Tuple[Any, ...] = ()
    faults: Any = ()
    retry: Any = None
    trace_rows: bool = True
    telemetry: Any = False
    backend: str = "sim"
    backend_options: Mapping[str, Any] = field(default_factory=dict)

    def with_(self, **changes) -> "ExperimentSpec":
        return replace(self, **changes)

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "ExperimentSpec":
        """The spec-file form (``run-config``, chaos files): an object
        whose keys are this class's fields.

        ``app_config`` is read as the named app's config, each ``loads``
        entry as a :class:`~repro.cluster.LoadSpec`, ``faults`` as
        :class:`~repro.faults.FaultSpec` entries and ``policy`` through
        :func:`~repro.control.resolve_policy`, so their errors surface
        when the file is read.
        """
        from repro.apps import app_config_from_dict
        from repro.cluster.load import LoadSpec
        from repro.control.registry import resolve_policy
        from repro.faults.spec import FaultSchedule

        app = raw.get("app", "tracker") if isinstance(raw, Mapping) else None
        return build(cls, raw, "experiment spec", parse={
            "app_config": lambda value: app_config_from_dict(
                app, value, "app_config"),
            "policy": resolve_policy,
            "loads": lambda value: tuple(
                build(LoadSpec, load, f"loads[{i}]")
                for i, load in enumerate(value)),
            "faults": lambda value: FaultSchedule.from_dicts(value).faults,
        })

    # -- resolution ------------------------------------------------------
    def resolve_graph(self):
        """The task graph this spec runs (builds builtin apps by name)."""
        from repro.runtime.api import StampedeApp
        from repro.runtime.graph import TaskGraph

        app = self.app
        if isinstance(app, StampedeApp):
            app = app.graph
        if isinstance(app, TaskGraph):
            if self.app_config is not None:
                raise ConfigError(
                    "app_config only applies when app is a builtin name"
                )
            return app
        from repro.apps import APPS

        build, _ = APPS.get(app)
        return build(self.app_config)

    @property
    def config_name(self) -> Any:
        """``config``'s name: an object's ``kind``; ``"config1"`` if unset."""
        config = "config1" if self.config is None else self.config
        return config.get("kind") if isinstance(config, Mapping) else config

    def resolve_cluster_and_placement(self):
        """``(ClusterSpec, placement)`` with the paper's defaults."""
        from repro.cluster.spec import cluster_spec

        placement = dict(self.placement)
        if (self.config_name == "config2" and self.app == "tracker"
                and not placement):
            from repro.apps.tracker import tracker_placement
            placement = tracker_placement()
        return cluster_spec("config1" if self.config is None
                            else self.config), placement

    def resolve_policy(self):
        """The :class:`~repro.aru.AruConfig` (names via the registry)."""
        from repro.control.registry import resolve_policy
        return resolve_policy(self.policy)

    def resolve_scale_policy(self):
        """The :class:`~repro.control.ScaleConfig` or None (names via
        the scale registry)."""
        from repro.control.registry import resolve_scale_policy
        return resolve_scale_policy(self.scale_policy)

    def runtime_config(self):
        """The fully resolved :class:`~repro.runtime.RuntimeConfig`."""
        from repro.runtime.retry import RetryPolicy
        from repro.runtime.runtime import RuntimeConfig

        cluster, placement = self.resolve_cluster_and_placement()
        kwargs: Dict[str, Any] = dict(
            cluster=cluster,
            gc=self.gc,
            aru=self.resolve_policy(),
            seed=self.seed,
            placement=placement,
            trace_rows=self.trace_rows,
            loads=tuple(self.loads),
            telemetry=self.telemetry,
            scale=self.resolve_scale_policy(),
        )
        if self.retry is not None:
            if not isinstance(self.retry, RetryPolicy):
                raise ConfigError(f"retry must be a RetryPolicy, got {self.retry!r}")
            kwargs["retry"] = self.retry
        return RuntimeConfig(**kwargs)


@dataclass
class RunResult:
    """Everything one finished experiment produced.

    ``trace`` is the :class:`~repro.metrics.TraceRecorder` the legacy
    entry points used to return; ``telemetry`` is the live hub (the
    shared null hub when telemetry was off); ``fault_log`` is None for
    fault-free runs; ``runtime`` stays available for post-run
    inspection (buffers, drivers, nodes).
    """

    spec: ExperimentSpec
    trace: Any
    stats: Dict[str, dict]
    telemetry: Any
    fault_log: Any = None
    runtime: Any = None

    @property
    def telemetry_enabled(self) -> bool:
        return bool(getattr(self.telemetry, "enabled", False))


def run_experiment(spec: Union[ExperimentSpec, Mapping[str, Any], None] = None,
                   **overrides) -> RunResult:
    """Run one experiment end to end; the single front door.

    Accepts an :class:`ExperimentSpec`, its spec-file dict (see
    :meth:`ExperimentSpec.from_dict`), or keyword overrides over the
    default spec:

    >>> import repro
    >>> repro.run_experiment(horizon=5.0).telemetry_enabled
    False
    """
    if spec is None:
        spec = ExperimentSpec(**overrides)
    elif isinstance(spec, ExperimentSpec):
        if overrides:
            spec = spec.with_(**overrides)
    elif isinstance(spec, Mapping):
        spec = ExperimentSpec.from_dict(spec)
        if overrides:
            spec = spec.with_(**overrides)
    else:
        raise ConfigError(
            f"run_experiment takes an ExperimentSpec or dict, got {spec!r}"
        )

    from repro.backends import resolve_backend

    runner = resolve_backend(spec.backend)
    return runner(spec)


def execute_simulated(spec: ExperimentSpec) -> RunResult:
    """Run a spec on the discrete-event simulator (the ``sim`` backend).

    This is the registered runner behind ``backend="sim"``; call
    :func:`run_experiment` instead of this directly so the dispatch
    stays in one place.
    """
    if spec.backend_options:
        raise ConfigError(
            f"the sim backend takes no backend_options, "
            f"got {dict(spec.backend_options)!r}"
        )

    from repro.runtime.runtime import Runtime

    graph = spec.resolve_graph()
    runtime = Runtime(graph, spec.runtime_config())

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

    trace = runtime.run(until=spec.horizon)
    return RunResult(
        spec=spec,
        trace=trace,
        stats=runtime.stats(),
        telemetry=runtime.obs,
        fault_log=fault_log,
        runtime=runtime,
    )
