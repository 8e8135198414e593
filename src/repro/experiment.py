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
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.errors import ConfigError


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
        Cluster: a paper config name (``"config1"`` / ``"config2"``), a
        :class:`~repro.cluster.ClusterSpec`, or None for config1. The
        tracker on ``"config2"`` gets the paper's placement by default.
    policy:
        ARU policy: an :class:`~repro.aru.AruConfig`, a registered
        policy name (``"aru-max"``...), or None for disabled.
    scale_policy:
        Elastic-parallelism policy for replicated stages: a
        :class:`~repro.control.ScaleConfig`, a registered name
        (``"erlang"``...), or None for not configured. Only meaningful
        when the resolved graph declares replicated stages.
    gc / seed / placement / loads / retry / record_stp:
        Forwarded to :class:`~repro.runtime.RuntimeConfig`.
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
    record_stp: bool = True
    telemetry: Any = False
    backend: str = "sim"
    backend_options: Mapping[str, Any] = field(default_factory=dict)

    def with_(self, **changes) -> "ExperimentSpec":
        return replace(self, **changes)

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

    def resolve_cluster_and_placement(self):
        """``(ClusterSpec, placement)`` with the paper's defaults."""
        from repro.cluster.spec import ClusterSpec, config1_spec, config2_spec

        placement = dict(self.placement)
        config = self.config
        if config is None:
            return config1_spec(), placement
        if isinstance(config, ClusterSpec):
            return config, placement
        if config == "config1":
            return config1_spec(), placement
        if config == "config2":
            if self.app == "tracker" and not placement:
                from repro.apps.tracker import tracker_placement
                placement = tracker_placement()
            return config2_spec(), placement
        raise ConfigError(
            f"unknown config {config!r}; expected config1/config2 "
            f"or a ClusterSpec"
        )

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
            record_stp=self.record_stp,
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


def _spec_from_dict(raw: Mapping[str, Any]) -> ExperimentSpec:
    """Adapt the declarative spec-file grammar to an ExperimentSpec.

    The dict grammar (see :mod:`repro.bench.specfile`) keeps its own
    strict validation; this only lifts the keys the facade owns
    (``telemetry``, ``faults``) before handing the rest over.
    """
    from repro.bench.specfile import experiment_from_dict
    from repro.faults.spec import FaultSpec

    raw = dict(raw)
    telemetry = raw.pop("telemetry", False)
    backend = raw.pop("backend", "sim")
    backend_options = raw.pop("backend_options", {})
    faults = tuple(
        FaultSpec.from_dict(f) if isinstance(f, dict) else f
        for f in raw.pop("faults", ())
    )
    # Validate + normalize everything else through the specfile grammar.
    graph, runtime_config, horizon = experiment_from_dict(raw)
    return ExperimentSpec(
        app=graph,
        config=runtime_config.cluster,
        policy=runtime_config.aru,
        gc=runtime_config.gc,
        seed=runtime_config.seed,
        horizon=horizon,
        placement=runtime_config.placement,
        loads=runtime_config.loads,
        faults=faults,
        telemetry=telemetry,
        backend=backend,
        backend_options=backend_options,
    )


def run_experiment(spec: Union[ExperimentSpec, Mapping[str, Any], None] = None,
                   **overrides) -> RunResult:
    """Run one experiment end to end; the single front door.

    Accepts an :class:`ExperimentSpec`, a spec-file dict (the
    ``run-config`` grammar plus ``telemetry``/``faults`` keys), or
    keyword overrides over the default spec:

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
        spec = _spec_from_dict(spec)
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
