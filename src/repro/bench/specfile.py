"""Declarative experiment specs: JSON-able dicts -> runnable experiments.

Lets a whole experiment — workload, cluster, policy, GC, loads, horizon —
be described in one plain dict (and therefore a JSON file usable from the
CLI's ``run-config``), e.g.:

.. code-block:: json

    {
      "app": "tracker",
      "config": "config1",
      "aru": {"preset": "aru-max", "summary_filter": "ewma:0.2"},
      "gc": "dgc",
      "seed": 3,
      "horizon": 90.0,
      "loads": [{"node": "node0", "start": 30, "stop": 60, "threads": 4}],
      "tracker": {"frame_period": 0.02}
    }

Unknown keys fail loudly — config typos must never silently run the
default experiment.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.apps import APPS
from repro.apps.tracker import tracker_placement
from repro.aru.config import AruConfig
from repro.cluster.load import LoadSpec
from repro.cluster.spec import config1_spec, config2_spec
from repro.control.registry import resolve_policy
from repro.errors import ConfigError
from repro.metrics.recorder import TraceRecorder
from repro.runtime.runtime import RuntimeConfig

#: Besides these, a spec may carry one config object per registered app,
#: keyed by the app's name.
_TOP_KEYS = {"app", "config", "aru", "gc", "seed", "horizon", "loads",
             "placement"}


def _check_keys(d: Dict[str, Any], allowed, where: str) -> None:
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")


def aru_from_dict(spec: Any) -> AruConfig:
    """``"aru-max"`` / ``{"preset": ..., <AruConfig overrides>}`` -> config.

    Preset names resolve through the control-plane policy registry, so
    extensions registered via :func:`repro.control.register_policy` are
    usable from spec files too.
    """
    if spec is None or isinstance(spec, str):
        return resolve_policy(spec)
    if not isinstance(spec, dict):
        raise ConfigError(f"aru spec must be a name or object, got {spec!r}")
    spec = dict(spec)
    preset_name = spec.pop("preset", "aru-min")
    base = aru_from_dict(preset_name)
    valid = set(AruConfig.__dataclass_fields__)
    _check_keys(spec, valid, "aru")
    return base.with_(**spec) if spec else base


def _app_config(cls, spec: Any, where: str):
    spec = dict(spec or {})
    valid = set(cls.__dataclass_fields__)
    _check_keys(spec, valid, where)
    return cls(**spec)


def experiment_from_dict(spec: Dict[str, Any]):
    """Build ``(graph, RuntimeConfig, horizon)`` from a plain dict."""
    if not isinstance(spec, dict):
        raise ConfigError("experiment spec must be a dict")
    _check_keys(spec, _TOP_KEYS.union(APPS.names()), "experiment spec")

    app = spec.get("app", "tracker")
    placement: Dict[str, str] = dict(spec.get("placement") or {})
    build, config_cls = APPS.get(app)
    graph = build(_app_config(config_cls, spec.get(app), app))

    config_name = spec.get("config", "config1")
    if config_name == "config1":
        cluster = config1_spec()
    elif config_name == "config2":
        cluster = config2_spec()
        if app == "tracker" and not placement:
            placement = tracker_placement()
    else:
        raise ConfigError(f"unknown config {config_name!r}")

    loads = tuple(
        LoadSpec(**load_spec) for load_spec in spec.get("loads", ())
    )
    horizon = float(spec.get("horizon", 120.0))
    runtime_config = RuntimeConfig(
        cluster=cluster,
        gc=spec.get("gc", "dgc"),
        aru=aru_from_dict(spec.get("aru")),
        seed=int(spec.get("seed", 0)),
        placement=placement,
        loads=loads,
    )
    return graph, runtime_config, horizon


def run_experiment(spec: Dict[str, Any]) -> TraceRecorder:
    """Build and run the experiment described by ``spec``.

    Delegates to :func:`repro.run_experiment` (the unified front door);
    kept for spec-file callers that only want the trace.
    """
    from repro.experiment import run_experiment as _run

    return _run(spec).trace
