"""Declarative tenancy specs: JSON-able dicts -> multi-tenant runs.

The CLI's ``repro tenants my-fleet.json`` grammar, mirroring
:mod:`repro.bench.specfile`: one dict describes the cluster, the
placement strategy, and the tenant population, e.g.:

.. code-block:: json

    {
      "cluster": {"nodes": 8, "ncpus": 16},
      "placement": "rstorm",
      "admission": "queue",
      "seed": 3,
      "horizon": 20.0,
      "tenants": [
        {"name": "cam", "count": 6, "app": "tracker",
         "demand": {"cpu": 0.5, "mem_mb": 64},
         "tracker": {"frame_period": 0.1}},
        {"name": "vip", "priority": 2, "weight": 2.0,
         "arrival": 5.0}
      ]
    }

A tenant entry with ``count: N`` expands to ``name-0 .. name-(N-1)``,
each deriving its own seed from the run seed — the fleet idiom. Unknown
keys fail loudly, as everywhere else in the spec grammar.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.apps import APPS
from repro.bench.specfile import _app_config, _check_keys, aru_from_dict
from repro.cluster.spec import ClusterSpec, heterogeneous_spec, uniform_spec
from repro.errors import ConfigError, unknown_name_error
from repro.tenancy.arbiter import ArbiterConfig, resolve_arbiter_config
from repro.tenancy.run import TenancySpec
from repro.tenancy.scheduler import resolve_admission
from repro.tenancy.tenant import ResourceDemand, TenantSpec

_TOP_KEYS = {"cluster", "placement", "admission", "arbiter", "gc", "seed",
             "horizon", "tenants", "faults", "telemetry"}

_ARBITER_KEYS = {"policy", "interval", "patience", "min_residency",
                 "target_utilization", "latency_bias", "defrag",
                 "max_revocations"}

#: Besides these, a tenant may carry one config object per registered
#: app, keyed by the app's name.
_TENANT_KEYS = {"name", "count", "app", "policy", "scale_policy", "priority",
                "weight", "seed", "arrival", "departure", "demand",
                "thread_demands", "namespace"}

_DEMAND_KEYS = {"cpu", "mem_bytes", "mem_mb", "bandwidth_bps", "bandwidth_mbps"}

_CLUSTER_KEYS = {"nodes", "ncpus", "mem_bytes", "bandwidth_bps",
                 "sched_noise_cv", "kind", "n_big", "n_small", "big_ncpus",
                 "small_ncpus"}


def demand_from_dict(spec: Any, where: str) -> ResourceDemand:
    """``{"cpu": .., "mem_mb": .., "bandwidth_mbps": ..}`` -> demand."""
    if isinstance(spec, ResourceDemand):
        return spec
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be an object, got {spec!r}")
    spec = dict(spec)
    _check_keys(spec, _DEMAND_KEYS, where)
    if "mem_mb" in spec and "mem_bytes" in spec:
        raise ConfigError(f"{where}: give mem_mb or mem_bytes, not both")
    if "bandwidth_mbps" in spec and "bandwidth_bps" in spec:
        raise ConfigError(
            f"{where}: give bandwidth_mbps or bandwidth_bps, not both"
        )
    kwargs: Dict[str, Any] = {}
    if "cpu" in spec:
        kwargs["cpu"] = float(spec["cpu"])
    if "mem_bytes" in spec:
        kwargs["mem_bytes"] = int(spec["mem_bytes"])
    elif "mem_mb" in spec:
        kwargs["mem_bytes"] = int(float(spec["mem_mb"]) * 2**20)
    if "bandwidth_bps" in spec:
        kwargs["bandwidth_bps"] = int(spec["bandwidth_bps"])
    elif "bandwidth_mbps" in spec:
        kwargs["bandwidth_bps"] = int(float(spec["bandwidth_mbps"]) * 1e6)
    return ResourceDemand(**kwargs)


def cluster_from_dict(spec: Any) -> ClusterSpec:
    """``{"nodes": 8, ...}`` / ``{"kind": "heterogeneous", ...}`` -> spec."""
    if spec is None:
        return uniform_spec(4)
    if isinstance(spec, ClusterSpec):
        return spec
    if isinstance(spec, int):
        return uniform_spec(spec)
    if not isinstance(spec, dict):
        raise ConfigError(
            f"cluster must be an object, node count, or ClusterSpec; "
            f"got {spec!r}"
        )
    spec = dict(spec)
    _check_keys(spec, _CLUSTER_KEYS, "cluster")
    kind = spec.pop("kind", "uniform")
    if kind == "uniform":
        n = int(spec.pop("nodes", 4))
        for key in ("n_big", "n_small", "big_ncpus", "small_ncpus"):
            if key in spec:
                raise ConfigError(
                    f"cluster key {key!r} only applies to "
                    f"kind='heterogeneous'"
                )
        return uniform_spec(n, **spec)
    if kind == "heterogeneous":
        _check_keys(
            spec, {"n_big", "n_small", "big_ncpus", "small_ncpus",
                   "mem_bytes"},
            "cluster (kind='heterogeneous')",
        )
        return heterogeneous_spec(**spec)
    raise unknown_name_error(
        "cluster kind", kind, ("uniform", "heterogeneous")
    )


def arbiter_from_dict(spec: Any):
    """``None`` / ``"proportional"`` / ``{"policy": .., ...}`` -> config.

    Returns whatever :class:`~repro.tenancy.TenancySpec` accepts for its
    ``arbiter`` field; unknown policy names get the did-you-mean error.
    """
    if spec is None or isinstance(spec, (str, ArbiterConfig)):
        return resolve_arbiter_config(spec)
    if not isinstance(spec, dict):
        raise ConfigError(
            f"arbiter must be null, a name, or an object; got {spec!r}"
        )
    spec = dict(spec)
    _check_keys(spec, _ARBITER_KEYS, "arbiter")
    policy = spec.pop("policy", "proportional")
    kwargs: Dict[str, Any] = {"policy": policy, "name": policy}
    for key in ("interval", "patience", "min_residency",
                "target_utilization", "latency_bias"):
        if key in spec:
            kwargs[key] = float(spec.pop(key))
    if "defrag" in spec:
        kwargs["defrag"] = bool(spec.pop("defrag"))
    if "max_revocations" in spec:
        kwargs["max_revocations"] = int(spec.pop("max_revocations"))
    return resolve_arbiter_config(ArbiterConfig(**kwargs))


def _expand_tenant(raw: Dict[str, Any], index: int) -> List[TenantSpec]:
    where = f"tenants[{index}]"
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object, got {raw!r}")
    raw = dict(raw)
    _check_keys(raw, _TENANT_KEYS.union(APPS.names()), where)
    name = raw.pop("name", None)
    if not name:
        raise ConfigError(f"{where}: tenant name is required")
    count = int(raw.pop("count", 1))
    if count < 1:
        raise ConfigError(f"{where}: count must be >= 1, got {count}")

    app = raw.pop("app", "tracker")
    app_config = None
    for app_name in APPS.names():
        if app_name in raw:
            if app != app_name:
                raise ConfigError(
                    f"{where}: {app_name!r} config given but app is {app!r}"
                )
            app_config = _app_config(APPS.get(app_name)[1], raw.pop(app_name),
                                     f"{where}.{app_name}")
    kwargs: Dict[str, Any] = {"app": app, "app_config": app_config}
    if "policy" in raw:
        kwargs["policy"] = aru_from_dict(raw.pop("policy"))
    if "scale_policy" in raw:
        kwargs["scale_policy"] = raw.pop("scale_policy")
    if "demand" in raw:
        kwargs["demand"] = demand_from_dict(raw.pop("demand"),
                                            f"{where}.demand")
    if "thread_demands" in raw:
        overrides = raw.pop("thread_demands")
        if not isinstance(overrides, dict):
            raise ConfigError(f"{where}.thread_demands must be an object")
        kwargs["thread_demands"] = {
            thread: demand_from_dict(d, f"{where}.thread_demands[{thread!r}]")
            for thread, d in overrides.items()
        }
    for key in ("priority", "seed"):
        if key in raw:
            kwargs[key] = int(raw.pop(key))
    for key in ("weight", "arrival", "departure"):
        if key in raw:
            value = raw.pop(key)
            kwargs[key] = None if value is None else float(value)
    if "namespace" in raw:
        kwargs["namespace"] = raw.pop("namespace")

    if count == 1:
        return [TenantSpec(name=name, **kwargs)]
    if kwargs.get("namespace") == "":
        raise ConfigError(
            f"{where}: a blank namespace cannot expand (count={count})"
        )
    return [TenantSpec(name=f"{name}-{i}", **kwargs) for i in range(count)]


def tenancy_from_dict(spec: Dict[str, Any]) -> TenancySpec:
    """Build a :class:`~repro.tenancy.TenancySpec` from a plain dict."""
    if not isinstance(spec, dict):
        raise ConfigError("tenancy spec must be a dict")
    spec = dict(spec)
    _check_keys(spec, _TOP_KEYS, "tenancy spec")
    raw_tenants = spec.get("tenants")
    if not raw_tenants:
        raise ConfigError("tenancy spec needs a non-empty 'tenants' list")
    tenants: List[TenantSpec] = []
    for index, raw in enumerate(raw_tenants):
        tenants.extend(_expand_tenant(raw, index))

    faults: Tuple[Any, ...] = ()
    if spec.get("faults"):
        from repro.faults.spec import FaultSpec
        faults = tuple(
            FaultSpec.from_dict(f) if isinstance(f, dict) else f
            for f in spec["faults"]
        )
    return TenancySpec(
        tenants=tuple(tenants),
        cluster=cluster_from_dict(spec.get("cluster")),
        placement=spec.get("placement", "rstorm"),
        admission=resolve_admission(spec.get("admission", "queue")),
        arbiter=arbiter_from_dict(spec.get("arbiter")),
        gc=spec.get("gc", "dgc"),
        seed=int(spec.get("seed", 0)),
        horizon=float(spec.get("horizon", 30.0)),
        faults=faults,
        telemetry=spec.get("telemetry", False),
    )
