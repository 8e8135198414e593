"""The policy registries: names usable from CLI flags and spec files.

Registered names resolve to :class:`~repro.aru.config.AruConfig` (rate)
or :class:`~repro.control.scale.ScaleConfig` (scale) values — picklable,
declarative descriptions of a control stack — so spec files, sweep
cells, and the CLI all share one resolution path and stay process-pool
safe. ``no-scale`` resolves to ``None``: scaling off. Both are
:class:`~repro.registry.Registry` instances of zero-argument factories;
unknown names raise :class:`~repro.errors.ConfigError` with close-match
suggestions.

Extensions register their own presets::

    from repro.control import register_policy
    from repro.aru import aru_max

    register_policy("aru-max-ttl", lambda: aru_max(
        staleness_ttl=2.0, name="aru-max-ttl"),
        help="aru-max that forgets a consumer silent for 2 s")
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Optional, Union

from repro.aru.config import (
    AruConfig,
    aru_disabled,
    aru_max,
    aru_min,
    aru_pid,
)
from repro.control.scale import ScaleConfig, scale_erlang, scale_erlang_latency
from repro.registry import Registry
from repro.schema import check_keys

POLICIES: Registry[Callable[[], AruConfig]] = Registry("policy")
SCALE_POLICIES: Registry[Callable[[], Optional[ScaleConfig]]] = Registry(
    "scale policy")

register_policy = POLICIES.register
list_policies = POLICIES.names
register_scale_policy = SCALE_POLICIES.register
list_scale_policies = SCALE_POLICIES.names


def resolve_policy(policy: Union[str, AruConfig, Mapping[str, Any], None]
                   ) -> AruConfig:
    """A name, an explicit config, None (ARU off), or a spec file's
    ``{"preset": name, <AruConfig overrides>}`` (preset ``aru-min`` by
    default) -> the :class:`AruConfig` to run."""
    if policy is None:
        return aru_disabled()
    if isinstance(policy, AruConfig):
        return policy
    if isinstance(policy, Mapping):
        overrides = dict(policy)
        base = resolve_policy(overrides.pop("preset", "aru-min"))
        check_keys(overrides, AruConfig.__dataclass_fields__, "policy")
        return base.with_(**overrides)
    return POLICIES.get(policy)()


def resolve_scale_policy(
        policy: Union[str, ScaleConfig, None]) -> Union[ScaleConfig, None]:
    """A name, an explicit config, or None (elastic scaling off, passed
    through) -> the :class:`ScaleConfig` to run, or None."""
    if policy is None or isinstance(policy, ScaleConfig):
        return policy
    return SCALE_POLICIES.get(policy)()


register_policy(
    "no-aru", aru_disabled,
    help="feedback loop off — the paper's baseline (maximum waste)")
register_policy(
    "aru-min", aru_min,
    help="summary-STP with conservative min compression (paper default)")
register_policy(
    "aru-max", aru_max,
    help="summary-STP with aggressive max compression (data-dependent "
         "consumers)")
register_policy(
    "aru-pid", aru_pid,
    help="velocity-form PI controller over the summary-STP measurement")

register_scale_policy(
    "no-scale", lambda: None,
    help="elastic scaling off — fixed-N baseline (zero added events)")
register_scale_policy(
    "erlang", scale_erlang,
    help="DRS-style Erlang utilisation predictor (N = ceil(lambda*s/rho))")
register_scale_policy(
    "erlang-latency", scale_erlang_latency,
    help="Erlang predictor sized to an explicit queueing-wait budget")
