"""ARU configuration: the declarative description of one control stack.

An :class:`AruConfig` names a policy *kind* plus every knob the control
plane (:mod:`repro.control`) needs to assemble it — compression
operators, noise filters, headroom, staleness TTL. It stays
a frozen, picklable value object so sweep cells and result-cache keys
can carry it verbatim.

Presets cover the paper's three evaluated policies (``no-aru`` /
``aru-min`` / ``aru-max``) plus the PI-controller extension
(``aru-pid``); register more via :func:`repro.control.register_policy`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

from repro.aru.filters import FilterFactory, resolve_factory
from repro.aru.operators import Operator, resolve
from repro.errors import ConfigError

#: Policy kinds a thread driver can assemble: the paper's
#: :class:`~repro.control.policy.SummaryStpPolicy` and
#: :class:`~repro.control.policy.PidPolicy`.
_POLICY_KINDS = ("summary-stp", "pid")


@dataclass(frozen=True)
class AruConfig:
    """Everything that parameterizes the ARU mechanism.

    Attributes
    ----------
    enabled:
        Master switch. Disabled = the paper's "No ARU" baseline (summary
        values are neither piggybacked nor acted upon): the one way to
        turn the loop off.
    policy:
        Which policy each thread runs: ``"summary-stp"`` (the paper's
        mechanism, default) or ``"pid"`` (velocity-form PI over the
        same measurement).
    default_channel_op:
        Compression operator channels use over their consumers' summaries
        unless the channel declares its own (the optional argument the
        paper adds to ``spd_chan_alloc()``).
    thread_op:
        Compression operator threads use over their *output-connection*
        backward vector.
    stp_filter / summary_filter:
        Noise-filter factories (extension; identity reproduces the paper).
        ``stp_filter`` smooths each thread's own current-STP measurement;
        ``summary_filter`` smooths values received per connection.
    headroom:
        Throttle target multiplier (extension; 1.0 = paper).
    staleness_ttl:
        Fault-tolerance extension (``docs/fault-model.md``): evict a
        backwardSTP slot that has not been refreshed for this many
        seconds, so a dead consumer stops throttling its sources to a
        ghost period. Must exceed the pipeline's largest steady-state
        feedback interval. ``None`` (default) keeps slots forever — the
        paper's fault-free behaviour.
    """

    enabled: bool = True
    policy: str = "summary-stp"
    default_channel_op: Union[str, Operator] = "min"
    thread_op: Union[str, Operator] = "min"
    stp_filter: Union[str, FilterFactory, None] = None
    summary_filter: Union[str, FilterFactory, None] = None
    headroom: float = 1.0
    staleness_ttl: Optional[float] = None
    name: str = "aru"

    def __post_init__(self) -> None:
        if self.policy not in _POLICY_KINDS:
            raise ConfigError(
                f"unknown policy kind {self.policy!r}; "
                f"expected one of {_POLICY_KINDS}"
            )
        if self.headroom <= 0:
            raise ConfigError(f"headroom must be positive, got {self.headroom}")
        if self.staleness_ttl is not None and self.staleness_ttl <= 0:
            raise ConfigError(
                f"staleness_ttl must be positive, got {self.staleness_ttl}"
            )
        # Fail fast on bad specs rather than mid-simulation.
        resolve(self.default_channel_op)
        resolve(self.thread_op)
        resolve_factory(self.stp_filter)
        resolve_factory(self.summary_filter)

    def with_(self, **changes) -> "AruConfig":
        """Functional update helper."""
        return replace(self, **changes)


def aru_disabled() -> AruConfig:
    """The paper's "No ARU" baseline."""
    return AruConfig(enabled=False, name="no-aru")


def aru_min(**overrides) -> AruConfig:
    """ARU with the conservative ``min`` operator everywhere (paper default)."""
    cfg = AruConfig(default_channel_op="min", thread_op="min", name="aru-min")
    return cfg.with_(**overrides) if overrides else cfg


def aru_max(**overrides) -> AruConfig:
    """ARU with the aggressive ``max`` operator everywhere.

    Valid for pipelines whose consumers are fully data-dependent (fig. 4 —
    true for the tracker, where the GUI consumes both detection outputs).
    """
    cfg = AruConfig(default_channel_op="max", thread_op="max", name="aru-max")
    return cfg.with_(**overrides) if overrides else cfg


def aru_pid(**overrides) -> AruConfig:
    """The PI-controller policy over the min-compressed summary-STP.

    Same propagation as ``aru-min``; only the actuated target differs —
    it approaches the measured sustainable period smoothly instead of
    jumping to every new measurement.
    """
    cfg = AruConfig(policy="pid", default_channel_op="min", thread_op="min",
                    name="aru-pid")
    return cfg.with_(**overrides) if overrides else cfg

