"""The pluggable control plane: sensors, propagation, policy, actuation.

The paper's ARU mechanism is one fixed feedback loop — summary-STP
measured per thread, min/max-compressed backwards, actuated as a
source-side sleep. This package carves that loop into four first-class
layers so the paper's design becomes *one instance* of a general
architecture (cf. Xia et al.'s event-driven feedback scheduling and
Fu et al.'s DRS resource controller):

* **Sensor** (:mod:`~repro.control.sensor`) — measurement:
  :class:`StpSensor` wraps the paper's STP meter;
  :class:`PipelineSensor` adds queue depths and drop counts;
* **Propagation** (:mod:`~repro.control.propagation`) — transport:
  the :class:`FeedbackBus` builds per-buffer :class:`FeedbackEndpoint`
  ports that carry summary values piggybacked on put/get;
* **Policy** (:mod:`~repro.control.policy`) — decision:
  :class:`RatePolicy` implementations map sensor :class:`Signals` to a
  target period (:class:`SummaryStpPolicy` = the paper,
  :class:`PidPolicy` = a PI controller, :class:`NullPolicy` = No ARU);
* **Actuator** (:mod:`~repro.control.actuator`) — action:
  :class:`SleepThrottle` realizes the paper's source-side sleep.

:class:`ThreadController` assembles the stack per thread;
:func:`build_thread_controller` constructs it from an
:class:`~repro.aru.config.AruConfig`; the registry maps CLI/spec names
to configs. See ``docs/control-plane.md`` for a worked custom policy.
"""

from repro.control.actuator import (
    Actuator,
    NullActuator,
    ScaleActuator,
    SleepThrottle,
    throttle_sleep,
)
from repro.control.controller import ThreadController
from repro.control.factory import build_policy, build_thread_controller
from repro.control.policy import (
    NullPolicy,
    PidPolicy,
    RatePolicy,
    SummaryStpPolicy,
)
from repro.control.propagation import FeedbackBus, FeedbackEndpoint
from repro.control.registry import (
    POLICIES,
    SCALE_POLICIES,
    list_policies,
    list_scale_policies,
    register_policy,
    register_scale_policy,
    resolve_policy,
    resolve_scale_policy,
)
from repro.control.scale import (
    ErlangScalePolicy,
    NullScalePolicy,
    ScaleConfig,
    ScalePolicy,
    StageScaleController,
    StageSensor,
    StageSignals,
    build_scale_policy,
    erlang_c,
    erlang_wait,
    required_replicas,
)
from repro.control.sensor import PipelineSensor, Sensor, StpSensor
from repro.control.signals import Signals

__all__ = [
    "Signals",
    "Sensor",
    "StpSensor",
    "PipelineSensor",
    "RatePolicy",
    "NullPolicy",
    "SummaryStpPolicy",
    "PidPolicy",
    "Actuator",
    "SleepThrottle",
    "NullActuator",
    "throttle_sleep",
    "FeedbackBus",
    "FeedbackEndpoint",
    "ThreadController",
    "build_policy",
    "build_thread_controller",
    "POLICIES",
    "register_policy",
    "resolve_policy",
    "list_policies",
    "ScaleActuator",
    "ScaleConfig",
    "ScalePolicy",
    "NullScalePolicy",
    "ErlangScalePolicy",
    "StageSignals",
    "StageSensor",
    "StageScaleController",
    "build_scale_policy",
    "erlang_c",
    "erlang_wait",
    "required_replicas",
    "SCALE_POLICIES",
    "register_scale_policy",
    "resolve_scale_policy",
    "list_scale_policies",
]
