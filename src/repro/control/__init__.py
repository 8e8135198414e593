"""The control plane: the paper's rate loop and the elastic scale loop.

The paper's ARU mechanism is one fixed feedback loop (§3.3.1–3.3.2) —
summary-STP measured per thread, min/max-compressed backwards,
piggybacked on put/get, actuated as a source-side sleep. Its parts:

* :class:`StpSensor` (:mod:`~repro.control.sensor`) reads a thread's
  STP meter as :class:`Signals`;
* :class:`FeedbackEndpoint` / :class:`FeedbackBus`
  (:mod:`~repro.control.propagation`) carry summary values piggybacked
  on put/get, one backwardSTP vector per buffer;
* :class:`SummaryStpPolicy` (the paper) and :class:`PidPolicy` (a PI
  controller over the same measurement) (:mod:`~repro.control.policy`)
  hold a thread's backwardSTP vector and decide its summary and target;
* :class:`ThreadController` (:mod:`~repro.control.controller`) is one
  thread's loop; :func:`throttle_sleep` turns a target into the sleep.
  A thread with ARU off holds :data:`NULL_CONTROLLER`.

The scale loop (:mod:`~repro.control.scale`) sizes replicated stages.
The registries map CLI/spec names to configs. See
``docs/control-plane.md``.
"""

from repro.control.controller import (
    NULL_CONTROLLER,
    ThreadController,
    throttle_sleep,
)
from repro.control.policy import PidPolicy, SummaryStpPolicy
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
    ScaleConfig,
    StageScaleController,
    StageSensor,
    StageSignals,
    erlang_c,
    erlang_wait,
    required_replicas,
)
from repro.control.sensor import StpSensor
from repro.control.signals import Signals

__all__ = [
    "Signals",
    "StpSensor",
    "SummaryStpPolicy",
    "PidPolicy",
    "throttle_sleep",
    "FeedbackBus",
    "FeedbackEndpoint",
    "ThreadController",
    "NULL_CONTROLLER",
    "POLICIES",
    "register_policy",
    "resolve_policy",
    "list_policies",
    "ScaleConfig",
    "ErlangScalePolicy",
    "StageSignals",
    "StageSensor",
    "StageScaleController",
    "erlang_c",
    "erlang_wait",
    "required_replicas",
    "SCALE_POLICIES",
    "register_scale_policy",
    "resolve_scale_policy",
    "list_scale_policies",
]
