"""Adaptive Resource Utilization — the paper's core contribution.

Components:

* :mod:`repro.aru.stp` — sustainable-thread-period measurement (§3.3.1);
* :mod:`repro.aru.summary` — backwardSTP vectors and summary-STP (§3.3.2);
* :mod:`repro.aru.operators` — min/max/user compression operators;
* :mod:`repro.aru.filters` — STP noise filters (paper's future work);
* :mod:`repro.aru.config` — declarative policy configs (`no-aru`,
  `aru-min`, `aru-max`, `aru-pid`, `null`).

The live feedback loop itself — sensors, the piggyback bus, rate
policies, actuators — lives in :mod:`repro.control`; this package is
the paper-specific measurement/state layer those policies build on
(:func:`throttle_sleep` is re-exported for compatibility).
"""

from repro.aru.config import (
    AruConfig,
    aru_disabled,
    aru_max,
    aru_min,
    aru_null,
    aru_pid,
)
from repro.aru.filters import (
    FILTERS,
    EwmaFilter,
    MedianFilter,
    NoFilter,
    SlewRateFilter,
    resolve_factory,
)
from repro.aru.operators import (
    MAX_OPERATOR,
    MIN_OPERATOR,
    kth_op,
    max_op,
    mean_op,
    median_op,
    min_op,
    operator_name,
    pooled_min_op,
    resolve,
)
from repro.aru.stp import StpMeter
from repro.aru.summary import BackwardStpVector, BufferAruState, ThreadAruState
from repro.control.actuator import throttle_sleep

__all__ = [
    "AruConfig",
    "aru_disabled",
    "aru_min",
    "aru_max",
    "aru_pid",
    "aru_null",
    "throttle_sleep",
    "StpMeter",
    "BackwardStpVector",
    "ThreadAruState",
    "BufferAruState",
    "min_op",
    "max_op",
    "mean_op",
    "median_op",
    "kth_op",
    "pooled_min_op",
    "MIN_OPERATOR",
    "MAX_OPERATOR",
    "resolve",
    "operator_name",
    "FILTERS",
    "NoFilter",
    "EwmaFilter",
    "MedianFilter",
    "SlewRateFilter",
    "resolve_factory",
]
