"""Adaptive Resource Utilization — the paper's core contribution.

Components:

* :mod:`repro.aru.stp` — sustainable-thread-period measurement (§3.3.1);
* :mod:`repro.aru.summary` — backwardSTP vectors and summary-STP (§3.3.2);
* :mod:`repro.aru.operators` — min/max/user compression operators;
* :mod:`repro.aru.filters` — STP noise filters (paper's future work);
* :mod:`repro.aru.config` — declarative policy configs (`no-aru`,
  `aru-min`, `aru-max`, `aru-pid`).

The live feedback loop itself — the STP sensor, the piggyback bus, the
rate policies and the source sleep — lives in :mod:`repro.control`;
this package is the measurement/state layer those policies build on.
"""

from repro.aru.config import (
    AruConfig,
    aru_disabled,
    aru_max,
    aru_min,
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
from repro.aru.summary import BackwardStpVector

__all__ = [
    "AruConfig",
    "aru_disabled",
    "aru_min",
    "aru_max",
    "aru_pid",
    "StpMeter",
    "BackwardStpVector",
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
