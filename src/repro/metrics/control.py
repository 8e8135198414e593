"""Control-signal analysis: the feedback loop seen as time series.

Extracts per-thread STP/summary/throttle-target series from a trace and
computes loop-quality statistics — settling time, steady-state tracking
error, signal smoothness, steady-state level. The throttle target is
recorded generically as *the policy's decision* at each sync point —
the compressed summary-STP for the paper's policy, the integrated
target for the PI policy, NaN with ARU off — so every helper here
works for either policy. Used by the
filter/noise ablations, the PID-convergence bench, and the
adaptive-filters example to *look at* the control loop rather than only
its end effects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import TraceError
from repro.metrics.recorder import TraceRecorder


@dataclass
class ControlSeries:
    """Time series of one thread's feedback signals."""

    thread: str
    times: np.ndarray
    current_stp: np.ndarray
    summary: np.ndarray          # NaN where not yet known
    throttle_target: np.ndarray  # NaN where absent (non-source / no ARU)
    slept: np.ndarray

    def __len__(self) -> int:
        return len(self.times)


def control_series(recorder: TraceRecorder, thread: str) -> ControlSeries:
    """The feedback signals sampled at each of ``thread``'s sync points."""
    rows = [row for row, name in enumerate(recorder.stp_thread)
            if name == thread]
    if not rows:
        raise TraceError(
            f"no STP samples for thread {thread!r} "
            "(was the run recorded with record_stp=True?)"
        )
    # The recorder stores a ``None`` summary / target as NaN already.
    return ControlSeries(thread, *(
        np.array(column)[rows] for column in (
            recorder.stp_t, recorder.stp_current, recorder.stp_summary,
            recorder.stp_target, recorder.stp_slept)))


def settling_time(
    series: ControlSeries,
    target: float,
    tolerance: float = 0.10,
) -> Optional[float]:
    """Time at which the throttle target enters (and stays in) the
    ``±tolerance`` band around ``target``; None if it never settles."""
    values = series.throttle_target
    valid = ~np.isnan(values)
    if not valid.any():
        return None
    in_band = np.abs(values - target) <= tolerance * target
    in_band &= valid
    # last index that is out of band; settle after it
    out = np.where(~in_band)[0]
    if len(out) == 0:
        return float(series.times[0])
    last_out = out[-1]
    if last_out + 1 >= len(series.times):
        return None
    return float(series.times[last_out + 1])


def tracking_error(series: ControlSeries, target: float,
                   after: float = 0.0) -> float:
    """RMS relative error of the throttle target vs ``target`` after time
    ``after`` (nan when no data)."""
    mask = (series.times >= after) & ~np.isnan(series.throttle_target)
    if not mask.any():
        return float("nan")
    rel = (series.throttle_target[mask] - target) / target
    return float(np.sqrt(np.mean(rel**2)))


def smoothness(series: ControlSeries, after: float = 0.0) -> float:
    """Mean absolute relative step of the throttle target — the signal
    roughness the paper's noise discussion (§3.3.2) is about."""
    mask = (series.times >= after) & ~np.isnan(series.throttle_target)
    values = series.throttle_target[mask]
    if len(values) < 2:
        return float("nan")
    steps = np.abs(np.diff(values)) / np.maximum(values[:-1], 1e-12)
    return float(np.mean(steps))


def steady_state(series: ControlSeries, after: float = 0.0) -> float:
    """Mean policy decision (throttle target) after time ``after``.

    The natural "where did the loop converge to?" statistic: for the
    summary-STP policy it is the mean advertised sustainable period; for
    the PI policy it is the integrated target, so comparing the two on
    the same workload quantifies how closely the controller tracks the
    measured sustainable rate. NaN when the thread was never throttled
    in the window.
    """
    mask = (series.times >= after) & ~np.isnan(series.throttle_target)
    if not mask.any():
        return float("nan")
    return float(np.mean(series.throttle_target[mask]))


def convergence_ratio(
    series: ControlSeries,
    reference: float,
    after: float = 0.0,
) -> float:
    """Steady-state decision relative to a reference period.

    ``1.0`` means the policy settled exactly on ``reference`` (e.g. the
    sustainable period measured by the summary-STP policy on the same
    cell); the PID acceptance bench asserts ``|ratio - 1| <= 0.1``.
    """
    level = steady_state(series, after=after)
    if reference <= 0 or np.isnan(level):
        return float("nan")
    return float(level / reference)


def throttle_duty(series: ControlSeries, after: float = 0.0) -> float:
    """Fraction of sync points at which the thread actually slept."""
    mask = series.times >= after
    if not mask.any():
        return float("nan")
    return float(np.mean(series.slept[mask] > 0))
