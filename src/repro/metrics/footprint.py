"""Memory-footprint statistics — the paper's §4 formulas.

Mean footprint:  ``MU_mu = sum(MU_(t_i+1) * (t_(i+1) - t_i)) / (t_N - t_0)``
Std deviation:   ``MU_sigma = sqrt(sum((MU_mu - MU_(t_i+1))^2 * dt) / (t_N - t_0))``

i.e. the time-weighted mean and deviation of the step function formed by
total channel-held bytes over time. :class:`Timeline` materializes that
step function from alloc/free intervals (:func:`timeline_from_intervals`)
and computes the statistics exactly (no sampling error).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


class Timeline:
    """A right-continuous step function ``bytes(t)`` on ``[t0, t1]``.

    ``times`` are the breakpoints (including ``t0`` and ``t1``); ``values``
    has one entry per interval ``[times[i], times[i+1])``.
    """

    def __init__(self, times: np.ndarray, values: np.ndarray) -> None:
        if len(times) != len(values) + 1:
            raise ValueError("need len(times) == len(values) + 1")
        if len(values) == 0:
            raise ValueError("empty timeline")
        if np.any(np.diff(times) < 0):
            raise ValueError("times must be non-decreasing")
        self.times = times
        self.values = values

    def __eq__(self, other: object) -> bool:
        """Exact (bitwise) equality of breakpoints and values.

        Needed so experiment results — which embed timelines — support
        the differential determinism checks of the sweep runner.
        """
        if not isinstance(other, Timeline):
            return NotImplemented
        return (np.array_equal(self.times, other.times)
                and np.array_equal(self.values, other.values))

    __hash__ = None  # mutable arrays; equality is by content

    # -- statistics ----------------------------------------------------------
    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])

    def integral(self) -> float:
        """Byte-seconds under the curve."""
        return float(np.sum(self.values * np.diff(self.times)))

    def mean(self) -> float:
        """Time-weighted mean occupancy (the paper's ``MU_mu``)."""
        if self.duration == 0:
            return float(self.values[0])
        return self.integral() / self.duration

    def std(self) -> float:
        """Time-weighted standard deviation (the paper's ``MU_sigma``)."""
        if self.duration == 0:
            return 0.0
        mu = self.mean()
        var = float(np.sum((self.values - mu) ** 2 * np.diff(self.times))) / self.duration
        return float(np.sqrt(max(0.0, var)))

    def peak(self) -> float:
        return float(np.max(self.values))

    def at(self, t: float) -> float:
        """Value of the step function at time ``t``."""
        if t < self.times[0] or t > self.times[-1]:
            raise ValueError(f"t={t} outside [{self.times[0]}, {self.times[-1]}]")
        idx = int(np.searchsorted(self.times, t, side="right") - 1)
        idx = min(idx, len(self.values) - 1)
        return float(self.values[idx])

    def sample(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """``n`` evenly spaced (t, bytes) samples, for plots/ASCII figures."""
        if n < 2:
            raise ValueError("need n >= 2 samples")
        ts = np.linspace(self.times[0], self.times[-1], n)
        vals = np.array([self.at(t) for t in ts])
        return ts, vals


def timeline_from_intervals(
    starts: np.ndarray,
    ends: np.ndarray,
    sizes: np.ndarray,
    t0: float,
    t1: float,
) -> Timeline:
    """Step function of total bytes held by raw ``[start, end)`` intervals.

    The postmortem analyzer calls it with array copies of the
    recorder's item columns. Input arrays are not modified.

    Sweep-line over (time, ±size) deltas, vectorized. ``np.cumsum``
    accumulates left-to-right exactly like the reference Python loop
    (unlike ``np.sum``, which pairs), and the stable argsort matches a
    stable list sort keyed on time — so the resulting step function is
    bit-for-bit identical to the scalar implementation (pinned by
    tests/metrics/test_footprint.py::test_build_timeline_matches_reference).
    """
    if t1 < t0:
        raise ValueError(f"horizon t1={t1} before t0={t0}")
    starts = np.maximum(starts, t0)
    ends = np.minimum(ends, t1)
    alive = ends > starts
    if not alive.all():
        starts = starts[alive]
        ends = ends[alive]
        sizes = sizes[alive]
    n = len(starts)
    if n == 0:
        return Timeline(np.array([t0, t1]), np.array([0.0]))
    # Interleave (start, +size), (end, -size) in item order — the exact
    # sequence the reference loop emitted, so the stable sort's tie-break
    # order is unchanged.
    times = np.empty(2 * n)
    times[0::2] = starts
    times[1::2] = ends
    deltas_arr = np.empty(2 * n)
    deltas_arr[0::2] = sizes
    deltas_arr[1::2] = -sizes
    order = np.argsort(times, kind="stable")
    times = times[order]
    levels = np.cumsum(deltas_arr[order])
    # Keep the last entry of each run of equal times: the level of the
    # interval that *starts* there, after all deltas at that instant.
    keep = np.empty(len(times), dtype=bool)
    keep[:-1] = times[1:] != times[:-1]
    keep[-1] = True
    bp_times = times[keep]
    bp_levels = levels[keep]
    if bp_times[0] == t0:
        head_level = bp_levels[0]
        bp_times = bp_times[1:]
        bp_levels = bp_levels[1:]
    else:
        head_level = 0.0
    if len(bp_times) and bp_times[-1] == t1:
        out_times = np.concatenate(((t0,), bp_times))
        out_values = np.concatenate(((head_level,), bp_levels[:-1]))
    else:
        out_times = np.concatenate(((t0,), bp_times, (t1,)))
        out_values = np.concatenate(((head_level,), bp_levels))
    return Timeline(out_times, out_values)
