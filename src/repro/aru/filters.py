"""Noise filters for STP signals (the paper's stated future work).

§3.3.2: *"Such noise can be smoothed out by applying filters also used by
other feedback systems [21, 3, 5]. Filters to smooth summary-STP noise
have currently not been implemented in ARU and is left for future work."*

We implement that extension: a filter sits between the raw measurement
(current-STP, or a received summary-STP) and the value used by the
feedback computation. Filters are tiny stateful objects with a
``__call__(sample) -> filtered`` interface; a fresh instance is created
per signal (per thread / per connection) from a factory — except the
identity, which keeps no state: every unfiltered signal shares
:data:`NO_FILTER`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Union

from repro.errors import ConfigError
from repro.registry import Registry

#: A filter maps each raw sample to a smoothed value, statefully.
Filter = Callable[[float], float]
FilterFactory = Callable[[], Filter]


class NoFilter:
    """Identity filter — the paper's published behaviour."""

    __slots__ = ()

    def __call__(self, sample: float) -> float:
        return sample


#: The one identity filter, shared by every signal that has none (as
#: every ARU-off thread shares ``NULL_CONTROLLER``).
NO_FILTER = NoFilter()


def no_filter() -> Filter:
    """The identity filter's factory: the shared :data:`NO_FILTER`."""
    return NO_FILTER


class EwmaFilter:
    """Exponentially-weighted moving average: ``y += alpha * (x - y)``.

    ``alpha`` in (0, 1]; smaller is smoother. The first sample initializes
    the state so there is no startup bias toward zero.
    """

    def __init__(self, alpha: float = 0.3) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ConfigError(f"EWMA alpha must be in (0, 1], got {alpha}")
        self.alpha = float(alpha)
        self._state: Optional[float] = None

    def __call__(self, sample: float) -> float:
        if self._state is None:
            self._state = float(sample)
        else:
            self._state += self.alpha * (sample - self._state)
        return self._state


class MedianFilter:
    """Sliding-window median — robust to the intermittent large/small
    summary-STP spikes the paper observes under OS scheduling variance."""

    def __init__(self, window: int = 5) -> None:
        if window < 1:
            raise ConfigError(f"median window must be >= 1, got {window}")
        self.window = int(window)
        self._buf: Deque[float] = deque(maxlen=self.window)

    def __call__(self, sample: float) -> float:
        self._buf.append(float(sample))
        ordered = sorted(self._buf)
        n = len(ordered)
        mid = n // 2
        if n % 2:
            return ordered[mid]
        return 0.5 * (ordered[mid - 1] + ordered[mid])


class SlewRateFilter:
    """Limits how fast the signal may change per sample (a PLL-style
    loop-bandwidth cap): the output moves toward the input by at most
    ``max_step`` in relative terms per sample."""

    def __init__(self, max_step: float = 0.25) -> None:
        if max_step <= 0:
            raise ConfigError(f"max_step must be positive, got {max_step}")
        self.max_step = float(max_step)
        self._state: Optional[float] = None

    def __call__(self, sample: float) -> float:
        if self._state is None or self._state == 0.0:
            self._state = float(sample)
            return self._state
        ratio = sample / self._state
        lo, hi = 1.0 - self.max_step, 1.0 + self.max_step
        ratio = min(max(ratio, lo), hi)
        self._state *= ratio
        return self._state


FILTERS: Registry[Callable[..., Filter]] = Registry("filter")
FILTERS.register("none", no_filter, help="identity — the paper's behaviour")
FILTERS.register(
    "ewma", EwmaFilter,
    help="exponentially-weighted moving average (ewma:<alpha>, default 0.3)")
FILTERS.register(
    "median", MedianFilter,
    help="sliding-window median (median:<window>, default 5)")
FILTERS.register(
    "slew", SlewRateFilter,
    help="relative slew-rate limit per sample (slew:<max_step>, default "
         "0.25)")


class ParametrizedFilterFactory:
    """A filter factory carrying one constructor argument, picklable.

    Sweep workers receive experiment specs by pickling; a lambda closing
    over ``(cls, value)`` would make any config with a parametrized
    filter (``"ewma:0.2"``) unusable as a parallel cell spec.
    """

    def __init__(self, cls: type, value: Union[int, float]) -> None:
        self.cls = cls
        self.value = value

    def __call__(self) -> Filter:
        return self.cls(self.value)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ParametrizedFilterFactory)
                and other.cls is self.cls and other.value == self.value)

    def __hash__(self) -> int:
        return hash((self.cls, self.value))

    def __repr__(self) -> str:
        return f"ParametrizedFilterFactory({self.cls.__name__}, {self.value})"


def resolve_factory(spec: Union[str, FilterFactory, None]) -> FilterFactory:
    """Turn a config value into a filter factory.

    Accepts ``None``/``"none"`` (identity), a name registered in
    :data:`FILTERS` (optionally with a parameter like ``"ewma:0.2"`` /
    ``"median:7"``), or any zero-arg callable returning a filter.
    """
    if spec is None:
        return no_filter
    if callable(spec):
        return spec
    if not isinstance(spec, str):
        raise ConfigError(
            f"filter must be a name or factory, got {type(spec).__name__}")
    name, _, arg = spec.partition(":")
    cls = FILTERS.get(name.lower())
    if not arg:
        return cls
    try:
        value: Union[int, float] = float(arg) if "." in arg else int(arg)
    except ValueError:
        raise ConfigError(
            f"filter {spec!r}: parameter {arg!r} is not a number") from None
    return ParametrizedFilterFactory(cls, value)
