"""Metric primitives and the registry: counters, gauges, histograms.

The registry keys every instrument on ``(name, labels)`` — the same
identity Prometheus uses — and stamps updates with the DES clock (the
hub binds :attr:`MetricsRegistry.time_fn` to the runtime's
``SimClock.now``), so an exported sample carries *simulated* time, not
wall time. Instruments are plain mutable objects with ``__slots__``;
the hot-path cost of an update is one attribute store plus one clock
read. Instrument creation is idempotent: asking for an existing
``(name, labels)`` pair returns the live instrument, and asking for it
with a different *type* raises :class:`~repro.errors.TelemetryError`
rather than silently shadowing it.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import (Callable, Dict, Iterable, List, Mapping, Optional, Tuple,
                    Union)

from repro.errors import TelemetryError

#: Canonical label identity: sorted ``(key, value)`` pairs.
LabelSet = Tuple[Tuple[str, str], ...]

#: Histogram bucket bounds suited to simulated seconds (iteration
#: periods, sleeps, transfer times). An implicit +inf bucket follows.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


def canonical_labels(labels: Union[Mapping[str, object], LabelSet, None]) -> LabelSet:
    """Normalize a label mapping to its canonical sorted-tuple identity."""
    if not labels:
        return ()
    if isinstance(labels, tuple):
        return labels
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Metric:
    """Common identity of one instrument: name, labels, last-update time."""

    __slots__ = ("name", "labels", "help", "last_updated", "_time_fn")

    metric_type = "untyped"

    def __init__(self, name: str, labels: LabelSet, help: str, time_fn) -> None:
        self.name = name
        self.labels = labels
        self.help = help
        self.last_updated: Optional[float] = None
        self._time_fn = time_fn

    def _stamp(self) -> None:
        self.last_updated = self._time_fn()

    def sample(self) -> dict:
        """Plain-data snapshot of this instrument (JSONL export)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pairs = ", ".join(f"{k}={v}" for k, v in self.labels)
        return f"<{type(self).__name__} {self.name}{{{pairs}}}>"


class Counter(Metric):
    """A monotonically increasing total."""

    __slots__ = ("value",)

    metric_type = "counter"

    def __init__(self, name: str, labels: LabelSet, help: str, time_fn) -> None:
        super().__init__(name, labels, help, time_fn)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise TelemetryError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        self.value += amount
        self._stamp()

    def sample(self) -> dict:
        return {"type": "counter", "name": self.name,
                "labels": dict(self.labels), "value": self.value,
                "t": self.last_updated}


class Gauge(Metric):
    """A value that can go up and down (depths, bytes held, last STP)."""

    __slots__ = ("value",)

    metric_type = "gauge"

    def __init__(self, name: str, labels: LabelSet, help: str, time_fn) -> None:
        super().__init__(name, labels, help, time_fn)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)
        self._stamp()

    def sample(self) -> dict:
        return {"type": "gauge", "name": self.name,
                "labels": dict(self.labels), "value": self.value,
                "t": self.last_updated}


class Histogram(Metric):
    """Cumulative-bucket histogram (Prometheus semantics).

    ``bucket_counts[i]`` counts observations ``<= bounds[i]``
    *non*-cumulatively in storage; :meth:`cumulative` produces the
    Prometheus-style running totals including the +inf bucket.
    """

    __slots__ = ("bounds", "bucket_counts", "inf_count", "total", "count")

    metric_type = "histogram"

    def __init__(self, name: str, labels: LabelSet, help: str, time_fn,
                 buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        super().__init__(name, labels, help, time_fn)
        if not buckets or list(buckets) != sorted(buckets):
            raise TelemetryError(
                f"histogram {name!r} buckets must be sorted and non-empty"
            )
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in buckets)
        self.bucket_counts: List[int] = [0] * len(self.bounds)
        self.inf_count = 0
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.total += value
        self.count += 1
        # The first bucket with value <= bound; past the last, +inf.
        i = bisect_left(self.bounds, value)
        if i < len(self.bucket_counts):
            self.bucket_counts[i] += 1
        else:
            self.inf_count += 1
        self._stamp()

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def cumulative(self) -> List[Tuple[float, int]]:
        """``[(le_bound, running_count), ...]`` ending with ``(inf, count)``."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.bounds, self.bucket_counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), running + self.inf_count))
        return out

    def sample(self) -> dict:
        return {"type": "histogram", "name": self.name,
                "labels": dict(self.labels), "count": self.count,
                "sum": self.total,
                "buckets": [[b, c] for b, c in self.cumulative()],
                "t": self.last_updated}


class MetricsRegistry:
    """All instruments of one telemetry hub, keyed on ``(name, labels)``.

    Two ways in share this namespace: ordinary instrument objects,
    stamped at each update (the ad-hoc ``counter()``/``gauge()`` calls
    and the two pushed histograms), and the :attr:`sources` that read
    counts the runtime keeps itself. Sources are materialised into
    instruments lazily — every read API (``get``/``value``/``collect``/
    ``snapshot``/``len``) folds them in first, so callers observe one
    coherent registry. Their series are overwritten at each read; don't
    update them ad-hoc as well. A histogram is exported from its first
    observation on, so wiring one invents no empty sample.
    """

    def __init__(self, time_fn=None) -> None:
        self._metrics: Dict[Tuple[str, LabelSet], Metric] = {}
        self.time_fn = time_fn if time_fn is not None else (lambda: 0.0)
        #: Callables returning ``(type, name, labels, value)`` rows:
        #: ``type`` is ``"counter"`` or ``"gauge"``, ``labels`` canonical.
        self.sources: List[Callable[[], Iterable[tuple]]] = []

    def _now(self) -> float:
        return self.time_fn()

    def _get_or_create(self, cls, name: str, labels, help: str, **kwargs):
        key = (name, canonical_labels(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1], help, self._now, **kwargs)
            self._metrics[key] = metric
            return metric
        if not isinstance(metric, cls):
            raise TelemetryError(
                f"metric {name!r} already registered as "
                f"{metric.metric_type}, requested {cls.metric_type}"
            )
        return metric

    def counter(self, name: str, labels=None, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, labels, help)

    def gauge(self, name: str, labels=None, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, labels, help)

    def histogram(self, name: str, labels=None, help: str = "",
                  buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, labels, help,
                                   buckets=buckets)

    def _read_sources(self) -> None:
        """Materialise what :attr:`sources` read into instruments.

        Rows of one identity sum (two connections of one consumer, two
        runtimes on one hub). A series is stamped when its value moved
        since the last read, so re-reading an unchanged run changes
        nothing.
        """
        totals: Dict[tuple, float] = {}
        for source in self.sources:
            for kind, name, labels, v in source():
                key = (kind, name, labels)
                totals[key] = totals.get(key, 0) + v
        for (kind, name, labels), v in totals.items():
            metric = self._get_or_create(
                Counter if kind == "counter" else Gauge, name, labels, "")
            v = float(v)
            if metric.value != v:
                metric.value = v
                metric.last_updated = self.time_fn()

    def get(self, name: str, labels=None) -> Optional[Metric]:
        """The live instrument for ``(name, labels)``, or None."""
        self._read_sources()
        return self._metrics.get((name, canonical_labels(labels)))

    def value(self, name: str, labels=None, default: float = 0.0) -> float:
        """Scalar convenience read (counters/gauges only)."""
        metric = self.get(name, labels)
        if metric is None:
            return default
        return getattr(metric, "value", default)

    def collect(self) -> Iterable[Metric]:
        """Every exported instrument, sorted by ``(name, labels)``."""
        self._read_sources()
        metrics = self._metrics
        return [metrics[k] for k in sorted(metrics)
                if not isinstance(metrics[k], Histogram) or metrics[k].count]

    def snapshot(self) -> List[dict]:
        """Plain-data samples of every instrument (stable order)."""
        return [m.sample() for m in self.collect()]

    def __len__(self) -> int:
        return len(self.collect())
