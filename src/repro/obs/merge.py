"""Aggregate per-worker telemetry snapshots into one exportable hub.

The distributed backend runs one telemetry hub per worker process and
ships each hub's :meth:`~repro.obs.hub.TelemetryHub.snapshot` (plain
picklable data) back over the control socket. :func:`merge_snapshots`
folds those into a single snapshot — counters and histogram buckets sum,
gauges take the maximum (worker gauges are peaks/levels; a sum would
invent memory that never coexisted) except the run totals of
:data:`TOTAL_GAUGES`, which sum as ``merge_stats`` sums the same stats
fields, histogram merges require identical bucket bounds — and :func:`hub_from_snapshot` rebuilds a live
:class:`~repro.obs.hub.TelemetryHub` from it so every existing exporter
(:func:`~repro.obs.export.prometheus_text`, JSONL, summary tables) works
on distributed results unchanged.

Span *events* are not shipped from workers (only their counts), so a
rebuilt hub has an empty tracer; Chrome-trace export of a distributed
run is documented as unsupported in ``docs/distributed.md``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.errors import TelemetryError
from repro.obs.hub import TelemetryConfig, TelemetryHub


#: Gauges each worker sets once, at finalize, to its own share of a run
#: total (``TelemetryHub.on_finalize``): merged, they are the sum.
TOTAL_GAUGES = frozenset({"repro_engine_events_processed",
                          "repro_network_bytes_total"})


def _key(sample: dict) -> Tuple[str, Tuple[Tuple[str, str], ...]]:
    return sample["name"], tuple(sorted(sample["labels"].items()))


def merge_snapshots(snapshots: Iterable[dict]) -> dict:
    """Merge hub snapshots (one per worker) into one snapshot dict."""
    snapshots = [s for s in snapshots if s and s.get("enabled")]
    if not snapshots:
        raise TelemetryError("no enabled telemetry snapshots to merge")
    merged: Dict[Tuple[str, tuple], dict] = {}
    order: List[Tuple[str, tuple]] = []
    for snap in snapshots:
        for sample in snap.get("metrics", []):
            key = _key(sample)
            have = merged.get(key)
            if have is None:
                merged[key] = {k: (dict(v) if isinstance(v, dict) else
                                   [list(b) for b in v] if k == "buckets" else v)
                               for k, v in sample.items()}
                order.append(key)
                continue
            if have["type"] != sample["type"]:
                raise TelemetryError(
                    f"metric {sample['name']!r} is a {have['type']} in one "
                    f"worker and a {sample['type']} in another"
                )
            if have["type"] == "counter":
                have["value"] += sample["value"]
            elif key[0] in TOTAL_GAUGES:
                have["value"] += sample["value"]
            elif have["type"] == "gauge":
                have["value"] = max(have["value"], sample["value"])
            else:  # histogram
                bounds = [b for b, _ in have["buckets"]]
                if bounds != [b for b, _ in sample["buckets"]]:
                    raise TelemetryError(
                        f"histogram {sample['name']!r} bucket bounds differ "
                        f"across workers; cannot merge"
                    )
                for slot, (_b, count) in zip(have["buckets"],
                                             sample["buckets"]):
                    slot[1] += count
                have["count"] += sample["count"]
                have["sum"] += sample["sum"]
            # None: never updated (a counter still at zero) in that worker.
            have["t"] = max((t for t in (have["t"], sample["t"]) if t is not None),
                            default=None)
    meta: Dict[str, object] = {}
    for snap in snapshots:
        meta.update(snap.get("meta", {}))
    spans: Dict[str, object] = {}
    for snap in snapshots:
        for k, v in (snap.get("spans") or {}).items():
            if isinstance(v, (int, float)) and isinstance(spans.get(k, 0), (int, float)):
                spans[k] = spans.get(k, 0) + v
            else:
                spans[k] = v
    return {
        "enabled": True,
        "meta": meta,
        "t_end": max((s.get("t_end") or 0.0) for s in snapshots),
        "metrics": [merged[k] for k in order],
        "spans": spans,
    }


def hub_from_snapshot(snapshot: dict) -> TelemetryHub:
    """Rebuild a live hub from a (possibly merged) snapshot.

    The returned hub's metric registry reproduces every sample —
    exporters cannot tell it from the hub that recorded them. Span
    events are not reconstructable from a snapshot; the tracer starts
    empty.
    """
    if not snapshot.get("enabled"):
        raise TelemetryError("cannot rebuild a hub from a disabled snapshot")
    hub = TelemetryHub(TelemetryConfig(enabled=True, metrics=True, spans=False))
    for sample in snapshot.get("metrics", []):
        name, labels = sample["name"], sample["labels"]
        if sample["type"] == "counter":
            metric = hub.metrics.counter(name, labels)
            metric.value = sample["value"]
        elif sample["type"] == "gauge":
            metric = hub.metrics.gauge(name, labels)
            metric.value = sample["value"]
        else:
            buckets = sample["buckets"]
            bounds = tuple(b for b, _ in buckets[:-1])
            metric = hub.metrics.histogram(name, labels, buckets=bounds)
            running = 0
            counts = []
            for _b, cum in buckets[:-1]:
                counts.append(int(cum - running))
                running = cum
            metric.bucket_counts = counts
            metric.inf_count = int(buckets[-1][1] - running)
            metric.count = int(sample["count"])
            metric.total = sample["sum"]
        metric.last_updated = sample["t"]
    hub.run_meta.update(snapshot.get("meta", {}))
    hub.t_end = snapshot.get("t_end")
    return hub
