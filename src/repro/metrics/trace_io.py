"""Trace persistence: save a run's statistics, re-analyze later.

The paper's measurement flow records statistics during the run and
derives every metric afterwards in "a postmortem analysis program". This
module makes that split concrete: :func:`save_trace` serializes a
finalized :class:`~repro.metrics.recorder.TraceRecorder` to a compact
JSON document, :func:`load_trace` reconstructs an equivalent recorder so
the whole metrics stack (footprint, performance, postmortem, IGC) runs
unchanged on stored traces.

Format: one JSON object, schema-versioned. Floats are kept at full
precision (``repr`` round-trip), so analysis results match exactly.
"""

from __future__ import annotations

import json
from array import array
from operator import itemgetter
from pathlib import Path
from typing import Union

from repro.errors import TraceError
from repro.metrics.recorder import TraceRecorder

#: Bump on any incompatible schema change.
SCHEMA_VERSION = 1

#: The file's keys for a row, in the order the recorder's hook takes them.
_ITEM_KEYS = ("id", "channel", "node", "ts", "size", "producer", "parents",
              "t_alloc")
_ITERATION_KEYS = ("thread", "t_start", "t_end", "compute", "blocked",
                   "slept", "inputs", "outputs", "is_sink")
_STP_KEYS = ("thread", "t", "current_stp", "summary", "throttle_target",
             "slept")


def trace_to_dict(recorder: TraceRecorder) -> dict:
    """Serialize a finalized recorder to plain Python data."""
    if recorder.t_end is None:
        raise TraceError("finalize the recorder before saving")
    # Per item row, its (gets, skips) in recording order.
    touches = [([], []) for _ in recorder.item_id]
    for row, conn_id, consumer, t, skip in zip(
            recorder.touch_item, recorder.touch_conn, recorder.touch_consumer,
            recorder.touch_t, recorder.touch_skip):
        touches[row][skip].append([conn_id, consumer, t])
    items = []
    for row, (gets, skips) in enumerate(touches):
        entry = dict(zip(_ITEM_KEYS, recorder.alloc_args(row)))
        t_free = recorder.item_t_free[row]
        entry.update(parents=list(entry["parents"]),
                     t_free=None if t_free != t_free else t_free,
                     gets=gets, skips=skips)
        items.append(entry)
    iterations = []
    counters: dict = {}
    for row in range(len(recorder.iter_thread)):
        thread, *rest = recorder.iteration_args(row)
        index = counters[thread] = counters.get(thread, -1) + 1
        entry = {"thread": thread, "index": index,
                 **dict(zip(_ITERATION_KEYS[1:], rest))}
        entry.update(inputs=list(entry["inputs"]),
                     outputs=list(entry["outputs"]))
        iterations.append(entry)
    return {
        "schema": SCHEMA_VERSION,
        "t_start": recorder.t_start,
        "t_end": recorder.t_end,
        "items": items,
        "iterations": iterations,
        "stp_samples": [dict(zip(_STP_KEYS, recorder.stp_args(row)))
                        for row in range(len(recorder.stp_thread))],
    }


def trace_from_dict(data: dict) -> TraceRecorder:
    """Rebuild a recorder from :func:`trace_to_dict` output, through the
    recorder's own hooks in file order. An iteration's ``index`` is its
    rank among its thread's iterations, as :func:`trace_to_dict` wrote."""
    schema = data.get("schema")
    if schema != SCHEMA_VERSION:
        raise TraceError(
            f"unsupported trace schema {schema!r} (expected {SCHEMA_VERSION})"
        )
    recorder = TraceRecorder()
    recorder.t_start = float(data["t_start"])
    for entry in data["items"]:
        item_id = entry["id"]
        if item_id in recorder.item_row:
            raise TraceError(f"duplicate item id {item_id} in trace")
        recorder.on_alloc(*[entry[key] for key in _ITEM_KEYS])
        if entry["t_free"] is not None:
            recorder.item_t_free[-1] = entry["t_free"]
        for touch in entry["gets"]:
            recorder.on_get(item_id, *touch)
        for touch in entry["skips"]:
            recorder.on_skip(item_id, *touch)
    for entry in data["iterations"]:
        recorder.on_iteration(*[entry[key] for key in _ITERATION_KEYS])
    for entry in data.get("stp_samples", []):
        recorder.on_stp(*[entry[key] for key in _STP_KEYS])
    recorder.finalize(float(data["t_end"]))
    return recorder


def rebase_trace(recorder: TraceRecorder, t_start: float = 0.0) -> TraceRecorder:
    """Shift every timestamp so the trace starts at ``t_start``.

    Traces recorded by live backends carry wall-clock bases (each
    process rebases its clock at a different instant), so two otherwise
    comparable traces can sit on disjoint time axes — and time-ordered
    analyses (footprint timelines, ``repro compare``) either crash or
    silently mislead. Rebasing is a pure translation: every duration,
    rate, and ordering is preserved. Mutates and returns ``recorder``.
    """
    if recorder.t_end is None:
        raise TraceError("finalize the recorder before rebasing")
    delta = float(t_start) - recorder.t_start
    if delta == 0.0:
        return recorder
    recorder.t_start += delta
    recorder.t_end += delta
    for name in ("item_t_alloc", "item_t_free", "touch_t",
                 "iter_t_start", "iter_t_end", "stp_t"):
        column = getattr(recorder, name)
        column[:] = array("d", [t + delta for t in column])
    return recorder


def merge_traces(recorders) -> TraceRecorder:
    """Merge per-worker traces (shared time base) into one recorder.

    The distributed launcher collects one finalized trace per worker
    process; item ids are disjoint by construction (each worker seeds
    its id counter in a private range) and all workers share the
    launcher's epoch, so merging is a union: items keyed by id,
    iterations and STP samples re-sorted into completion order (per-thread
    iteration indexes follow it), ``t_end`` the latest worker's. Rows are
    replayed from the workers' columns through the merged recorder's
    hooks: it owns its rows, the inputs stay as they were.
    """
    recorders = list(recorders)
    if not recorders:
        raise TraceError("merge_traces needs at least one trace")
    if any(rec.t_end is None for rec in recorders):
        raise TraceError("finalize every worker trace before merging")
    merged = TraceRecorder()
    merged.t_start = min(rec.t_start for rec in recorders)
    iterations, samples = [], []  # of (sort key, source recorder, row)
    for rec in recorders:
        base = len(merged.item_id)
        for row, item_id in enumerate(rec.item_id):
            if item_id in merged.item_row:
                raise TraceError(
                    f"duplicate item id {item_id} across worker traces")
            merged.on_alloc(*rec.alloc_args(row))
        merged.item_t_free[base:] = rec.item_t_free
        for row, conn_id, consumer, t, skip in zip(
                rec.touch_item, rec.touch_conn, rec.touch_consumer,
                rec.touch_t, rec.touch_skip):
            touch = merged.on_skip if skip else merged.on_get
            touch(rec.item_id[row], conn_id, consumer, t)
        counters: dict = {}
        for row, thread in enumerate(rec.iter_thread):
            index = counters[thread] = counters.get(thread, -1) + 1
            iterations.append(((rec.iter_t_end[row], thread, index), rec, row))
        samples += [((rec.stp_t[row], thread), rec, row)
                    for row, thread in enumerate(rec.stp_thread)]
    for _, rec, row in sorted(iterations, key=itemgetter(0)):
        merged.on_iteration(*rec.iteration_args(row))
    for _, rec, row in sorted(samples, key=itemgetter(0)):
        merged.on_stp(*rec.stp_args(row))
    merged.finalize(max(rec.t_end for rec in recorders))
    return merged


def save_trace(recorder: TraceRecorder, path: Union[str, Path]) -> None:
    """Write a finalized trace to ``path`` as JSON."""
    Path(path).write_text(json.dumps(trace_to_dict(recorder)))


def load_trace(path: Union[str, Path]) -> TraceRecorder:
    """Read a trace written by :func:`save_trace`."""
    return trace_from_dict(json.loads(Path(path).read_text()))
