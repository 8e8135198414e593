"""Tests for the exporters: Prometheus text, Chrome trace, JSONL."""

import json

import pytest

from repro.errors import TelemetryError
from repro.obs import (
    NULL_HUB,
    TelemetryHub,
    chrome_trace,
    chrome_trace_events,
    iter_jsonl,
    prometheus_text,
    read_jsonl,
    summary_from_records,
    summary_table,
    write_chrome_trace,
    write_jsonl,
)


def populated_hub() -> TelemetryHub:
    hub = TelemetryHub().bind(run={"seed": 0})
    m = hub.metrics
    m.counter("repro_buffer_puts_total", {"buffer": "C1", "kind": "channel"},
              help="items put").inc(3)
    m.gauge("repro_buffer_depth", {"buffer": "C1", "kind": "channel"}).set(2)
    m.histogram("repro_iteration_seconds", {"thread": "gui"},
                buckets=(0.1, 1.0)).observe(0.05)
    tr = hub.tracer
    s = tr.begin("iteration", "iteration", "thread/gui", 0.0)
    tr.end(s, 0.5)
    child = tr.begin("ts=1", "item", "buffer/C1", 0.2, parent_id=s.span_id)
    tr.end(child, 0.4)
    tr.instant("injected:thread_crash", "fault", "faults", 0.3)
    tr.flow("s", 7, "thread/gui", 0.2)
    tr.flow("f", 7, "thread/sink", 0.35)
    hub.t_end = 0.5
    return hub


class TestPrometheus:
    def test_disabled_hub_refused(self):
        with pytest.raises(TelemetryError, match="disabled"):
            prometheus_text(NULL_HUB)

    def test_counter_and_gauge_lines(self):
        text = prometheus_text(populated_hub())
        assert "# TYPE repro_buffer_puts_total counter" in text
        assert "# HELP repro_buffer_puts_total items put" in text
        assert ('repro_buffer_puts_total{buffer="C1",kind="channel"} 3'
                in text)
        assert 'repro_buffer_depth{buffer="C1",kind="channel"} 2' in text

    def test_histogram_exposition(self):
        text = prometheus_text(populated_hub())
        assert 'repro_iteration_seconds_bucket{thread="gui",le="0.1"} 1' in text
        assert ('repro_iteration_seconds_bucket{thread="gui",le="+Inf"} 1'
                in text)
        assert "repro_iteration_seconds_sum" in text
        assert 'repro_iteration_seconds_count{thread="gui"} 1' in text

    def test_type_line_once_per_name(self):
        hub = TelemetryHub()
        hub.metrics.counter("x", {"a": "1"}).inc()
        hub.metrics.counter("x", {"a": "2"}).inc()
        text = prometheus_text(hub)
        assert text.count("# TYPE x counter") == 1

    def test_ends_with_newline(self):
        assert prometheus_text(populated_hub()).endswith("\n")


class TestChromeTrace:
    def test_disabled_hub_refused(self):
        with pytest.raises(TelemetryError, match="disabled"):
            chrome_trace_events(NULL_HUB)

    def test_track_metadata_events(self):
        events = chrome_trace_events(populated_hub())
        meta = [e for e in events if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta}
        assert {"thread/gui", "buffer/C1", "faults", "thread/sink"} <= names
        # one unique tid per track
        assert len({e["tid"] for e in meta}) == len(meta)

    def test_slices_in_microseconds(self):
        events = chrome_trace_events(populated_hub())
        (it,) = [e for e in events
                 if e["ph"] == "X" and e["name"] == "iteration"]
        assert it["ts"] == 0.0
        assert it["dur"] == 0.5e6

    def test_zero_length_slice_gets_min_duration(self):
        hub = TelemetryHub()
        s = hub.tracer.begin("blip", "item", "t", 1.0)
        hub.tracer.end(s, 1.0)
        (ev,) = [e for e in chrome_trace_events(hub) if e["ph"] == "X"]
        assert ev["dur"] == 1.0  # 1 µs floor so Perfetto renders it

    def test_parent_span_in_args(self):
        events = chrome_trace_events(populated_hub())
        (child,) = [e for e in events
                    if e["ph"] == "X" and e["name"] == "ts=1"]
        assert "parent_span" in child["args"]

    def test_instants_and_flows(self):
        events = chrome_trace_events(populated_hub())
        (inst,) = [e for e in events if e["ph"] == "i"]
        assert inst["name"] == "injected:thread_crash"
        assert inst["s"] == "g"
        start = [e for e in events if e["ph"] == "s"]
        finish = [e for e in events if e["ph"] == "f"]
        assert len(start) == 1 and len(finish) == 1
        assert start[0]["id"] == finish[0]["id"] == 7
        assert finish[0]["bp"] == "e"

    def test_document_metadata(self):
        doc = chrome_trace(populated_hub())
        assert doc["otherData"]["source"] == "repro.obs"
        assert doc["otherData"]["seed"] == "0"
        assert doc["otherData"]["dropped_events"] == 0

    def test_write_roundtrip(self, tmp_path):
        path = tmp_path / "run.trace.json"
        n = write_chrome_trace(populated_hub(), str(path))
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) == n > 0


class TestJsonl:
    def test_disabled_hub_refused(self):
        with pytest.raises(TelemetryError, match="disabled"):
            list(iter_jsonl(NULL_HUB))

    def test_stream_leads_with_meta(self):
        records = list(iter_jsonl(populated_hub()))
        assert records[0]["rec"] == "meta"
        assert records[0]["seed"] == 0
        kinds = {r["rec"] for r in records}
        assert kinds == {"meta", "metric", "span", "instant", "flow"}

    def test_write_read_roundtrip(self, tmp_path):
        hub = populated_hub()
        path = tmp_path / "run.jsonl"
        n = write_jsonl(hub, str(path))
        records = read_jsonl(str(path))
        assert len(records) == n
        assert records == list(iter_jsonl(hub))

    def test_read_accepts_open_file(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_jsonl(populated_hub(), str(path))
        with open(path) as fh:
            assert read_jsonl(fh)[0]["rec"] == "meta"


def hub_after_one_iteration() -> TelemetryHub:
    """One iteration close of thread ``gui``, reported the way
    ``ThreadDriver._publish`` does: sync handle, then the span."""
    hub = TelemetryHub()
    closed = (0.0, 0.3, 0.1, 0.0, 0.0, 0.02, 0.02)
    hub.sync_handle("gui").update(*closed, None)
    hub.span_sync("gui", *closed)
    return hub


class TestSummary:
    def test_summary_table_mentions_threads_and_buffers(self):
        hub = hub_after_one_iteration()
        text = summary_table(hub)
        assert "gui" in text
        assert "threads" in text

    def test_summary_from_records_matches_live_summary(self, tmp_path):
        hub = hub_after_one_iteration()
        path = tmp_path / "run.jsonl"
        write_jsonl(hub, str(path))
        assert summary_from_records(read_jsonl(str(path))) == \
            summary_table(hub)
