"""The column recorder against the object recorder it replaced.

A hypothesis state machine feeds one hook sequence — including the four
misuses the recorder rejects — to ``object_recorder.ObjectRecorder`` (the
parent commit's recorder, kept in this directory as the oracle) and to
``repro.metrics.TraceRecorder``, reads every view in the middle of the
sequence, and requires: the same exception type and message, the same
records out of every view, the same serialized trace, and the same
postmortem and latency results (the record-walking analyses of
``record_analyses.py`` on the oracle, the column-reading ones of ``src/``
on the recorder — and the record-walking ones on the recorder's views).
"""

import json
import pickle

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule
from object_recorder import ObjectRecorder, records_to_dict
from record_analyses import RecordPostmortem
from record_analyses import latency_samples as record_latency_samples
from record_analyses import (
    latency_samples_by_thread as record_latency_samples_by_thread,
)
from record_analyses import output_times as record_output_times
from record_analyses import throughput_fps as record_throughput_fps

from repro.errors import TraceError
from repro.metrics import (
    PostmortemAnalyzer,
    TraceRecorder,
    latency_samples,
    output_times,
    throughput_fps,
    trace_from_dict,
    trace_to_dict,
)
from repro.metrics.performance import latency_samples_by_thread

ids = st.integers(0, 24)  # small: duplicates, unknown ids and late parents
id_tuples = st.lists(ids, max_size=3).map(tuple)
times = st.floats(0.0, 50.0, allow_nan=False)
names = st.sampled_from(["a", "b", "t0/gui"])
maybe_nan = st.one_of(st.none(), st.just(float("nan")), times)


def canon(records):
    """Records as text: exact for floats, and NaN equals NaN."""
    return [repr(record) for record in records]


def timeline_bytes(timeline):
    return timeline.times.tobytes(), timeline.values.tobytes()


def postmortem_results(pm, channels):
    return {
        "delivered": pm.delivered_ids,
        "successful": pm.successful_ids,
        "byte_seconds": (pm.total_byte_seconds, pm.wasted_byte_seconds,
                         pm.wasted_memory_fraction),
        "compute": (pm.total_compute, pm.wasted_compute,
                    pm.wasted_computation_fraction),
        "footprint": timeline_bytes(pm.footprint()),
        "by_channel": [timeline_bytes(pm.footprint(c))
                       for c in [*channels, "no such channel"]],
        "igc": timeline_bytes(pm.ideal_footprint()),
        "last_use": pm._last_use_end,
        "thread_waste": pm.thread_waste_report(),
        "channel_report": pm.channel_report(),
    }


class RecorderMachine(RuleBasedStateMachine):
    @initialize(record_stp=st.booleans())
    def start(self, record_stp):
        self.obj = ObjectRecorder(record_stp=record_stp)
        self.col = TraceRecorder(record_stp=record_stp)

    def both(self, hook, *args, **kwargs):
        outcomes = []
        for recorder in (self.obj, self.col):
            try:
                outcomes.append(getattr(recorder, hook)(*args, **kwargs))
            except TraceError as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1], (hook, args, outcomes)

    @rule(item_id=ids, channel=names, ts=st.integers(0, 5),
          size=st.integers(0, 1000), parents=id_tuples, t=times)
    def alloc(self, item_id, channel, ts, size, parents, t):
        # A known id is the duplicate-alloc misuse. Lineage is acyclic
        # (parents have smaller ids) but not ordered: a parent may be
        # allocated after its child, or never.
        parents = tuple(p for p in parents if p < item_id)
        self.both("on_alloc", item_id=item_id, channel=channel, node="n0",
                  ts=ts, size=size, producer="p", parents=parents, t=t)

    @rule(hook=st.sampled_from(["on_get", "on_skip"]), item_id=ids,
          conn_id=st.integers(1, 4), consumer=names, t=times)
    def touch(self, hook, item_id, conn_id, consumer, t):
        self.both(hook, item_id, conn_id, consumer, t)  # or: unknown item

    @rule(item_id=ids, t=times)
    def free(self, item_id, t):
        # Unknown item, double free and free before alloc all land here.
        self.both("on_free", item_id, t)

    @rule(thread=names, t_start=times, span=times, inputs=id_tuples,
          outputs=id_tuples, is_sink=st.booleans())
    def iteration(self, thread, t_start, span, inputs, outputs, is_sink):
        self.both("on_iteration", thread=thread, t_start=t_start,
                  t_end=t_start + span, compute=span / 2, blocked=span / 4,
                  slept=span / 8, inputs=inputs, outputs=outputs,
                  is_sink=is_sink)

    @rule(thread=names, t=times, stp=times, summary=maybe_nan,
          throttle=maybe_nan)
    def stp(self, thread, t, stp, summary, throttle):
        self.both("on_stp", thread, t, stp, summary, throttle, 0.0)

    @rule()
    def read_every_view(self):
        obj, col = self.obj, self.col
        assert list(col.items) == list(obj.items)
        assert len(col.items) == len(obj.items)
        assert canon(col.items.values()) == canon(obj.items.values())
        for item_id in range(25):
            assert (item_id in col.items) == (item_id in obj.items)
            assert repr(col.items.get(item_id)) == repr(obj.items.get(item_id))
        assert canon(col.iterations) == canon(obj.iterations)
        assert canon(col.stp_samples) == canon(obj.stp_samples)
        assert canon(col.sink_iterations()) == canon(obj.sink_iterations())
        assert col.threads() == obj.threads()
        assert col.channels() == obj.channels()
        for thread in [*obj.threads(), "nobody"]:
            assert canon(col.iterations_of(thread)) == canon(
                obj.iterations_of(thread))
            assert col.iteration_count(thread) == len(obj.iterations_of(thread))
        for channel in [*obj.channels(), "nowhere"]:
            assert canon(col.items_of_channel(channel)) == canon(
                obj.items_of_channel(channel))

    @rule(t_end=times, warmup=st.sampled_from([0.0, 10.0]))
    def finalize_a_copy_and_analyze(self, t_end, warmup):
        # Through pickle: the copies are finalized, the run goes on.
        obj = pickle.loads(pickle.dumps(self.obj))
        col = pickle.loads(pickle.dumps(self.col))
        obj.finalize(t_end)
        col.finalize(t_end)
        saved = json.dumps(trace_to_dict(col))
        assert saved == json.dumps(records_to_dict(obj))
        assert saved == json.dumps(records_to_dict(col))  # through the views
        assert saved == json.dumps(trace_to_dict(trace_from_dict(
            json.loads(saved))))
        channels = obj.channels()
        expected = postmortem_results(RecordPostmortem(obj), channels)
        assert postmortem_results(PostmortemAnalyzer(col), channels) == expected
        assert postmortem_results(RecordPostmortem(col), channels) == expected
        for mine, theirs in (
                (latency_samples, record_latency_samples),
                (latency_samples_by_thread, record_latency_samples_by_thread),
                (throughput_fps, record_throughput_fps),
                (output_times, record_output_times)):
            assert mine(col, warmup) == theirs(obj, warmup) == theirs(col, warmup)


TestRecorderAgainstOracle = RecorderMachine.TestCase
TestRecorderAgainstOracle.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
