"""Regression: every cell spec and result must survive pickling.

The sweep runner ships specs to worker processes and results back by
pickle; a closure smuggled into a config (an operator, a filter factory,
a policy callable) breaks parallel sweeps with an opaque error deep in
``concurrent.futures``. These tests pin the round-trip for every spec
shape the benches use — including the historically non-picklable ones:
the ``kth:<k>`` operator (was a closure) and parametrized filter
factories like ``"ewma:0.2"`` (was a lambda).
"""

import pickle

import pytest

from repro.apps import TrackerConfig
from repro.aru import AruConfig, aru_max, aru_min
from repro.aru.filters import ParametrizedFilterFactory, resolve_factory
from repro.aru.operators import KthOperator, resolve
from repro.bench import CellSpec, grid_specs, run_cell
from repro.cluster import LoadSpec

ALL_SPEC_SHAPES = [
    CellSpec(),
    CellSpec(config="config2", policy=aru_max(), seed=3, horizon=42.0),
    CellSpec(policy=aru_min(headroom=1.1)),
    CellSpec(policy=AruConfig(default_channel_op="kth:1", thread_op="kth:2",
                              name="aru-kth")),
    CellSpec(policy=aru_max(summary_filter="ewma:0.2")),
    CellSpec(policy=aru_max(stp_filter="median:5", summary_filter="slew:0.2")),
    CellSpec(tracker=TrackerConfig(channel_capacity=3)),
    CellSpec(tracker=TrackerConfig(computation_elimination=True),
             probe="ce_stats"),
    CellSpec(gc="tgc"),
    CellSpec(gc_interval=0.5),
    CellSpec(sched_noise_cv=0.35),
    CellSpec(loads=(LoadSpec(node="node0", start=10, stop=20, threads=4),),
             probe="throttle_phases",
             probe_args=(("thread", "digitizer"),
                         ("phases", (("mid", 10.0, 20.0),)))),
]


@pytest.mark.parametrize("spec", ALL_SPEC_SHAPES,
                         ids=lambda s: f"{s.policy.name}-{s.gc}-{s.probe}")
def test_spec_roundtrips(spec):
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec
    assert clone.policy == spec.policy


def test_grid_specs_roundtrip():
    for spec in grid_specs(seeds=(0, 1), horizon=9.0):
        assert pickle.loads(pickle.dumps(spec)) == spec


def test_result_roundtrips():
    spec = CellSpec(policy=aru_min(), horizon=6.0)
    result = run_cell(spec)
    assert result.ok
    clone = pickle.loads(pickle.dumps(result))
    assert clone.spec == spec
    assert clone.metrics == result.metrics  # includes exact timelines
    assert pickle.dumps(clone) == pickle.dumps(result)


def test_finalized_recorder_roundtrips():
    """A trace travels by pickle too (tenancy results, worker reports):
    the typed columns, the id -> row map and the views' row indexes all
    survive, and the copy analyses to the same numbers."""
    from repro.experiment import ExperimentSpec, run_experiment
    from repro.metrics import PostmortemAnalyzer, latency_samples, trace_to_dict

    trace = run_experiment(ExperimentSpec(
        config="config1", policy="aru-min", seed=0, horizon=6.0)).trace
    assert trace.items[next(iter(trace.items))].gets  # the indexes are built
    assert len(trace.sink_iterations()) > 0
    clone = pickle.loads(pickle.dumps(trace))
    assert trace_to_dict(clone) == trace_to_dict(trace)
    assert pickle.dumps(clone) == pickle.dumps(trace)
    assert list(clone.items.values()) == list(trace.items.values())
    assert clone.iterations == trace.iterations
    assert latency_samples(clone) == latency_samples(trace)
    pm_a, pm_b = PostmortemAnalyzer(trace), PostmortemAnalyzer(clone)
    assert pm_a.wasted_memory_fraction == pm_b.wasted_memory_fraction
    assert pm_a.ideal_footprint().mean() == pm_b.ideal_footprint().mean()
    with pytest.raises(Exception, match="twice"):
        clone.finalize(7.0)


def test_failed_result_roundtrips():
    result = run_cell(CellSpec(config="configX"))
    assert not result.ok
    clone = pickle.loads(pickle.dumps(result))
    assert clone.error == result.error


def test_kth_operator_is_picklable_and_callable():
    op = resolve("kth:2")
    assert isinstance(op, KthOperator)
    clone = pickle.loads(pickle.dumps(op))
    assert clone == op
    assert clone([5.0, 1.0, 3.0, 9.0]) == 5.0
    assert clone.__name__ == "kth_2"


def test_parametrized_filter_factory_is_picklable():
    factory = resolve_factory("ewma:0.25")
    assert isinstance(factory, ParametrizedFilterFactory)
    clone = pickle.loads(pickle.dumps(factory))
    assert clone == factory
    filt = clone()
    assert filt(10.0) == 10.0  # first sample initializes EWMA state
    assert 10.0 < filt(20.0) < 20.0


def test_config_with_resolved_callables_roundtrips():
    """Even configs built from *resolved* operators/factories pickle."""
    cfg = AruConfig(
        default_channel_op=resolve("kth:1"),
        thread_op=resolve("max"),
        summary_filter=resolve_factory("median:7"),
        name="aru-resolved",
    )
    clone = pickle.loads(pickle.dumps(CellSpec(policy=cfg)))
    assert clone.policy.default_channel_op == cfg.default_channel_op
