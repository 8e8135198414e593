"""Differential determinism for elastic (replicated-stage) runs.

Extends the sweep-runner determinism contract to replicated stages:

* a fixed-N replicated pipeline is bit-identical between a serial sweep
  and ``SweepRunner(workers=4)`` — partition/merge buffers keep the
  item→worker mapping and the merged output order a pure function of
  the seed, so process-level parallelism stays a wall-clock detail;
* runs with the scale *controller* active are equally deterministic —
  its decisions are computed from simulated state on the simulated
  clock;
* the zero-added-events contract: ``scale_policy=None`` and the
  registered ``no-scale`` produce the same fingerprint, and a
  single-replica replicated stage is indistinguishable from a plain
  queue→worker→channel pipeline built by hand.
"""

import pickle
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.apps import ElasticConfig, elastic_pipeline
from repro.apps.elastic import make_draining_sink, make_pool_worker, make_swing_source
from repro.bench import CellSpec, SweepRunner, metrics_fingerprint
from repro.bench.experiments import metrics_from_trace
from repro.experiment import ExperimentSpec, run_experiment
from repro.runtime import TaskGraph

HORIZON = 15.0

#: Small but non-trivial: 2 workers, a 8x swing mid-run, ~4 erlangs peak.
ELASTIC = ElasticConfig(replicas=2, max_replicas=4, worker_cost=0.02,
                        steady_period=0.06, swing=(4.0, 10.0, 8.0),
                        item_size=1000)


def elastic_cell(**overrides):
    base = dict(
        config="config1",
        policy="no-aru",
        app="elastic",
        app_config=ELASTIC,
        horizon=HORIZON,
    )
    base.update(overrides)
    return CellSpec(**base)


@pytest.fixture(scope="module")
def fixed_n_specs():
    """Fixed-N cells (no scale policy) across seeds and partitioners."""
    specs = []
    for partition in ("round-robin", "hash"):
        cfg = replace(ELASTIC, partition=partition)
        for seed in (0, 1):
            specs.append(elastic_cell(app_config=cfg, seed=seed,
                                      label=f"fixed-{partition}"))
    return specs


@pytest.fixture(scope="module")
def fixed_n_serial(fixed_n_specs):
    return SweepRunner(workers=1).run(fixed_n_specs)


def test_fixed_n_parallel_matches_serial_bit_identically(fixed_n_specs,
                                                         fixed_n_serial):
    parallel = SweepRunner(workers=4).run(fixed_n_specs)
    for ser, par in zip(fixed_n_serial, parallel):
        assert ser.ok and par.ok
        assert metrics_fingerprint(ser) == metrics_fingerprint(par)
        assert pickle.dumps(ser) == pickle.dumps(par)


def test_fixed_n_serial_rerun_is_bit_identical(fixed_n_specs, fixed_n_serial):
    again = SweepRunner(workers=1).run(fixed_n_specs)
    assert [pickle.dumps(r) for r in again] == \
        [pickle.dumps(r) for r in fixed_n_serial]


def test_elastic_controller_runs_are_deterministic():
    """Scale decisions are simulated state — parallel == serial."""
    specs = [elastic_cell(scale_policy="erlang", seed=s, label="elastic")
             for s in (0, 1)]
    serial = SweepRunner(workers=1).run(specs)
    parallel = SweepRunner(workers=4).run(specs)
    for ser, par in zip(serial, parallel):
        assert ser.ok and par.ok
        assert pickle.dumps(ser) == pickle.dumps(par)
    # The swing is big enough that the controller actually acted; if it
    # didn't, this test would silently degenerate to the fixed-N case.
    assert serial[0].metrics.frames_delivered > 0


def test_null_scale_policy_equals_unconfigured(fixed_n_serial):
    """None and the registered ``no-scale`` fingerprint identically:
    scaling off is one value and installs no controller."""
    reference = metrics_fingerprint(fixed_n_serial[0])
    spec = elastic_cell(
        app_config=replace(ELASTIC, partition="round-robin"),
        seed=0, label="fixed-round-robin", scale_policy="no-scale",
    )
    (result,) = SweepRunner(workers=1).run([spec])
    assert result.ok
    assert metrics_fingerprint(result) == reference


# -- single-replica stage vs hand-built plain pipeline -----------------------
WORKER_COST = 0.02
PERIOD = 0.06
ITEM_SIZE = 1000


def plain_twin_graph():
    """The unreplicated pipeline ``elastic_pipeline(replicas=1)`` hides.

    Node insertion order, thread names (``workers[0]``!), buffer names,
    and edge order all mirror :func:`elastic_pipeline` exactly, so every
    RNG stream and registration sequence lines up — the only difference
    is plain SQueue/Channel buffers instead of the partition/merge pair.
    """
    g = TaskGraph("elastic")
    g.add_thread("source", make_swing_source("part", PERIOD, None, ITEM_SIZE))
    g.add_queue("part")
    g.add_channel("merge")
    g.add_thread("workers[0]",
                 make_pool_worker("part", "merge", WORKER_COST, ITEM_SIZE))
    g.connect("part", "workers[0]")
    g.connect("workers[0]", "merge")
    g.add_thread("sink", make_draining_sink("merge"), sink=True)
    g.connect("source", "part")
    g.connect("merge", "sink")
    g.validate()
    return g


def run_and_fingerprint(graph, scale_policy=None, seed=0):
    result = run_experiment(ExperimentSpec(
        app=graph, config="config1", policy="no-aru",
        scale_policy=scale_policy, seed=seed, horizon=HORIZON,
    ))
    metrics = metrics_from_trace(
        "config1", "twin", seed, HORIZON, result.trace)
    return metrics_fingerprint(SimpleNamespace(metrics=metrics, extras={}))


def test_single_replica_stage_equals_plain_pipeline():
    """The strongest zero-overhead claim: one replica behind a
    partition/merge pair is event-for-event a plain pipeline."""
    replicated = elastic_pipeline(ElasticConfig(
        replicas=1, max_replicas=1,
        worker_cost=WORKER_COST, steady_period=PERIOD,
        swing=None, item_size=ITEM_SIZE,
    ))
    for seed in (0, 3):
        plain_fp = run_and_fingerprint(plain_twin_graph(), seed=seed)
        elastic_fp = run_and_fingerprint(replicated, seed=seed)
        off_fp = run_and_fingerprint(replicated, scale_policy="no-scale",
                                     seed=seed)
        assert plain_fp == elastic_fp == off_fp
