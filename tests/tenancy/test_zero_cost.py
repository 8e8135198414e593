"""The zero-cost-abstraction contract: one static tenant through the
scheduler is indistinguishable from the same app through
``run_experiment`` — identical metrics fingerprint, identical engine
event count. Multi-tenancy must cost nothing when unused. The tenancy
side keeps its trace's rows (``trace_rows=True``), as the postmortem
behind the fingerprint reads them."""

from types import SimpleNamespace

import pytest

from repro.bench.experiments import metrics_from_trace
from repro.bench.identity import metrics_fingerprint
from repro.cluster.spec import uniform_spec
from repro.experiment import ExperimentSpec, run_experiment
from repro.tenancy import TenancySpec, TenantSpec, run_tenants

SEED = 7
HORIZON = 10.0


def _fingerprint(trace):
    metrics = metrics_from_trace("uniform4", "aru-max", SEED, HORIZON, trace)
    return metrics_fingerprint(SimpleNamespace(metrics=metrics, extras={}))


@pytest.fixture(scope="module")
def pair():
    cluster = uniform_spec(4)
    tenancy = run_tenants(TenancySpec(
        tenants=(TenantSpec("solo", namespace="", seed=SEED,
                            policy="aru-max"),),
        cluster=cluster, seed=SEED, horizon=HORIZON, trace_rows=True,
    ))
    classic = run_experiment(ExperimentSpec(
        config=cluster, seed=SEED, policy="aru-max", horizon=HORIZON,
        placement=tenancy.records["solo"].placement,
    ))
    return tenancy, classic


def test_fingerprints_identical(pair):
    tenancy, classic = pair
    assert _fingerprint(tenancy.trace) == _fingerprint(classic.trace)


def test_zero_added_events(pair):
    # No manager process, no extra timers: a static population adds
    # nothing to the engine.
    tenancy, classic = pair
    assert tenancy.stats["engine"]["events_processed"] == \
        classic.stats["engine"]["events_processed"]


def test_blank_namespace_keeps_thread_names(pair):
    tenancy, _ = pair
    assert "gui" in tenancy.runtime.drivers
    assert "digitizer" in tenancy.trace.threads()


def test_fingerprint_differs_without_contract(pair):
    # Sanity: the fingerprint is sensitive — a different seed breaks it.
    tenancy, _ = pair
    other = run_tenants(TenancySpec(
        tenants=(TenantSpec("solo", namespace="", seed=SEED + 1,
                            policy="aru-max"),),
        cluster=uniform_spec(4), seed=SEED, horizon=HORIZON, trace_rows=True,
    ))
    assert _fingerprint(other.trace) != _fingerprint(tenancy.trace)
