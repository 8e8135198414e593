"""Shared test fixtures.

Every :class:`~repro.registry.Registry` is process-wide mutable state;
tests that register names (directly, or by running
``examples/custom_policy.py``-style code) used to leak those
registrations into every later test in the session. The autouse
fixture below snapshots every registry before each test and restores
it afterwards, so registry mutations cannot escape a test.
``tests/test_registries.py`` checks that :data:`REGISTRIES` lists every
module-level registry in ``repro``.

The interpreter's cyclic collector is process-wide state too, and
``Engine.run`` and bulk admission pause it: a test that leaves it in a
different state than it found it fails, so every later test does not run
with collection silently off.
"""

import gc

import pytest

from repro.apps import APPS, WORKLOADS
from repro.aru import FILTERS
from repro.backends import BACKENDS
from repro.bench import PROBES
from repro.cluster import CLUSTERS
from repro.control import POLICIES, SCALE_POLICIES
from repro.gc import COLLECTORS
from repro.tenancy import ARBITERS, PLACEMENTS

REGISTRIES = (POLICIES, SCALE_POLICIES, BACKENDS, PLACEMENTS, ARBITERS,
              COLLECTORS, FILTERS, PROBES, APPS, WORKLOADS, CLUSTERS)


@pytest.fixture(autouse=True)
def _isolated_registries():
    """Snapshot/restore every registry's entries around each test."""
    saved = [(registry, dict(registry._entries)) for registry in REGISTRIES]
    yield
    for registry, entries in saved:
        registry._entries.clear()
        registry._entries.update(entries)


@pytest.fixture(autouse=True)
def _collector_state_kept():
    """Fail a test that changes ``gc.isenabled()``; restore it first."""
    was_enabled = gc.isenabled()
    yield
    if gc.isenabled() != was_enabled:
        (gc.enable if was_enabled else gc.disable)()
        pytest.fail(f"the test left gc.isenabled() == {not was_enabled}")


@pytest.fixture
def isolated_registries():
    """The registries the autouse fixture restores."""
    return REGISTRIES


@pytest.fixture
def unreachable_after():
    """``unreachable_after(fn) -> (count, result)``: how many objects
    only the interpreter's cyclic collector can free after ``fn()``.

    Collection is off around the call, so nothing is reclaimed early,
    and ``fn``'s result is alive while the count is taken, so a finished
    runtime (one big cycle by design) is not what gets counted. Callers
    warm ``fn`` up once first: lazy imports build class cycles.
    """
    def measure(fn):
        while gc.collect():  # finalizers can defer garbage one pass
            pass
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            result = fn()
            return gc.collect(), result
        finally:
            if was_enabled:
                gc.enable()

    return measure
