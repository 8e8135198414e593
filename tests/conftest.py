"""Shared test fixtures.

The policy registries in :mod:`repro.control.registry` are process-wide
mutable state; tests that register presets (directly, or by running
``examples/custom_policy.py``-style code) used to leak those
registrations into every later test in the session. The autouse
fixture below snapshots both registries before each test and restores
them afterwards, so registry mutations cannot escape a test.
"""

import gc

import pytest

from repro import backends as _backends
from repro.control import registry as _registry
from repro.tenancy import placement as _placement


@pytest.fixture(autouse=True)
def _isolated_policy_registries():
    """Snapshot/restore the rate, scale, placement, and backend
    registries."""
    rate = dict(_registry._REGISTRY)
    scale = dict(_registry._SCALE_REGISTRY)
    placements = dict(_placement._PLACEMENTS)
    backends = dict(_backends._REGISTRY)
    yield
    _registry._REGISTRY.clear()
    _registry._REGISTRY.update(rate)
    _registry._SCALE_REGISTRY.clear()
    _registry._SCALE_REGISTRY.update(scale)
    _placement._PLACEMENTS.clear()
    _placement._PLACEMENTS.update(placements)
    _backends._REGISTRY.clear()
    _backends._REGISTRY.update(backends)


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
