"""Shared fixtures for runtime-level tests."""

import pytest

from repro.cluster import Node, NodeSpec
from repro.control import FeedbackEndpoint
from repro.gc import make_gc
from repro.metrics import TraceRecorder
from repro.runtime import Channel, SQueue
from repro.sim import Engine, RngRegistry


class Harness:
    """A bare engine + node + recorder, for driving channels by hand."""

    def __init__(self, gc="dgc", seed=0):
        self.engine = Engine()
        self.node = Node(self.engine, NodeSpec(name="n0"), RngRegistry(seed=seed))
        self.recorder = TraceRecorder()
        self.gc = make_gc(gc)
        self.gc.bind(self)  # minimal runtime stand-in
        self._gvt = None

    # stand-in for Runtime.global_virtual_time (TGC tests set _gvt directly)
    def global_virtual_time(self):
        return self._gvt

    def channel(self, name="ch", aru=None, capacity=None):
        return Channel(
            self.engine,
            name,
            self.node,
            recorder=self.recorder,
            gc=self.gc,
            feedback=FeedbackEndpoint(aru) if aru is not None else None,
            capacity=capacity,
        )

    def squeue(self, name="q", aru=None, capacity=None):
        return SQueue(
            self.engine,
            name,
            self.node,
            recorder=self.recorder,
            feedback=FeedbackEndpoint(aru) if aru is not None else None,
            capacity=capacity,
        )

    def now(self):
        return self.engine.now


@pytest.fixture
def harness():
    return Harness()


@pytest.fixture
def harness_null_gc():
    return Harness(gc="null")
