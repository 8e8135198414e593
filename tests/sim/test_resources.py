"""Unit tests for Resource and WaitQueue."""

import pytest

from repro.errors import SimulationError
from repro.sim import Engine, Resource, WaitQueue


def test_resource_grants_up_to_capacity_immediately():
    eng = Engine()
    res = Resource(eng, capacity=2)
    log = []

    def proc(eng, label):
        yield res.request()
        log.append((eng.now, "got", label))
        yield eng.timeout(5.0)
        res.release()

    for label in "abc":
        eng.process(proc(eng, label))
    eng.run()
    # a and b start at 0, c waits for a release at t=5
    assert log == [(0.0, "got", "a"), (0.0, "got", "b"), (5.0, "got", "c")]


def test_resource_fifo_order():
    eng = Engine()
    res = Resource(eng, capacity=1)
    order = []

    def proc(eng, label, start):
        yield eng.timeout(start)
        yield res.request()
        order.append(label)
        yield eng.timeout(1.0)
        res.release()

    eng.process(proc(eng, "first", 0.0))
    eng.process(proc(eng, "second", 0.1))
    eng.process(proc(eng, "third", 0.2))
    eng.run()
    assert order == ["first", "second", "third"]


def test_resource_invalid_capacity():
    with pytest.raises(ValueError):
        Resource(Engine(), capacity=0)


def test_release_idle_resource_raises():
    res = Resource(Engine(), capacity=1)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_counters():
    eng = Engine()
    res = Resource(eng, capacity=1)

    def proc(eng):
        yield res.request()
        yield eng.timeout(2.0)
        res.release()

    eng.process(proc(eng))
    eng.process(proc(eng))
    eng.run()
    assert res.total_grants == 2
    assert res.total_wait_time == pytest.approx(2.0)  # second waited 2 s
    assert res.in_use == 0
    assert res.queue_length == 0


def test_resource_cancel_pending_request():
    eng = Engine()
    res = Resource(eng, capacity=1)
    granted = []

    def holder(eng):
        yield res.request()
        yield eng.timeout(10.0)
        res.release()

    eng.process(holder(eng))
    eng.run(until=0.0)

    req = res.request()  # queued behind the holder
    res.cancel(req)
    assert res.queue_length == 0

    def late(eng):
        yield res.request()
        granted.append(eng.now)
        res.release()

    eng.process(late(eng))
    eng.run()
    assert granted == [10.0]


def test_waitqueue_predicate_fires_on_notify():
    eng = Engine()
    wq = WaitQueue(eng)
    box = {"n": 0}
    got = []

    def waiter(eng):
        value = yield wq.wait(lambda: box["n"] if box["n"] >= 3 else None)
        got.append((eng.now, value))

    def producer(eng):
        for _ in range(5):
            yield eng.timeout(1.0)
            box["n"] += 1
            wq.notify_all()

    eng.process(waiter(eng))
    eng.process(producer(eng))
    eng.run()
    assert got == [(3.0, 3)]


def test_waitqueue_already_satisfied_predicate_fires_immediately():
    eng = Engine()
    wq = WaitQueue(eng)
    got = []

    def waiter(eng):
        value = yield wq.wait(lambda: "ready")
        got.append((eng.now, value))

    eng.process(waiter(eng))
    eng.run()
    assert got == [(0.0, "ready")]


def test_waitqueue_none_predicate_fires_on_any_notify():
    eng = Engine()
    wq = WaitQueue(eng)
    got = []

    def waiter(eng):
        value = yield wq.wait()
        got.append(value)

    def notifier(eng):
        yield eng.timeout(1.0)
        wq.notify_all("ping")

    eng.process(waiter(eng))
    eng.process(notifier(eng))
    eng.run()
    assert got == ["ping"]


def test_waitqueue_notify_returns_fired_count():
    eng = Engine()
    wq = WaitQueue(eng)

    def setup(eng):
        yield eng.timeout(0.0)

    w1 = wq.wait(lambda: True)
    # w1 fired immediately (predicate already satisfied), not queued
    assert len(wq) == 0
    flag = {"on": False}
    w2 = wq.wait(lambda: flag["on"])
    w3 = wq.wait(lambda: flag["on"])
    assert len(wq) == 2
    flag["on"] = True
    assert wq.notify_all() == 2
    assert len(wq) == 0
    eng.process(setup(eng))
    eng.run()
    assert w1.triggered and w2.triggered and w3.triggered


def test_waitqueue_multiple_waiters_fifo_wake():
    eng = Engine()
    wq = WaitQueue(eng)
    order = []

    def waiter(eng, label):
        yield wq.wait()
        order.append(label)

    for label in "abc":
        eng.process(waiter(eng, label))

    def notifier(eng):
        yield eng.timeout(1.0)
        wq.notify_all()

    eng.process(notifier(eng))
    eng.run()
    assert order == ["a", "b", "c"]
