"""The data plane over real loopback sockets: one ``ChannelServer`` in
front of a ``ThreadChannel``, ``RemoteChannelClient`` proxies on the
other side, and the reconnect paths between them."""

import itertools
import socket
import sys
import threading

import pytest

from repro.aru import BackwardStpVector
from repro.control import FeedbackEndpoint
from repro.dist.channels import ChannelServer, RemoteChannelClient
from repro.dist.framing import FrameKind
from repro.dist.wire import ConnectionClosed, FramedConnection, connect
from repro.errors import DistError
from repro.metrics import TraceRecorder
from repro.rt_threads import ThreadChannel
from repro.runtime import Item
from repro.runtime.retry import RetryPolicy
from repro.vt import WallClock

FAST_RETRY = RetryPolicy(backoff_base=0.01, backoff_max=0.02, max_attempts=5)


class Served:
    """A served channel plus the clients opened against it."""

    def __init__(self, channel_cls=ThreadChannel):
        self.endpoint = FeedbackEndpoint(BackwardStpVector("min"))
        self.channel = channel_cls(
            "ch", TraceRecorder(), WallClock(), feedback=self.endpoint)
        self.stop = threading.Event()
        self.server = ChannelServer({"ch": self.channel}, self.stop)
        self.server.start()
        self.address = (self.server.host, self.server.port)
        self._clients = []

    def client(self, address=None):
        client = RemoteChannelClient(
            "ch", address or self.address, retry=FAST_RETRY, stop=self.stop)
        self._clients.append(client)
        return client

    def close(self):
        self.stop.set()
        for client in self._clients:
            client.close()
        self.server.close()


@pytest.fixture()
def served():
    s = Served()
    yield s
    s.close()


def item(ts, size=10):
    return Item(ts=ts, size=size, producer="p")


class _DropFirstPutReply:
    """A loopback relay in front of a server that cuts the connection
    instead of delivering the first reply to a PUT — the request landed,
    the client cannot know. The protocol is strictly request/reply per
    connection, so a synchronous relay suffices."""

    def __init__(self, upstream):
        self._upstream = upstream
        self._dropped = False
        self._sock = socket.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(4)
        self.address = self._sock.getsockname()
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        while True:
            try:
                sock, _ = self._sock.accept()
            except OSError:
                return
            threading.Thread(target=self._relay,
                             args=(FramedConnection(sock),), daemon=True).start()

    def _relay(self, down):
        up = connect(*self._upstream)
        try:
            while True:
                kind, payload = down.recv(timeout=5.0)
                up.send(kind, payload)
                rkind, reply = up.recv(timeout=5.0)
                if kind == FrameKind.PUT and not self._dropped:
                    self._dropped = True
                    return
                down.send(rkind, reply)
        except (ConnectionClosed, socket.timeout):
            pass
        finally:
            down.close()
            up.close()

    def close(self):
        self._sock.close()


@pytest.fixture()
def lossy(served):
    relay = _DropFirstPutReply(served.address)
    yield relay
    relay.close()


def test_reconnect_replaces_the_feedback_slot(served):
    # Regression: OPEN evicted the old connection's cursor but not its
    # backwardSTP slot, so a consumer that advertised 10 ms, reconnected
    # and now advertises 50 ms left both slots behind and the channel
    # kept returning 10 ms under ``min``.
    producer, consumer = served.client(), served.client()
    pconn = producer.register_producer("p")
    cconn = consumer.register_consumer("c")
    producer.put(pconn, item(0))
    view = consumer.get(cconn, consumer_summary=0.010)
    consumer.release(view._item)
    assert producer.put(pconn, item(1)) == 0.010

    consumer.close()  # the next request reconnects and re-OPENs
    view = consumer.get(cconn, consumer_summary=0.050)
    assert view.ts == 1  # the cursor resumed; ts 0 was not re-delivered
    consumer.release(view._item)
    assert producer.put(pconn, item(2)) == 0.050
    assert list(served.endpoint.backward.snapshot().values()) == [0.050]


class _PutOnRegistration(ThreadChannel):
    """Lands a put at the first instant another thread could take the
    channel lock after a consumer (re)registers."""

    on_registered = staticmethod(lambda: None)

    def register_consumer(self, thread):
        conn = super().register_consumer(thread)
        self.on_registered()
        return conn

    def resume_consumer(self, thread, last_got):
        conn = super().resume_consumer(thread, last_got)
        self.on_registered()
        return conn


def _drain(consumer, cconn, newest):
    """Get-latest and release until ``newest`` came; the timestamps got."""
    got = []
    while not got or got[-1] < newest:
        view = consumer.get(cconn, max_wait=2.0)
        assert view is not None, f"nothing after {got} (newest is {newest})"
        got.append(view.ts)
        consumer.release(view._item)
    return got


def test_reconnect_resumes_the_cursor_before_any_put_can_collect():
    # Regression: OPEN registered the cursor at -1 and moved it to
    # ``last_got`` after the channel lock was released — the one cursor
    # write outside ``commit_get``. A put landing in between collected
    # against -1; with the DGC threshold remembered, no later put or get
    # marked a pass due again and every item from then on stayed stored.
    served = Served(_PutOnRegistration)
    try:
        producer, consumer = served.client(), served.client()
        pconn = producer.register_producer("p")
        cconn = consumer.register_consumer("c")
        ts = itertools.count()
        n = 5
        for _ in range(n + 1):
            producer.put(pconn, item(next(ts)))
        assert _drain(consumer, cconn, newest=n) == [n]
        assert len(served.channel) == 0

        local = served.channel.register_producer("p-local")
        served.channel.on_registered = (
            lambda: served.channel.put(local, item(next(ts))))
        consumer.close()  # the next request reconnects with last_got = n
        for _ in range(4):
            producer.put(pconn, item(next(ts)))
        newest = next(ts)
        producer.put(pconn, item(newest))
        got = _drain(consumer, cconn, newest)
        assert min(got) > n  # nothing at or below the resumed cursor again
        assert got == sorted(set(got))
        assert len(served.channel) == 0  # back to the steady bound
    finally:
        served.close()


def test_reconnects_under_a_running_producer_leak_nothing(served):
    # The same property with real concurrency: a producer thread never
    # stops putting while the consumer drops its connection again and
    # again. Time-bounded; the switch interval is shortened so handler
    # threads interleave inside the OPEN, not only around it.
    producer, consumer = served.client(), served.client()
    pconn = producer.register_producer("p")
    cconn = consumer.register_consumer("c")
    done = threading.Event()
    put = []

    def keep_putting():
        for ts in itertools.count():
            if done.is_set():
                return
            producer.put(pconn, item(ts))
            put.append(ts)

    thread = threading.Thread(target=keep_putting, daemon=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        thread.start()
        got = []
        for _ in range(25):
            view = consumer.get(cconn, max_wait=2.0)
            assert view is not None
            got.append(view.ts)
            consumer.release(view._item)
            consumer.close()
        done.set()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
    finally:
        done.set()
        sys.setswitchinterval(interval)
    if got[-1] < put[-1]:
        got += _drain(consumer, cconn, newest=put[-1])
    assert got == sorted(set(got))  # no timestamp twice, none backwards
    assert len(served.channel) == 0


def test_retried_put_that_already_landed_is_acknowledged(served, lossy):
    # At-least-once put, exactly-once channel state.
    producer = served.client(lossy.address)
    pconn = producer.register_producer("p")
    assert producer.put(pconn, item(0)) is None
    assert served.channel.total_puts == 1
    assert len(served.channel) == 1


def test_other_server_error_on_a_retried_put_still_raises(served, lossy):
    producer = served.client(lossy.address)
    pconn = producer.register_producer("p")
    bad = item(0)
    bad.size = -1  # rejected when the server rebuilds the item
    with pytest.raises(DistError, match="negative item size"):
        producer.put(pconn, bad)
    assert served.channel.total_puts == 0
