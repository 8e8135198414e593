"""The data plane over real loopback sockets: one ``ChannelServer`` in
front of a ``ThreadChannel``, ``RemoteChannelClient`` proxies on the
other side, and the reconnect paths between them."""

import socket
import threading

import pytest

from repro.aru import BufferAruState
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

    def __init__(self):
        self.endpoint = FeedbackEndpoint(BufferAruState("ch", op="min"))
        self.channel = ThreadChannel(
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
