"""Data plane: Stampede channels stretched over framed TCP.

One side of every cross-node channel is real — the
:class:`~repro.rt_threads.channel.ThreadChannel` living on the buffer's
plan node, fully authoritative for ordering, skipping, DGC, and ARU
state. The other side is a :class:`RemoteChannelClient` proxy that
speaks the same driver-facing surface (``register_producer`` /
``register_consumer`` / ``get`` / ``try_get`` / ``put`` / ``release`` /
``check_dead``) over one dedicated TCP connection per (thread, channel)
role. The server side drives the channel through that same public
surface plus ``evict_consumer``, ``resume_consumer`` and
``receive_feedback``; it never touches the state behind the channel's
lock — a reconnecting consumer's cursor included.

Feedback interleaves with data on that connection, in-band (the
punctuation-paper model): every GET/TRY_GET request carries the
consumer's current summary STP forward to the channel's ARU state, every
PUT_ACK carries the channel's summary back to the producer — exactly
the piggyback points the in-process executors use — and an explicit
FEEDBACK frame re-advertises the consumer's last summary after a
reconnect, because the server-side cursor registration (and its
backward-propagation slot) is per-connection state.

Failure semantics: a dropped connection surfaces as
:class:`~repro.dist.wire.ConnectionClosed`; the proxy reconnects under
the spec's :class:`~repro.runtime.retry.RetryPolicy`, re-OPENs with its
last consumed timestamp so the cursor resumes (the OPEN unregisters the
old connection's cursor *and* its backward-propagation slot), and
re-sends the request. A re-sent PUT that already landed is recognized
by the class of the server's rejection,
:class:`~repro.errors.DuplicateTimestamp` — ERROR frames name the
exception class beside its message — and treated as acknowledged
(at-least-once put, exactly-once channel state).
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.dist.framing import FrameKind
from repro.dist.wire import ConnectionClosed, FramedConnection, connect
from repro.errors import (
    DistError,
    DuplicateTimestamp,
    ReproError,
    SimulationError,
)
from repro.runtime.item import Item, ItemView
from repro.runtime.retry import RetryPolicy
from repro.vt.timestamp import EARLIEST, LATEST

#: How long one server-side blocking-get poll lasts. The client re-polls
#: with a fresh consumer summary each cycle, keeping the connection
#: responsive to shutdown and the feedback in-band and current.
POLL_SECONDS = 0.25

#: Socket-read slack on top of a poll so a busy server doesn't look dead.
_REPLY_SLACK = 5.0


def _encode_request(request) -> object:
    if request is LATEST:
        return "latest"
    if request is EARLIEST:
        return "earliest"
    return int(request)


def _decode_request(enc):
    if enc == "latest":
        return LATEST
    if enc == "earliest":
        return EARLIEST
    return int(enc)


def item_to_wire(item: Item) -> dict:
    return {
        "item_id": item.item_id,
        "ts": item.ts,
        "size": item.size,
        "payload": item.payload,
        "producer": item.producer,
        "parents": tuple(item.parents),
        "created_at": item.created_at,
    }


def item_from_wire(data: dict) -> Item:
    item = Item(
        ts=data["ts"],
        size=data["size"],
        payload=data["payload"],
        producer=data["producer"],
        parents=data["parents"],
        created_at=data["created_at"],
    )
    # Restore the producer-assigned id: lineage in the merged trace must
    # reference the id the producing worker recorded.
    item.item_id = data["item_id"]
    return item


class RemoteConn:
    """The connection handle a driver holds for a remote channel."""

    __slots__ = ("conn_id", "thread", "buffer", "role")

    def __init__(self, conn_id: int, thread: str, buffer: str, role: str) -> None:
        self.conn_id = conn_id
        self.thread = thread
        self.buffer = buffer
        self.role = role


class _ServerError(DistError):
    """The channel server reported an application-level error."""

    def __init__(self, message: str, error: str) -> None:
        super().__init__(message)
        #: Class name of the exception the server caught.
        self.error = error


class _ShutdownDrop(DistError):
    """Connection lost while the runtime is stopping.

    During wind-down, peers close their channel servers as soon as their
    own threads have joined, so late requests from slower nodes can hit
    a dead socket. The operation is moot — the server's per-session
    cleanup releases any references the peer still held — so callers
    treat this as a benign miss rather than a transport failure.
    """


class RemoteChannelClient:
    """Proxy for a channel hosted on another worker.

    One instance per (thread, channel) role; owns one TCP connection,
    used strictly request/reply so no correlation ids are needed.
    """

    kind = "channel"

    def __init__(
        self,
        buffer: str,
        address: Tuple[str, int],
        retry: Optional[RetryPolicy] = None,
        stop: Optional[threading.Event] = None,
    ) -> None:
        self.name = buffer
        self._address = address
        self._retry = retry or RetryPolicy()
        self._stop = stop
        self._conn: Optional[FramedConnection] = None
        self._conn_id: Optional[int] = None
        self._thread: Optional[str] = None
        self._role: Optional[str] = None
        self._last_got = -1
        self._last_summary: Optional[float] = None
        self.bytes_sent = 0
        self.bytes_received = 0

    # -- registration --------------------------------------------------
    def register_consumer(self, thread: str) -> RemoteConn:
        return self._register(thread, "consumer")

    def register_producer(self, thread: str) -> RemoteConn:
        return self._register(thread, "producer")

    def _register(self, thread: str, role: str) -> RemoteConn:
        if self._role is not None:
            raise SimulationError(
                f"remote channel proxy for {self.name!r} is single-role; "
                f"already registered as {self._role}"
            )
        self._thread = thread
        self._role = role
        conn_id = self._ensure_open()
        return RemoteConn(conn_id, thread, self.name, role)

    def _ensure_open(self) -> int:
        """(Re)connect and (re)register; returns the server conn_id."""
        if self._conn is not None:
            return self._conn_id
        conn = connect(
            self._address[0], self._address[1],
            retry=self._retry, stop=self._stop,
        )
        try:
            conn.send(FrameKind.OPEN, {
                "buffer": self.name,
                "thread": self._thread,
                "role": self._role,
                "last_got": self._last_got,
            })
            kind, reply = conn.recv(timeout=_REPLY_SLACK)
            self._check_reply(kind, reply, FrameKind.OPEN_OK)
            conn_id = reply["conn_id"]
            if self._role == "consumer" and self._last_summary is not None:
                # Re-advertise backward feedback lost with the old
                # connection's registration.
                conn.send(FrameKind.FEEDBACK, {"summary": self._last_summary})
                kind, reply = conn.recv(timeout=_REPLY_SLACK)
                self._check_reply(kind, reply, FrameKind.FEEDBACK_OK)
        except BaseException:
            conn.close()
            raise
        self._conn = conn
        self._conn_id = conn_id
        return conn_id

    def _check_reply(self, kind, reply, expected: FrameKind) -> None:
        if kind == FrameKind.ERROR:
            raise _ServerError(reply["message"], reply["error"])
        if kind != expected:
            raise DistError(
                f"channel {self.name!r}: expected {expected.name}, "
                f"got {FrameKind(kind).name}"
            )

    def _drop_connection(self) -> None:
        if self._conn is not None:
            self.bytes_sent += self._conn.bytes_sent
            self.bytes_received += self._conn.bytes_received
            self._conn.close()
            self._conn = None

    def _request(self, kind: FrameKind, payload: dict, expected: FrameKind,
                 reply_timeout: float) -> dict:
        """One request/reply with reconnect-and-resend under the policy."""
        attempt = 0
        while True:
            try:
                self._ensure_open()
                self._conn.send(kind, payload)
                rkind, reply = self._conn.recv(timeout=reply_timeout)
                self._check_reply(rkind, reply, expected)
                return reply
            except _ServerError as exc:
                if (kind == FrameKind.PUT and attempt > 0
                        and exc.error == DuplicateTimestamp.__name__):
                    # The pre-drop PUT landed; the retry was the duplicate.
                    return {"summary": None}
                raise
            except (ConnectionClosed, DistError, socket.timeout) as exc:
                self._drop_connection()
                attempt += 1
                if self._stop is not None and self._stop.is_set():
                    raise _ShutdownDrop(
                        f"channel {self.name!r}: {kind.name} dropped at "
                        f"shutdown: {exc}"
                    ) from exc
                if self._retry.exhausted(attempt):
                    raise DistError(
                        f"channel {self.name!r}: {kind.name} failed after "
                        f"{attempt} attempts: {exc}"
                    ) from exc
                time.sleep(self._retry.backoff(attempt))

    # -- driver-facing surface -----------------------------------------
    def get(self, conn: RemoteConn, request=LATEST,
            consumer_summary: Optional[float] = None,
            stop: Optional[threading.Event] = None,
            timeout: float = 0.05,
            max_wait: Optional[float] = None) -> Optional[ItemView]:
        """Blocking get via short server-side polls.

        Each poll is one GET frame carrying the consumer's current
        summary (feedback and data interleave on the wire by
        construction); the server blocks up to :data:`POLL_SECONDS` per
        poll, so stop events and deadlines are honored promptly.
        """
        stop = stop or self._stop
        remaining = max_wait
        while True:
            if stop is not None and stop.is_set():
                return None
            chunk = POLL_SECONDS if remaining is None else min(POLL_SECONDS, remaining)
            try:
                reply = self._request(
                    FrameKind.GET,
                    {
                        "request": _encode_request(request),
                        "summary": consumer_summary,
                        "max_wait": chunk,
                    },
                    FrameKind.GET_REPLY,
                    reply_timeout=chunk + _REPLY_SLACK,
                )
            except _ShutdownDrop:
                return None
            if consumer_summary is not None:
                self._last_summary = consumer_summary
            if reply["item"] is not None:
                item = item_from_wire(reply["item"])
                self._last_got = max(self._last_got, item.ts)
                return ItemView(item, self.name)
            if remaining is not None:
                remaining -= chunk
                if remaining <= 0:
                    return None

    def try_get(self, conn: RemoteConn, request=LATEST,
                consumer_summary: Optional[float] = None) -> Optional[ItemView]:
        try:
            reply = self._request(
                FrameKind.TRY_GET,
                {"request": _encode_request(request),
                 "summary": consumer_summary},
                FrameKind.GET_REPLY,
                reply_timeout=_REPLY_SLACK,
            )
        except _ShutdownDrop:
            return None
        if consumer_summary is not None:
            self._last_summary = consumer_summary
        if reply["item"] is None:
            return None
        item = item_from_wire(reply["item"])
        self._last_got = max(self._last_got, item.ts)
        return ItemView(item, self.name)

    def put(self, conn: RemoteConn, item: Item) -> Optional[float]:
        try:
            reply = self._request(
                FrameKind.PUT,
                {"item": item_to_wire(item)},
                FrameKind.PUT_ACK,
                reply_timeout=_REPLY_SLACK,
            )
        except _ShutdownDrop:
            return None
        return reply["summary"]

    def release(self, item: Item, t: Optional[float] = None) -> None:
        # ``t`` (a driver's clock read) is the hosting channel's to stamp.
        try:
            self._request(
                FrameKind.RELEASE,
                {"item_id": item.item_id},
                FrameKind.RELEASE_OK,
                reply_timeout=_REPLY_SLACK,
            )
        except _ShutdownDrop:
            return  # the server's session cleanup releases our refs

    def check_dead(self, ts: int) -> bool:
        try:
            reply = self._request(
                FrameKind.CHECK_DEAD,
                {"ts": int(ts)},
                FrameKind.CHECK_DEAD_OK,
                reply_timeout=_REPLY_SLACK,
            )
        except _ShutdownDrop:
            return False
        return bool(reply["dead"])

    def close(self) -> None:
        self._drop_connection()


class ChannelServer:
    """Serves a worker's local channels to remote peers over TCP.

    One acceptor thread plus one handler thread per client connection;
    each handler serves the sequential request/reply protocol of exactly
    one :class:`RemoteChannelClient`. Handlers track the items a client
    holds so an abrupt peer death releases its references instead of
    leaking them into the DGC threshold.
    """

    def __init__(self, channels: Dict[str, object],
                 stop: threading.Event,
                 host: str = "127.0.0.1") -> None:
        self.channels = channels
        self.stop_event = stop
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, 0))
        self._sock.listen(64)
        self._sock.settimeout(0.25)
        self.host, self.port = self._sock.getsockname()
        self._lock = threading.Lock()
        self._conns: List[FramedConnection] = []
        self._handlers: List[threading.Thread] = []
        self._closed_bytes = 0
        self._closed = False
        self._acceptor = threading.Thread(
            target=self._accept_loop, name=f"chan-server-{self.port}", daemon=True
        )

    def start(self) -> None:
        self._acceptor.start()

    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                sock, _addr = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            conn = FramedConnection(sock)
            handler = threading.Thread(
                target=self._serve, args=(conn,),
                name=f"chan-handler-{self.port}", daemon=True,
            )
            with self._lock:
                self._conns.append(conn)
                self._handlers.append(handler)
            handler.start()

    def _serve(self, conn: FramedConnection) -> None:
        session = _Session(self)
        try:
            while not self._closed:
                try:
                    kind, payload = conn.recv(timeout=0.5)
                except socket.timeout:
                    continue
                except ConnectionClosed:
                    return
                try:
                    reply_kind, reply = session.handle(kind, payload)
                except ReproError as exc:
                    conn.send(FrameKind.ERROR, {
                        "message": str(exc), "error": type(exc).__name__})
                    continue
                conn.send(reply_kind, reply)
        except ConnectionClosed:
            return
        finally:
            session.release_held()
            with self._lock:
                if conn in self._conns:
                    self._conns.remove(conn)
                self._closed_bytes += conn.bytes_sent + conn.bytes_received
            conn.close()

    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        with self._lock:
            live = sum(c.bytes_sent + c.bytes_received for c in self._conns)
            return self._closed_bytes + live

    def close(self) -> None:
        self._closed = True
        try:
            self._sock.close()
        except OSError:
            pass
        with self._lock:
            conns = list(self._conns)
            handlers = list(self._handlers)
        for conn in conns:
            conn.close()
        for handler in handlers:
            handler.join(timeout=2.0)


class _Session:
    """Per-connection server state: the OPENed channel and held items."""

    def __init__(self, server: ChannelServer) -> None:
        self.server = server
        self.channel = None
        self.cursor = None
        self.role: Optional[str] = None
        self.held: Dict[int, Item] = {}

    def handle(self, kind: FrameKind, payload) -> Tuple[FrameKind, object]:
        if kind == FrameKind.OPEN:
            return self._open(payload)
        if self.channel is None:
            raise DistError(f"{FrameKind(kind).name} before OPEN")
        if kind == FrameKind.GET:
            view = self.channel.get(
                self.cursor,
                _decode_request(payload["request"]),
                consumer_summary=payload["summary"],
                stop=self.server.stop_event,
                max_wait=payload["max_wait"],
            )
            return self._item_reply(view)
        if kind == FrameKind.TRY_GET:
            view = self.channel.try_get(
                self.cursor,
                _decode_request(payload["request"]),
                consumer_summary=payload["summary"],
            )
            return self._item_reply(view)
        if kind == FrameKind.PUT:
            item = item_from_wire(payload["item"])
            summary = self.channel.put(self.cursor, item)
            return (FrameKind.PUT_ACK, {"summary": summary})
        if kind == FrameKind.RELEASE:
            item = self.held.pop(payload["item_id"], None)
            if item is None:
                raise DistError(
                    f"RELEASE of item {payload['item_id']} not held here"
                )
            self.channel.release(item)
            return (FrameKind.RELEASE_OK, None)
        if kind == FrameKind.CHECK_DEAD:
            return (
                FrameKind.CHECK_DEAD_OK,
                {"dead": self.channel.check_dead(payload["ts"])},
            )
        if kind == FrameKind.FEEDBACK:
            if payload["summary"] is not None:
                self.channel.receive_feedback(self.cursor, payload["summary"])
            return (FrameKind.FEEDBACK_OK, None)
        raise DistError(f"unexpected frame {FrameKind(kind).name} on data plane")

    def _open(self, payload) -> Tuple[FrameKind, object]:
        buffer = payload["buffer"]
        channel = self.server.channels.get(buffer)
        if channel is None:
            raise DistError(f"no local channel {buffer!r} on this worker")
        role = payload["role"]
        if role == "consumer":
            channel.evict_consumer(payload["thread"])
            # Reconnect: resume the consumer's cursor so items it
            # already consumed are not re-delivered.
            cursor = channel.resume_consumer(
                payload["thread"], payload.get("last_got", -1))
        elif role == "producer":
            cursor = channel.register_producer(payload["thread"])
        else:
            raise DistError(f"unknown OPEN role {role!r}")
        self.channel = channel
        self.cursor = cursor
        self.role = role
        return (FrameKind.OPEN_OK, {"conn_id": cursor.conn_id})

    def _item_reply(self, view) -> Tuple[FrameKind, object]:
        if view is None:
            return (FrameKind.GET_REPLY, {"item": None})
        self.held[view.item_id] = view._item
        return (FrameKind.GET_REPLY, {"item": item_to_wire(view._item)})

    def release_held(self) -> None:
        """Release references an abruptly-dead peer left behind."""
        for item in self.held.values():
            try:
                self.channel.release(item)
            except ReproError:
                pass
        self.held.clear()
