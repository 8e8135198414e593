"""Worker process main: one cluster node of a distributed run.

Forked by :mod:`repro.dist.launcher`, which calls :func:`main` in the
child. The worker dials the launcher's control socket and walks the
session protocol:

1. ``HELLO`` (worker index + pid) →
2. ``CONFIG`` (the pickled :class:`~repro.experiment.ExperimentSpec` +
   this worker's node name) — the worker seeds its item-id counter into
   a private range, recomputes the :class:`~repro.dist.plan.DistPlan`
   (deterministic, no negotiation), builds a :class:`WorkerRuntime`
   hosting its node's threads and channels, and binds a
   :class:`~repro.dist.channels.ChannelServer` →
3. ``READY`` (data port) → ``PEERS`` (everyone's data addresses) —
   remote-channel proxies connect →
4. ``START`` (shared clock epoch ``t0``) — the epoch clock rebases, the
   task threads start →
5. ``STOP`` → wind down, join, then ``STATS`` (the finalized
   :class:`~repro.metrics.recorder.TraceRecorder`, which pickles as its
   row columns and name table, + DES-shaped stats + the worker hub's
   snapshot when telemetry is on) and exit.

Any exception is reported as an ``ERROR`` frame (full traceback) before
the process dies, so the launcher can surface the real failure instead
of a timeout.
"""

from __future__ import annotations

import os
import socket
import time
import traceback
from typing import Dict, List, Optional, Tuple

from repro.dist.channels import ChannelServer, RemoteChannelClient
from repro.dist.framing import FrameKind
from repro.dist.plan import DistPlan, build_plan
from repro.dist.wire import FramedConnection
from repro.errors import DistError
from repro.rt_threads.executor import ThreadedRuntime
from repro.runtime.item import seed_item_ids
from repro.runtime.retry import RetryPolicy
from repro.vt.clock import EpochClock

#: Each worker's item ids start at ``(index + 1) * ID_STRIDE`` — 2^40
#: ids of headroom per worker, so merged traces cannot collide.
ID_STRIDE = 1 << 40


class WorkerRuntime(ThreadedRuntime):
    """A :class:`ThreadedRuntime` restricted to one plan node.

    Local buffers get real channels (served to peers over TCP); buffers
    on other nodes are reached through
    :class:`~repro.dist.channels.RemoteChannelClient` proxies. Driver
    construction is deferred until :meth:`connect_peers` delivers the
    peer address map.
    """

    def __init__(self, graph, *, aru, seed, compute_mode, gc, node: str,
                 plan: DistPlan, epoch: Optional[float] = None,
                 retry: Optional[RetryPolicy] = None,
                 telemetry=False) -> None:
        self.node_name = node
        self._plan = plan
        self._epoch = epoch
        self._retry = retry or RetryPolicy()
        self._peers: Optional[Dict[str, Tuple[str, int]]] = None
        #: One TCP proxy per connection of a local thread to a remote buffer.
        self.proxies: List[RemoteChannelClient] = []
        super().__init__(graph, aru=aru, seed=seed, compute_mode=compute_mode,
                         gc=gc, telemetry=telemetry)
        self.obs.bind(run={"backend": "proc", "node": node})

    # -- hook overrides ------------------------------------------------
    def _make_clock(self):
        # The launcher broadcasts its epoch in CONFIG, before anything
        # that captures a time (STP meters, the recorder) is built — so
        # every worker's clock shares one base and never jumps.
        return EpochClock(self._epoch)

    def _local_threads(self):
        if self._peers is None:
            return ()
        return self._plan.threads_on(self.node_name)

    def _local_buffers(self):
        return self._plan.buffers_on(self.node_name)

    def _channel_for(self, name: str):
        if name in self.channels:
            return self.channels[name]
        proxy = RemoteChannelClient(
            name,
            self._peers[self._plan.buffer_nodes[name]],
            retry=self._retry,
            stop=self.stop_event,
        )
        self.proxies.append(proxy)
        return proxy

    # -- distributed lifecycle ----------------------------------------
    def connect_peers(self, peers: Dict[str, Tuple[str, int]]) -> None:
        """Accept the peer address map and build this node's drivers."""
        self._peers = dict(peers)
        for name in self._plan.threads_on(self.node_name):
            self.drivers[name] = self._build_driver(name)

    def close_proxies(self) -> None:
        for proxy in self.proxies:
            proxy.close()

    def proxy_bytes(self) -> int:
        return sum(p.bytes_sent + p.bytes_received for p in self.proxies)


def _session(ctl: FramedConnection, worker_index: int) -> None:
    ctl.send(FrameKind.HELLO, {"worker": worker_index, "pid": os.getpid()})
    kind, config = ctl.recv(timeout=60.0)
    if kind != FrameKind.CONFIG:
        raise DistError(f"expected CONFIG, got {FrameKind(kind).name}")
    spec = config["spec"]
    node = config["node"]

    seed_item_ids((worker_index + 1) * ID_STRIDE)
    graph = spec.resolve_graph()
    cluster, placement = spec.resolve_cluster_and_placement()
    plan = build_plan(graph, cluster, placement)
    opts = dict(spec.backend_options)
    runtime = WorkerRuntime(
        graph,
        aru=spec.resolve_policy(),
        seed=spec.seed,
        compute_mode=opts.get("compute_mode", "sleep"),
        gc=spec.gc,
        node=node,
        plan=plan,
        epoch=config["t0"],
        retry=spec.retry if spec.retry is not None else RetryPolicy(),
        telemetry=spec.telemetry,
    )
    server = ChannelServer(runtime.channels, runtime.stop_event)
    server.start()
    try:
        ctl.send(FrameKind.READY, {"node": node, "port": server.port})

        kind, peers = ctl.recv(timeout=60.0)
        if kind != FrameKind.PEERS:
            raise DistError(f"expected PEERS, got {FrameKind(kind).name}")
        runtime.connect_peers(peers["nodes"])

        kind, _start = ctl.recv(timeout=60.0)
        if kind != FrameKind.START:
            raise DistError(f"expected START, got {FrameKind(kind).name}")
        runtime.start()

        # Run until the launcher says stop (or dies — EOF stops us too).
        deadline = time.time() + spec.horizon + 120.0
        while True:
            try:
                kind, _ = ctl.recv(timeout=max(0.1, deadline - time.time()))
            except socket.timeout:
                raise DistError("launcher never sent STOP") from None
            if kind == FrameKind.STOP:
                break
            raise DistError(f"expected STOP, got {FrameKind(kind).name}")
    finally:
        runtime.stop()
    trace = runtime.join()
    runtime.close_proxies()
    server.close()
    stats = runtime.stats()
    stats["network"]["total_bytes"] = server.total_bytes + runtime.proxy_bytes()
    obs = runtime.obs
    if obs.enabled:
        obs.on_finalize(stats, runtime.clock.now())
    ctl.send(FrameKind.STATS, {
        "node": node,
        "trace": trace,  # pickles as its columns and name table
        "stats": stats,
        "telemetry": obs.snapshot() if obs.enabled else None,
    })
    try:
        ctl.recv(timeout=10.0)  # BYE (or EOF) — then we are done
    except Exception:
        pass


def main(host: str, port: int, worker_index: int) -> int:
    """One session against the launcher at ``host:port``; the exit code."""
    sock = socket.create_connection((host, port), timeout=30.0)
    sock.settimeout(None)
    ctl = FramedConnection(sock)
    try:
        _session(ctl, worker_index)
        return 0
    except BaseException:
        try:
            ctl.send(FrameKind.ERROR, {
                "worker": worker_index,
                "message": traceback.format_exc(),
            })
        except Exception:
            pass
        traceback.print_exc()
        return 1
    finally:
        ctl.close()
