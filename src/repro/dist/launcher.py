"""The ``proc`` backend: one worker process per cluster node.

:func:`run_distributed` is the registered runner behind
``ExperimentSpec(backend="proc")``. It partitions the spec's graph with
:func:`~repro.dist.plan.build_plan`, forks one worker process per plan
node from this already-imported interpreter (no ``exec``, no imports
to repeat), and drives the control protocol over framed TCP::

    launcher                         worker[i]
    --------                         ---------
                       <- HELLO      (index, pid)
    CONFIG ->                        (pickled spec + node name)
                       <- READY      (data-plane port)
    PEERS ->                         (node -> address map; proxies dial)
    START ->                         (shared epoch t0)
        ... spec.horizon wall seconds of streaming ...
    STOP ->
                       <- STATS      (trace + stats + telemetry snapshot)
    BYE ->

Workers rebase their clocks to the broadcast ``t0``, so the per-worker
traces share one time axis and merge by pure union
(:func:`~repro.metrics.trace_io.merge_traces`); stats dictionaries union
the same way (:func:`~repro.dist.result.merge_stats`); telemetry
snapshots fold through :func:`~repro.obs.merge.merge_snapshots`. The
caller gets back an ordinary :class:`~repro.experiment.RunResult` whose
``runtime`` is a :class:`~repro.dist.result.DistRunInfo`.

A worker that dies or stalls fails the run loudly: every protocol step
has a deadline, a worker's exit wakes the launcher through its process
sentinel, ``ERROR`` frames carry the worker's traceback, and on any
failure the launcher kills and joins every worker and raises
:class:`~repro.errors.DistError` with the dead worker's stderr tail.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import socket
import sys
import tempfile
import time
from multiprocessing.connection import wait
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.dist.framing import FrameKind
from repro.dist.plan import build_plan
from repro.dist.result import DistRunInfo, WorkerInfo, merge_stats
from repro.dist.wire import ConnectionClosed, FramedConnection
from repro.errors import ConfigError, DistError

#: Deadline for each control-protocol step (handshake, READY, STATS).
STEP_TIMEOUT = 60.0

_PROC_OPTIONS = ("compute_mode", "step_timeout")


class _Worker:
    """Launcher-side handle for one worker process."""

    def __init__(self, index: int, node: str, proc, stderr_path: Path) -> None:
        self.index = index
        self.node = node
        self.proc = proc
        self.stderr_path = stderr_path
        self.conn: Optional[FramedConnection] = None
        self.port: Optional[int] = None

    def stderr_tail(self, limit: int = 4000) -> str:
        try:
            text = self.stderr_path.read_text(errors="replace")
        except OSError:
            return ""
        return text[-limit:]


def _validate(spec) -> dict:
    opts = dict(spec.backend_options)
    unknown = sorted(set(opts) - set(_PROC_OPTIONS))
    if unknown:
        raise ConfigError(
            f"unknown proc backend_options {unknown}; "
            f"expected: {', '.join(_PROC_OPTIONS)}"
        )
    faults = spec.faults
    if faults is not None:
        from repro.faults import FaultSchedule

        if not isinstance(faults, FaultSchedule):
            faults = FaultSchedule(tuple(faults))
        if not faults.is_empty:
            raise ConfigError(
                "the proc backend does not script faults; its failures are "
                "real (kill a worker, drop a connection) and handled by the "
                "RetryPolicy — use backend='sim' for scheduled fault "
                "injection"
            )
    scale = spec.resolve_scale_policy()
    if scale is not None:
        # "no-scale" resolves to None and is fine; only a scaler needs
        # the simulator.
        raise ConfigError(
            "the proc backend does not support elastic scaling; "
            "use backend='sim'"
        )
    if not spec.trace_rows:
        raise ConfigError(
            "the proc backend needs trace_rows=True: the run's trace is "
            "its workers' rows, merged"
        )
    from repro.obs import TelemetryHub
    from repro.rt_threads.executor import check_live_gc

    check_live_gc(spec.gc)  # before any worker is launched
    if isinstance(spec.telemetry, TelemetryHub):
        raise ConfigError(
            "a pre-built TelemetryHub cannot cross process boundaries; "
            "pass telemetry=True or a TelemetryConfig to backend='proc'"
        )
    return opts


def _pickled_spec(spec) -> "object":
    """The spec workers receive; fails fast when it cannot travel."""
    wire_spec = spec.with_(telemetry=_picklable_telemetry(spec.telemetry))
    try:
        pickle.dumps(wire_spec)
    except Exception as exc:
        raise ConfigError(
            f"spec cannot cross the process boundary ({exc}); graphs built "
            f"from closures/lambdas are sim-only — use module-level task "
            f"functions or a builtin app name for backend='proc'"
        ) from exc
    return wire_spec


def _picklable_telemetry(value):
    if value in (False, None, True):
        return bool(value)
    return value  # TelemetryConfig is a plain frozen dataclass


def merged_telemetry(telemetry, snapshots):
    """The run's hub, from the workers' snapshots.

    Off exactly when :func:`~repro.obs.resolve_hub` says so, which is
    how each worker decided whether to send a snapshot at all.
    """
    from repro.obs import (NULL_HUB, hub_from_snapshot, merge_snapshots,
                           resolve_hub)

    if not resolve_hub(telemetry).enabled:
        return NULL_HUB
    return hub_from_snapshot(merge_snapshots(snapshots))


def _recv_step(worker: _Worker, expected: FrameKind, timeout: float):
    """One protocol step; ERROR frames and dead sockets become DistError."""
    try:
        kind, payload = worker.conn.recv(timeout=timeout)
    except socket.timeout:
        raise DistError(
            f"worker {worker.index} ({worker.node}) missed the "
            f"{expected.name} deadline ({timeout:.0f}s)"
        ) from None
    except ConnectionClosed:
        raise DistError(
            f"worker {worker.index} ({worker.node}) died before "
            f"{expected.name}\n--- worker stderr ---\n{worker.stderr_tail()}"
        ) from None
    if kind == FrameKind.ERROR:
        raise DistError(
            f"worker {worker.index} ({worker.node}) failed:\n"
            f"{payload.get('message', payload)}"
        )
    if kind != expected:
        raise DistError(
            f"worker {worker.index} ({worker.node}): expected "
            f"{expected.name}, got {FrameKind(kind).name}"
        )
    return payload


def _worker_main(server: socket.socket, index: int, stderr_fd: int) -> None:
    """What a forked worker runs; it never returns into the launcher."""
    host, port = server.getsockname()
    server.close()
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.close(devnull)
    os.dup2(stderr_fd, 2)
    # Fresh stream objects: the inherited ones carry buffer locks that a
    # launcher thread may have held at the instant of the fork.
    sys.stdout = open(1, "w", closefd=False)
    sys.stderr = open(2, "w", buffering=1, closefd=False)
    from repro.dist.worker import main

    sys.exit(main(host, port, index))


def _reap(workers: List[_Worker], grace: float) -> None:
    """``grace`` seconds to exit, then kill and join: no zombie is left."""
    deadline = time.time() + grace
    for w in workers:
        w.proc.join(max(0.0, deadline - time.time()))
        w.proc.kill()
        w.proc.join(5.0)


def _accept_all(server: socket.socket, workers: List[_Worker],
                timeout: float) -> None:
    """Accept one control connection per worker and match on HELLO."""
    by_index = {w.index: w for w in workers}
    deadline = time.time() + timeout
    pending = set(by_index)
    while pending:
        server.settimeout(max(0.1, deadline - time.time()))
        try:
            sock, _addr = server.accept()
        except socket.timeout:
            dead = ", ".join(
                f"{by_index[i].node} (stderr: {by_index[i].stderr_tail(800)})"
                for i in sorted(pending)
            )
            raise DistError(
                f"workers never connected: {dead}"
            ) from None
        sock.settimeout(None)
        conn = FramedConnection(sock)
        kind, hello = conn.recv(timeout=STEP_TIMEOUT)
        if kind != FrameKind.HELLO:
            conn.close()
            raise DistError(f"expected HELLO, got {FrameKind(kind).name}")
        index = hello["worker"]
        if index not in pending:
            conn.close()
            raise DistError(f"unexpected worker index {index} in HELLO")
        pending.discard(index)
        by_index[index].conn = conn


def run_distributed(spec) -> "object":
    """Run a spec across one worker process per cluster node."""
    from repro.experiment import RunResult
    from repro.metrics.trace_io import merge_traces

    opts = _validate(spec)
    step_timeout = float(opts.get("step_timeout", STEP_TIMEOUT))
    wire_spec = _pickled_spec(spec)

    graph = spec.resolve_graph()
    cluster, placement = spec.resolve_cluster_and_placement()
    plan = build_plan(graph, cluster, placement)
    if not plan.nodes:
        raise ConfigError("the plan assigns work to no cluster node")

    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    server.bind(("127.0.0.1", 0))
    server.listen(len(plan.nodes))

    # Imported once here, before the fork, numpy's pages are shared by
    # the workers instead of each importing its own copy; numpy.random
    # too, which every worker's runtime would otherwise import after it.
    import numpy.random  # noqa: F401

    workers: List[_Worker] = []
    t0 = 0.0
    try:
        with tempfile.TemporaryDirectory(prefix="repro-dist-") as tmp:
            fork = multiprocessing.get_context("fork")
            for index, node in enumerate(plan.nodes):
                stderr_path = Path(tmp) / f"worker-{index}-{node}.stderr"
                with open(stderr_path, "wb") as stderr_f:
                    proc = fork.Process(target=_worker_main, args=(
                        server, index, stderr_f.fileno()))
                    proc.start()
                workers.append(_Worker(index, node, proc, stderr_path))
            _accept_all(server, workers, step_timeout)
            # The shared epoch: every worker clock reads seconds since
            # this instant, so merged traces sit on one time axis.
            t0 = time.time()
            for w in workers:
                w.conn.send(FrameKind.CONFIG, {
                    "spec": wire_spec,
                    "node": w.node,
                    "worker_index": w.index,
                    "n_workers": len(workers),
                    "t0": t0,
                })
            peers: Dict[str, Tuple[str, int]] = {}
            for w in workers:
                ready = _recv_step(w, FrameKind.READY, step_timeout)
                w.port = ready["port"]
                peers[w.node] = ("127.0.0.1", ready["port"])
            for w in workers:
                w.conn.send(FrameKind.PEERS, {"nodes": peers})
            for w in workers:
                w.conn.send(FrameKind.START, {"t0": t0})
            # A worker's sentinel becomes readable the moment it exits.
            dead = wait([w.proc.sentinel for w in workers],
                        timeout=spec.horizon)
            for w in workers:
                if w.proc.sentinel in dead:
                    w.proc.join()
                    raise DistError(
                        f"worker {w.index} ({w.node}) died mid-run "
                        f"(exit {w.proc.exitcode})\n--- worker stderr "
                        f"---\n{w.stderr_tail()}"
                    )
            for w in workers:
                w.conn.send(FrameKind.STOP, None)
            reports = []
            for w in workers:
                reports.append(_recv_step(w, FrameKind.STATS, step_timeout))
            for w in workers:
                w.conn.send(FrameKind.BYE, None)
                w.conn.close()
            _reap(workers, grace=10.0)
    except BaseException:
        for w in workers:
            if w.conn is not None:
                w.conn.close()
        _reap(workers, grace=0.0)
        raise
    finally:
        server.close()

    trace = merge_traces([r["trace"] for r in reports])
    stats = merge_stats([r["stats"] for r in reports])
    telemetry = merged_telemetry(spec.telemetry,
                                 [r["telemetry"] for r in reports])
    info = DistRunInfo(
        plan=plan,
        workers=[
            WorkerInfo(index=w.index, node=w.node, pid=w.proc.pid,
                       port=w.port, returncode=w.proc.exitcode)
            for w in workers
        ],
        t0=t0,
    )
    return RunResult(
        spec=spec,
        trace=trace,
        stats=stats,
        telemetry=telemetry,
        fault_log=None,
        runtime=info,
    )
