"""Distributed multi-process backend: the same spec over processes and sockets.

The ``proc`` backend in the :mod:`repro.backends` registry. Each cluster
:class:`~repro.cluster.NodeSpec` that hosts work maps to one worker
process (:mod:`repro.dist.worker`); channels whose producer and consumer
land on different nodes become length-prefixed framed TCP connections
(:mod:`repro.dist.framing`, :mod:`repro.dist.wire`); the ARU control
plane is reused verbatim — each worker's sensors read wall-clock STP
locally and summary-STP feedback rides the same connections as the data,
piggybacked on GET requests and PUT acknowledgements plus explicit
FEEDBACK frames after reconnects.

The launcher (:mod:`repro.dist.launcher`) forks the workers from its own
interpreter, broadcasts the spec and a shared clock epoch, runs the
horizon, then merges per-worker traces, statistics, and telemetry
snapshots into one ordinary :class:`~repro.experiment.RunResult` —
downstream analysis code cannot tell which backend produced it.
Protocol details and fidelity caveats: ``docs/distributed.md``.
"""

from repro.dist.framing import (
    MAX_FRAME,
    Frame,
    FrameDecoder,
    FrameKind,
    encode_frame,
)
from repro.dist.launcher import run_distributed
from repro.dist.plan import DistPlan, build_plan
from repro.dist.wire import ConnectionClosed, FramedConnection

__all__ = [
    "run_distributed",
    "DistPlan",
    "build_plan",
    "FrameKind",
    "Frame",
    "FrameDecoder",
    "encode_frame",
    "MAX_FRAME",
    "FramedConnection",
    "ConnectionClosed",
]
