"""Application task graphs.

The paper's ARU algorithm assumption (§3.3.3): *"the application task
graph is made available to the runtime system"*. :class:`TaskGraph` is
that structure — a bipartite DAG of *threads* and *buffers* (channels or
queues), built through an API mirroring Stampede's
``spd_chan_alloc()``-style calls, including the paper's added optional
per-channel dependency operator parameter.

The graph is three insertion-ordered dicts (attributes, successors,
predecessors). **Ordering contract** — ``merge``, thread start order, DOT
output and every placement are deterministic because: nodes (so
``threads()`` / ``buffers()``) iterate in the order added; a node's
successors (``consumers_of`` / ``outputs_of``) and predecessors
(``producers_of`` / ``inputs_of``) in the order their edges were
connected; ``edges()`` by source in node order, then successor order;
``merge`` adds the other graph's nodes in its node order and its edges in
its ``edges()`` order (so a merged node's predecessors follow the
source's *node* order, not its connect order); removing a node moves
nothing else.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import GraphError

THREAD = "thread"
CHANNEL = "channel"
QUEUE = "queue"
_BUFFER_KINDS = (CHANNEL, QUEUE)


class TaskGraph:
    """A bipartite directed graph of threads and buffers.

    Nodes carry attributes:

    * threads: ``fn`` (task body factory), ``node`` (placement), ``sink``
      (end-of-pipeline flag for delivery accounting), ``params`` (free-form
      task configuration), ``compress_op`` (ARU operator override);
    * buffers: ``node`` placement, ``compress_op`` (the paper's optional
      dependency-operator argument to ``spd_chan_alloc``), ``capacity``
      (optional bound enabling back-pressure — an extension).
    """

    def __init__(self, name: str = "app") -> None:
        self.name = name
        #: node -> attributes; node -> successors / predecessors, kept as
        #: insertion-ordered sets (dicts whose values are unused).
        self._nodes: Dict[str, Dict[str, Any]] = {}
        self._succ: Dict[str, Dict[str, None]] = {}
        self._pred: Dict[str, Dict[str, None]] = {}
        #: stage name -> replication spec (see :meth:`add_replicated_stage`).
        self._replicated: Dict[str, Dict[str, Any]] = {}
        #: Whether any thread is explicitly marked ``sink`` (cached so
        #: :meth:`is_sink` stays O(degree) on merged multi-tenant graphs).
        self._has_marked_sink = False

    # -- construction ----------------------------------------------------
    def _check_new_name(self, name: str) -> None:
        if not name or not isinstance(name, str):
            raise GraphError(f"invalid node name: {name!r}")
        if name in self._nodes:
            raise GraphError(f"duplicate node name: {name!r}")

    def _add_node(self, name: str, attrs: Dict[str, Any]) -> None:
        self._nodes[name] = attrs
        self._succ[name] = {}
        self._pred[name] = {}

    def add_thread(
        self,
        name: str,
        fn: Optional[Callable] = None,
        *,
        node: Optional[str] = None,
        sink: bool = False,
        params: Optional[Dict[str, Any]] = None,
        compress_op: Optional[object] = None,
    ) -> "TaskGraph":
        """Declare a task thread. ``fn(ctx)`` must return a task generator."""
        self._check_new_name(name)
        self._add_node(name, dict(
            kind=THREAD, fn=fn, node=node, sink=bool(sink),
            params=dict(params or {}), compress_op=compress_op))
        if sink:
            self._has_marked_sink = True
        return self

    def add_channel(
        self,
        name: str,
        *,
        node: Optional[str] = None,
        compress_op: Optional[object] = None,
        capacity: Optional[int] = None,
    ) -> "TaskGraph":
        """Declare a Stampede channel (timestamped, skipping reads)."""
        return self._add_buffer(name, CHANNEL, node, compress_op, capacity)

    def add_queue(
        self,
        name: str,
        *,
        node: Optional[str] = None,
        compress_op: Optional[object] = None,
        capacity: Optional[int] = None,
    ) -> "TaskGraph":
        """Declare a Stampede queue (FIFO, destructive reads)."""
        return self._add_buffer(name, QUEUE, node, compress_op, capacity)

    def _add_buffer(self, name, kind, node, compress_op, capacity) -> "TaskGraph":
        self._check_new_name(name)
        if capacity is not None and capacity < 1:
            raise GraphError(f"buffer {name!r}: capacity must be >= 1")
        self._add_node(name, dict(kind=kind, node=node,
                                  compress_op=compress_op, capacity=capacity))
        return self

    def connect(self, src: str, dst: str) -> "TaskGraph":
        """Add an edge. Must join a thread to a buffer or a buffer to a thread."""
        nodes = self._nodes
        for endpoint in (src, dst):
            if endpoint not in nodes:
                raise GraphError(f"unknown node {endpoint!r}")
        kinds = (nodes[src]["kind"], nodes[dst]["kind"])
        if not (
            (kinds[0] == THREAD and kinds[1] in _BUFFER_KINDS)
            or (kinds[0] in _BUFFER_KINDS and kinds[1] == THREAD)
        ):
            raise GraphError(
                f"illegal edge {src!r}({kinds[0]}) -> {dst!r}({kinds[1]}): "
                "edges must alternate thread <-> buffer"
            )
        if dst in self._succ[src]:
            raise GraphError(f"duplicate edge {src!r} -> {dst!r}")
        self._succ[src][dst] = None
        self._pred[dst][src] = None
        return self

    # -- replicated stages -------------------------------------------------
    def add_replicated_stage(
        self,
        stage: str,
        fn: Callable,
        *,
        input: str,
        output: str,
        replicas: int = 1,
        min_replicas: int = 1,
        max_replicas: Optional[int] = None,
        partition: str = "round-robin",
        node: Optional[str] = None,
        output_node: Optional[str] = None,
        params: Optional[Dict[str, Any]] = None,
        compress_op: Optional[object] = None,
        input_capacity: Optional[int] = None,
    ) -> "TaskGraph":
        """Declare a stage of N identical workers behind a partition/merge pair.

        Declares ``input`` as a partition queue (each admitted item is
        routed to exactly one worker slot) and ``output`` as a merge
        channel (results become visible in timestamp order), then adds
        ``replicas`` worker threads named ``stage[i]``, each connected
        ``input -> stage[i] -> output``. Upstream threads ``Put`` into
        ``input`` and downstream threads ``Get`` from ``output`` exactly
        as for plain buffers — replication is invisible to neighbours.

        ``fn(ctx)`` is the worker body shared by all replicas; the
        runtime can later add/retire replicas within
        ``[min_replicas, max_replicas]`` (see
        :meth:`~repro.runtime.runtime.Runtime.scale_out`).
        """
        from repro.runtime.replicated import PARTITION_KINDS

        if stage in self._replicated:
            raise GraphError(f"duplicate replicated stage {stage!r}")
        if replicas < 1:
            raise GraphError(f"stage {stage!r}: replicas must be >= 1")
        if min_replicas < 1:
            raise GraphError(f"stage {stage!r}: min_replicas must be >= 1")
        if max_replicas is None:
            max_replicas = max(replicas, 8)
        if not (min_replicas <= replicas <= max_replicas):
            raise GraphError(
                f"stage {stage!r}: need min_replicas <= replicas <= "
                f"max_replicas, got {min_replicas}/{replicas}/{max_replicas}"
            )
        if partition not in PARTITION_KINDS:
            raise GraphError(
                f"stage {stage!r}: unknown partition {partition!r} "
                f"(expected one of {PARTITION_KINDS})"
            )
        self.add_queue(input, node=node, compress_op=compress_op,
                       capacity=input_capacity)
        self._nodes[input]["partition_of"] = stage
        self._nodes[input]["partition"] = partition
        self.add_channel(output, node=output_node)
        self._nodes[output]["merge_of"] = stage
        self._replicated[stage] = {
            "fn": fn,
            "input": input,
            "output": output,
            "min_replicas": min_replicas,
            "max_replicas": max_replicas,
            "partition": partition,
            "node": node,
            "params": dict(params or {}),
            "compress_op": compress_op,
            "next_index": 0,
            "members": {},  # replica index -> live worker, in index order
        }
        for _ in range(replicas):
            self.add_replica(stage)
        return self

    def stage_spec(self, stage: str) -> Dict[str, Any]:
        """The replication spec declared by :meth:`add_replicated_stage`."""
        try:
            return self._replicated[stage]
        except KeyError:
            raise GraphError(f"unknown replicated stage {stage!r}") from None

    def replicated_stages(self) -> List[str]:
        """Names of declared replicated stages, in declaration order."""
        return list(self._replicated)

    def replicas_of(self, stage: str) -> List[str]:
        """Current worker threads of ``stage``, ordered by replica index."""
        return list(self.stage_spec(stage)["members"].values())

    def add_replica(self, stage: str) -> str:
        """Add one worker thread to ``stage``; returns its name.

        Indices are never reused — each spawn gets a fresh ``stage[i]``
        name, so trace records of retired replicas stay unambiguous.
        """
        spec = self.stage_spec(stage)
        idx = spec["next_index"]
        spec["next_index"] = idx + 1
        name = f"{stage}[{idx}]"
        self.add_thread(
            name,
            spec["fn"],
            node=spec["node"],
            params=dict(spec["params"]),
            compress_op=spec["compress_op"],
        )
        self._nodes[name]["replica_of"] = stage
        self._nodes[name]["replica_index"] = idx
        spec["members"][idx] = name
        self.connect(spec["input"], name)
        self.connect(name, spec["output"])
        return name

    def remove_replica(self, stage: str, name: str) -> None:
        """Remove a retired worker thread (and its edges) from the graph."""
        members = self.stage_spec(stage)["members"]
        attrs = self._nodes.get(name)
        if attrs is None or attrs.get("replica_of") != stage:
            raise GraphError(f"{name!r} is not a replica of stage {stage!r}")
        if len(members) <= 1:
            raise GraphError(
                f"stage {stage!r}: cannot remove the last replica {name!r}"
            )
        del members[attrs["replica_index"]]
        for succ in self._succ.pop(name):
            del self._pred[succ][name]
        for pred in self._pred.pop(name):
            del self._succ[pred][name]
        del self._nodes[name]

    # -- composition --------------------------------------------------------
    def merge(self, other: "TaskGraph", prefix: str = "") -> Dict[str, str]:
        """Copy another graph's nodes and edges into this one, renamed.

        Every node of ``other`` is added as ``prefix + name`` (threads,
        buffers, replicated-stage bookkeeping and edges alike); cluster
        placement hints (``node=``) are *not* renamed — they refer to
        hardware, not graph nodes. Returns the ``old name -> new name``
        mapping. This is the multi-tenancy primitive: each tenant's app
        graph merges into one shared graph under its namespace, so all
        tenants coexist in a single engine run.

        Raises :class:`GraphError` on any name collision, leaving
        ``self`` untouched.
        """
        if other is self:
            raise GraphError("cannot merge a graph into itself")
        mapping = {n: f"{prefix}{n}" for n in other._nodes}
        for new in mapping.values():
            if new in self._nodes:
                raise GraphError(
                    f"merge collision: {new!r} already exists in "
                    f"{self.name!r}"
                )
        for stage in other._replicated:
            if f"{prefix}{stage}" in self._replicated:
                raise GraphError(
                    f"merge collision: replicated stage "
                    f"{prefix}{stage!r} already exists in {self.name!r}"
                )
        for old, new in mapping.items():
            data = dict(other._nodes[old])
            if "params" in data:  # task bodies keep counters there
                data["params"] = dict(data["params"])
            for key in ("partition_of", "merge_of", "replica_of"):
                if data.get(key) is not None:
                    data[key] = f"{prefix}{data[key]}"
            self._add_node(new, data)
            if data.get("sink"):
                self._has_marked_sink = True
        for u, v in other.edges():
            self._succ[mapping[u]][mapping[v]] = None
            self._pred[mapping[v]][mapping[u]] = None
        for stage, spec in other._replicated.items():
            spec = dict(spec)
            spec["params"] = dict(spec["params"])
            spec["input"] = f"{prefix}{spec['input']}"
            spec["output"] = f"{prefix}{spec['output']}"
            spec["members"] = {i: mapping[n] for i, n in spec["members"].items()}
            self._replicated[f"{prefix}{stage}"] = spec
        return mapping

    # -- inspection ---------------------------------------------------------
    def kind(self, name: str) -> str:
        try:
            return self._nodes[name]["kind"]
        except KeyError:
            raise GraphError(f"unknown node {name!r}") from None

    def attrs(self, name: str) -> Dict[str, Any]:
        if name not in self._nodes:
            raise GraphError(f"unknown node {name!r}")
        return self._nodes[name]

    def threads(self) -> List[str]:
        return [n for n, d in self._nodes.items() if d["kind"] == THREAD]

    def buffers(self) -> List[str]:
        return [n for n, d in self._nodes.items() if d["kind"] in _BUFFER_KINDS]

    def channels(self) -> List[str]:
        return [n for n, d in self._nodes.items() if d["kind"] == CHANNEL]

    def queues(self) -> List[str]:
        return [n for n, d in self._nodes.items() if d["kind"] == QUEUE]

    def edges(self) -> List[Tuple[str, str]]:
        """``(src, dst)`` pairs: by source in node order, then successor order."""
        return [(u, v) for u, succ in self._succ.items() for v in succ]

    def producers_of(self, buffer: str) -> List[str]:
        """Threads putting into ``buffer``."""
        return list(self._pred[buffer])

    def consumers_of(self, buffer: str) -> List[str]:
        """Threads getting from ``buffer``."""
        return list(self._succ[buffer])

    def inputs_of(self, thread: str) -> List[str]:
        """Buffers ``thread`` consumes from."""
        return list(self._pred[thread])

    def outputs_of(self, thread: str) -> List[str]:
        """Buffers ``thread`` produces into."""
        return list(self._succ[thread])

    def sources(self) -> List[str]:
        """Threads with no input buffers — the paper's throttle targets."""
        return [t for t in self.threads() if not self.inputs_of(t)]

    def sinks(self) -> List[str]:
        """Threads explicitly marked ``sink``, else threads with no outputs."""
        marked = [t for t in self.threads() if self._nodes[t].get("sink")]
        if marked:
            return marked
        return [t for t in self.threads() if not self.outputs_of(t)]

    def is_source(self, thread: str) -> bool:
        if self.kind(thread) != THREAD:
            return False
        return not self.inputs_of(thread)

    def is_sink(self, thread: str) -> bool:
        if self.kind(thread) != THREAD:
            return False
        if self._has_marked_sink:
            return bool(self._nodes[thread].get("sink"))
        return not self.outputs_of(thread)

    # -- validation -------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`GraphError` on structural problems.

        Rules: at least one thread; acyclic (streaming pipelines); every
        buffer has at least one producer; every thread declares a body.
        A buffer with no consumer is legal (its items are pure waste) but
        unusual, so it is allowed — the resource metrics will expose it.
        """
        threads = self.threads()
        if not threads:
            raise GraphError(f"graph {self.name!r} has no threads")
        for buffer in self.buffers():
            if not self._pred[buffer]:
                raise GraphError(f"buffer {buffer!r} has no producer")
        for thread in threads:
            if self._nodes[thread]["fn"] is None:
                raise GraphError(f"thread {thread!r} has no body (fn=None)")
        cycle = self._find_cycle()
        if cycle:
            raise GraphError(f"graph {self.name!r} has a cycle: {cycle}")
        if not self.sources():
            raise GraphError(f"graph {self.name!r} has no source thread")

    def _find_cycle(self) -> Optional[List[Tuple[str, str]]]:
        """The edges of one directed cycle, or None. Iterative three-colour
        DFS: a node is unvisited, on the current path, or finished; an edge
        back into the path closes a cycle."""
        succ = self._succ
        on_path: Dict[str, bool] = {}  # absent: unvisited; False: finished
        for root in succ:
            if root in on_path:
                continue
            path, pending = [root], [iter(succ[root])]
            on_path[root] = True
            while pending:
                for child in pending[-1]:
                    child_on_path = on_path.get(child)
                    if child_on_path:
                        walk = path[path.index(child):] + [child]
                        return list(zip(walk, walk[1:]))
                    if child_on_path is None:
                        path.append(child)
                        pending.append(iter(succ[child]))
                        on_path[child] = True
                        break
                else:
                    pending.pop()
                    on_path[path.pop()] = False
        return None

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<TaskGraph {self.name!r}: {len(self.threads())} threads, "
            f"{len(self.buffers())} buffers, {len(self.edges())} edges>"
        )
