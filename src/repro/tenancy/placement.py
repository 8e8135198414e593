"""Pluggable placement strategies for the cluster scheduler.

A strategy maps one tenant's threads onto cluster nodes against a
:class:`PlacementView` — the scheduler's snapshot of per-node available
resources. Strategies are pure bin-packing logic: no engine, no RNG, so
the hypothesis property tests drive them directly.

Built-ins (the :data:`PLACEMENTS` registry):

* ``round-robin`` — capacity-aware cycling: each thread goes to the next
  feasible node after a persistent cursor. The capacity-blind baseline
  benchmarks compare against.
* ``rstorm`` — R-Storm-style min-distance bin packing (Peng et al.,
  "R-Storm: Resource-Aware Scheduling in Storm"): place each thread on
  the feasible node minimizing the euclidean distance between what
  remains after placement and zero (tight packing), preferring nodes
  that already host one of the thread's graph neighbors (colocation cuts
  network transfers).
* ``spread`` — maximize post-placement headroom: each thread goes to the
  feasible node with the largest minimum available fraction, leveling
  load at the cost of more remote hops.

Register custom strategies with :func:`register_placement`; names
resolve through :func:`resolve_placement` (CLI ``--placement``, spec
files, :class:`~repro.tenancy.run.TenancySpec`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.registry import Registry

#: Placement feasibility slack for float CPU arithmetic.
_EPS = 1e-9


@dataclass
class PlacementView:
    """One admission attempt's snapshot of the cluster.

    ``available`` is mutable on purpose: strategies subtract each
    placed thread's demand via :meth:`take`, so feasibility for the
    tenant's *later* threads accounts for its earlier ones. The
    scheduler builds a fresh view per attempt; a failed attempt
    discards it, leaving the reservation ledger untouched.
    """

    #: Candidate node names, in cluster declaration order (failed nodes
    #: are excluded by the scheduler before the view is built).
    nodes: Tuple[str, ...]
    #: node -> capacity (cpu, mem_bytes, bandwidth_bps); may cover more than ``nodes``.
    capacity: Dict[str, Tuple[float, float, float]]
    #: node -> remaining capacity vector, consumed during placement.
    available: Dict[str, List[float]]
    #: thread -> graph-neighbor threads (shared buffer), for colocation.
    neighbors: Mapping[str, frozenset] = field(default_factory=dict)

    def rows(self) -> List[tuple]:
        """``(index, node, capacity, available)`` per candidate, built once
        per attempt; ``available`` is the live vector :meth:`take` consumes."""
        capacity, available = self.capacity, self.available
        return [(index, node, capacity[node], available[node])
                for index, node in enumerate(self.nodes)]

    def fits(self, node: str, demand: Tuple[float, float, float]) -> bool:
        avail = self.available[node]
        return (avail[0] + _EPS >= demand[0] and avail[1] + _EPS >= demand[1]
                and avail[2] + _EPS >= demand[2])

    def take(self, node: str, demand: Tuple[float, float, float]) -> None:
        avail = self.available[node]
        for i in range(3):
            avail[i] -= demand[i]


class RoundRobinPlacement:
    """Capacity-aware round-robin: next feasible node after the cursor.

    The cursor persists across admissions (one strategy instance per
    scheduler), so successive tenants start from different nodes — the
    classic capacity-blind baseline, made merely capacity-*checking* so
    it can still refuse an infeasible tenant.
    """

    name = "round-robin"

    def __init__(self) -> None:
        self._cursor = 0

    def place(self, tenant: str, threads, demands, view: PlacementView
              ) -> Optional[Dict[str, str]]:
        rows = view.rows()
        if not rows:
            return None
        n = len(rows)
        assignment: Dict[str, str] = {}
        for thread in threads:
            cpu, mem, bandwidth = vector = demands[thread].as_vector()
            chosen = None
            for k in range(n):
                _, node, _, (a0, a1, a2) = rows[(self._cursor + k) % n]
                if (a0 + _EPS >= cpu and a1 + _EPS >= mem
                        and a2 + _EPS >= bandwidth):
                    chosen = node
                    self._cursor = (self._cursor + k + 1) % n
                    break
            if chosen is None:
                return None
            view.take(chosen, vector)
            assignment[thread] = chosen
        return assignment


class RStormPlacement:
    """R-Storm min-distance bin packing with neighbor colocation.

    Per thread, among feasible nodes, minimize the tuple
    ``(colocation_penalty, distance, node_index)`` where the penalty is
    0 when the node already hosts one of the thread's graph neighbors
    (placed earlier in this attempt) and the distance is the euclidean
    norm of the post-placement remainder as fractions of node capacity —
    small remainder = tight packing, leaving big nodes whole for big
    tenants. The node index makes ties deterministic.
    """

    name = "rstorm"

    def place(self, tenant: str, threads, demands, view: PlacementView
              ) -> Optional[Dict[str, str]]:
        rows = view.rows()
        assignment: Dict[str, str] = {}
        for thread in threads:
            cpu, mem, bandwidth = vector = demands[thread].as_vector()
            neighbor_nodes = {
                assignment[other]
                for other in view.neighbors.get(thread, ())
                if other in assignment
            }
            best = None
            best_key = None
            for index, node, (c0, c1, c2), (a0, a1, a2) in rows:
                if not (a0 + _EPS >= cpu and a1 + _EPS >= mem
                        and a2 + _EPS >= bandwidth):
                    continue
                # Remainders as fractions of capacity; an axis the node
                # does not have contributes nothing.
                r0 = (a0 - cpu) / c0 if c0 > 0 else 0.0
                r1 = (a1 - mem) / c1 if c1 > 0 else 0.0
                r2 = (a2 - bandwidth) / c2 if c2 > 0 else 0.0
                key = (0 if node in neighbor_nodes else 1,
                       math.sqrt(r0 * r0 + r1 * r1 + r2 * r2), index)
                if best_key is None or key < best_key:
                    best, best_key = node, key
            if best is None:
                return None
            view.take(best, vector)
            assignment[thread] = best
        return assignment


class SpreadPlacement:
    """Headroom-maximizing spread: level load across the cluster.

    Each thread goes to the feasible node whose *minimum* available
    fraction after placement is largest — the anti-packing strategy,
    useful when per-node interference dominates network cost.
    """

    name = "spread"

    def place(self, tenant: str, threads, demands, view: PlacementView
              ) -> Optional[Dict[str, str]]:
        rows = view.rows()
        assignment: Dict[str, str] = {}
        for thread in threads:
            cpu, mem, bandwidth = vector = demands[thread].as_vector()
            best = None
            best_key = None
            for index, node, (c0, c1, c2), (a0, a1, a2) in rows:
                if not (a0 + _EPS >= cpu and a1 + _EPS >= mem
                        and a2 + _EPS >= bandwidth):
                    continue
                # Smallest remaining fraction over the axes the node has.
                headroom = min((a0 - cpu) / c0 if c0 > 0 else math.inf,
                               (a1 - mem) / c1 if c1 > 0 else math.inf,
                               (a2 - bandwidth) / c2 if c2 > 0 else math.inf)
                key = (-headroom, index)
                if best_key is None or key < best_key:
                    best, best_key = node, key
            if best is None:
                return None
            view.take(best, vector)
            assignment[thread] = best
        return assignment


# -- registry ---------------------------------------------------------------

#: Strategy factories: strategies may be stateful (the round-robin
#: cursor), so each scheduler builds its own instance.
PLACEMENTS: Registry[Callable[[], object]] = Registry("placement")

register_placement = PLACEMENTS.register


def resolve_placement(value):
    """A strategy instance: ``None`` means ``rstorm``, an object with
    ``.place`` passes through, a name builds its registered strategy."""
    if value is None:
        value = "rstorm"
    if hasattr(value, "place"):
        return value
    return PLACEMENTS.get(value)()


register_placement(
    "round-robin", RoundRobinPlacement,
    help="next feasible node after a persistent cursor (capacity-blind "
         "baseline)",
)
register_placement(
    "rstorm", RStormPlacement,
    help="R-Storm min-distance bin packing over CPU/mem/bandwidth with "
         "neighbor colocation",
)
register_placement(
    "spread", SpreadPlacement,
    help="maximize post-placement headroom; levels load, ignores "
         "colocation",
)
