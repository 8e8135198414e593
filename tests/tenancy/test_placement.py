"""Property tests for placement strategies and the registry."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.spec import heterogeneous_spec, uniform_spec
from repro.errors import ConfigError
from repro.tenancy import (
    PLACEMENTS,
    PlacementView,
    Scheduler,
    register_placement,
    resolve_placement,
)
from repro.tenancy.tenant import ResourceDemand

STRATEGIES = ("round-robin", "rstorm", "spread")


def _demands(cpus):
    return {f"t{i}": ResourceDemand(cpu=c, mem_bytes=1, bandwidth_bps=1)
            for i, c in enumerate(cpus)}


# -- hypothesis invariants ---------------------------------------------------

cpu_lists = st.lists(
    st.floats(min_value=0.1, max_value=4.0, allow_nan=False,
              allow_infinity=False),
    min_size=1, max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(cpus=cpu_lists, n_nodes=st.integers(1, 6),
       ncpus=st.integers(1, 8),
       strategy=st.sampled_from(STRATEGIES))
def test_placement_never_exceeds_node_budget(cpus, n_nodes, ncpus, strategy):
    """Accepted placements fit; every node stays within capacity."""
    scheduler = Scheduler(uniform_spec(n_nodes, ncpus=ncpus),
                          placement=strategy)
    demands = _demands(cpus)
    placement = scheduler.admit("t", list(demands), demands)
    if placement is None:
        return
    assert set(placement) == set(demands)
    for node in scheduler.committed:
        cap = scheduler.capacity(node)
        committed = scheduler.committed[node]
        for axis in range(3):
            assert committed[axis] <= cap[axis] + 1e-6


@settings(max_examples=40, deadline=None)
@given(cpus=cpu_lists, n_nodes=st.integers(1, 6),
       strategy=st.sampled_from(STRATEGIES))
def test_placement_deterministic(cpus, n_nodes, strategy):
    """Same cluster + same demands -> bit-identical placement."""
    demands = _demands(cpus)

    def run():
        scheduler = Scheduler(uniform_spec(n_nodes, ncpus=8),
                              placement=strategy)
        return scheduler.admit("t", list(demands), demands)

    assert run() == run()


@settings(max_examples=40, deadline=None)
@given(n_nodes=st.integers(1, 5), ncpus=st.integers(1, 4),
       strategy=st.sampled_from(STRATEGIES))
def test_full_cluster_rejects(n_nodes, ncpus, strategy):
    """A saturated cluster refuses admission (None, ledger untouched)."""
    scheduler = Scheduler(uniform_spec(n_nodes, ncpus=ncpus),
                          placement=strategy)
    filler = {f"f{i}": ResourceDemand(cpu=float(ncpus))
              for i in range(n_nodes)}
    assert scheduler.admit("filler", list(filler), filler) is not None
    before = {n: list(v) for n, v in scheduler.committed.items()}
    extra = {"x": ResourceDemand(cpu=0.5)}
    assert scheduler.admit("late", ["x"], extra) is None
    assert {n: list(v) for n, v in scheduler.committed.items()} == before


@settings(max_examples=40, deadline=None)
@given(cpus=cpu_lists, strategy=st.sampled_from(STRATEGIES))
def test_failed_placement_has_no_side_effects(cpus, strategy):
    """try_place never mutates the ledger, success or failure."""
    scheduler = Scheduler(uniform_spec(2, ncpus=4), placement=strategy)
    demands = _demands(cpus)
    before = {n: list(v) for n, v in scheduler.committed.items()}
    scheduler.try_place("t", list(demands), demands)
    assert {n: list(v) for n, v in scheduler.committed.items()} == before


# -- strategy behaviour -------------------------------------------------------


class TestRStorm:
    def test_colocates_neighbors(self):
        scheduler = Scheduler(uniform_spec(4, ncpus=8), placement="rstorm")
        demands = {t: ResourceDemand(cpu=1.0) for t in ("a", "b", "c")}
        neighbors = {"a": frozenset({"b"}), "b": frozenset({"a", "c"}),
                     "c": frozenset({"b"})}
        placement = scheduler.admit("t", ["a", "b", "c"], demands, neighbors)
        assert len(set(placement.values())) == 1

    def test_leaves_a_full_neighbor_node(self):
        # "a" fills its node; "b" falls back to scoring every node.
        scheduler = Scheduler(uniform_spec(2, ncpus=2), placement="rstorm")
        demands = {"a": ResourceDemand(cpu=2.0), "b": ResourceDemand(cpu=1.0)}
        neighbors = {"a": frozenset({"b"}), "b": frozenset({"a"})}
        placement = scheduler.admit("t", ["a", "b"], demands, neighbors)
        assert placement["a"] != placement["b"]

    def test_packs_small_nodes_first(self):
        # Min-distance packing fills the node whose remainder is
        # smallest: a thin node beats a fat one for a small thread.
        cluster = heterogeneous_spec(n_big=1, n_small=1, big_ncpus=16,
                                     small_ncpus=2)
        scheduler = Scheduler(cluster, placement="rstorm")
        demands = {"a": ResourceDemand(cpu=1.0, mem_bytes=1,
                                       bandwidth_bps=1)}
        placement = scheduler.admit("t", ["a"], demands)
        assert placement["a"] == "small0"

    def test_big_thread_needs_big_node(self):
        cluster = heterogeneous_spec(n_big=1, n_small=1, big_ncpus=16,
                                     small_ncpus=2)
        scheduler = Scheduler(cluster, placement="rstorm")
        demands = {"a": ResourceDemand(cpu=8.0, mem_bytes=1,
                                       bandwidth_bps=1)}
        assert scheduler.admit("t", ["a"], demands)["a"] == "big0"


class TestRoundRobin:
    def test_cursor_cycles_across_admissions(self):
        scheduler = Scheduler(uniform_spec(3, ncpus=8),
                              placement="round-robin")
        nodes = []
        for i in range(3):
            demands = {"a": ResourceDemand(cpu=1.0)}
            nodes.append(scheduler.admit(f"t{i}", ["a"], demands)["a"])
        assert nodes == ["node0", "node1", "node2"]


class TestSpread:
    def test_levels_load(self):
        scheduler = Scheduler(uniform_spec(3, ncpus=8), placement="spread")
        demands = {f"t{i}": ResourceDemand(cpu=1.0) for i in range(3)}
        placement = scheduler.admit("t", list(demands), demands)
        assert len(set(placement.values())) == 3


# -- registry ----------------------------------------------------------------


class TestRegistry:
    def test_builtins_listed(self):
        assert set(STRATEGIES) <= set(PLACEMENTS.names())

    def test_help_text_catalogs_all(self):
        text = PLACEMENTS.help_text()
        for name in STRATEGIES:
            assert name in text

    def test_unknown_name_suggests(self):
        with pytest.raises(ConfigError, match="did you mean 'rstorm'"):
            resolve_placement("rstrom")

    def test_replace_and_custom(self):
        class Custom:
            name = "custom"

            def place(self, tenant, threads, demands, view):
                return None

        register_placement("custom", Custom, help="test-only")
        assert isinstance(resolve_placement("custom"), Custom)
        # instances pass straight through
        instance = Custom()
        assert resolve_placement(instance) is instance

    def test_none_defaults_to_rstorm(self):
        assert resolve_placement(None).name == "rstorm"

    def test_non_string_rejected(self):
        with pytest.raises(ConfigError, match="registered name"):
            resolve_placement(42)


def test_view_fits_epsilon():
    view = PlacementView(
        nodes=("n",), capacity={"n": (1.0, 1.0, 1.0)},
        available={"n": [1.0, 1.0, 1.0]},
    )
    # float-noise demand at the boundary still fits
    assert view.fits("n", (1.0, 1.0, 1.0))
    assert not view.fits("n", (1.0 + 1e-6, 1.0, 1.0))


# -- differentials: the strategies as they were, as the reference -------------
# ISSUE 18 unrolled the strategies' inner loops and made the scheduler's
# view a copy of a table the ledger maintains. The formulations they
# replaced live on here, and only here, as the oracles.

_EPS = 1e-9


def ref_fits(view, node, demand):
    avail = view.available[node]
    return all(avail[i] + _EPS >= demand[i] for i in range(3))


def ref_round_robin(cursor, threads, demands, view):
    """Returns ``(assignment, cursor)``; the cursor outlives the call."""
    if not view.nodes:
        return None, cursor
    n = len(view.nodes)
    assignment = {}
    for thread in threads:
        vector = demands[thread].as_vector()
        chosen = None
        for k in range(n):
            node = view.nodes[(cursor + k) % n]
            if ref_fits(view, node, vector):
                chosen = node
                cursor = (cursor + k + 1) % n
                break
        if chosen is None:
            return None, cursor
        view.take(chosen, vector)
        assignment[thread] = chosen
    return assignment, cursor


def _ref_best_node(threads, demands, view, key_of):
    assignment = {}
    for thread in threads:
        vector = demands[thread].as_vector()
        best = best_key = None
        for index, node in enumerate(view.nodes):
            if not ref_fits(view, node, vector):
                continue
            key = key_of(thread, vector, index, node, assignment)
            if best_key is None or key < best_key:
                best, best_key = node, key
        if best is None:
            return None
        view.take(best, vector)
        assignment[thread] = best
    return assignment


def ref_rstorm(threads, demands, view):
    def key_of(thread, vector, index, node, assignment):
        neighbor_nodes = {assignment[other]
                          for other in view.neighbors.get(thread, ())
                          if other in assignment}
        capacity, avail = view.capacity[node], view.available[node]
        distance = 0.0
        for i in range(3):
            if capacity[i] > 0:
                remainder = (avail[i] - vector[i]) / capacity[i]
                distance += remainder * remainder
        return (0 if node in neighbor_nodes else 1, math.sqrt(distance),
                index)

    return _ref_best_node(threads, demands, view, key_of)


def ref_spread(threads, demands, view):
    def key_of(thread, vector, index, node, assignment):
        capacity, avail = view.capacity[node], view.available[node]
        headroom = min((avail[i] - vector[i]) / capacity[i]
                       for i in range(3) if capacity[i] > 0)
        return (-headroom, index)

    return _ref_best_node(threads, demands, view, key_of)


#: Few distinct values, so ties, exact fits and zero axes all happen;
#: demands mostly small against capacities, so most problems are feasible.
capacities = st.tuples(*[st.sampled_from([0.0] + [2.0, 4.0, 8.0] * 3)] * 3)
unused = st.sampled_from([1.0] * 4 + [0.75, 0.5, 0.25, 0.0])
vectors = st.tuples(*[st.sampled_from([0.0] * 3 + [0.25, 0.5, 0.5, 1.0, 3.0])] * 3)


@st.composite
def placement_problems(draw):
    """``(view_args, threads, demands)`` over a small arbitrary cluster:
    zero-capacity axes, part-used nodes, candidate nodes a subset of the
    capacity table (failed / excluded ones), demands that may not fit."""
    names = [f"n{i}" for i in range(draw(st.integers(0, 5)))]
    # spread takes a min over the axes a node has: one must be > 0.
    capacity = {n: draw(capacities.filter(any)) for n in names}
    available = {
        n: [axis * draw(unused) for axis in cap]
        for n, cap in capacity.items()
    }
    nodes = tuple(n for n in names if draw(st.booleans()) or len(names) < 3)
    threads = [f"t{i}" for i in range(draw(st.integers(1, 6)))]
    demands = {
        t: ResourceDemand(*(draw(vectors))) for t in threads
    }
    neighbors = {
        t: frozenset(draw(st.lists(st.sampled_from(threads), max_size=3)))
        for t in threads if draw(st.booleans())
    }
    view_args = dict(nodes=nodes, capacity=capacity, available=available,
                     neighbors=neighbors)
    return view_args, threads, demands


@st.composite
def colocation_problems(draw):
    """Problems where neighbor nodes often fill up: up to 12 small nodes
    (some failed) and a pipeline of up to 10 threads whose neighbors are
    its chain plus random extras."""
    names = [f"n{i}" for i in range(draw(st.integers(1, 12)))]
    capacity = {n: draw(capacities.filter(any)) for n in names}
    available = {n: [axis * draw(unused) for axis in cap]
                 for n, cap in capacity.items()}
    failed = draw(st.sets(st.sampled_from(names), max_size=len(names) - 1))
    nodes = tuple(n for n in names if n not in failed)
    threads = [f"t{i}" for i in range(draw(st.integers(1, 10)))]
    demands = {t: ResourceDemand(*draw(vectors)) for t in threads}
    neighbors = {}
    for i, t in enumerate(threads):
        chain = set(threads[max(0, i - 1):i]) | set(threads[i + 1:i + 2])
        extra = draw(st.lists(st.sampled_from(threads), max_size=2))
        neighbors[t] = frozenset(chain | set(extra))
    view_args = dict(nodes=nodes, capacity=capacity, available=available,
                     neighbors=neighbors)
    return view_args, threads, demands


def _fresh_view(view_args):
    return PlacementView(**{
        **view_args,
        "available": {n: list(v) for n, v in view_args["available"].items()},
    })


@settings(max_examples=200, deadline=None)
@given(problem=st.one_of(placement_problems(), colocation_problems()),
       strategy=st.sampled_from(("rstorm", "spread")))
def test_strategy_equals_its_reference(problem, strategy):
    view_args, threads, demands = problem
    reference = {"rstorm": ref_rstorm, "spread": ref_spread}[strategy]
    shipped_view, ref_view = _fresh_view(view_args), _fresh_view(view_args)
    shipped = resolve_placement(strategy).place("t", threads, demands,
                                                shipped_view)
    assert shipped == reference(threads, demands, ref_view)
    assert shipped_view.available == ref_view.available


@settings(max_examples=60, deadline=None)
@given(problems=st.lists(placement_problems(), min_size=1, max_size=3))
def test_round_robin_equals_its_reference_cursor_included(problems):
    strategy, cursor = resolve_placement("round-robin"), 0
    for view_args, threads, demands in problems:
        shipped_view, ref_view = _fresh_view(view_args), _fresh_view(view_args)
        expected, cursor = ref_round_robin(cursor, threads, demands, ref_view)
        assert strategy.place("t", threads, demands, shipped_view) == expected
        assert shipped_view.available == ref_view.available


LEDGER_OPS = ("admit", "release", "fail", "recover", "draw", "undraw")


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(st.tuples(st.sampled_from(LEDGER_OPS),
                              st.integers(0, 7), vectors), max_size=20),
       exclude=st.sets(st.integers(0, 3)))
def test_scheduler_view_equals_capacity_minus_committed(ops, exclude):
    """After any commit/release/mark_failed/headroom sequence the view
    the scheduler hands a strategy is what it used to recompute."""
    cluster = heterogeneous_spec(n_big=2, n_small=2, big_ncpus=4,
                                 small_ncpus=2)
    names = [n.name for n in cluster.nodes]
    scheduler = Scheduler(cluster, placement="spread")
    scheduler.set_budget("elastic", 3.0)
    admitted, draws = [], []
    for count, (op, pick, vector) in enumerate(ops):
        node = names[pick % len(names)]
        if op == "admit":
            demands = {"a": ResourceDemand(*vector),
                       "b": ResourceDemand(cpu=vector[0])}
            placement = scheduler.admit(f"t{count}", ["a", "b"], demands)
            if placement is not None:
                admitted.append((f"t{count}", placement, demands))
        elif op == "release" and admitted:
            tenant, placement, demands = admitted.pop(pick % len(admitted))
            scheduler.release(placement, demands, tenant=tenant)
        elif op == "fail":
            scheduler.mark_failed(node)
        elif op == "recover":
            scheduler.mark_recovered(node)
        elif op == "draw":
            if scheduler.request_headroom("elastic", vector[0], node):
                draws.append((vector[0], node))
        elif op == "undraw" and draws:
            scheduler.release_headroom("elastic", *draws.pop())

        excluded = {names[i] for i in exclude}
        dead = scheduler.failed | excluded
        was = {}
        for n in names:
            cap, committed = scheduler.capacity(n), scheduler.committed[n]
            was[n] = tuple(cap[i] - committed[i] for i in range(3))
            assert scheduler.available(n) == was[n]
        view = scheduler._view(exclude=excluded)
        assert view.nodes == tuple(n for n in names if n not in dead)
        for n in view.nodes:
            assert view.capacity[n] == scheduler.capacity(n)
            assert view.available[n] == list(was[n])
            view.take(n, (1.0, 1.0, 1.0))  # a copy: the ledger keeps its own
            assert scheduler.available(n) == was[n]
