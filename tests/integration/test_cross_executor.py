"""Cross-executor consistency: the DES and the real-threads runtime must
tell the same story for the same task graph.

Absolute timing differs (simulated vs wall clock under a GIL), but the
*mechanism-level* outcomes — who skips, who throttles, how much is wasted
— must agree in direction on both executors, and, since both shells wrap
one channel state machine, a fixed interleaving of channel operations
must leave the identical trace event sequence behind on both.
"""

import pytest

from repro.aru import aru_disabled, aru_min
from repro.cluster import ClusterSpec, Node, NodeSpec
from repro.gc import make_gc
from repro.metrics import PostmortemAnalyzer, TraceRecorder
from repro.rt_threads import ThreadChannel
from repro.rt_threads.executor import ThreadedRuntime
from repro.errors import SimulationError
from repro.runtime import (
    Channel,
    CheckDead,
    Compute,
    Get,
    Item,
    Now,
    PeriodicitySync,
    Put,
    Release,
    Runtime,
    RuntimeConfig,
    Sleep,
    TaskGraph,
    TryGet,
)
from repro.sim import Engine, RngRegistry
from repro.vt import EARLIEST, LATEST, ManualClock

PROD_PERIOD = 0.004
CONS_COMPUTE = 0.03


def build_graph():
    def producer(ctx):
        ts = 0
        while True:
            yield Sleep(PROD_PERIOD)
            yield Put("c", ts=ts, size=1000)
            ts += 1
            yield PeriodicitySync()

    def consumer(ctx):
        while True:
            yield Get("c")
            yield Compute(CONS_COMPUTE)
            yield PeriodicitySync()

    g = TaskGraph("xexec")
    g.add_thread("prod", producer)
    g.add_thread("cons", consumer, sink=True)
    g.add_channel("c")
    g.connect("prod", "c").connect("c", "cons")
    return g


def run_sim(aru):
    cluster = ClusterSpec(nodes=(NodeSpec(name="node0", sched_noise_cv=0.05),))
    rec = Runtime(
        build_graph(), RuntimeConfig(cluster=cluster, aru=aru, seed=0)
    ).run(until=8.0)
    return rec


def run_threads(aru):
    return ThreadedRuntime(build_graph(), aru=aru, seed=0).run(duration=2.0)


@pytest.mark.parametrize("runner", [run_sim, run_threads],
                         ids=["simulated", "threads"])
class TestBothExecutors:
    def test_no_aru_overproduces(self, runner):
        rec = runner(aru_disabled())
        pm = PostmortemAnalyzer(rec)
        prod = len(rec.iterations_of("prod"))
        cons = len(rec.iterations_of("cons"))
        assert prod > 2 * cons
        assert pm.wasted_memory_fraction > 0.3

    def test_aru_matches_rates(self, runner):
        rec = runner(aru_min())
        pm = PostmortemAnalyzer(rec)
        prod = len(rec.iterations_of("prod"))
        cons = len(rec.iterations_of("cons"))
        assert prod < 1.8 * cons
        assert pm.wasted_memory_fraction < 0.25
        # the source actually slept under throttle
        assert any(it.slept > 0 for it in rec.iterations_of("prod"))


def test_waste_reduction_factor_agrees():
    """Both executors must show a large waste drop from enabling ARU."""
    factors = {}
    for name, runner in (("sim", run_sim), ("threads", run_threads)):
        waste = {}
        for aru in (aru_disabled(), aru_min()):
            pm = PostmortemAnalyzer(runner(aru))
            waste[aru.name] = pm.wasted_memory_fraction
        factors[name] = waste["no-aru"] / max(waste["aru-min"], 1e-6)
    assert factors["sim"] > 3.0
    assert factors["threads"] > 3.0


# -- scripted differential: Channel vs ThreadChannel ------------------------

class EventLog(TraceRecorder):
    """A recorder that also keeps the order its hooks fired in, as
    ``(kind, item ts, connection thread)`` — item ids and times differ
    between two runs, those three do not."""

    def __init__(self):
        super().__init__()
        self.events = []

    def on_alloc(self, item_id, **fields):
        super().on_alloc(item_id=item_id, **fields)
        self.events.append(("alloc", fields["ts"], fields["producer"]))

    def on_get(self, item_id, conn_id, consumer, t):
        super().on_get(item_id, conn_id, consumer, t)
        self.events.append(("get", self.items[item_id].ts, consumer))

    def on_skip(self, item_id, conn_id, consumer, t):
        super().on_skip(item_id, conn_id, consumer, t)
        self.events.append(("skip", self.items[item_id].ts, consumer))

    def on_free(self, item_id, t):
        super().on_free(item_id, t)
        self.events.append(("free", self.items[item_id].ts, None))


#: puts; LATEST, EARLIEST and exact-ts gets; releases (oldest held view of
#: the named consumer); one eviction. Covers skip-marking on a cursor
#: jump, dooming a referenced dead item and freeing it at release, a
#: dead-on-arrival put, and the GC threshold unfreezing at the eviction.
SCRIPT = (
    ("put", 0), ("put", 1), ("put", 2),
    ("get", "a", LATEST),
    ("get", "b", EARLIEST),
    ("put", 3), ("put", 5),
    ("get", "b", 3),
    ("release", "a"),
    ("get", "a", EARLIEST),
    ("release", "b"), ("release", "b"),
    ("evict", "b"),
    ("put", 4), ("put", 6),
    ("get", "a", LATEST),
    ("put", 7),
    ("release", "a"), ("release", "a"),
    ("get", "a", LATEST),
    ("put", 6),  # freed above, so not a duplicate; dead on arrival
    ("release", "a"),
)


class SimulatedShell:
    def __init__(self, recorder):
        engine = Engine()
        node = Node(engine, NodeSpec(name="n0"), RngRegistry(0))
        self.channel = Channel(engine, "ch", node, recorder=recorder,
                               gc=make_gc("dgc"))
        self.t = 0.0

    def _now(self):
        self.t += 1.0
        return self.t

    def put(self, conn, item):
        self.channel.commit_put(conn, item, self._now())

    def get(self, conn, request):
        return self.channel.commit_get(conn, request, self._now())

    def release(self, view):
        self.channel.release(view._item, self._now())

    def evict(self, conn):
        self.channel.unregister_consumer(conn)


class ThreadedShell:
    def __init__(self, recorder):
        self.channel = ThreadChannel("ch", recorder, ManualClock())

    def put(self, conn, item):
        self.channel.put(conn, item)

    def get(self, conn, request):
        return self.channel.try_get(conn, request)

    def release(self, view):
        self.channel.release(view._item)

    def evict(self, conn):
        self.channel.evict_consumer(conn.thread)


def run_script(shell_cls):
    recorder = EventLog()
    shell = shell_cls(recorder)
    channel = shell.channel
    producer = channel.register_producer("p")
    conns = {name: channel.register_consumer(name) for name in ("a", "b")}
    held = {name: [] for name in conns}
    for op, *args in SCRIPT:
        if op == "put":
            shell.put(producer, Item(ts=args[0], size=100, producer="p"))
        elif op == "get":
            held[args[0]].append(shell.get(conns[args[0]], args[1]))
        elif op == "release":
            shell.release(held[args[0]].pop(0))
        else:
            shell.evict(conns[args[0]])
    totals = (channel.total_puts, channel.total_gets, channel.total_skips,
              channel.total_frees, len(channel), channel.bytes_held)
    return recorder.events, totals


def test_scripted_interleaving_yields_the_same_trace():
    sim_events, sim_totals = run_script(SimulatedShell)
    thr_events, thr_totals = run_script(ThreadedShell)
    assert thr_events == sim_events
    assert thr_totals == sim_totals
    # The script exercised what it says it does.
    kinds = [kind for kind, _ts, _who in sim_events]
    assert {"alloc", "get", "skip", "free"} <= set(kinds)
    assert sim_totals[2] >= 4 and sim_totals[3] >= 6


# -- one interpreter: the same requests, the same answers ---------------------

def drive_sim(graph):
    runtime = Runtime(graph, RuntimeConfig(seed=0))
    return runtime, lambda: runtime.run(until=5.0)


def drive_threads(graph):
    # join() without stop(): bounded task bodies end on their own, so the
    # outcome does not depend on how long the wall clock is given.
    runtime = ThreadedRuntime(graph, seed=0, compute_mode="noop")
    runtime.start()
    return runtime, lambda: runtime.join(timeout=30.0)


DRIVES = pytest.mark.parametrize("drive", [drive_sim, drive_threads],
                                 ids=["simulated", "threads"])


def one_consumer(body):
    def producer(ctx):
        yield Put("c", ts=0, size=10)

    g = TaskGraph("misuse")
    g.add_thread("prod", producer)
    g.add_thread("cons", body, sink=True)
    g.add_channel("c").connect("prod", "c").connect("c", "cons")
    return g


@DRIVES
class TestMisuseIsTheSameErrorEverywhere:
    def test_negative_get_timeout(self, drive):
        def body(ctx):
            yield Get("c", timeout=-1.0)

        _runtime, finish = drive(one_consumer(body))
        with pytest.raises(SimulationError, match="negative get timeout: -1.0"):
            finish()

    def test_release_of_a_view_not_held(self, drive):
        def body(ctx):
            view = yield Get("c")  # no hold=True: the sync releases it
            yield Release(view)

        _runtime, finish = drive(one_consumer(body))
        with pytest.raises(SimulationError, match="which it does not hold"):
            finish()

    @pytest.mark.parametrize("not_a_syscall", [None, "Get", 3.5, Get],
                             ids=repr)
    def test_yielded_a_non_syscall(self, drive, not_a_syscall):
        # The dispatch table's miss path (the class ``Get`` itself is
        # hashable and is *not* an instance of any syscall).
        def body(ctx):
            yield not_a_syscall

        _runtime, finish = drive(one_consumer(body))
        with pytest.raises(SimulationError,
                           match="'cons' yielded .*expected a syscall"):
            finish()


N_ITEMS = 6


def reduce_result(result):
    """A syscall's answer with everything run-specific (item ids, times)
    taken out: an item's timestamp, ``None``, a bool, or ``"number"``."""
    if result is None or isinstance(result, bool):
        return result
    if isinstance(result, (int, float)):
        return "number"
    return ("ts", result.ts)


def scripted_graph(log):
    """A bounded producer and a consumer whose every request has one
    possible answer whatever the interleaving: it first waits on ``done``
    (put after the last item), so ``c`` holds exactly ts 0..N_ITEMS-1 and
    nothing changes under it."""
    def asked(thread, syscall, result):
        log.append((thread, type(syscall).__name__, reduce_result(result)))
        return result

    def producer(ctx):
        for ts in range(N_ITEMS):
            for syscall in (CheckDead("c", ts), Put("c", ts=ts, size=100),
                            PeriodicitySync()):
                asked("prod", syscall, (yield syscall))
        syscall = Put("done", ts=0, size=1)
        asked("prod", syscall, (yield syscall))

    def consumer(ctx):
        answers = {}
        for key, make in (
            ("done", lambda: Get("done")),
            ("first", lambda: Get("c", EARLIEST, hold=True)),
            ("hit", lambda: TryGet("c", EARLIEST)),
            ("latest", lambda: Get("c")),          # skips what lies between
            ("miss", lambda: TryGet("c")),         # exhausted
            ("expired", lambda: Get("c", timeout=0.05)),
            ("now", Now),
            ("release", lambda: Release(answers["first"])),
            ("sync", PeriodicitySync),
            ("again", lambda: Release(answers["first"])),  # must raise
        ):
            syscall = make()
            answers[key] = asked("cons", syscall, (yield syscall))

    g = TaskGraph("scripted")
    g.add_thread("prod", producer)
    g.add_thread("cons", consumer, sink=True)
    g.add_channel("c").connect("prod", "c").connect("c", "cons")
    g.add_channel("done").connect("prod", "done").connect("done", "cons")
    return g


def run_scripted(drive):
    log = []
    runtime, finish = drive(scripted_graph(log))
    with pytest.raises(SimulationError) as raised:
        finish()
    log.append(("cons", "Release", type(raised.value)))
    recorder = runtime.recorder
    buffers = getattr(runtime, "buffers", None) or runtime.channels
    lineage = {
        thread: [([recorder.items[i].ts for i in it.inputs],
                  [recorder.items[i].ts for i in it.outputs])
                 for it in recorder.iterations_of(thread)]
        for thread in ("prod", "cons")
    }
    totals = {name: (b.total_puts, b.total_gets, b.total_skips, b.total_frees)
              for name, b in buffers.items()}
    by_thread = {thread: [entry[1:] for entry in log if entry[0] == thread]
                 for thread in ("prod", "cons")}
    # What ``ThreadDriver.assemble`` handed each task: the names it gets
    # and puts by, and which of the runtime's RNG streams it draws from.
    wiring = {
        thread: (list(driver.in_conns), list(driver.out_conns),
                 [name for name, stream in runtime.rngs._streams.items()
                  if stream is driver.ctx.rng])
        for thread, driver in runtime.drivers.items()
    }
    return by_thread, lineage, totals, wiring


def test_both_executors_answer_a_scripted_task_identically():
    """ROADMAP item 2's "same core transitions given the same
    interleaving", at the driver: what each task body observed, the
    lineage each iteration recorded and the channel counters agree."""
    sim = run_scripted(drive_sim)
    threads = run_scripted(drive_threads)
    assert threads == sim
    observed, lineage, totals, wiring = sim
    assert wiring == {"prod": ([], ["c", "done"], ["task.prod"]),
                      "cons": (["c", "done"], [], ["task.cons"])}
    assert observed["cons"] == [
        ("Get", ("ts", 0)),
        ("Get", ("ts", 0)),
        ("TryGet", ("ts", 1)),
        ("Get", ("ts", N_ITEMS - 1)),
        ("TryGet", None),
        ("Get", None),
        ("Now", "number"),
        ("Release", None),
        ("PeriodicitySync", "number"),
        ("Release", SimulationError),
    ]
    assert observed["prod"][:3] == [
        ("CheckDead", False), ("Put", "number"), ("PeriodicitySync", "number")]
    assert lineage["cons"] == [([0, 0, 1, N_ITEMS - 1], [])]
    assert lineage["prod"] == [([], [ts]) for ts in range(N_ITEMS)]
    assert totals["c"][:3] == (N_ITEMS, 3, N_ITEMS - 3)
