#!/usr/bin/env python3
"""Deterministic call counter: what one repetition of a workload executes.

Wall-clock rates drift with the host (``benchmarks/e2e/README.md``,
"Noise"); the number of Python calls the simulator makes does not. This
script runs one repetition of a simulated e2e workload under
``sys.setprofile`` and prints::

    python benchmarks/count_calls.py --workload fleet_10 [--seed S]
                                     [--out FILE] [--top N]
    python benchmarks/count_calls.py --compare a.json b.json [--top N]

* ``python_calls`` — frames entered (a generator resume enters one);
* ``c_calls`` — calls into builtins and extension functions;
* ``generator_starts`` — first entries into generator bodies;
* ``setup_python_calls`` / ``setup_c_calls`` — the share of the first two
  made before the first ``Runtime.run`` is entered (imports, graph
  building and validation, placement, driver assembly);
* ``setup_collections`` — the interpreter's cyclic collections (gen
  0/1/2, from ``gc.get_stats()``) run in that same stretch;
* ``setup_modules`` — ``len(sys.modules)`` when the first
  ``Runtime.run`` is entered: what a run imports before it runs;
* ``numpy_loaded`` — 1 if numpy is in ``sys.modules`` at the end of the
  repetition, else 0 (a light ``cv=0`` fleet draws nothing and needs none);
* ``events`` — engine events, from the workload's ``Runtime.run`` stamps;
* ``calls_per_event`` — ``python_calls / events``, the machine-stable
  ratio ``tests/bench/test_call_budget.py`` gates;
* ``tracked_objects_per_event`` / ``trace_bytes_per_event`` (the light
  fleets only, whose horizon is a parameter) — what one more engine
  event leaves behind once the run is over: gc-tracked objects
  (``len(gc.get_objects())``) and bytes of trace storage (every column
  buffer of the ``TraceRecorder``), each as the difference of two
  unprofiled runs at a quarter and a half of the workload's horizon
  over the difference in their engine events;
* ``blocked_gets`` / ``tracked_objects_per_event_net`` (the light
  fleets) — the gets still blocked when each of those two runs ends
  (records in every buffer's ``_getters``), and the tracked-object
  figure without the objects those records own: their number changes
  between the horizons (5 000 → 4 392 on ``fleet_1000``), so the raw
  figure there reads what a blocked get holds, not what an event leaves;
* ``trace_bytes_by_table`` (the light fleets) — the same bytes per
  event split by the table that holds them: items (with their id
  runs and pending anchors), touches, iterations, sinks, STP samples
  and the name table; without rows only items and sinks grow;
* ``trace_bytes_per_event_rows`` / ``trace_bytes_by_table_rows`` (the
  light fleets) — the same two with ``trace_rows=True``: a fleet keeps
  no rows by default, these price them;
* ``analysis_bytes_per_event`` (the light fleets) — what the post-run
  analysis allocates on top of the finished trace: the ``tracemalloc``
  peak from ``Runtime.run``'s return to ``run_tenants``' return, above
  the traced memory at that return, as the same two-horizon difference;
* ``setup_bytes_per_tenant`` (the light fleets) — the resident heap one
  more admitted tenant holds before the first event: ``tracemalloc``'s
  traced memory after admitting 40 light tenants minus after admitting
  20 (no engine run; garbage collected first), divided by 20;
* ``run_end_bytes_per_tenant`` (the light fleets) — the resident heap
  one more tenant holds when its run ends: the traced memory at the
  return of ``Runtime.run`` (garbage collected first) of a 40-tenant
  light fleet at ``fleet_1000``'s horizon, less that of a 20-tenant
  one, over 20 — what set-up built plus what the run left behind
  (blocked gets, held items, the trace), before any analysis.

Outside ``importlib`` (whether a tree's bytecode is on disk) the counts
repeat exactly from run to run, so ``--compare`` of a parent and a
change is evidence where a timing on the sandbox is not. The workloads
are the frozen ones of ``benchmarks/e2e/workloads.py``, imported
unchanged; the live ones run on the wall clock and are not countable.
"""

from __future__ import annotations

import argparse
import dis
import gc
import json
import sys
from array import array
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
_CO_GENERATOR = 0x20


def _first_resume(code) -> int:
    """Offset ``f_lasti`` has when a generator body is first entered
    (``-1`` before 3.11, where bodies carry no ``RESUME``)."""
    for ins in dis.get_instructions(code):
        if ins.opname == "RESUME":
            return ins.offset
    return -1


def _by_function(by_code: Counter) -> Dict[str, int]:
    by_function: Counter = Counter()
    for code, n in by_code.items():
        path = Path(code.co_filename)
        try:
            path = path.resolve().relative_to(ROOT)
        except ValueError:
            pass
        name = getattr(code, "co_qualname", code.co_name)
        by_function[f"{path}:{code.co_firstlineno}:{name}"] += n
    return dict(by_function)


def count_calls(fn: Callable[[], Any], setup_ends=None
                ) -> Tuple[Dict[str, Any], Any]:
    """Run ``fn()`` under ``sys.setprofile``; returns ``(counts, result)``.

    ``counts`` holds ``python_calls``, ``c_calls``, ``generator_starts``
    and ``by_function`` (``"path:line:qualname" -> python calls``). With
    ``setup_ends`` (a code object), also ``setup_python_calls``,
    ``setup_c_calls``, ``setup_by_function``, ``setup_collections`` and
    ``setup_modules``: the same counts, the gen-0/1/2 collections since
    ``fn`` started and the number of imported modules, as they stood when
    a frame of that code was first entered.
    """
    by_code: Counter = Counter()
    first_offset: Dict[Any, int] = {}
    c_calls = generator_starts = 0
    setup: Dict[str, Any] = {}
    collections = [gen["collections"] for gen in gc.get_stats()]

    def profile(frame, event, arg):
        nonlocal c_calls, generator_starts
        if event == "call":
            code = frame.f_code
            if code is setup_ends and not setup:
                setup.update(
                    setup_python_calls=sum(by_code.values()),
                    setup_c_calls=c_calls,
                    setup_by_function=_by_function(by_code),
                    setup_collections=[
                        gen["collections"] - before for gen, before
                        in zip(gc.get_stats(), collections)],
                    setup_modules=len(sys.modules))
            by_code[code] += 1
            if code.co_flags & _CO_GENERATOR:
                first = first_offset.get(code)
                if first is None:
                    first = first_offset[code] = _first_resume(code)
                if frame.f_lasti <= first:
                    generator_starts += 1
        elif event == "c_call":
            c_calls += 1

    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return {
        "python_calls": sum(by_code.values()),
        "c_calls": c_calls,
        "generator_starts": generator_starts,
        "by_function": _by_function(by_code),
        **setup,
    }, result


#: Attribute-name prefix -> the trace table its storage is counted
#: under; every other attribute (the name table and its map) is "names".
_TABLES = {"item": "items", "run": "items", "pending": "items",
           "touch": "touches", "iter": "iterations", "sink": "sinks",
           "stp": "stp"}


def trace_bytes_by_table(recorder) -> Dict[str, int]:
    """Bytes of a recorder's storage by table: the allocation of every
    column (typed array or list) and of every map it keeps, a map's key
    and value objects included; the id runs and the rows whose latency
    anchor is pending count as items, the per-thread iteration counters
    as iterations."""
    sizeof = sys.getsizeof
    tables = dict.fromkeys((*_TABLES.values(), "names"), 0)
    for name, value in vars(recorder).items():
        if isinstance(value, (array, list)):
            size = sizeof(value)
        elif isinstance(value, dict):
            size = sizeof(value) + sum(
                sizeof(k) + sizeof(v) for k, v in value.items())
        else:
            continue
        tables[_TABLES.get(name.lstrip("_").split("_")[0], "names")] += size
    return tables


def trace_bytes(recorder) -> int:
    """Bytes of a recorder's storage, every table's together."""
    return sum(trace_bytes_by_table(recorder).values())


def analysis_peak(recipe: Callable[[float], Any],
                  horizon: float) -> Tuple[Any, int]:
    """``(recipe(horizon), bytes)``: the run under ``tracemalloc``, and
    the peak of traced memory between the return of its last
    ``Runtime.run`` and its own return, above the level at the former."""
    import tracemalloc

    from repro.runtime.runtime import Runtime

    run = vars(Runtime)["run"]
    at_return = []

    def marked(self, *args, **kwargs):
        try:
            return run(self, *args, **kwargs)
        finally:
            at_return.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()

    Runtime.run = marked
    tracemalloc.start()
    try:
        result = recipe(horizon)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        Runtime.run = run
    return result, peak - at_return[-1]


def blocked_gets(runtime) -> Tuple[int, int]:
    """``(records, gc-tracked objects)`` of the gets blocked when a run
    ends: the records in every buffer's ``_getters``. A record owns its
    tuple, its event and the event's callback list; the connection, the
    request and the waiting process are shared."""
    owned = {id(part) for buffer in runtime.buffers.values()
             for record in buffer._getters
             for part in (record, record[0], record[0].callbacks)
             if gc.is_tracked(part)}
    return sum(len(b._getters) for b in runtime.buffers.values()), len(owned)


def growth_per_event(recipe: Callable[[float], Any], short: float,
                     long: float) -> Dict[str, float]:
    """What an engine event leaves behind after the run, per event.

    ``recipe(horizon)`` runs to ``horizon`` and returns a result with
    ``.trace`` and ``.stats``; the two horizons' difference cancels the
    set-up (drivers, buffers, the graph), so only what grows with the
    run counts: gc-tracked objects alive while the result is held,
    bytes of trace storage, and the peak of the post-run analysis
    (:func:`analysis_peak`).
    """
    recipe(min(short, 0.5))  # lazy imports and first-use caches
    objects, blocked, stored, analysis, events = [], [], [], [], []
    for horizon in (short, long):
        gc.collect()
        before = len(gc.get_objects())
        result, peak = analysis_peak(recipe, horizon)
        gc.collect()
        objects.append(len(gc.get_objects()) - before)
        blocked.append(blocked_gets(result.runtime))
        stored.append(trace_bytes_by_table(result.trace))
        analysis.append(peak)
        events.append(result.stats["engine"]["events_processed"])
        del result
    more = events[1] - events[0]
    by_table = {table: (stored[1][table] - stored[0][table]) / more
                for table in stored[0]}
    held = [objects[i] - blocked[i][1] for i in (0, 1)]
    return {
        "tracked_objects_per_event": (objects[1] - objects[0]) / more,
        "tracked_objects_per_event_net": (held[1] - held[0]) / more,
        "blocked_gets": [records for records, _ in blocked],
        "trace_bytes_per_event": sum(by_table.values()),
        "trace_bytes_by_table": by_table,
        "analysis_bytes_per_event": (analysis[1] - analysis[0]) / more,
    }


def setup_bytes_per_tenant(admit: Callable[[int], Any]) -> float:
    """Traced bytes one more tenant holds once admitted: ``admit(40)``
    less ``admit(20)``, over 20, each held while it is measured."""
    import tracemalloc

    admit(2)  # lazy imports and first-use caches
    held = []
    tracemalloc.start()
    try:
        for tenants in (20, 40):
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            runtime = admit(tenants)
            gc.collect()
            held.append(tracemalloc.get_traced_memory()[0] - before)
            del runtime
    finally:
        tracemalloc.stop()
    return (held[1] - held[0]) / 20


def run_end_bytes_per_tenant(run_fleet: Callable[[int], Any]) -> float:
    """Traced bytes one more tenant holds when its run ends: the heap at
    the return of ``Runtime.run`` in ``run_fleet(40)`` less in
    ``run_fleet(20)``, over 20; each measured from before its fleet was
    built, with the garbage collected at both ends."""
    import tracemalloc

    from repro.runtime.runtime import Runtime

    run_fleet(2)  # lazy imports and first-use caches
    run = vars(Runtime)["run"]
    at_return = []

    def marked(self, *args, **kwargs):
        try:
            return run(self, *args, **kwargs)
        finally:
            gc.collect()
            at_return.append(tracemalloc.get_traced_memory()[0])

    held = []
    Runtime.run = marked
    tracemalloc.start()
    try:
        for tenants in (20, 40):
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            result = run_fleet(tenants)
            held.append(at_return[-1] - before)
            del result
    finally:
        tracemalloc.stop()
        Runtime.run = run
    return (held[1] - held[0]) / 20


def admit_fleet(spec):
    """What ``run_tenants`` does before its engine runs, and no more."""
    from repro.tenancy import Scheduler, TenantRuntime
    from repro.tenancy.tenant import Tenant

    config = spec.runtime_config()
    runtime = TenantRuntime(config, Scheduler(config.cluster))
    for tenant in spec.tenants:
        runtime.arrive(Tenant(tenant))
    return runtime


def _fleet_recipes(seed: int) -> Dict[str, Tuple[Callable[[float], Any],
                                                 Callable[[float], Any],
                                                 float,
                                                 Callable[[int], Any],
                                                 Callable[[int], Any]]]:
    """Workloads whose horizon and size can be varied: (recipe, the
    recipe with the trace's rows kept, frozen horizon, admission of N of
    its tenants, a run of N of its tenants at ``fleet_1000``'s horizon)."""
    import workloads

    from repro.tenancy import run_tenants

    def fleet(tenants: int, **changes):
        return lambda horizon: run_tenants(
            workloads._light_fleet(tenants, horizon, seed).with_(**changes))

    def admit(tenants: int):  # both fleets are of the same light tenant
        return admit_fleet(workloads._light_fleet(tenants, 1.0, seed))

    def short_run(tenants: int):
        return fleet(tenants)(workloads.FLEET_1000_HORIZON)

    return {name: (fleet(tenants), fleet(tenants, trace_rows=True), horizon,
                   admit, short_run)
            for name, tenants, horizon in (
                ("fleet_10", 10, workloads.FLEET_10_HORIZON),
                ("fleet_1000", 1000, workloads.FLEET_1000_HORIZON))}


def count_workload(name: str, seed: int) -> Dict[str, Any]:
    """One counted repetition of the e2e workload ``name``."""
    for path in (ROOT / "src", HERE / "e2e"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from layers import Patches, RunStamps
    from workloads import WORKLOADS

    from repro.runtime.runtime import Runtime

    workload = WORKLOADS.get(name)
    if workload is None or workload.kind != "sim":
        sim = sorted(n for n, w in WORKLOADS.items() if w.kind == "sim")
        raise SystemExit(f"--workload must be one of {sim}, got {name!r}")
    patches, stamps = Patches(), RunStamps()
    first_run = vars(Runtime)["run"].__code__  # under RunStamps' wrapper
    stamps.install(patches)
    try:
        counts, (_calls, failures, _check) = count_calls(
            lambda: workload.run(seed), setup_ends=first_run)
    finally:
        patches.restore()
    counts["numpy_loaded"] = int("numpy" in sys.modules)
    if failures:
        raise SystemExit(f"{name}: failed ops: {failures}")
    events = sum(run["events"] for run in stamps.runs)
    counts.update(workload=name, seed=seed, events=events,
                  calls_per_event=counts["python_calls"] / events)
    recipe = _fleet_recipes(seed).get(name)
    if recipe is not None:
        run, run_with_rows, horizon, admit, short_run = recipe
        counts.update(growth_per_event(run, horizon / 4, horizon / 2))
        rows = growth_per_event(run_with_rows, horizon / 4, horizon / 2)
        counts["trace_bytes_per_event_rows"] = rows["trace_bytes_per_event"]
        counts["trace_bytes_by_table_rows"] = rows["trace_bytes_by_table"]
        counts["setup_bytes_per_tenant"] = setup_bytes_per_tenant(admit)
        counts["run_end_bytes_per_tenant"] = run_end_bytes_per_tenant(
            short_run)
    return counts


_SCALARS = ("python_calls", "c_calls", "generator_starts", "events",
            "calls_per_event", "setup_python_calls", "setup_c_calls",
            "setup_modules", "setup_bytes_per_tenant",
            "run_end_bytes_per_tenant", "numpy_loaded",
            "tracked_objects_per_event", "tracked_objects_per_event_net",
            "trace_bytes_per_event",
            "trace_bytes_per_event_rows", "analysis_bytes_per_event")


def _generations(collections) -> str:
    """``setup_collections`` as ``gen0/gen1/gen2``."""
    return "/".join(str(n) for n in collections)


def _print_counts(counts: Dict[str, Any], top: int) -> None:
    name = counts["workload"]
    for key in _SCALARS:
        if key not in counts:
            continue  # the growth lines exist for the light fleets only
        value = counts[key]
        shown = f"{value:.2f}" if isinstance(value, float) else f"{value}"
        print(f"{name} {key} {shown}")
    for key in ("trace_bytes_by_table", "trace_bytes_by_table_rows"):
        if key in counts:
            print(f"{name} {key} " + " ".join(
                f"{table}={value:.2f}" for table, value in counts[key].items()))
    if "blocked_gets" in counts:
        print(f"{name} blocked_gets " + " ".join(map(str, counts["blocked_gets"])))
    if "setup_collections" in counts:
        print(f"{name} setup_collections "
              f"{_generations(counts['setup_collections'])}")
    ranked = sorted(counts["by_function"].items(), key=lambda kv: -kv[1])
    for func, n in ranked[:top]:
        print(f"{name} calls {n:>10}  {func}")


def _by_name(by_function: Dict[str, int]) -> Counter:
    """``by_function`` without the line numbers: a function that only
    moved inside its file is the same function."""
    out: Counter = Counter()
    for key, n in by_function.items():
        path, _line, name = key.split(":", 2)
        out[f"{path}:{name}"] += n
    return out


def _print_deltas(a: Dict[str, int], b: Dict[str, int], top: int) -> None:
    fa, fb = _by_name(a), _by_name(b)
    deltas = {k: fb[k] - fa[k] for k in set(fa) | set(fb)}
    ranked = sorted(deltas.items(), key=lambda kv: (-abs(kv[1]), kv[0]))
    for func, delta in ranked[:top]:
        if delta:
            print(f"{delta:>+12}  {func}  ({fa[func]} -> {fb[func]})")


def compare(a: Dict[str, Any], b: Dict[str, Any], top: int) -> None:
    """Print B against A: the scalar rows, then the top-N functions by
    absolute change in Python calls — over the whole repetition, then
    (when both files carry it) over set-up alone."""
    for key in _SCALARS:
        if key not in a or key not in b:
            continue  # counts written before the set-up lines existed
        va, vb = a[key], b[key]
        change = 100.0 * (vb - va) / va if va else 0.0
        fmt = "{:.2f}" if isinstance(va, float) else "{}"
        print(f"{key:>18}  {fmt.format(va):>12} -> {fmt.format(vb):>12}  "
              f"{change:+.2f} %")
    if "setup_collections" in a and "setup_collections" in b:
        print(f"{'setup_collections':>18}  "
              f"{_generations(a['setup_collections']):>12} -> "
              f"{_generations(b['setup_collections']):>12}")
    _print_deltas(a["by_function"], b["by_function"], top)
    if "setup_by_function" in a and "setup_by_function" in b:
        print("set-up (before the first Runtime.run):")
        _print_deltas(a["setup_by_function"], b["setup_by_function"], top)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="a simulated e2e workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="write the counts as JSON")
    parser.add_argument("--top", type=int, default=15,
                        help="functions listed (default 15)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        compare(a, b, args.top)
        return 0
    if not args.workload:
        parser.error("one of --workload or --compare is required")
    counts = count_workload(args.workload, args.seed)
    _print_counts(counts, args.top)
    if args.out:
        Path(args.out).write_text(json.dumps(counts, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
