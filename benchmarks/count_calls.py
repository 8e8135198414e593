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
* ``events`` — engine events, from the workload's ``Runtime.run`` stamps;
* ``calls_per_event`` — ``python_calls / events``, the machine-stable
  ratio ``tests/bench/test_call_budget.py`` gates;
* ``tracked_objects_per_event`` / ``trace_bytes_per_event`` (the light
  fleets only, whose horizon is a parameter) — what one more engine
  event leaves behind once the run is over: gc-tracked objects
  (``len(gc.get_objects())``) and bytes of trace storage (every column
  buffer of the ``TraceRecorder``, and its id -> row map), each as the
  difference of two unprofiled runs at a quarter and a half of the
  workload's horizon over the difference in their engine events.

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
    ``setup_c_calls`` and ``setup_by_function``: the same counts as they
    stood when a frame of that code was first entered.
    """
    by_code: Counter = Counter()
    first_offset: Dict[Any, int] = {}
    c_calls = generator_starts = 0
    setup: Dict[str, Any] = {}

    def profile(frame, event, arg):
        nonlocal c_calls, generator_starts
        if event == "call":
            code = frame.f_code
            if code is setup_ends and not setup:
                setup.update(
                    setup_python_calls=sum(by_code.values()),
                    setup_c_calls=c_calls,
                    setup_by_function=_by_function(by_code))
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


def trace_bytes(recorder) -> int:
    """Bytes of a recorder's storage: the allocation of every column
    (typed array or list of shared strings) and of every map it keeps,
    the id -> row map's int objects included."""
    sizeof = sys.getsizeof
    total = 0
    for value in vars(recorder).values():
        if isinstance(value, (array, list)):
            total += sizeof(value)
        elif isinstance(value, dict):
            total += sizeof(value) + sum(
                sizeof(k) + sizeof(v) for k, v in value.items())
    return total


def growth_per_event(recipe: Callable[[float], Any], short: float,
                     long: float) -> Dict[str, float]:
    """What an engine event leaves behind after the run, per event.

    ``recipe(horizon)`` runs to ``horizon`` and returns a result with
    ``.trace`` and ``.stats``; the two horizons' difference cancels the
    set-up (drivers, buffers, the graph), so only what grows with the
    run counts: gc-tracked objects alive while the result is held, and
    bytes of trace storage.
    """
    recipe(min(short, 0.5))  # lazy imports and first-use caches
    objects, stored, events = [], [], []
    for horizon in (short, long):
        gc.collect()
        before = len(gc.get_objects())
        result = recipe(horizon)
        gc.collect()
        objects.append(len(gc.get_objects()) - before)
        stored.append(trace_bytes(result.trace))
        events.append(result.stats["engine"]["events_processed"])
        del result
    more = events[1] - events[0]
    return {
        "tracked_objects_per_event": (objects[1] - objects[0]) / more,
        "trace_bytes_per_event": (stored[1] - stored[0]) / more,
    }


def _fleet_recipes(seed: int) -> Dict[str, Tuple[Callable[[float], Any],
                                                 float]]:
    """Workloads whose horizon can be varied: (recipe, frozen horizon)."""
    import workloads

    from repro.tenancy import run_tenants

    def fleet(tenants: int):
        return lambda horizon: run_tenants(
            workloads._light_fleet(tenants, horizon, seed))

    return {"fleet_10": (fleet(10), workloads.FLEET_10_HORIZON),
            "fleet_1000": (fleet(1000), workloads.FLEET_1000_HORIZON)}


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
    if failures:
        raise SystemExit(f"{name}: failed ops: {failures}")
    events = sum(run["events"] for run in stamps.runs)
    counts.update(workload=name, seed=seed, events=events,
                  calls_per_event=counts["python_calls"] / events)
    recipe = _fleet_recipes(seed).get(name)
    if recipe is not None:
        run, horizon = recipe
        counts.update(growth_per_event(run, horizon / 4, horizon / 2))
    return counts


_SCALARS = ("python_calls", "c_calls", "generator_starts", "events",
            "calls_per_event", "setup_python_calls", "setup_c_calls",
            "tracked_objects_per_event", "trace_bytes_per_event")


def _print_counts(counts: Dict[str, Any], top: int) -> None:
    name = counts["workload"]
    for key in _SCALARS:
        if key not in counts:
            continue  # the growth lines exist for the light fleets only
        value = counts[key]
        shown = f"{value:.2f}" if isinstance(value, float) else f"{value}"
        print(f"{name} {key} {shown}")
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
