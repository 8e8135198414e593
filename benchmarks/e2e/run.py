#!/usr/bin/env python3
"""End-to-end benchmark: six workloads, bounded metrics, per-layer ledger.

By hand, from the repository root::

    python benchmarks/e2e/run.py [--seed S] [--workload W ...] [--reps N]
                                 [--traced] [--out FILE] [--record]
    python benchmarks/e2e/run.py --compare A.json B.json

runs every workload, prints every metric as ``workload metric value
unit``, checks outputs against ``golden.json`` and exits non-zero on a
failed check. The benchmark driver calls it per workload instead
(``BENCHMARK.json``)::

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds N --trace 0|1

and reads the JSON object on the last line of standard output.

Every repetition runs in a fresh child interpreter started here (heap
and collector state left by one fleet changes the speed of the next);
this parent never imports ``repro`` or numpy, so it stays small and
fails fast where ``src/`` is missing. See README.md for the metric
definitions.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, NamedTuple, Optional, Sequence

from layers import PER_LAYER, per_layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
HISTORY = HERE / "BENCH_history.jsonl"
CONTRACT = ROOT / "BENCHMARK.json"

SCHEMA = 1
WORKLOAD_NAMES = tuple(WORKLOADS)
SIM = tuple(n for n, w in WORKLOADS.items() if w.kind == "sim")
DEFAULT_REPS = 3
#: Time-budgeted (driver) runs never repeat more often than this.
MAX_REPS = 5
#: A child that runs longer than this is killed and counts as failed.
CHILD_TIMEOUT_S = 170.0
#: Budget guard on the sandbox (seconds): untraced set, traced set.
BUDGET_UNTRACED_S = 240.0
BUDGET_TRACED_S = 120.0


class Metric(NamedTuple):
    """One end-to-end metric: where it applies and how far it may worsen."""

    name: str
    unit: str
    better: Optional[str]  # "lower", "higher", or None for a plain count
    sim_bound: Optional[float]  # None = not measured on sim workloads
    live_bound: Optional[float]  # None = not measured on live workloads
    floor: float = 0.0  # absolute slack, in the metric's unit

    def bound_for(self, workload: str) -> Optional[float]:
        return self.sim_bound if workload in SIM else self.live_bound


#: The 11 end-to-end metrics. Bounds are shares of the baseline median;
#: ``floor`` keeps near-zero timings from tripping on scheduler noise.
#: Timings of CPU-bound work carry 0.25 because identical repetitions on
#: the shared 2-vCPU sandbox drift by 10-25 % over minutes (README.md,
#: "Noise"); BENCHMARK.json takes, per metric, the larger of the two.
END_TO_END = (
    Metric("wall_s", "s", "lower", 0.25, 0.10),
    Metric("setup_s", "s", "lower", 0.25, 0.25, floor=0.05),
    Metric("events_per_s", "1/s", "higher", 0.25, 0.10),
    Metric("analysis_s", "s", "lower", 0.25, None, floor=0.05),
    Metric("cpu_s", "s", "lower", 0.25, 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10, 0.10),
    Metric("latency_p50_ms", "ms", "lower", None, 0.25),
    Metric("delivered_fps", "1/s", "higher", None, 0.05),
    Metric("teardown_s", "s", "lower", None, 0.25, floor=0.10),
    Metric("ops", "count", None, 0.0, 0.0),
    Metric("ops_failed", "count", "lower", 0.0, 0.0),
)


# -- one repetition in a fresh interpreter ------------------------------------


def _child_main(args) -> None:
    """``--child``: run one repetition here and write its result file."""
    sys.path.insert(0, str(SRC))
    # Everything a workload imports, so imports fall into boot time and
    # not into the timed call.
    import repro.bench  # noqa: F401
    import repro.dist.launcher  # noqa: F401
    import repro.tenancy  # noqa: F401
    import workloads

    result = workloads.measure(args.child, args.seed, traced=bool(args.trace),
                               spawned_at=args.spawned_at)
    Path(args.result).write_text(json.dumps(result))
    # Skip interpreter teardown: freeing a finished fleet's heap object by
    # object takes ~0.5 s that belongs to no metric.
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(0)


def run_rep(name: str, seed: int, traced: bool) -> Dict[str, Any]:
    """One repetition of ``name`` in a fresh child; never raises."""
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    result_path = tmp / f"rep-{os.getpid()}-{name}.json"
    result_path.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    env["PYTHONHASHSEED"] = "0"
    # The proc backend keeps worker stderr files under the temp dir.
    env["TMPDIR"] = str(tmp)
    started = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--child", name,
         "--seed", str(seed), "--trace", str(int(traced)),
         "--spawned-at", repr(time.time()), "--result", str(result_path)],
        env=env, stdout=sys.stderr, start_new_session=True)
    try:
        code = child.wait(timeout=CHILD_TIMEOUT_S)
        problem = f"child exited {code}" if code else ""
    except subprocess.TimeoutExpired:
        # The child leads its own session: take its workers down with it.
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        problem = f"child timed out after {CHILD_TIMEOUT_S:.0f}s"
    elapsed = time.perf_counter() - started
    if not problem:
        try:
            result = json.loads(result_path.read_text())
        except (OSError, ValueError) as exc:
            problem = f"no result from child: {exc}"
    if problem:
        result = {"workload": name, "seed": seed, "traced": traced,
                  "ops": 1, "ops_failed": 1, "failures": [problem],
                  "metrics": {}, "diag": {}, "check": {}, "versions": {}}
    result_path.unlink(missing_ok=True)
    result["elapsed_s"] = elapsed
    return result


def check_reps(name: str, seed: int, reps: List[Dict[str, Any]],
               golden: Dict[str, Any]) -> None:
    """Fail repetitions whose pinned values differ (sim is deterministic)."""
    if name not in SIM:
        return
    pinned = golden.get(name) if seed == golden.get("seed") else None
    reference = pinned
    for rep in reps:
        if not rep["check"]:
            continue  # it raised; already failed
        if reference is None:
            reference = rep["check"]  # non-default seed: reps must agree
        if rep["check"] != reference:
            what = "golden.json" if pinned is not None else "repetition 1"
            rep["failures"].append(
                f"outputs differ from {what}: {rep['check']} != {reference}")
            rep["ops_failed"] = rep["ops"]


def summarize(name: str, reps: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Medians over the repetitions that produced each metric."""
    medians: Dict[str, float] = {}
    for metric in END_TO_END:
        values = [r["metrics"][metric.name] for r in reps
                  if metric.name in r["metrics"]]
        if values:
            medians[metric.name] = median(values)
    medians["ops"] = sum(r["ops"] for r in reps)
    medians["ops_failed"] = sum(r["ops_failed"] for r in reps)
    samples = [r["diag"]["latency_samples"] for r in reps
               if "latency_samples" in r["diag"]]
    return {
        "reps": [dict(r["metrics"], ops=r["ops"], ops_failed=r["ops_failed"],
                      elapsed_s=r["elapsed_s"]) for r in reps],
        "median": medians,
        "latency_samples": samples,
    }


def traced_rep(name: str, seed: int, plain: Dict[str, Any],
               golden: Dict[str, Any]):
    """One traced repetition next to the untraced ``plain`` one.

    Returns ``(rep, per_layer)`` and writes ``out/trace_<name>.json``.
    """
    rep = run_rep(name, seed, traced=True)
    check_reps(name, seed, [rep], golden)
    if (name in SIM and not rep["ops_failed"] and not plain["ops_failed"]
            and rep["diag"]["events"] != plain["diag"]["events"]):
        rep["failures"].append(
            f"traced run processed {rep['diag']['events']} events, "
            f"untraced {plain['diag']['events']}")
        rep["ops_failed"] = rep["ops"]
    per_layer: Dict[str, float] = {}
    if "trace" in rep and plain["metrics"]:
        per_layer = per_layer_metrics(plain, rep)
        trace = rep.pop("trace")
        in_run = sum(v["self_in_run_ns"] for v in trace["layers"].values())
        engine = trace["layers"].get("sim", {}).get("inclusive_ns", 0)
        (OUT / f"trace_{name}.json").write_text(json.dumps({
            "schema": SCHEMA, "workload": name, "seed": seed,
            "per_layer": per_layer,
            # Per-layer self times below Engine.run over its inclusive
            # span: 1.0 means nothing double-counted, nothing lost.
            "self_over_engine_run": in_run / engine if engine else None,
            **trace,
        }, indent=1))
    return rep, per_layer


def measure_workload(name: str, seed: int, golden: Dict[str, Any],
                     traced: bool, another) -> Dict[str, Any]:
    """Untraced repetitions while ``another(reps)`` holds (at least one),
    then optionally a traced one; checked, summarized and printed."""
    reps = [run_rep(name, seed, traced=False)]
    while another(reps):
        reps.append(run_rep(name, seed, traced=False))
    check_reps(name, seed, reps, golden)
    summary = summarize(name, reps)
    summary["check"] = reps[0]["check"]
    summary["versions"] = reps[0]["versions"]
    summary["per_layer"] = {}
    if traced:
        # The overhead ratio is taken against the median untraced wall.
        by_wall = sorted((r for r in reps if r["metrics"]),
                         key=lambda r: r["metrics"]["wall_s"])
        plain = by_wall[len(by_wall) // 2] if by_wall else reps[0]
        rep, summary["per_layer"] = traced_rep(name, seed, plain, golden)
        summary["traced_elapsed_s"] = rep["elapsed_s"]
        reps = reps + [rep]
    summary["attempted"] = sum(r["ops"] for r in reps)
    summary["failed"] = sum(r["ops_failed"] for r in reps)
    summary["failures"] = [f for r in reps for f in r["failures"]]
    print_workload(name, summary)
    return summary


# -- output -------------------------------------------------------------------


def machine_fingerprint(versions: Dict[str, str]) -> Dict[str, Any]:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.lower().startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": versions.get("python", platform.python_version()),
            "numpy": versions.get("numpy", "unknown")}


def current_commit() -> str:
    """``git rev-parse HEAD``, ``+dirty`` with uncommitted changes."""
    def git(*args: str) -> Optional[str]:
        try:
            out = subprocess.run(["git", "-C", str(ROOT), *args],
                                 capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    head = git("rev-parse", "HEAD")
    if head is None:
        return "unknown"
    return head + ("+dirty" if git("status", "--porcelain") else "")


def print_workload(name: str, summary: Dict[str, Any]) -> None:
    n = len(summary["reps"])
    per_layer = summary["per_layer"]
    for metric in END_TO_END:
        if metric.name not in summary["median"]:
            continue
        note = f"n={n}"
        if metric.name == "latency_p50_ms":
            note += f", samples={summary['latency_samples']}"
        print(f"{name} {metric.name} {summary['median'][metric.name]:.6g} "
              f"{metric.unit} ({note})")
    for metric, unit, _better in PER_LAYER if per_layer else ():
        print(f"{name} {metric} {per_layer[metric]:.6g} {unit} (traced)")
    for failure in summary["failures"]:
        print(f"{name} FAILED {failure}")


def compare(path_a: str, path_b: str) -> int:
    """Print medians of A and B per (workload, metric); 1 if B is worse
    than A by more than the metric's bound, or ``ops_failed`` differs."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    bad = 0
    print(f"{'workload':<13}{'metric':<16}{'A':>12}{'B':>12}"
          f"{'B worse by':>12}{'bound':>8}")
    for name in WORKLOAD_NAMES:
        med_a = a["workloads"].get(name, {}).get("median")
        med_b = b["workloads"].get(name, {}).get("median")
        if med_a is None or med_b is None:
            continue
        for metric in END_TO_END:
            bound = metric.bound_for(name)
            va, vb = med_a.get(metric.name), med_b.get(metric.name)
            if bound is None or va is None or vb is None:
                continue
            if metric.name in ("ops", "ops_failed"):
                differs = metric.name == "ops_failed" and va != vb
                bad += differs
                print(f"{name:<13}{metric.name:<16}{va:>12.6g}{vb:>12.6g}"
                      f"{'':>20}{'  DIFFERS' if differs else ''}")
                continue
            worse = (vb - va) / va if metric.better == "lower" \
                else (va - vb) / va
            allowed = max(bound, metric.floor / va) if va else bound
            flag = "  EXCEEDS" if worse > allowed else ""
            bad += bool(flag)
            print(f"{name:<13}{metric.name:<16}{va:>12.6g}{vb:>12.6g}"
                  f"{worse:>+12.1%}{allowed:>8.0%}{flag}")
    print(f"{bad} metric(s) out of bounds" if bad else "all within bounds")
    return 1 if bad else 0


# -- the two front ends ---------------------------------------------------------


def load_golden() -> Dict[str, Any]:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def prepare() -> None:
    """What this benchmark has by way of a build: byte-compile once, so
    the first repetition in a fresh checkout is not timed compiling."""
    OUT.mkdir(exist_ok=True)
    if not (SRC / "repro" / "__pycache__").exists():
        compileall.compile_dir(str(SRC), quiet=1)
        compileall.compile_dir(str(HERE), quiet=1)


def driver_main(args) -> int:
    """One workload under the BENCHMARK.json contract; JSON on the last line."""
    (name,) = args.workload
    contract = json.loads(CONTRACT.read_text())
    started = time.perf_counter()

    def fits(reps) -> bool:
        return (not args.trace and len(reps) < MAX_REPS
                and time.perf_counter() - started + reps[-1]["elapsed_s"]
                <= args.seconds)

    summary = measure_workload(name, args.seed, load_golden(),
                               bool(args.trace), fits)
    if args.trace:
        values, wanted = summary["per_layer"], contract["per_layer"]
    else:
        values, wanted = summary["median"], contract["end_to_end"]
    correct = (summary["failed"] == 0
               and all(m["name"] in values for m in wanted))
    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in values},
    }))
    return 0 if correct else 1


def human_main(args) -> int:
    golden = load_golden()
    if args.update_golden and golden.get("seed") != args.seed:
        golden = {"seed": args.seed}
    results: Dict[str, Any] = {}
    for name in args.workload or WORKLOAD_NAMES:
        if args.update_golden:
            golden.pop(name, None)  # unpinned: repetitions must agree
        summary = results[name] = measure_workload(
            name, args.seed, golden, args.traced,
            lambda reps: len(reps) < args.reps)
        if args.update_golden and name in SIM and summary["check"]:
            golden[name] = summary["check"]
        print(f"{name} elapsed_s "
              f"{sum(r['elapsed_s'] for r in summary['reps']):.1f} s untraced, "
              f"{summary.get('traced_elapsed_s', 0.0):.1f} s traced")

    if "fleet_10" in results and "fleet_1000" in results:
        small = results["fleet_10"]["median"].get("events_per_s")
        large = results["fleet_1000"]["median"].get("events_per_s")
        if small and large:
            print(f"derived events_per_s(fleet_1000)/events_per_s(fleet_10) "
                  f"{large / small:.3f} ratio")
    untraced = sum(r["elapsed_s"] for s in results.values() for r in s["reps"])
    traced = sum(s.get("traced_elapsed_s", 0.0) for s in results.values())
    print(f"total elapsed_s untraced {untraced:.1f} s, traced {traced:.1f} s")
    over_budget = untraced > BUDGET_UNTRACED_S or traced > BUDGET_TRACED_S
    if over_budget:
        print(f"FAILED budget: untraced set over {BUDGET_UNTRACED_S:.0f} s "
              f"or traced set over {BUDGET_TRACED_S:.0f} s")

    versions = next(iter(results.values()))["versions"]
    payload = {
        "schema": SCHEMA, "commit": current_commit(),
        "machine": machine_fingerprint(versions), "seed": args.seed,
        "reps": args.reps,
        "workloads": {n: {key: s[key] for key in
                          ("reps", "median", "latency_samples", "failures",
                           "per_layer")}
                      for n, s in results.items()},
    }
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {args.out}")
    if args.record:
        line = {k: payload[k] for k in
                ("schema", "commit", "machine", "seed", "reps")}
        line["medians"] = {n: s["median"] for n, s in results.items()}
        with HISTORY.open("a") as history:
            history.write(json.dumps(line, sort_keys=True) + "\n")
        print(f"appended to {HISTORY}")
    if args.update_golden:
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN}")
    failed = sum(s["failed"] for s in results.values())
    return 1 if failed or over_budget else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=WORKLOAD_NAMES,
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=DEFAULT_REPS,
                        help="untraced repetitions per workload")
    parser.add_argument("--traced", action="store_true",
                        help="one more, traced, repetition per workload: "
                             "per-layer metrics + out/trace_<workload>.json")
    parser.add_argument("--out", help="write every value to this JSON file")
    parser.add_argument("--record", action="store_true",
                        help=f"append the medians to {HISTORY.name}")
    parser.add_argument("--update-golden", action="store_true",
                        help="rewrite golden.json (benchmark PRs only)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two --out files against the bounds")
    parser.add_argument("--seconds", type=float,
                        help="driver: time budget of one run's repetitions")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver: 0 = end-to-end, 1 = per-layer metrics")
    parser.add_argument("--child", choices=WORKLOAD_NAMES,
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, default=0.0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--result", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.child:
        _child_main(args)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    prepare()
    if args.seconds is not None or args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            parser.error("--seconds/--trace take exactly one --workload")
        if args.seconds is None or args.trace is None:
            parser.error("--seconds and --trace go together")
        return driver_main(args)
    return human_main(args)


if __name__ == "__main__":
    sys.exit(main())
