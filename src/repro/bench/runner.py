"""Parallel experiment sweeps: fan (config, policy, seed) cells out.

The paper's §5 evaluation is a grid of independent simulation cells; the
DES is seeded and deterministic, so the cells can run in any order, in
any process, and produce bit-identical results. :class:`SweepRunner`
exploits that:

* cells are described by :class:`CellSpec` — a pure-data, picklable
  value object covering every knob the benches use (cluster config, ARU
  policy, seed, horizon, workload overrides, GC, injected load, noise);
* :func:`run_cell` is a pure function ``CellSpec -> CellResult``,
  executable in a ``concurrent.futures.ProcessPoolExecutor`` worker;
* results are optionally memoized through a content-addressed
  :class:`~repro.bench.cache.ResultCache`, so re-running a sweep after
  editing only the report layer is a pure cache hit;
* a failing cell is *reported* (traceback attached to its result), not
  fatal: the remaining cells complete, and the caller decides;
* ``KeyboardInterrupt`` cancels all pending cells and propagates.

The determinism contract — parallel and serial sweeps produce
bit-identical per-cell results — is enforced by
``tests/bench/test_runner_differential.py``.
"""

from __future__ import annotations

import gc
import os
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.aru.config import AruConfig, aru_disabled
from repro.bench.cache import ResultCache
from repro.bench.probes import PROBES
from repro.cluster.load import LoadSpec
from repro.errors import ConfigError


def default_workers() -> int:
    """Default pool size: leave one CPU for the parent (min 1)."""
    return max(1, (os.cpu_count() or 2) - 1)


@dataclass(frozen=True)
class CellSpec:
    """One sweep cell, as pure picklable data.

    Every field must survive ``pickle`` (worker dispatch) and
    :func:`repro.bench.cache.canonical_repr` (cache keying); keep
    factories and other callables out — name things instead (``gc`` and
    ``probe`` are strings for exactly this reason).
    """

    config: str = "config1"
    #: An explicit :class:`AruConfig` or a registered policy name (the
    #: control-plane registry resolves names in the worker).
    policy: Union[AruConfig, str] = field(default_factory=aru_disabled)
    #: Row label for grouping/reporting; defaults to the policy's name.
    label: str = ""
    seed: int = 0
    horizon: float = 120.0
    tracker: Optional[Any] = None  # TrackerConfig; Any avoids a cycle
    #: Registered workload name (see repro.apps.elastic.WORKLOADS);
    #: ``None`` runs the default tracker app. Kept as a string so the
    #: spec stays picklable and cache-keyable.
    workload: Optional[str] = None
    workload_args: Tuple[Tuple[str, Any], ...] = ()
    #: Elastic-parallelism policy: a registered scale-policy name or an
    #: explicit :class:`~repro.control.ScaleConfig`; ``None`` = not
    #: configured (fixed N, zero added events).
    scale_policy: Optional[Any] = None
    gc: str = "dgc"
    #: DGC pass interval override (``None`` = the collector's default).
    gc_interval: Optional[float] = None
    #: Override the cluster's OS-scheduling noise coefficient.
    sched_noise_cv: Optional[float] = None
    loads: Tuple[LoadSpec, ...] = ()
    #: Scripted faults injected into the cell (see repro.faults). An
    #: empty tuple installs nothing, keeping fault-free cells
    #: bit-identical to pre-faults sweeps.
    faults: Tuple[Any, ...] = ()  # Tuple[FaultSpec, ...]; Any avoids a cycle
    #: Name of a registered in-worker probe (see repro.bench.probes).
    probe: Optional[str] = None
    probe_args: Tuple[Tuple[str, Any], ...] = ()
    #: Record telemetry (repro.obs) for this cell. The summary lands in
    #: :attr:`CellResult.telemetry` — deliberately NOT in ``extras``, so
    #: the determinism fingerprint is identical with telemetry on or off.
    telemetry: bool = False
    #: Execution backend, by registered name (see repro.backends). The
    #: default ``"sim"`` keeps cache keys and fingerprints of existing
    #: sweeps unchanged.
    backend: str = "sim"

    @property
    def aru(self) -> AruConfig:
        """The resolved :class:`AruConfig` (names go via the registry)."""
        from repro.control.registry import resolve_policy

        return resolve_policy(self.policy)

    @property
    def policy_label(self) -> str:
        if self.label:
            return self.label
        try:
            return self.aru.name
        except ConfigError:
            # An unresolvable name still needs a label so the failed
            # cell can be reported.
            return str(self.policy)

    def with_(self, **changes) -> "CellSpec":
        return replace(self, **changes)

    def cache_payload(self) -> Dict[str, Any]:
        """What the content-addressed cache key hashes.

        The named configuration is resolved to its full
        :class:`~repro.cluster.spec.ClusterSpec` so a change to the
        cluster model's parameters invalidates cached cells even though
        the spec only names the config. An *unresolvable* spec still
        gets a key (the cell itself will fail in the worker and is
        never cached, but key computation must not abort the sweep).
        """
        try:
            cluster, placement = self._cluster_and_placement()
        except ConfigError:
            cluster, placement = None, None
        return {
            "spec": self,
            "cluster": cluster,
            "placement": placement,
        }

    # -- resolution helpers (worker side) ------------------------------------
    def _cluster_and_placement(self):
        from repro.experiment import ExperimentSpec

        config: Any = self.config
        if self.sched_noise_cv is not None:
            config = {"kind": config, "sched_noise_cv": self.sched_noise_cv}
        # A workload cell names no app, so it gets no paper placement.
        return ExperimentSpec(
            app=self.workload or "tracker", config=config,
        ).resolve_cluster_and_placement()

    def _gc(self):
        if self.gc_interval is not None:
            if self.gc != "dgc":
                raise ConfigError("gc_interval only applies to the 'dgc' GC")
            from repro.gc import DeadTimestampGC

            return DeadTimestampGC(interval=self.gc_interval)
        return self.gc


@dataclass
class CellResult:
    """Outcome of one cell: §4 metrics + probe extras, or a traceback."""

    spec: CellSpec
    metrics: Optional[Any] = None  # RunMetrics of a successful cell
    extras: Dict[str, float] = field(default_factory=dict)
    error: Optional[str] = None  # formatted traceback of a failed cell
    #: Telemetry snapshot (hub.snapshot()) when the cell ran with
    #: ``telemetry=True``; None otherwise. Kept out of ``extras``
    #: because extras feed the determinism fingerprint.
    telemetry: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _execute_cell(spec: CellSpec) -> CellResult:
    """Run one cell, letting any simulation error propagate.

    Delegates runtime assembly to :func:`repro.run_experiment` so the
    sweep path and the interactive paths cannot drift apart.
    """
    from repro.bench.experiments import metrics_from_trace
    from repro.experiment import ExperimentSpec, run_experiment

    aru = spec.aru
    if spec.workload is not None:
        from repro.apps.elastic import build_workload

        app: Any = build_workload(spec.workload, **dict(spec.workload_args))
        app_config = None
    else:
        app, app_config = "tracker", spec.tracker
    cluster, placement = spec._cluster_and_placement()
    result = run_experiment(ExperimentSpec(
        app=app,
        app_config=app_config,
        config=cluster,
        policy=aru,
        scale_policy=spec.scale_policy,
        gc=spec._gc(),
        seed=spec.seed,
        horizon=spec.horizon,
        placement=placement,
        loads=spec.loads,
        faults=spec.faults,
        telemetry=spec.telemetry,
        backend=spec.backend,
    ))
    recorder = result.trace
    metrics = metrics_from_trace(spec.config, aru.name, spec.seed,
                                 spec.horizon, recorder)
    extras: Dict[str, float] = {}
    if spec.probe is not None:
        if getattr(result.runtime, "graph", None) is None:
            raise ConfigError(
                f"probe {spec.probe!r} inspects runtime internals and "
                f"requires backend='sim', not {spec.backend!r}")
        extras = PROBES.get(spec.probe)(
            result.runtime.graph, recorder, **dict(spec.probe_args)
        )
    telemetry = result.telemetry.snapshot() if spec.telemetry else None
    return CellResult(spec=spec, metrics=metrics, extras=extras,
                      telemetry=telemetry)


def run_cell(spec: CellSpec) -> CellResult:
    """Pure worker entry point: never raises for a failing *cell*.

    Exceptions from the simulation are folded into the result as a
    formatted traceback so one bad cell cannot abort a whole sweep.
    (``KeyboardInterrupt`` is deliberately not caught.)
    """
    try:
        return _execute_cell(spec)
    except Exception:
        return CellResult(spec=spec, error=traceback.format_exc())
    finally:
        # A finished Runtime is one big reference cycle holding the whole
        # trace, and Engine.run pauses the interpreter's cyclic collector,
        # so nothing else frees it before the next cell of a serial sweep
        # builds on top of it.
        gc.collect()


@dataclass
class SweepStats:
    """Counters for one :meth:`SweepRunner.run` call."""

    executed: int = 0
    cache_hits: int = 0
    failures: int = 0

    @property
    def total(self) -> int:
        return self.executed + self.cache_hits


#: progress(done_so_far, total, result) — called in the parent process.
ProgressFn = Callable[[int, int, CellResult], None]


class SweepRunner:
    """Fan cell specs over a process pool, with optional result caching.

    Parameters
    ----------
    workers:
        Pool size; ``None`` = ``os.cpu_count() - 1`` (min 1). ``1``
        runs cells serially in-process — no pool, no pickling — which
        the differential tests use as the reference execution.
    cache:
        A :class:`ResultCache` (or path-like, converted), or None to
        disable memoization.
    progress:
        Optional parent-side callback invoked after every finished cell
        (including cache hits).
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        progress: Optional[ProgressFn] = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        self.workers = workers if workers is not None else default_workers()
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache = cache
        self.progress = progress
        self.stats = SweepStats()

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[CellSpec]) -> List[CellResult]:
        """Run every cell; results are in ``specs`` order.

        ``self.stats`` is reset at entry and reflects this sweep only.
        Failed cells come back with ``.error`` set; the sweep itself
        only raises for ``KeyboardInterrupt`` (after cancelling the
        cells that have not started).
        """
        specs = list(specs)
        self.stats = SweepStats()
        results: List[Optional[CellResult]] = [None] * len(specs)
        done = 0

        def finish(index: int, result: CellResult, *, from_cache: bool):
            nonlocal done
            results[index] = result
            done += 1
            if from_cache:
                self.stats.cache_hits += 1
            else:
                self.stats.executed += 1
                if not result.ok:
                    self.stats.failures += 1
                elif self.cache is not None:
                    self.cache.put(result.spec, result)
            if self.progress is not None:
                self.progress(done, len(specs), result)

        pending: List[int] = []
        for i, spec in enumerate(specs):
            hit = self.cache.get(spec) if self.cache is not None else None
            if hit is not None:
                finish(i, hit, from_cache=True)
            else:
                pending.append(i)

        if self.workers == 1:
            for i in pending:
                finish(i, run_cell(specs[i]), from_cache=False)
        elif pending:
            self._run_pool(specs, pending, finish)

        return results  # every index was finished above

    # ------------------------------------------------------------------
    def _run_pool(self, specs, pending, finish):
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            futures = {pool.submit(run_cell, specs[i]): i for i in pending}
            try:
                not_done = set(futures)
                while not_done:
                    finished, not_done = wait(not_done,
                                              return_when=FIRST_COMPLETED)
                    for fut in finished:
                        i = futures[fut]
                        exc = fut.exception()
                        if isinstance(exc, Exception):
                            # Infrastructure failure (e.g. the result
                            # didn't unpickle): report it on the cell.
                            tb = "".join(traceback.format_exception(exc))
                            finish(i, CellResult(spec=specs[i], error=tb),
                                   from_cache=False)
                        elif exc is not None:  # KeyboardInterrupt et al.
                            raise exc
                        else:
                            finish(i, fut.result(), from_cache=False)
            except KeyboardInterrupt:
                for fut in futures:
                    fut.cancel()
                pool.shutdown(wait=False, cancel_futures=True)
                raise

    # ------------------------------------------------------------------
    def run_metrics(self, specs: Sequence[CellSpec]) -> List[CellResult]:
        """Like :meth:`run`, but raise if any cell failed.

        For harnesses where a failed cell is a bug, not data.
        """
        results = self.run(specs)
        failed = [r for r in results if not r.ok]
        if failed:
            first = failed[0]
            raise RuntimeError(
                f"{len(failed)}/{len(results)} sweep cell(s) failed; "
                f"first: {first.spec.policy_label} seed={first.spec.seed}\n"
                f"{first.error}"
            )
        return results
