"""The backend registry: named executors behind the experiment front door.

An experiment backend is *how* an :class:`~repro.experiment.ExperimentSpec`
turns into a :class:`~repro.experiment.RunResult` — the same declarative
spec can run on the deterministic discrete-event simulator, on real OS
threads inside one process, or on a fleet of worker processes wired
together over TCP (:mod:`repro.dist`). :data:`BACKENDS` is a
:class:`~repro.registry.Registry` like every other named choice: names
resolve through one path shared by ``ExperimentSpec(backend=...)``, spec
files, sweep cells, and the CLI ``--backend`` flag, and unknown names
raise :class:`~repro.errors.ConfigError` with did-you-mean suggestions
— a typo must never silently fall back to the simulator.

Built-ins:

``sim``
    The discrete-event simulation (default). Deterministic, fast,
    reproduces the paper's measurements. All features (faults,
    telemetry, elastic scaling, GC choices) are available.
``threads``
    Real OS threads in one process (:mod:`repro.rt_threads`). Wall-clock
    timing, GIL-bound compute; a live demo / smoke-test executor.
``proc``
    Real worker processes — one per cluster node — with channels that
    cross node boundaries carried over length-prefixed framed TCP
    connections, and the ARU control plane reused verbatim
    (:mod:`repro.dist`). The hardware-truth check on DES predictions.

Extensions register their own::

    from repro.backends import register_backend

    def run_on_my_cluster(spec):
        ...
        return RunResult(...)

    register_backend("k8s", run_on_my_cluster, help="my cluster")
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiment import ExperimentSpec, RunResult

#: A backend runner: the full spec in, the full result out.
BackendRunner = Callable[["ExperimentSpec"], "RunResult"]

BACKENDS: Registry[BackendRunner] = Registry("backend")

register_backend = BACKENDS.register
available_backends = BACKENDS.names
resolve_backend = BACKENDS.get


# -- built-in backends -------------------------------------------------------
# Runners import their implementations lazily so `import repro` stays
# cheap and the registry module never cycles with repro.experiment.


def _run_sim(spec: "ExperimentSpec") -> "RunResult":
    from repro.experiment import execute_simulated

    return execute_simulated(spec)


def _run_threads(spec: "ExperimentSpec") -> "RunResult":
    from repro.rt_threads.executor import run_threaded_experiment

    return run_threaded_experiment(spec)


def _run_proc(spec: "ExperimentSpec") -> "RunResult":
    from repro.dist.launcher import run_distributed

    return run_distributed(spec)


register_backend(
    "sim", _run_sim,
    help="discrete-event simulation — deterministic, all features "
         "(default)")
register_backend(
    "threads", _run_threads,
    help="real OS threads in one process — wall-clock live executor "
         "(GIL-bound)")
register_backend(
    "proc", _run_proc,
    help="worker processes per cluster node, channels over framed TCP "
         "— hardware-truth check")
