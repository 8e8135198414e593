"""Experiment definitions: one entry point per paper table/figure.

Each experiment runs the tracker on the simulated cluster for a grid of
(config, ARU policy, seed) and aggregates the §4 metrics. The paper
reports "average statistics over successive execution runs"; we average
over seeds, reporting across-run standard deviations where the paper does
(throughput, latency).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.aru.config import AruConfig, aru_disabled, aru_max, aru_min
from repro.metrics.footprint import Timeline
from repro.metrics.performance import jitter, latency_stats, throughput_fps
from repro.metrics.postmortem import PostmortemAnalyzer

#: The two hardware configurations of §5.
CONFIG_NAMES = ("config1", "config2")
#: The three policies of every paper table, in paper row order.
POLICY_FACTORIES: Dict[str, Callable[[], AruConfig]] = {
    "No ARU": aru_disabled,
    "ARU-min": aru_min,
    "ARU-max": aru_max,
}

DEFAULT_HORIZON = 120.0
DEFAULT_SEEDS = (0, 1, 2)


@dataclass
class RunMetrics:
    """Every §4 metric for one (config, policy, seed) run."""

    config: str
    policy: str
    seed: int
    horizon: float
    mem_mean: float
    mem_std: float
    mem_peak: float
    igc_mean: float
    igc_std: float
    wasted_memory: float
    wasted_computation: float
    throughput: float
    latency_mean: float
    latency_std: float
    jitter: float
    footprint: Timeline
    igc_footprint: Timeline
    frames_produced: int
    frames_delivered: int


def metrics_from_trace(
    config: str,
    policy_name: str,
    seed: int,
    horizon: float,
    recorder,
) -> RunMetrics:
    """Postmortem of one finished run, folded into :class:`RunMetrics`."""
    pm = PostmortemAnalyzer(recorder)
    footprint = pm.footprint()
    igc = pm.ideal_footprint()
    lat_mean, lat_std = latency_stats(recorder)
    return RunMetrics(
        config=config,
        policy=policy_name,
        seed=seed,
        horizon=horizon,
        mem_mean=footprint.mean(),
        mem_std=footprint.std(),
        mem_peak=footprint.peak(),
        igc_mean=igc.mean(),
        igc_std=igc.std(),
        wasted_memory=pm.wasted_memory_fraction,
        wasted_computation=pm.wasted_computation_fraction,
        throughput=throughput_fps(recorder),
        latency_mean=lat_mean,
        latency_std=lat_std,
        jitter=jitter(recorder),
        footprint=footprint,
        igc_footprint=igc,
        frames_produced=recorder.iteration_count("digitizer"),
        frames_delivered=len(recorder.sink_t_end),
    )


def run_tracker_once(
    config: str,
    policy: Union[AruConfig, str],
    seed: int = 0,
    horizon: float = DEFAULT_HORIZON,
    **fields: Any,
) -> RunMetrics:
    """One full tracker simulation + postmortem.

    ``policy`` is an explicit :class:`AruConfig` or a registered policy
    name (``"aru-min"``, ``"aru-pid"``, ...); ``fields`` are any other
    :class:`~repro.bench.runner.CellSpec` fields (``app_config``,
    ``gc``...). This is the single-cell convenience wrapper over the
    sweep path: errors propagate (unlike
    :func:`repro.bench.runner.run_cell`, which folds them into the
    result).
    """
    from repro.bench.runner import CellSpec, _execute_cell

    spec = CellSpec(config=config, policy=policy, seed=seed, horizon=horizon,
                    **fields)
    return _execute_cell(spec).metrics


@dataclass
class PolicyAggregate:
    """Across-seed aggregate for one (config, policy) cell."""

    config: str
    policy: str
    runs: List[RunMetrics] = field(default_factory=list)

    def _vals(self, attr: str) -> np.ndarray:
        return np.array([getattr(r, attr) for r in self.runs])

    def mean(self, attr: str) -> float:
        return float(self._vals(attr).mean())

    def std(self, attr: str) -> float:
        return float(self._vals(attr).std())

    def ci95(self, attr: str) -> Tuple[float, float]:
        """Student-t 95% confidence interval for the across-seed mean.

        Degenerates to a point for a single seed (or zero variance).
        """
        vals = self._vals(attr)
        mean = float(vals.mean())
        if len(vals) < 2:
            return mean, mean
        sem = float(vals.std(ddof=1)) / np.sqrt(len(vals))
        if sem == 0.0:
            return mean, mean
        try:
            from scipy import stats

            half = float(stats.t.ppf(0.975, df=len(vals) - 1)) * sem
        except ImportError:  # pragma: no cover - scipy is a test dep
            half = 1.96 * sem
        return mean - half, mean + half


def grid_specs(
    configs: Sequence[str] = CONFIG_NAMES,
    policies: Optional[Dict[str, Callable[[], AruConfig]]] = None,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    horizon: float = DEFAULT_HORIZON,
    **fields: Any,
) -> List["CellSpec"]:
    """The paper's §5 grid as a flat list of sweep cell specs; ``fields``
    are any other :class:`~repro.bench.runner.CellSpec` fields, the same
    in every cell.

    Policy *factories* (possibly lambdas) are resolved to their
    :class:`AruConfig` values here, in the parent process — cell specs
    must stay picklable for the worker pool.
    """
    from repro.bench.runner import CellSpec

    policies = policies or POLICY_FACTORIES
    return [
        CellSpec(config=config, policy=factory(), label=label, seed=seed,
                 horizon=horizon, **fields)
        for config in configs
        for label, factory in policies.items()
        for seed in seeds
    ]


def run_grid(
    configs: Sequence[str] = CONFIG_NAMES,
    policies: Optional[Dict[str, Callable[[], AruConfig]]] = None,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    horizon: float = DEFAULT_HORIZON,
    runner: Optional["SweepRunner"] = None,
    workers: int = 1,
    **fields: Any,
) -> Dict[Tuple[str, str], PolicyAggregate]:
    """Run the full (config x policy x seed) grid of the paper's §5
    (``fields`` as for :func:`grid_specs`).

    All cells go through a :class:`~repro.bench.runner.SweepRunner` —
    pass one in (``runner``) to share its worker pool and result cache,
    or just set ``workers`` for an ad-hoc parallel, uncached sweep. The
    default stays serial and uncached, which is what the unit tests
    want.
    """
    from repro.bench.runner import SweepRunner

    specs = grid_specs(configs, policies, seeds, horizon, **fields)
    runner = runner or SweepRunner(workers=workers)
    results = runner.run_metrics(specs)
    out: Dict[Tuple[str, str], PolicyAggregate] = {}
    for spec, result in zip(specs, results):
        key = (spec.config, spec.policy_label)
        if key not in out:
            out[key] = PolicyAggregate(config=spec.config,
                                       policy=spec.policy_label)
        out[key].runs.append(result.metrics)
    return out
