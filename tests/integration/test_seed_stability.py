"""Seed robustness: the headline orderings must hold for *every* seed,
not on average — otherwise the reproduction would be seed-mined.
"""

import pytest

from repro.apps import StageCost, TrackerConfig
from repro.bench import run_tracker_once
from repro.aru import aru_disabled, aru_max, aru_min

SEEDS = (0, 1, 2, 3, 4)
HORIZON = 60.0


def quick_tracker():
    # paper-shaped but ~3x faster to simulate
    return TrackerConfig(
        frame_period=1 / 30.0,
        grab_cost=StageCost(0.006, 0.08),
        change_detection_cost=StageCost(0.08, 0.12),
        histogram_cost=StageCost(0.13, 0.12),
        target_detect1_cost=StageCost(0.175, 0.15),
        target_detect2_cost=StageCost(0.205, 0.15),
        gui_cost=StageCost(0.018, 0.10),
    )


@pytest.fixture(scope="module")
def per_seed_runs():
    runs = {}
    for seed in SEEDS:
        runs[seed] = {
            policy.name: run_tracker_once(
                "config1", policy, seed=seed, horizon=HORIZON,
                app_config=quick_tracker(),
            )
            for policy in (aru_disabled(), aru_min(), aru_max())
        }
    return runs


def test_memory_ordering_every_seed(per_seed_runs):
    for seed, by_policy in per_seed_runs.items():
        assert by_policy["no-aru"].mem_mean > by_policy["aru-min"].mem_mean \
            > by_policy["aru-max"].mem_mean, f"seed {seed}"


def test_waste_reduction_every_seed(per_seed_runs):
    for seed, by_policy in per_seed_runs.items():
        assert by_policy["no-aru"].wasted_memory > 0.45, f"seed {seed}"
        assert by_policy["aru-max"].wasted_memory < 0.08, f"seed {seed}"


def test_latency_improvement_every_seed(per_seed_runs):
    for seed, by_policy in per_seed_runs.items():
        assert by_policy["aru-max"].latency_mean \
            < by_policy["no-aru"].latency_mean, f"seed {seed}"


def test_igc_floor_every_seed(per_seed_runs):
    for seed, by_policy in per_seed_runs.items():
        for name, run in by_policy.items():
            assert run.mem_mean >= run.igc_mean * 0.999, (seed, name)


def test_across_seed_variance_is_small(per_seed_runs):
    """Run-to-run spread must stay well below the policy separation."""
    import numpy as np

    no_aru = np.array([r["no-aru"].mem_mean for r in per_seed_runs.values()])
    aru_max_mem = np.array(
        [r["aru-max"].mem_mean for r in per_seed_runs.values()]
    )
    spread = no_aru.std() + aru_max_mem.std()
    separation = no_aru.mean() - aru_max_mem.mean()
    assert separation > 5 * spread
