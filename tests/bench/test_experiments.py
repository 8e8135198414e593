"""Tests for the experiment harness (small, fast grids)."""

import pytest

from repro.apps import StageCost, TrackerConfig
from repro.aru import aru_disabled, aru_max
from repro.bench import (
    PAPER,
    fig6_memory_table,
    fig7_waste_table,
    fig10_performance_table,
    run_grid,
    run_tracker_once,
)
from repro.errors import ConfigError


def quick_tracker():
    return TrackerConfig(
        frame_period=1 / 60.0,
        grab_cost=StageCost(0.003, 0.05),
        change_detection_cost=StageCost(0.03, 0.1),
        histogram_cost=StageCost(0.05, 0.1),
        target_detect1_cost=StageCost(0.07, 0.1),
        target_detect2_cost=StageCost(0.08, 0.1),
        gui_cost=StageCost(0.008, 0.05),
    )


@pytest.fixture(scope="module")
def small_grid():
    return run_grid(seeds=(0,), horizon=40.0, tracker_cfg=quick_tracker())


class TestRunOnce:
    def test_metrics_populated(self):
        run = run_tracker_once(
            "config1", aru_disabled(), seed=0, horizon=30.0,
            tracker_cfg=quick_tracker(),
        )
        assert run.mem_mean > 0
        assert run.igc_mean > 0
        assert 0 <= run.wasted_memory <= 1
        assert 0 <= run.wasted_computation <= 1
        assert run.throughput > 0
        assert run.latency_mean > 0
        assert run.frames_produced > run.frames_delivered

    def test_footprint_at_least_igc_per_run(self):
        for aru in (aru_disabled(), aru_max()):
            run = run_tracker_once(
                "config1", aru, seed=0, horizon=30.0, tracker_cfg=quick_tracker()
            )
            assert run.mem_mean >= run.igc_mean * 0.999

    def test_unknown_config_rejected(self):
        with pytest.raises(ConfigError):
            run_tracker_once("config9", aru_disabled())

    def test_cluster_and_placement_helpers(self):
        from repro.bench import CellSpec

        cluster, placement = CellSpec(
            config="config1")._cluster_and_placement()
        assert len(cluster.nodes) == 1 and placement == {}
        cluster, placement = CellSpec(
            config="config2")._cluster_and_placement()
        assert len(cluster.nodes) == 5 and placement["gui"] == "node4"
        cluster, placement = CellSpec(
            config="config2", sched_noise_cv=0.3,
            workload="elastic")._cluster_and_placement()
        assert {n.sched_noise_cv for n in cluster.nodes} == {0.3}
        assert placement == {}


class TestGridAndTables:
    def test_grid_keys(self, small_grid):
        assert ("config1", "No ARU") in small_grid
        assert ("config2", "ARU-max") in small_grid
        assert len(small_grid) == 6

    def test_fig6_table(self, small_grid):
        table, rows = fig6_memory_table(small_grid, "config1")
        assert "fig 6" in table
        assert [r[0] for r in rows] == ["No ARU", "ARU-min", "ARU-max", "IGC"]
        pct = {r[0]: r[3] for r in rows}
        assert pct["IGC"] == 100.0
        assert all(v >= 99.9 for v in pct.values())

    def test_fig7_table(self, small_grid):
        _, rows = fig7_waste_table(small_grid, "config1")
        waste = {r[0]: r[1] for r in rows}
        assert waste["No ARU"] > waste["ARU-max"]

    def test_fig10_table(self, small_grid):
        _, rows = fig10_performance_table(small_grid, "config2")
        assert len(rows) == 3
        assert all(len(r) == 6 for r in rows)

    def test_memory_ordering_core_shape(self, small_grid):
        for config in ("config1", "config2"):
            mem = {
                p: small_grid[(config, p)].mean("mem_mean")
                for p in ("No ARU", "ARU-min", "ARU-max")
            }
            assert mem["No ARU"] > mem["ARU-min"] > mem["ARU-max"]


class TestPaperReference:
    def test_reference_values_present(self):
        for config in ("config1", "config2"):
            for policy in ("No ARU", "ARU-min", "ARU-max", "IGC"):
                assert "mem_mean" in PAPER[config][policy]

    def test_reference_reproduces_paper_claims(self):
        """Sanity: the transcribed numbers themselves obey the claims."""
        for config in ("config1", "config2"):
            p = PAPER[config]
            assert p["No ARU"]["mem_mean"] > p["ARU-min"]["mem_mean"] \
                > p["ARU-max"]["mem_mean"] > p["IGC"]["mem_mean"]
            assert p["ARU-max"]["lat"] < p["ARU-min"]["lat"] < p["No ARU"]["lat"]
