"""Tests for grid CSV export and trace comparison."""


from repro.apps import StageCost, TrackerConfig
from repro.aru import aru_disabled, aru_min
from repro.bench import (
    RUN_COLUMNS,
    compare_traces,
    grid_to_csv,
    run_grid,
    summarize_trace,
)
from repro.runtime import (
    Compute,
    Get,
    PeriodicitySync,
    Put,
    Runtime,
    RuntimeConfig,
    Sleep,
    TaskGraph,
)


def quick_tracker():
    return TrackerConfig(
        frame_period=1 / 60.0,
        grab_cost=StageCost(0.003),
        change_detection_cost=StageCost(0.03),
        histogram_cost=StageCost(0.05),
        target_detect1_cost=StageCost(0.07),
        target_detect2_cost=StageCost(0.08),
        gui_cost=StageCost(0.008),
    )


def small_trace(aru):
    def src(ctx):
        ts = 0
        while True:
            yield Sleep(0.02)
            yield Put("c", ts=ts, size=100)
            ts += 1
            yield PeriodicitySync()

    def dst(ctx):
        while True:
            yield Get("c")
            yield Compute(0.06)
            yield PeriodicitySync()

    g = TaskGraph()
    g.add_thread("src", src)
    g.add_thread("dst", dst, sink=True)
    g.add_channel("c")
    g.connect("src", "c").connect("c", "dst")
    return Runtime(g, RuntimeConfig(aru=aru, seed=0)).run(until=10.0)


class TestGridCsv:
    def test_rows_and_header(self):
        grid = run_grid(
            configs=("config1",), seeds=(0, 1), horizon=20.0,
            app_config=quick_tracker(),
        )
        csv = grid_to_csv(grid)
        lines = csv.strip().splitlines()
        assert lines[0] == ",".join(RUN_COLUMNS)
        assert len(lines) == 1 + 3 * 2  # 3 policies x 2 seeds
        # every row parses to the right column count
        for line in lines[1:]:
            assert len(line.split(",")) == len(RUN_COLUMNS)

    def test_floats_roundtrip(self):
        grid = run_grid(
            configs=("config1",), seeds=(0,), horizon=20.0,
            app_config=quick_tracker(),
        )
        csv = grid_to_csv(grid)
        rows = [line.split(",") for line in csv.strip().splitlines()[1:]]
        policy_col = RUN_COLUMNS.index("policy")
        mem_col = RUN_COLUMNS.index("mem_mean")
        # RunMetrics carries the AruConfig name ("no-aru"), not the label
        row = next(r for r in rows if r[policy_col] == "no-aru")
        run = grid[("config1", "No ARU")].runs[0]
        assert float(row[mem_col]) == run.mem_mean


class TestSummarizeAndCompare:
    def test_summary_keys(self):
        summary = summarize_trace(small_trace(aru_disabled()))
        for key in ("mem_mean_bytes", "wasted_memory", "throughput_fps",
                    "latency_mean_s", "jitter_s"):
            assert key in summary

    def test_compare_renders_ratio(self):
        a = small_trace(aru_disabled())
        b = small_trace(aru_min())
        text = compare_traces(a, b, label_a="no-aru", label_b="aru-min")
        assert "no-aru" in text and "aru-min" in text
        assert "wasted_memory" in text

    def test_compare_shows_aru_improvement(self):
        a = small_trace(aru_disabled())
        b = small_trace(aru_min())
        sa, sb = summarize_trace(a), summarize_trace(b)
        assert sb["wasted_memory"] < sa["wasted_memory"]
        assert sb["mem_mean_bytes"] < sa["mem_mean_bytes"]
