"""Paper-scale regression guards for the headline ratios.

These run the key figures at 10^6 records (the paper's size) and assert
the reproduced factors stay in the neighbourhood the paper reports —
the contract EXPERIMENTS.md documents.  Slower than the smoke-scale
structure tests (a few seconds each), but they pin the calibration.
"""

import pytest

from repro.bench import run_experiment
from repro.bench.registry import Scale

#: Two-point paper-scale sweep: enough for end-point ratios.
PAPER_POINTS = Scale(
    name="paper-points",
    record_counts=(250_000, 1_000_000),
    kth_records=250_000,
    k_sweep=(1, 1_000, 125_000, 250_000),
)


@pytest.fixture(scope="module")
def fig3():
    return run_experiment("fig3", PAPER_POINTS)


@pytest.fixture(scope="module")
def fig10():
    return run_experiment("fig10", PAPER_POINTS)


class TestHeadlineRatios:
    def test_fig3_total_speedup_near_3x(self, fig3):
        ratio = fig3.headlines["GPU speedup, total (at max records)"]
        assert 2.0 < ratio < 4.5

    def test_fig3_compute_speedup_near_20x(self, fig3):
        ratio = fig3.headlines["GPU speedup, compute only"]
        assert 15.0 < ratio < 30.0

    def test_fig4_range_speedups(self):
        result = run_experiment("fig4", PAPER_POINTS)
        assert 3.0 < result.headlines[
            "GPU speedup, total (at max records)"
        ] < 7.0
        assert 25.0 < result.headlines[
            "GPU speedup, compute only"
        ] < 50.0

    def test_fig6_semilinear_near_9x(self):
        result = run_experiment("fig6", PAPER_POINTS)
        assert 7.0 < result.headlines[
            "GPU speedup (at max records)"
        ] < 11.0

    def test_fig7_flat_and_gpu_wins_at_median(self):
        result = run_experiment("fig7", PAPER_POINTS)
        assert result.headlines[
            "GPU time max/min over k (flatness)"
        ] < 1.001
        series = {s.name: s for s in result.series}
        cpu = series["CPU QuickSelect"]
        gpu = series["GPU KthLargest"]
        median_index = cpu.x.index(125_000)
        assert cpu.y_ms[median_index] > gpu.y_ms[median_index]

    def test_fig10_slowdown_near_20x(self, fig10):
        slowdown = fig10.headlines["GPU slowdown (at max records)"]
        assert 12.0 < slowdown < 30.0

    def test_fig2_copy_per_million_near_2_8ms(self):
        result = run_experiment("fig2", PAPER_POINTS)
        per_million = result.headlines["copy ms per 10^6 records"]
        assert 2.4 < per_million < 3.2

    def test_util_near_80_percent(self):
        result = run_experiment("util", PAPER_POINTS)
        assert 0.55 < result.headlines["utilization"] < 0.95


class TestAblationsAtPaperScale:
    """Each ablation variant runs on its own engine: a second variant
    on the first one's engine hits its depth-copy cache and measures
    the plan cache instead of the paper's claim."""

    def test_cnf_costs_more_than_depth_bounds(self):
        result = run_experiment("ablation_range", PAPER_POINTS)
        assert result.headlines["CNF / depth-bounds time"] > 1.2

    def test_copyshare_counts_one_copy_against_two(self):
        result = run_experiment("ablation_copyshare", PAPER_POINTS)
        assert result.headlines["copies, same attribute"] == 1
        assert result.headlines["copies, two attributes"] == 2
        assert result.headlines["time saved by sharing"] > 0
