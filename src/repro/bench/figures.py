"""Experiments regenerating the paper's figures 2-10.

Every experiment executes the real algorithms on the simulator (so pass
counts, fragment counts and occlusion stalls are measured, not assumed)
and prices GPU statistics with :class:`~repro.gpu.cost.GpuCostModel` and
CPU work with :class:`~repro.cpu.cost.CpuCostModel`.  GPU and CPU
answers are cross-checked on every run — a benchmark that returned a
wrong answer would be meaningless.
"""

from __future__ import annotations

import numpy as np

from ..core.compare import copy_to_depth
from ..core.cpu_engine import CpuEngine
from ..core.engine import GpuEngine
from ..core.predicates import And, Between, Comparison, SemiLinear
from ..cpu.cost import CpuCostModel
from ..data.selectivity import (
    range_for_selectivity,
    threshold_for_selectivity,
)
from ..data.tcpip import ATTRIBUTES, make_tcpip
from ..errors import BenchmarkError
from ..gpu.cost import GpuCostModel
from ..gpu.types import CompareFunc
from .registry import ExperimentResult, Scale, Series, register

GPU_COST = GpuCostModel()
CPU_COST = CpuCostModel()


def _engines(records: int, seed: int = 2004):
    relation = make_tcpip(records, seed=seed)
    return (
        relation,
        GpuEngine(relation, GPU_COST),
        CpuEngine(relation, CPU_COST),
    )


def _check(gpu_value, cpu_value, context: str) -> None:
    if gpu_value != cpu_value:
        raise BenchmarkError(
            f"{context}: GPU answered {gpu_value} but CPU answered "
            f"{cpu_value} — benchmark aborted"
        )


@register(
    "fig2",
    "Copy time: texture to depth buffer",
    "Almost linear increase in copy time with the number of records "
    "(figure 2); ~2.8 ms per million records.",
)
def fig2_copy(scale: Scale) -> ExperimentResult:
    xs, ys = [], []
    for records in scale.record_counts:
        relation, gpu, _cpu = _engines(records)
        texture, scale_factor, channel = gpu.column_texture("data_count")
        gpu.device.stats.reset()
        copy_to_depth(gpu.device, texture, scale_factor, channel=channel)
        window = gpu.device.stats.snapshot()
        xs.append(records)
        ys.append(GPU_COST.time(window).total_ms)
    # Marginal slope, so the fixed per-pass overhead does not skew the
    # per-record figure at small sweep sizes.
    per_million = (ys[-1] - ys[0]) / (xs[-1] - xs[0]) * 1e6
    return ExperimentResult(
        experiment_id="fig2",
        title="Copy time vs number of records",
        x_label="records",
        series=[Series("GPU copy", xs, ys)],
        headlines={
            "copy ms per 10^6 records": per_million,
            "linearity (r^2 of linear fit)": _linear_r2(xs, ys),
        },
        paper_claim=(
            "Figure 2: almost linear; the copy dominates several "
            "operations (~2.8 ms/M derived from figures 3-4)."
        ),
    )


def _selection_experiment(
    experiment_id: str,
    title: str,
    paper_claim: str,
    make_predicate,
    scale: Scale,
    paper_total_ratio: str,
    paper_compute_ratio: str,
) -> ExperimentResult:
    """Common driver for figures 3 and 4 (single predicate / range)."""
    xs, cpu_ms, gpu_total_ms, gpu_compute_ms = [], [], [], []
    for records in scale.record_counts:
        relation, gpu, cpu = _engines(records)
        predicate = make_predicate(relation)
        gpu_result = gpu.select(predicate)
        cpu_result = cpu.select(predicate)
        _check(gpu_result.count, cpu_result.count, experiment_id)
        xs.append(records)
        cpu_ms.append(cpu_result.modeled_ms)
        gpu_total_ms.append(gpu_result.total_time(GPU_COST).total_ms)
        gpu_compute_ms.append(gpu_result.compute_time(GPU_COST).total_ms)
    headlines = {
        "GPU speedup, total (at max records)": cpu_ms[-1] / gpu_total_ms[-1],
        "GPU speedup, compute only": cpu_ms[-1] / gpu_compute_ms[-1],
        "paper total": paper_total_ratio,
        "paper compute-only": paper_compute_ratio,
    }
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        x_label="records",
        series=[
            Series("CPU (SIMD scan)", xs, cpu_ms),
            Series("GPU total (incl. copy)", xs, gpu_total_ms),
            Series("GPU compute only", xs, gpu_compute_ms),
        ],
        headlines=headlines,
        paper_claim=paper_claim,
    )


@register(
    "fig3",
    "Single-predicate evaluation, 60% selectivity",
    "GPU ~3x faster end-to-end, ~20x compute-only (figure 3).",
)
def fig3_predicate(scale: Scale) -> ExperimentResult:
    def predicate(relation):
        values = relation.column("data_count").values
        threshold = threshold_for_selectivity(
            values, 0.6, CompareFunc.GEQUAL
        )
        return Comparison("data_count", CompareFunc.GEQUAL, threshold)

    return _selection_experiment(
        "fig3",
        "Predicate evaluation (60% selectivity)",
        "Figure 3: GPU nearly 3x faster including copy; nearly 20x "
        "considering only computation.",
        predicate,
        scale,
        paper_total_ratio="~3x",
        paper_compute_ratio="~20x",
    )


@register(
    "fig4",
    "Range query, 60% selectivity",
    "GPU ~5.5x faster end-to-end, ~40x compute-only (figure 4).",
)
def fig4_range(scale: Scale) -> ExperimentResult:
    def predicate(relation):
        values = relation.column("data_count").values
        low, high = range_for_selectivity(values, 0.6)
        return Between("data_count", low, high)

    return _selection_experiment(
        "fig4",
        "Range query via depth-bounds test (60% selectivity)",
        "Figure 4: GPU nearly 5.5x faster including copy; nearly 40x "
        "considering only computation.",
        predicate,
        scale,
        paper_total_ratio="~5.5x",
        paper_compute_ratio="~40x",
    )


@register(
    "fig5",
    "Multi-attribute query (1-4 attributes, AND)",
    "GPU ~2x faster end-to-end, ~20x compute-only; both sides scale "
    "linearly with the attribute count (figure 5).",
)
def fig5_multi_attribute(scale: Scale) -> ExperimentResult:
    series: dict[str, Series] = {}
    final_ratios = {}
    for records in scale.record_counts:
        relation, gpu, cpu = _engines(records)
        for num_attributes in range(1, 5):
            terms = []
            for name in ATTRIBUTES[:num_attributes]:
                values = relation.column(name).values
                threshold = threshold_for_selectivity(
                    values, 0.6, CompareFunc.GEQUAL
                )
                terms.append(
                    Comparison(name, CompareFunc.GEQUAL, threshold)
                )
            predicate = terms[0] if len(terms) == 1 else And(*terms)
            # Each k is an independent query in the paper's figure:
            # drop cached depth state so every run pays its own copies.
            gpu.invalidate_plan_cache()
            gpu_result = gpu.select(predicate)
            cpu_result = cpu.select(predicate)
            _check(gpu_result.count, cpu_result.count, "fig5")
            for label, value in (
                (f"CPU k={num_attributes}", cpu_result.modeled_ms),
                (
                    f"GPU k={num_attributes}",
                    gpu_result.total_time(GPU_COST).total_ms,
                ),
            ):
                series.setdefault(
                    label, Series(label, [], [])
                )
                series[label].x.append(records)
                series[label].y_ms.append(value)
            if records == scale.max_records:
                compute = gpu_result.compute_time(GPU_COST).total_ms
                final_ratios[num_attributes] = (
                    cpu_result.modeled_ms
                    / gpu_result.total_time(GPU_COST).total_ms,
                    cpu_result.modeled_ms / compute,
                )
    total4, compute4 = final_ratios[4]
    return ExperimentResult(
        experiment_id="fig5",
        title="Multi-attribute query (60% selectivity per attribute)",
        x_label="records",
        series=list(series.values()),
        headlines={
            "GPU speedup k=4, total": total4,
            "GPU speedup k=4, compute only": compute4,
            "paper total": "~2x",
            "paper compute-only": "~20x",
        },
        paper_claim=(
            "Figure 5: GPU nearly 2x faster including per-attribute "
            "copies; nearly 20x compute-only.  Time_k grows linearly "
            "in k on both devices."
        ),
    )


@register(
    "fig6",
    "Semi-linear query on four attributes",
    "GPU almost one order of magnitude (~9x) faster (figure 6).",
)
def fig6_semilinear(scale: Scale) -> ExperimentResult:
    rng = np.random.default_rng(42)
    coefficients = rng.uniform(-1.0, 1.0, size=4)
    xs, cpu_ms, gpu_ms = [], [], []
    for records in scale.record_counts:
        relation, gpu, cpu = _engines(records)
        stacked = np.stack(
            [relation.column(name).values for name in ATTRIBUTES], axis=1
        )
        dots = stacked @ coefficients.astype(np.float32)
        constant = float(np.median(dots))
        predicate = SemiLinear(
            ATTRIBUTES, coefficients, CompareFunc.GEQUAL, constant
        )
        gpu_result = gpu.select(predicate)
        cpu_result = cpu.select(predicate)
        _check(gpu_result.count, cpu_result.count, "fig6")
        xs.append(records)
        cpu_ms.append(cpu_result.modeled_ms)
        gpu_ms.append(gpu_result.total_time(GPU_COST).total_ms)
    return ExperimentResult(
        experiment_id="fig6",
        title="Semi-linear query (4 attributes, random coefficients)",
        x_label="records",
        series=[
            Series("CPU (SIMD scan)", xs, cpu_ms),
            Series("GPU (SemilinearFP)", xs, gpu_ms),
        ],
        headlines={
            "GPU speedup (at max records)": cpu_ms[-1] / gpu_ms[-1],
            "paper": "~9x",
        },
        paper_claim=(
            "Figure 6: GPU timings 9x faster than the optimized CPU "
            "implementation (no depth copy needed at all)."
        ),
    )


@register(
    "fig7",
    "K-th largest vs k (fixed records)",
    "GPU time constant in k; ~2x faster than QuickSelect end-to-end, "
    "~3x compute-only (figure 7).",
)
def fig7_kth_vs_k(scale: Scale) -> ExperimentResult:
    records = scale.kth_records
    relation, gpu, cpu = _engines(records)
    ks = [k for k in scale.k_sweep if 1 <= k <= records]
    gpu_ms, cpu_ms, ratios = [], [], []
    for k in ks:
        # Independent runs in the paper's figure: without this, later
        # k values would reuse the first run's depth copy and the
        # flatness headline would measure the cache, not the algorithm.
        gpu.invalidate_plan_cache()
        gpu_result = gpu.kth_largest("data_count", k)
        cpu_result = cpu.kth_largest("data_count", k)
        _check(gpu_result.value, cpu_result.value, f"fig7 k={k}")
        gpu_ms.append(gpu_result.total_time(GPU_COST).total_ms)
        cpu_ms.append(cpu_result.modeled_ms)
        ratios.append(cpu_ms[-1] / gpu_ms[-1])
    flatness = max(gpu_ms) / min(gpu_ms)
    return ExperimentResult(
        experiment_id="fig7",
        title=f"K-th largest vs k ({records} records)",
        x_label="k",
        series=[
            Series("CPU QuickSelect", ks, cpu_ms),
            Series("GPU KthLargest", ks, gpu_ms),
        ],
        headlines={
            "GPU time max/min over k (flatness)": flatness,
            "mean CPU/GPU ratio": float(np.mean(ratios)),
            "paper": "GPU constant in k, ~2x faster on average",
        },
        paper_claim=(
            "Figure 7: time taken by KthLargest is constant "
            "irrespective of k; on average ~2x faster than QuickSelect "
            "(copy included), ~3x compute-only."
        ),
    )


@register(
    "fig8",
    "Median vs number of records",
    "GPU ~2x faster than QuickSelect; both linear in records "
    "(figure 8).",
)
def fig8_median(scale: Scale) -> ExperimentResult:
    xs, gpu_total, gpu_compute, cpu_ms = [], [], [], []
    for records in scale.record_counts:
        relation, gpu, cpu = _engines(records)
        gpu_result = gpu.median("data_count")
        cpu_result = cpu.median("data_count")
        _check(gpu_result.value, cpu_result.value, "fig8")
        xs.append(records)
        gpu_total.append(gpu_result.total_time(GPU_COST).total_ms)
        gpu_compute.append(gpu_result.compute_time(GPU_COST).total_ms)
        cpu_ms.append(cpu_result.modeled_ms)
    return ExperimentResult(
        experiment_id="fig8",
        title="Median (KthLargest vs QuickSelect) vs records",
        x_label="records",
        series=[
            Series("CPU QuickSelect", xs, cpu_ms),
            Series("GPU total (incl. copy)", xs, gpu_total),
            Series("GPU compute only", xs, gpu_compute),
        ],
        headlines={
            "CPU/GPU total (at max records)": cpu_ms[-1] / gpu_total[-1],
            "CPU/GPU compute-only": cpu_ms[-1] / gpu_compute[-1],
            "paper": "~2x total, ~2.5x compute-only",
        },
        paper_claim=(
            "Figure 8: GPU nearly twice as fast as QuickSelect; "
            "~2.5x considering only computation."
        ),
    )


@register(
    "fig9",
    "Median with 80% selectivity",
    "GPU KthLargest takes exactly the same time at 80% selectivity as "
    "at 100%; the CPU must compact first (figure 9).",
)
def fig9_median_selectivity(scale: Scale) -> ExperimentResult:
    from ..core import aggregates

    xs = []
    gpu_sel_ms, gpu_kth80_ms, gpu_kth100_ms, cpu_ms = [], [], [], []
    for records in scale.record_counts:
        relation, gpu, cpu = _engines(records)
        values = relation.column("data_count").values
        threshold = threshold_for_selectivity(
            values, 0.8, CompareFunc.GEQUAL
        )
        predicate = Comparison(
            "data_count", CompareFunc.GEQUAL, threshold
        )

        column = relation.column("data_count")
        texture, scale_factor, channel = gpu.column_texture("data_count")

        # Phase 1: the selection (stencil mask).
        selection = gpu.select(predicate)
        selection_window = selection.stats

        # Phase 2: masked KthLargest on the selection.
        gpu.device.stats.reset()
        (k80,) = aggregates.order_targets("median", selection.count)
        value80 = aggregates.kth_largest(
            gpu.device, texture, column.bits, k80, scale_factor,
            channel=channel, valid_stencil=selection.valid_stencil,
        )
        kth80_window = gpu.device.stats.snapshot()

        # Reference: unmasked median over all records.
        gpu.device.stats.reset()
        (k100,) = aggregates.order_targets("median", records)
        aggregates.kth_largest(
            gpu.device, texture, column.bits, k100, scale_factor
        )
        kth100_window = gpu.device.stats.snapshot()

        cpu_result = cpu.median("data_count", predicate)
        _check(value80, cpu_result.value, "fig9")

        xs.append(records)
        gpu_sel_ms.append(GPU_COST.time(selection_window).total_ms)
        gpu_kth80_ms.append(GPU_COST.time(kth80_window).total_ms)
        gpu_kth100_ms.append(GPU_COST.time(kth100_window).total_ms)
        cpu_ms.append(cpu_result.modeled_ms)
    return ExperimentResult(
        experiment_id="fig9",
        title="Median at 80% selectivity (selection + masked KthLargest)",
        x_label="records",
        series=[
            Series("CPU (scan + compact + QuickSelect)", xs, cpu_ms),
            Series(
                "GPU total (selection + KthLargest)",
                xs,
                [a + b for a, b in zip(gpu_sel_ms, gpu_kth80_ms)],
            ),
            Series("GPU KthLargest phase @80%", xs, gpu_kth80_ms),
            Series("GPU KthLargest @100% (reference)", xs, gpu_kth100_ms),
        ],
        headlines={
            "KthLargest 80% / 100% time ratio": (
                gpu_kth80_ms[-1] / gpu_kth100_ms[-1]
            ),
            "CPU/GPU total (at max records)": (
                cpu_ms[-1] / (gpu_sel_ms[-1] + gpu_kth80_ms[-1])
            ),
            "paper": "80% takes exactly the same time as 100%",
        },
        paper_claim=(
            "Figure 9 / test 3: KthLargest with 80% selectivity takes "
            "exactly the time of 100% selectivity — the stencil test is "
            "free; the CPU must copy valid data into an array first."
        ),
    )


@register(
    "fig10",
    "Accumulator (SUM)",
    "GPU ~20x SLOWER than the CPU SIMD sum — no integer arithmetic in "
    "2004 fragment programs (figure 10).",
)
def fig10_accumulator(scale: Scale) -> ExperimentResult:
    xs, gpu_ms, cpu_ms = [], [], []
    for records in scale.record_counts:
        relation, gpu, cpu = _engines(records)
        gpu_result = gpu.sum("data_count")
        cpu_result = cpu.sum("data_count")
        _check(gpu_result.value, cpu_result.value, "fig10")
        xs.append(records)
        gpu_ms.append(gpu_result.total_time(GPU_COST).total_ms)
        cpu_ms.append(cpu_result.modeled_ms)
    return ExperimentResult(
        experiment_id="fig10",
        title="SUM: GPU Accumulator vs CPU SIMD accumulation",
        x_label="records",
        series=[
            Series("CPU (SIMD sum)", xs, cpu_ms),
            Series("GPU Accumulator", xs, gpu_ms),
        ],
        headlines={
            "GPU slowdown (at max records)": gpu_ms[-1] / cpu_ms[-1],
            "paper": "GPU ~20x slower",
        },
        paper_claim=(
            "Figure 10: the GPU algorithm is nearly 20x slower than the "
            "CPU implementation (one pass per bit, 5-instruction "
            "TestBit program, no integer arithmetic)."
        ),
    )


def _linear_r2(xs, ys) -> float:
    """r^2 of the least-squares line through (xs, ys)."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.size < 2:
        return 1.0
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    residual = np.sum((y - predicted) ** 2)
    total = np.sum((y - y.mean()) ** 2)
    if total == 0:
        return 1.0
    return float(1.0 - residual / total)
