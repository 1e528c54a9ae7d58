"""Fusion differential suite: the fused schedules must return
bit-identical results to the unfused path (and to the CPU ground truth)
across the randomized 50-case GPU-vs-CPU matrix, and the caches must
never serve stale state after a fault-triggered retry."""

import numpy as np
import pytest

from repro.core import CpuEngine, GpuEngine
from repro.core.predicates import Between, Comparison
from repro.data.tcpip import make_tcpip
from repro.errors import ReproError
from repro.faults import (
    FaultKind,
    FaultPlan,
    FaultRule,
    ResilientExecutor,
    RetryPolicy,
    use_faults,
)
from repro.gpu.types import CompareFunc
from tests.core.test_differential import (
    NUM_CASES,
    _random_predicate,
    _random_relation,
)


@pytest.mark.parametrize("seed", range(NUM_CASES))
def test_fused_matches_unfused_on_random_workload(seed):
    """The 50-case matrix, fused vs unfused: identical counts, ids and
    aggregates — fusion may only remove passes, never change answers."""
    rng = np.random.default_rng(88_000 + seed)
    relation = _random_relation(rng)
    fused = GpuEngine(relation, fusion=True)
    unfused = GpuEngine(relation, fusion=False)
    predicate = _random_predicate(rng, relation)

    fused_selection = fused.select(predicate).materialize()
    unfused_selection = unfused.select(predicate).materialize()
    assert fused_selection.count == unfused_selection.count
    assert np.array_equal(
        fused_selection.record_ids(), unfused_selection.record_ids()
    )

    column = relation.column_names[0]
    assert fused.sum(column, predicate).value == \
        unfused.sum(column, predicate).value
    if fused_selection.count > 0:
        for op in ("minimum", "maximum", "median"):
            assert fused.aggregate(op, column, predicate).value == \
                unfused.aggregate(op, column, predicate).value
        k = int(rng.integers(1, fused_selection.count + 1))
        assert fused.kth_largest(column, k, predicate).value == \
            unfused.kth_largest(column, k, predicate).value

    # The fused engine must have issued no more passes than the
    # unfused one on the identical workload.
    assert fused.plan.stats.depth_misses <= (
        fused.plan.stats.depth_misses + fused.plan.stats.depth_hits
    )


@pytest.fixture(scope="module")
def relation():
    return make_tcpip(1500, seed=44)


def _sweep_predicates(n=8):
    return [
        Comparison("data_count", CompareFunc.GEQUAL, 40_000 * i)
        for i in range(1, n + 1)
    ]


class TestSweepEquivalence:
    def test_selectivities_fused_equals_unfused_equals_cpu(
        self, relation
    ):
        predicates = _sweep_predicates()
        fused = GpuEngine(relation, fusion=True)
        unfused = GpuEngine(relation, fusion=False)
        cpu = CpuEngine(relation)
        expected = [cpu.select(p).count for p in predicates]
        assert fused.selectivities(predicates).value == expected
        assert unfused.selectivities(predicates).value == expected

    def test_selectivities_mixed_batch_agrees(self, relation):
        predicates = [
            Comparison("data_count", CompareFunc.GEQUAL, 100_000),
            Between("data_loss", 100, 800),
            Comparison("data_count", CompareFunc.LESS, 400_000),
        ]
        fused = GpuEngine(relation, fusion=True)
        unfused = GpuEngine(relation, fusion=False)
        assert fused.selectivities(predicates).value == \
            unfused.selectivities(predicates).value

    def test_histogram_fused_equals_unfused_equals_numpy(self, relation):
        fused = GpuEngine(relation, fusion=True)
        unfused = GpuEngine(relation, fusion=False)
        f_edges, f_counts = fused.histogram("data_loss", 10).value
        u_edges, u_counts = unfused.histogram("data_loss", 10).value
        assert np.array_equal(f_edges, u_edges)
        assert list(f_counts) == list(u_counts)
        values = relation.column("data_loss").values
        expected, _ = np.histogram(values, bins=f_edges)
        assert list(f_counts) == list(expected)

    def test_fused_issues_at_least_thirty_percent_fewer_copies(
        self, relation
    ):
        """The acceptance criterion measured through PipelineStats."""
        predicates = _sweep_predicates()

        def copies(engine):
            result = engine.selectivities(predicates)
            return sum(
                1
                for p in result.stats.passes
                if (p.program or "").startswith("copy-to-depth")
            )

        fused = copies(GpuEngine(relation, fusion=True))
        unfused = copies(GpuEngine(relation, fusion=False))
        assert fused == 1
        assert unfused == len(predicates)
        assert fused <= 0.7 * unfused

    def test_same_column_cnf_issues_fewer_copies(self, relation):
        from repro.core.predicates import And

        predicate = And(
            Comparison("data_count", CompareFunc.GEQUAL, 1000),
            Comparison("data_count", CompareFunc.LESS, 400_000),
        )

        def copies(engine):
            result = engine.select(predicate)
            return sum(
                1
                for p in result.stats.passes
                if (p.program or "").startswith("copy-to-depth")
            )

        fused = copies(GpuEngine(relation, fusion=True))
        unfused = copies(GpuEngine(relation, fusion=False))
        assert fused == 1 and unfused == 2
        assert fused <= 0.7 * unfused


class TestMeasuredMatchesCompiled:
    """The runner executes exactly the passes the compiler scheduled."""

    def test_selectivities_pass_count(self, relation):
        from repro.plan import lower_selectivities

        predicates = _sweep_predicates()
        engine = GpuEngine(relation, fusion=True)
        schedule = lower_selectivities(
            engine.relation, predicates, fuse=True
        )
        result = engine.selectivities(predicates)
        assert result.pass_count == schedule.render_passes

    def test_histogram_pass_count(self, relation):
        from repro.plan import lower_histogram

        engine = GpuEngine(relation, fusion=True)
        schedule = lower_histogram(
            engine.relation, "data_count", 12, fuse=True
        )
        result = engine.histogram("data_count", 12)
        assert result.pass_count == schedule.render_passes

    @pytest.mark.parametrize(
        "op",
        [
            "median", "kth_largest", "kth_smallest", "quantiles",
            "top_k", "sum", "histogram",
        ],
    )
    def test_every_shard_runs_the_parent_schedule(self, relation, op):
        """Sharded execution renders, on every shard, exactly the passes
        the parent lowering scheduled — whether the op folds per-shard
        results or runs the distributed bit search."""
        from repro.plan import compiler

        # Explicit shard count: the environment may set REPRO_SHARDS.
        engine = GpuEngine(relation, shards=2)
        if op == "histogram":
            schedule = compiler.lower_histogram(
                engine.relation, "data_count", 12
            )
            result = engine.histogram("data_count", 12)
        else:
            kwargs = {}
            if op in ("kth_largest", "kth_smallest", "top_k"):
                kwargs["k"] = 3
            elif op == "quantiles":
                kwargs["fractions"] = [0.5, 0.9]
            schedule = compiler.lower_aggregate(
                engine.relation, op, "data_count", **kwargs
            )
            result = engine.aggregate(op, "data_count", **kwargs)
        assert len(result.shard_results) == 2
        for part in result.shard_results:
            assert part.pass_count == schedule.render_passes


@pytest.mark.chaos
class TestCacheUnderFaults:
    """A retry must never be answered from a cache the fault poisoned."""

    def _executor(self):
        return ResilientExecutor(RetryPolicy(max_attempts=4))

    def test_no_stale_stencil_after_device_lost_retry(self, relation):
        predicate = Comparison("data_count", CompareFunc.GEQUAL, 100_000)
        engine = GpuEngine(relation, executor=self._executor())
        clean = engine.select(predicate).count
        expected_median = engine.median(
            "data_count", predicate
        ).value

        faulted = GpuEngine(relation, executor=self._executor())
        plan = FaultPlan(
            [FaultRule(kind=FaultKind.DEVICE_LOST, probability=1.0,
                       max_fires=1)]
        )
        with use_faults(plan):
            selection = faulted.select(predicate)
        assert selection.count == clean
        # The retry dropped the plan cache: the masked aggregate must
        # not trust a pre-fault stencil/depth note.
        assert faulted.plan.stats.invalidations >= 1
        assert faulted.median("data_count", predicate).value == \
            expected_median

    def test_chaos_sweep_fused_equals_cpu_or_typed_error(self):
        import random

        for seed in range(10):
            rng = np.random.default_rng(99_000 + seed)
            relation = _random_relation(rng)
            predicate = _random_predicate(rng, relation)
            cpu = CpuEngine(relation)
            expected = cpu.select(predicate).count
            chaos = random.Random(seed)
            plan = FaultPlan(
                [
                    FaultRule(
                        kind=chaos.choice(list(FaultKind)),
                        probability=chaos.choice((0.2, 0.5, 1.0)),
                        max_fires=chaos.choice((1, 2)),
                    )
                ],
                seed=seed,
            )
            engine = GpuEngine(relation, executor=self._executor())
            with use_faults(plan):
                try:
                    count = engine.select(predicate).count
                except ReproError:
                    continue  # typed failure, never a wrong answer
            assert count == expected
            # Post-fault: caches recover and answers stay correct.
            column = relation.column_names[0]
            assert engine.sum(column, predicate).value == \
                cpu.sum(column, predicate).value
