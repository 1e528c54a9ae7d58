"""CpuEngine: answers vs NumPy, cost structure."""

import numpy as np
import pytest

from repro.core import CpuEngine, col
from repro.core.cpu_engine import predicate_terms
from repro.core.predicates import (
    And,
    Between,
    Comparison,
    Not,
    Or,
    SemiLinear,
)
from repro.cpu.cost import CpuCostModel
from repro.errors import QueryError
from repro.gpu.types import CompareFunc
from repro.trace import Tracer


class TestSelection:
    def test_count_and_ids(self, cpu_engine, small_relation):
        predicate = col("data_count") >= 100_000
        result = cpu_engine.select(predicate)
        mask = predicate.mask(small_relation)
        assert result.count == int(np.count_nonzero(mask))
        assert np.array_equal(result.record_ids(), np.flatnonzero(mask))
        assert result.selectivity == pytest.approx(
            result.count / small_relation.num_records
        )

    def test_count_without_predicate(self, cpu_engine, small_relation):
        assert cpu_engine.count().value == small_relation.num_records

    def test_modeled_time_positive_and_linear_in_terms(
        self, cpu_engine
    ):
        one = cpu_engine.select(col("data_count") >= 5).modeled_s
        two = cpu_engine.select(
            (col("data_count") >= 5) & (col("flow_rate") >= 5)
        ).modeled_s
        assert 0 < one < two


class TestAggregates:
    def test_order_statistics(self, cpu_engine, small_relation):
        values = small_relation.column("data_count").values
        descending = np.sort(values)[::-1]
        assert cpu_engine.kth_largest("data_count", 5).value == int(
            descending[4]
        )
        assert cpu_engine.kth_smallest("data_count", 5).value == int(
            np.sort(values)[4]
        )
        assert cpu_engine.maximum("data_count").value == int(
            values.max()
        )
        assert cpu_engine.minimum("data_count").value == int(
            values.min()
        )

    def test_faithful_quickselect_agrees(self, small_relation):
        fast = CpuEngine(small_relation)
        faithful = CpuEngine(small_relation, faithful_quickselect=True)
        for k in (1, 7, 500):
            assert (
                fast.kth_largest("data_count", k).value
                == faithful.kth_largest("data_count", k).value
            )

    def test_sum_avg(self, cpu_engine, small_relation):
        values = small_relation.column("flow_rate").values.astype(
            np.int64
        )
        assert cpu_engine.sum("flow_rate").value == int(values.sum())
        assert cpu_engine.average("flow_rate").value == pytest.approx(
            values.mean()
        )

    def test_with_predicate(self, cpu_engine, small_relation):
        predicate = col("data_count") >= 100_000
        mask = predicate.mask(small_relation)
        selected = small_relation.column("flow_rate").values[mask]
        assert cpu_engine.sum("flow_rate", predicate).value == int(
            selected.astype(np.int64).sum()
        )
        assert cpu_engine.median(
            "flow_rate", predicate
        ).value == int(
            np.sort(selected)[::-1][(selected.size + 1) // 2 - 1]
        )

    def test_empty_selection_rejected(self, cpu_engine):
        impossible = col("data_count") > 10**6
        with pytest.raises(QueryError):
            cpu_engine.median("data_count", impossible)
        with pytest.raises(QueryError):
            cpu_engine.average("data_count", impossible)
        with pytest.raises(QueryError):
            cpu_engine.maximum("data_count", impossible)

    def test_k_validation(self, cpu_engine):
        with pytest.raises(QueryError):
            cpu_engine.kth_largest("data_count", 0)
        with pytest.raises(QueryError):
            cpu_engine.kth_smallest("data_count", 10**9)

    def test_selection_order_statistic_costs_more(self, cpu_engine):
        plain = cpu_engine.median("data_count").modeled_s
        selected = cpu_engine.median(
            "data_count", col("data_count") >= 100_000
        ).modeled_s
        assert selected > plain * 0.5  # compaction + scan present
        assert (
            selected
            > cpu_engine.select(
                col("data_count") >= 100_000
            ).modeled_s
        )


class TestAggregateEntryPoint:
    def test_named_methods_are_aggregate(self, cpu_engine):
        where = col("data_loss") > 300
        for op, kwargs in (
            ("sum", {}),
            ("average", {}),
            ("minimum", {}),
            ("maximum", {}),
            ("median", {}),
            ("kth_largest", {"k": 4}),
            ("kth_smallest", {"k": 4}),
            ("quantiles", {"fractions": [0.1, 0.9]}),
        ):
            named = getattr(cpu_engine, op)(
                "flow_rate", predicate=where, **kwargs
            )
            direct = cpu_engine.aggregate(op, "flow_rate", where, **kwargs)
            assert (direct.value, direct.modeled_s) == (
                named.value, named.modeled_s
            )

    def test_errors_match_the_gpu_engine(self, cpu_engine, gpu_engine):
        def message(engine, *args, **kwargs):
            with pytest.raises(QueryError) as info:
                engine.aggregate(*args, **kwargs)
            return str(info.value)

        for args, kwargs in (
            (("mode", "flow_rate"), {}),
            (("sum",), {}),
            (("top_k", "flow_rate"), {"k": 0}),
            (("quantiles", "flow_rate"), {"fractions": []}),
            (("quantiles", "flow_rate"), {"fractions": [2.0]}),
            (("minimum", "flow_rate", col("data_loss") > 5000), {}),
        ):
            assert message(cpu_engine, *args, **kwargs) == message(
                gpu_engine, *args, **kwargs
            )

    def test_failed_aggregate_closes_its_span(self, small_relation):
        tracer = Tracer()
        engine = CpuEngine(small_relation, tracer=tracer)
        with pytest.raises(QueryError):
            engine.median("flow_rate", col("data_loss") > 5000)
        engine.sum("flow_rate")
        assert [root.name for root in tracer.finish().roots] == [
            "median", "sum"
        ]


class TestPredicateTerms:
    def test_term_weights(self):
        model = CpuCostModel()
        assert predicate_terms(
            Comparison("a", CompareFunc.LESS, 1), model
        ) == 1.0
        assert predicate_terms(Between("a", 1, 2), model) == (
            model.range_term_factor
        )
        semilinear = SemiLinear(("a", "b"), (1, 1), CompareFunc.LESS, 0)
        assert predicate_terms(semilinear, model) == pytest.approx(
            model.semilinear_ns_per_record
            / model.predicate_ns_per_record
        )

    def test_boolean_terms_sum(self):
        model = CpuCostModel()
        leaf = Comparison("a", CompareFunc.LESS, 1)
        assert predicate_terms(And(leaf, leaf, leaf), model) == 3.0
        assert predicate_terms(Or(leaf, leaf), model) == 2.0
        assert predicate_terms(Not(leaf), model) == 1.0
