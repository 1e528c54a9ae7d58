"""Lowering and fusion: compiled schedules carry the pass structure the
paper's figures count, and fusion removes the documented copies/stalls.

The >=30% acceptance thresholds for same-column CNF and batched
selectivity sweeps are pinned here at the schedule level; the
differential suite pins the *measured* counts.
"""

import pytest

from repro.core.predicates import And, Between, Comparison
from repro.data.tcpip import make_tcpip
from repro.errors import QueryError
from repro.gpu.cost import GpuCostModel
from repro.gpu.types import CompareFunc
from repro.plan import (
    histogram_edges,
    lower_aggregate,
    lower_histogram,
    lower_select,
    lower_selectivities,
    lower_statement,
)
from repro.sql.parser import parse


@pytest.fixture(scope="module")
def relation():
    return make_tcpip(1000, seed=9)


def _same_column_cnf():
    return And(
        Comparison("data_count", CompareFunc.GEQUAL, 1000),
        Comparison("data_count", CompareFunc.LESS, 400_000),
    )


class TestLowerSelect:
    def test_same_column_cnf_shares_the_copy(self, relation):
        fused = lower_select(relation, _same_column_cnf(), fuse=True)
        unfused = lower_select(relation, _same_column_cnf(), fuse=False)
        assert unfused.copy_passes == 2
        assert fused.copy_passes == 1
        assert fused.fused_copies == 1
        # The acceptance bar: >= 30% fewer copy-to-depth passes.
        assert fused.copy_passes <= 0.7 * unfused.copy_passes

    def test_distinct_columns_still_copy_each(self, relation):
        predicate = And(
            Comparison("data_count", CompareFunc.GEQUAL, 1000),
            Comparison("data_loss", CompareFunc.LESS, 800),
        )
        fused = lower_select(relation, predicate, fuse=True)
        assert fused.copy_passes == 2
        assert fused.fused_copies == 0

    def test_simple_select_structure(self, relation):
        schedule = lower_select(
            relation, Comparison("data_count", CompareFunc.GEQUAL, 7)
        )
        assert schedule.copy_passes == 1
        assert schedule.render_passes == 2  # copy + counted quad
        assert schedule.stalls == 1


class TestLowerSelectivities:
    def test_same_column_batch_fuses_copies_and_stalls(self, relation):
        predicates = [
            Comparison("data_count", CompareFunc.GEQUAL, 1000 * i)
            for i in range(1, 9)
        ]
        fused = lower_selectivities(relation, predicates, fuse=True)
        unfused = lower_selectivities(relation, predicates, fuse=False)
        assert unfused.copy_passes == 8
        assert fused.copy_passes == 1
        assert fused.copy_passes <= 0.7 * unfused.copy_passes
        assert fused.stalls == 1
        assert unfused.stalls == 8
        assert fused.fused_copies == 7
        assert fused.fused_stalls == 7

    def test_mixed_columns_copy_on_switch(self, relation):
        predicates = [
            Comparison("data_count", CompareFunc.GEQUAL, 10),
            Comparison("data_loss", CompareFunc.LESS, 100),
            Comparison("data_count", CompareFunc.LESS, 999),
        ]
        fused = lower_selectivities(relation, predicates, fuse=True)
        assert fused.copy_passes == 3  # a,b,a: no adjacent sharing

    def test_empty_batch_rejected(self, relation):
        with pytest.raises(QueryError):
            lower_selectivities(relation, [])


class TestLowerHistogram:
    def test_fused_is_one_copy_plus_buckets(self, relation):
        fused = lower_histogram(relation, "data_count", 10, fuse=True)
        assert fused.copy_passes == 1
        assert fused.render_passes == 1 + 10
        assert fused.stalls == 1
        unfused = lower_histogram(relation, "data_count", 10, fuse=False)
        assert unfused.copy_passes == 10
        assert unfused.stalls == 10

    def test_edges_span_the_domain(self, relation):
        column = relation.column("data_count")
        edges = histogram_edges(column, 10)
        assert edges[0] == 0
        assert edges[-1] == 1 << column.bits


class TestLowerAggregate:
    def test_bit_search_harvests_synchronously(self, relation):
        schedule = lower_aggregate(relation, "median", "data_count")
        bits = relation.column("data_count").bits
        assert schedule.render_passes == 1 + bits
        assert schedule.stalls == bits  # each bit depends on the last

    def test_sum_batches_its_testbit_harvest(self, relation):
        fused = lower_aggregate(relation, "sum", "data_count", fuse=True)
        unfused = lower_aggregate(
            relation, "sum", "data_count", fuse=False
        )
        # The Accumulator pipelines its queries with or without fusion
        # (routine 4.6): one stall for all the bits, as it executes.
        assert fused.stalls == 1
        assert unfused.stalls == 1
        assert unfused.render_passes == relation.column("data_count").bits

    def test_selection_cached_skips_the_where_lowering(self, relation):
        predicate = Comparison("data_count", CompareFunc.GEQUAL, 1000)
        cold = lower_aggregate(
            relation, "median", "data_count", predicate=predicate,
            selection_cached=False,
        )
        warm = lower_aggregate(
            relation, "median", "data_count", predicate=predicate,
            selection_cached=True,
        )
        assert warm.render_passes < cold.render_passes
        assert warm.meta["selection_cached"] is True

    def test_unknown_op_rejected(self, relation):
        with pytest.raises(QueryError):
            lower_aggregate(relation, "variance", "data_count")


class TestLowerStatement:
    SQL = (
        "SELECT COUNT(*), MEDIAN(data_count) FROM tcpip "
        "WHERE data_count >= 1000 AND data_count < 400000"
    )

    def test_statement_fuses_probe_count_and_selection(self, relation):
        statement = parse(self.SQL)
        fused = lower_statement(statement, relation, fuse=True)
        unfused = lower_statement(statement, relation, fuse=False)
        # Fused: one selection (shared copy) + bit search; the COUNT
        # item reuses the probe's count without any passes.
        assert fused.copy_passes <= 0.7 * unfused.copy_passes
        assert fused.render_passes < unfused.render_passes
        assert fused.meta["where"] is not None

    def test_projection_statement_lowers_the_selection_only(
        self, relation
    ):
        statement = parse(
            "SELECT data_count FROM tcpip WHERE data_loss < 100"
        )
        schedule = lower_statement(statement, relation)
        assert schedule.copy_passes == 1
        assert schedule.op == "query"


class TestScheduleCosting:
    def test_fused_schedule_prices_cheaper(self, relation):
        predicates = [
            Comparison("data_count", CompareFunc.GEQUAL, 1000 * i)
            for i in range(1, 9)
        ]
        fused = lower_selectivities(relation, predicates, fuse=True)
        unfused = lower_selectivities(relation, predicates, fuse=False)
        model = GpuCostModel()
        records = relation.num_records
        assert model.schedule_time_s(fused, records) < \
            model.schedule_time_s(unfused, records)

    def test_copy_pass_pays_the_slow_depth_path(self):
        model = GpuCostModel()
        assert model.copy_pass_time_s(1_000_000) > \
            model.quad_pass_time_s(1_000_000, instructions=3)
