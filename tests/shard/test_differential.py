"""The sharded-vs-single differential matrix.

Every (operation, column) pair runs on 2- and 4-shard pools, on a
4-shard pool whose shard 1 is killed (so that shard's part of every
answer is recomputed host-side) and on the CPU engine, and must
produce exactly the single-device engine's answer — values, counts,
record ids and error strings alike.  52 cases x 4 engines; the oracle
results are memoized per case so the single engine runs each once.
"""

import numpy as np
import pytest

from repro.core import CpuEngine, GpuEngine
from repro.core.predicates import Between, Comparison
from repro.errors import QueryError
from repro.faults import ResilientExecutor
from repro.gpu.types import CompareFunc

COLUMNS = ("data_count", "data_loss", "flow_rate", "retransmissions")

#: Mid-domain thresholds so every predicate is meaningfully selective.
_THRESHOLDS = {
    "data_count": 1 << 18,
    "data_loss": 512,
    "flow_rate": 1 << 15,
    "retransmissions": 128,
}

OPS = (
    "minimum",
    "maximum",
    "median",
    "sum",
    "average",
    "count",
    "select",
    "kth_largest",
    "kth_smallest",
    "quantiles",
    "histogram",
    "top_k",
    "selectivities",
)


def _pred(column):
    return Comparison(
        column, CompareFunc.GREATER, _THRESHOLDS[column]
    )


def _run(engine, op, column):
    """One matrix case, normalized to comparable plain-python values."""
    predicate = _pred(column)
    if op == "minimum":
        return engine.minimum(column, predicate).value
    if op == "maximum":
        return engine.maximum(column, predicate).value
    if op == "median":
        return engine.median(column).value
    if op == "sum":
        return engine.sum(column, predicate).value
    if op == "average":
        return engine.average(column, predicate).value
    if op == "count":
        return engine.count(predicate).value
    if op == "select":
        return engine.select(predicate).record_ids().tolist()
    if op == "kth_largest":
        return engine.kth_largest(column, 5).value
    if op == "kth_smallest":
        return engine.kth_smallest(column, 5).value
    if op == "quantiles":
        return engine.quantiles(column, [0.25, 0.5, 0.9]).value
    if op == "histogram":
        edges, counts = engine.histogram(column, 8).value
        return (np.asarray(edges).tolist(), np.asarray(counts).tolist())
    if op == "top_k":
        top = engine.top_k(column, 7).value
        return (
            top.threshold,
            sorted(np.asarray(top.record_ids).tolist()),
        )
    if op == "selectivities":
        low = _THRESHOLDS[column] // 2
        return engine.selectivities([
            predicate,
            Comparison(column, CompareFunc.LESS, low),
            Between(column, low, _THRESHOLDS[column]),
        ]).value
    raise AssertionError(op)


@pytest.fixture(scope="module")
def oracle_results(engines):
    cache = {}

    def lookup(op, column):
        key = (op, column)
        if key not in cache:
            cache[key] = _run(engines[1], op, column)
        return cache[key]

    return lookup


@pytest.fixture(scope="module")
def matrix_engines(engines, small_relation):
    """The shard pools plus the two host-path engines."""
    killed = GpuEngine(
        small_relation, shards=4, executor=ResilientExecutor()
    )
    killed.sharded.kill(1)
    return {
        **engines,
        "killed": killed,
        "cpu": CpuEngine(small_relation),
    }


@pytest.mark.parametrize("engine_key", [2, 4, "killed", "cpu"])
@pytest.mark.parametrize("column", COLUMNS)
@pytest.mark.parametrize("op", OPS)
def test_matches_single_device(
    matrix_engines, oracle_results, op, column, engine_key
):
    engine = matrix_engines[engine_key]
    if engine_key == "killed":
        fallbacks = engine.executor.stats.fallbacks["shard-1"]
    assert _run(engine, op, column) == oracle_results(op, column)
    if engine_key == "killed":
        # The dead shard's partial really came from the host.
        assert engine.executor.stats.fallbacks["shard-1"] > fallbacks


class TestEdgeParity:
    """Degenerate inputs answer (or refuse) exactly like one device."""

    def test_k_extremes(self, engines):
        n = engines[1].relation.num_records
        for k in (1, n):
            expected = engines[1].kth_largest("flow_rate", k).value
            assert engines[4].kth_largest("flow_rate", k).value \
                == expected

    def test_out_of_range_k_error_matches(self, engines):
        def message(engine):
            with pytest.raises(QueryError) as info:
                engine.kth_largest("flow_rate", 0)
            return str(info.value)

        assert message(engines[4]) == message(engines[1])

    def test_empty_selection_errors_match(self, engines):
        empty = Comparison("data_loss", CompareFunc.GREATER, 1 << 11)

        def message(engine):
            with pytest.raises(QueryError) as info:
                engine.minimum("data_count", empty)
            return str(info.value)

        assert message(engines[4]) == message(engines[1])

    def test_empty_selection_sum_is_zero_on_both(self, engines):
        empty = Comparison("data_loss", CompareFunc.GREATER, 1 << 11)
        assert engines[4].sum("data_count", empty).value == 0
        assert engines[4].sum("data_count", empty).value \
            == engines[1].sum("data_count", empty).value

    def test_selective_predicate_ids_carry_shard_offsets(
        self, engines, small_relation
    ):
        predicate = Comparison(
            "data_count", CompareFunc.GREATER, 520000
        )
        expected = np.flatnonzero(predicate.mask(small_relation))
        ids = engines[4].select(predicate).record_ids()
        assert np.array_equal(ids, expected)


class TestCostModel:
    def test_sharded_result_reports_critical_path_plus_combine(
        self, engines
    ):
        from repro.shard import COMBINE_MS_PER_SHARD

        result = engines[4].median("flow_rate")
        times = [
            part.total_time(engines[4].cost_model).total_ms
            for part in result.shard_results
        ]
        assert result.time_ms == pytest.approx(
            max(times) + COMBINE_MS_PER_SHARD * 4
        )

    def test_critical_path_beats_summed_shard_time(self, engines):
        result = engines[4].median("flow_rate")
        times = [
            part.total_time(engines[4].cost_model).total_ms
            for part in result.shard_results
        ]
        assert max(times) < sum(times)
