"""GpuEngine: public API, result objects, stats windows."""

import numpy as np
import pytest

from repro.core import Column, GpuEngine, Relation, col
from repro.core.engine import split_copy_stats
from repro.core.predicates import SemiLinear
from repro.errors import QueryError
from repro.gpu import GpuCostModel
from repro.gpu.types import CompareFunc


class TestSelect:
    def test_selection_result_fields(self, gpu_engine, small_relation):
        predicate = col("data_count") >= 100_000
        result = gpu_engine.select(predicate)
        expected = predicate.mask(small_relation)
        assert result.count == int(np.count_nonzero(expected))
        assert result.total_records == small_relation.num_records
        assert result.selectivity == pytest.approx(
            result.count / small_relation.num_records
        )
        assert result.valid_stencil in (1, 2)

    def test_record_ids_match_mask(self, gpu_engine, small_relation):
        predicate = col("flow_rate").between(1000, 20_000)
        result = gpu_engine.select(predicate)
        assert np.array_equal(
            result.record_ids(),
            np.flatnonzero(predicate.mask(small_relation)),
        )

    def test_records_materializes_relation(
        self, gpu_engine, small_relation
    ):
        predicate = col("data_loss") < 100
        subset = gpu_engine.select(predicate).records()
        assert subset.num_records == int(
            np.count_nonzero(predicate.mask(small_relation))
        )
        assert np.all(subset.column("data_loss").values < 100)

    def test_unknown_column_rejected(self, gpu_engine):
        with pytest.raises(QueryError):
            gpu_engine.select(col("nope") > 1)

    def test_detached_selection_rejects_record_ids(self, gpu_engine):
        result = gpu_engine.select(col("data_count") >= 0)
        result.engine = None
        with pytest.raises(QueryError):
            result.record_ids()


class TestStatsWindows:
    def test_copy_and_compute_split(self, gpu_engine):
        result = gpu_engine.select(col("data_count") >= 100_000)
        assert result.copy.num_passes == 1
        assert result.compute.num_passes >= 1
        for p in result.copy.passes:
            assert p.program.startswith("copy-to-depth")
        for p in result.compute.passes:
            assert not (p.program or "").startswith("copy-to-depth")

    def test_semilinear_has_no_copy_passes(self, gpu_engine):
        result = gpu_engine.select(
            col("data_count") > col("flow_rate")
        )
        assert result.copy.num_passes == 0

    def test_times_are_positive_and_additive(self, gpu_engine):
        model = GpuCostModel()
        result = gpu_engine.select(col("data_count") >= 100_000)
        copy_ms = result.copy_time(model).total_ms
        compute_ms = result.compute_time(model).total_ms
        assert copy_ms > 0
        assert compute_ms > 0
        assert result.total_time(model).total_ms == pytest.approx(
            copy_ms + compute_ms
        )
        assert gpu_engine.time_ms(result) == pytest.approx(
            result.total_time(gpu_engine.cost_model).total_ms
        )

    def test_windows_reset_between_ops(self, gpu_engine):
        first = gpu_engine.select(col("data_count") >= 100_000)
        second = gpu_engine.select(col("data_count") >= 100_000)
        assert (
            second.compute.num_passes == first.compute.num_passes
        )

    def test_texture_upload_not_charged_to_queries(self, small_relation):
        engine = GpuEngine(small_relation)
        result = engine.select(col("data_count") >= 0)
        assert result.compute.bytes_uploaded == 0

    def test_split_copy_stats_carries_bus_counters(self, gpu_engine):
        gpu_engine.device.stats.reset()
        gpu_engine.device.stats.bytes_read_back = 42
        gpu_engine.device.stats.occlusion_results = 3
        copy, compute = split_copy_stats(
            gpu_engine.device.stats.snapshot()
        )
        assert compute.bytes_read_back == 42
        assert compute.occlusion_results == 3
        assert copy.bytes_read_back == 0


class TestAggregateApi:
    def test_count_with_and_without_predicate(
        self, gpu_engine, small_relation
    ):
        assert (
            gpu_engine.count().value == small_relation.num_records
        )
        predicate = col("data_count") >= 100_000
        assert gpu_engine.count(predicate).count == int(
            np.count_nonzero(predicate.mask(small_relation))
        )

    def test_selectivity(self, gpu_engine, small_relation):
        predicate = col("data_count") >= 100_000
        assert gpu_engine.selectivity(predicate) == pytest.approx(
            np.count_nonzero(predicate.mask(small_relation))
            / small_relation.num_records
        )

    def test_sum_requires_integer_column(self):
        relation = Relation(
            "f", [Column.floating("x", [0.5, 1.5])]
        )
        engine = GpuEngine(relation)
        with pytest.raises(QueryError, match="integer"):
            engine.sum("x")

    def test_kth_out_of_range_rejected(self, gpu_engine):
        with pytest.raises(QueryError):
            gpu_engine.kth_largest("data_count", 0)
        with pytest.raises(QueryError):
            gpu_engine.kth_largest("data_count", 10**9)

    def test_kth_with_predicate_bounds_by_selection(
        self, gpu_engine, small_relation
    ):
        predicate = col("data_count") >= 500_000
        selected = int(
            np.count_nonzero(predicate.mask(small_relation))
        )
        with pytest.raises(QueryError):
            gpu_engine.kth_largest(
                "data_count", selected + 1, predicate
            )

    def test_min_of_empty_selection_rejected(self, gpu_engine):
        with pytest.raises(QueryError):
            gpu_engine.minimum(
                "data_count", col("data_count") > 10**6
            )

    def test_kth_smallest(self, gpu_engine, small_relation):
        values = small_relation.column("data_count").values
        got = gpu_engine.kth_smallest("data_count", 3).value
        assert got == int(np.sort(values)[2])

    def test_average_matches_numpy(self, gpu_engine, small_relation):
        values = small_relation.column("flow_rate").values
        assert gpu_engine.average(
            "flow_rate"
        ).value == pytest.approx(values.astype(np.int64).mean())


class TestTextureCaching:
    def test_column_texture_cached(self, gpu_engine):
        first, _, _ = gpu_engine.column_texture("data_count")
        second, _, _ = gpu_engine.column_texture("data_count")
        assert first is second

    def test_packed_texture_cached_by_name_tuple(self, gpu_engine):
        first = gpu_engine.packed_texture(("data_count", "flow_rate"))
        second = gpu_engine.packed_texture(("data_count", "flow_rate"))
        other = gpu_engine.packed_texture(("flow_rate", "data_count"))
        assert first is second
        assert first is not other

    def test_packed_texture_always_rgba(self, gpu_engine):
        texture = gpu_engine.packed_texture(("data_count",))
        assert texture.channels == 4

    def test_float_column_normalized_for_depth(self):
        relation = Relation(
            "f",
            [Column.floating("x", [-10.0, 0.0, 10.0])],
        )
        engine = GpuEngine(relation)
        texture, scale, _channel = engine.column_texture("x")
        assert scale == 1.0
        values = texture.valid_values()
        assert values.min() >= 0.0
        assert values.max() <= 1.0

    def test_float_column_comparisons_work(self):
        relation = Relation(
            "f",
            [
                Column.floating(
                    "x", [-10.0, -5.0, 0.0, 5.0, 10.0]
                )
            ],
        )
        engine = GpuEngine(relation)
        assert engine.select(col("x") >= 0.0).count == 3
        assert engine.select(col("x") < -5.0).count == 1
        assert engine.select(col("x").between(-5.0, 5.0)).count == 3


class TestWriteRecords:
    """``write_records``: an engine whose relation changed over some
    record spans answers what a fresh engine over the new records
    answers, for every kind of resident texture."""

    SEMILINEAR = SemiLinear(("a", "b"), (1.0, -1.0), CompareFunc.GEQUAL, 0.0)

    @staticmethod
    def _relation(a, b, c):
        return Relation("t", [
            Column.integer("a", a, bits=8),
            Column.integer("b", b, bits=8),
            Column.fixed_point("c", c, 2, bits=10),
        ])

    def _answers(self, engine):
        """Reads planar, packed-layout, semi-linear and fixed-point
        stored textures."""
        return (
            engine.count(col("a") >= 100).value,
            engine.median("a", col("b") < 128).value,
            engine.count(self.SEMILINEAR).value,
            engine.sum("c").value,
            engine.maximum("c", col("a") > 50).value,
        )

    @pytest.mark.parametrize("layout", ["planar", "packed"])
    def test_matches_a_fresh_engine(self, layout):
        rng = np.random.default_rng(7)

        def draw(n):
            return (
                rng.integers(0, 256, n), rng.integers(0, 256, n),
                rng.integers(0, 1024, n) / 4.0,
            )

        engine = GpuEngine(self._relation(*draw(100)), layout=layout)
        self._answers(engine)  # every texture kind is now resident
        a, b, c = draw(60)
        shrunk = self._relation(a, b, c)
        engine.write_records(shrunk, [(0, 60)])
        assert self._answers(engine) == self._answers(
            GpuEngine(shrunk, layout=layout)
        )
        a[10:25], b[10:25], c[10:25] = draw(15)
        partial = self._relation(a, b, c)
        engine.write_records(partial, [(10, 15)])
        assert self._answers(engine) == self._answers(
            GpuEngine(partial, layout=layout)
        )

    def test_charges_the_spans_of_each_planar_texture(self):
        relation = self._relation(np.arange(50), np.arange(50), np.zeros(50))
        engine = GpuEngine(relation)
        engine.column_texture("a")
        engine.column_texture("b")
        engine.device.stats.reset()
        engine.write_records(relation, [(40, 10), (0, 5)])
        assert engine.device.stats.bytes_uploaded == 2 * 15 * 4
