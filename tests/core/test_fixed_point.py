"""Fixed-point columns (the section 4.3.3 Accumulator extension)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Column, CpuEngine, GpuEngine, Relation, col
from repro.errors import DataError, QueryError
from repro.sql import Device


def _price_relation(seed=6, records=600, fraction_bits=2):
    rng = np.random.default_rng(seed)
    step = 1 << fraction_bits
    prices = rng.integers(0, 4000, records) / step
    return Relation(
        "sales",
        [
            Column.fixed_point(
                "price", prices, fraction_bits=fraction_bits
            ),
            Column.integer("qty", rng.integers(1, 50, records), bits=6),
        ],
    )


class TestColumn:
    def test_construction(self):
        column = Column.fixed_point("p", [0.25, 1.5, 3.75], 2)
        assert column.is_fixed_point
        assert column.supports_bit_slicing
        assert not column.is_integer
        assert np.array_equal(
            column.stored_values(), [1.0, 6.0, 15.0]
        )
        assert column.from_stored(6) == 1.5

    def test_quantization_rounds(self):
        column = Column.fixed_point("p", [0.3], 2)  # -> 0.25
        assert column.values[0] == 0.25

    def test_validation(self):
        with pytest.raises(DataError):
            Column.fixed_point("p", [-1.0], 2)
        with pytest.raises(DataError):
            Column.fixed_point("p", [1.0], 0)
        with pytest.raises(DataError):
            Column.fixed_point("p", [1.0], 24)
        with pytest.raises(DataError):
            # 2**23 * 2**2 = 2**25 stored: too wide.
            Column.fixed_point("p", [float(1 << 23)], 2)

    def test_depth_normalization_exact(self):
        column = Column.fixed_point("p", [100.25], 4)
        from repro.gpu.framebuffer import depth_to_code

        code = depth_to_code(column.normalize(100.25))
        stored = int(100.25 * 16)
        assert int(code) == stored << (24 - column.bits)

    def test_integer_column_has_no_fraction(self):
        column = Column.integer("a", [1, 2, 3])
        assert not column.is_fixed_point
        assert column.supports_bit_slicing
        assert column.from_stored(7) == 7

    def test_float_column_rejects_stored_access(self):
        column = Column.floating("f", [0.5])
        with pytest.raises(DataError):
            column.stored_values()
        with pytest.raises(DataError):
            column.from_stored(1)


class TestQueries:
    def test_selections_with_fractional_constants(self):
        relation = _price_relation()
        gpu = GpuEngine(relation)
        cpu = CpuEngine(relation)
        prices = relation.column("price").values
        for predicate, reference in [
            (col("price") >= 500.25, prices >= 500.25),
            (col("price") < 10.5, prices < 10.5),
            (
                col("price").between(100.5, 700.75),
                (prices >= 100.5) & (prices <= 700.75),
            ),
        ]:
            expected = int(np.count_nonzero(reference))
            assert gpu.select(predicate).count == expected
            assert cpu.select(predicate).count == expected

    def test_sum_is_exact(self):
        relation = _price_relation()
        gpu = GpuEngine(relation)
        cpu = CpuEngine(relation)
        stored = relation.column("price").stored_values()
        expected = float(stored.astype(np.int64).sum()) / 4
        assert gpu.sum("price").value == expected
        assert cpu.sum("price").value == expected

    def test_order_statistics(self):
        relation = _price_relation()
        gpu = GpuEngine(relation)
        cpu = CpuEngine(relation)
        prices = relation.column("price").values
        descending = np.sort(prices)[::-1]
        for k in (1, 10, 300):
            g = gpu.kth_largest("price", k).value
            assert g == cpu.kth_largest("price", k).value
            assert g == float(descending[k - 1])
        assert gpu.maximum("price").value == float(prices.max())
        assert gpu.minimum("price").value == float(prices.min())

    def test_masked_aggregates(self):
        relation = _price_relation()
        gpu = GpuEngine(relation)
        cpu = CpuEngine(relation)
        predicate = col("qty") >= 25
        assert (
            gpu.median("price", predicate).value
            == cpu.median("price", predicate).value
        )
        assert (
            gpu.sum("price", predicate).value
            == cpu.sum("price", predicate).value
        )
        assert gpu.average(
            "price", predicate
        ).value == pytest.approx(
            cpu.average("price", predicate).value
        )

    def test_top_k_thresholds_in_value_units(self):
        relation = _price_relation()
        gpu = GpuEngine(relation)
        cpu = CpuEngine(relation)
        g = gpu.top_k("price", 9).value
        c = cpu.top_k("price", 9).value
        assert g.threshold == c.threshold
        assert g.threshold == float(
            np.sort(relation.column("price").values)[::-1][8]
        )
        assert np.array_equal(g.record_ids, c.record_ids)

    @given(
        seed=st.integers(0, 20),
        fraction_bits=st.integers(1, 6),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_engines_agree(self, seed, fraction_bits):
        relation = _price_relation(
            seed=seed, records=150, fraction_bits=fraction_bits
        )
        gpu = GpuEngine(relation)
        cpu = CpuEngine(relation)
        assert gpu.sum("price").value == cpu.sum("price").value
        assert (
            gpu.median("price").value == cpu.median("price").value
        )
        threshold = float(relation.column("price").values.mean())
        predicate = col("price") >= threshold
        assert (
            gpu.select(predicate).count == cpu.select(predicate).count
        )

    def test_sql_aggregates_accept_fixed_point(self):
        from repro.sql import Database

        relation = _price_relation()
        db = Database()
        db.register(relation)
        gpu_row = db.query(
            "SELECT SUM(price), MEDIAN(price) FROM sales",
            device=Device.GPU,
        ).rows[0]
        cpu_row = db.query(
            "SELECT SUM(price), MEDIAN(price) FROM sales",
            device=Device.CPU,
        ).rows[0]
        assert gpu_row == cpu_row

    def test_float_columns_still_rejected_for_bit_slicing(self):
        relation = Relation(
            "f", [Column.floating("x", [0.5, 1.5])]
        )
        with pytest.raises(QueryError):
            GpuEngine(relation).sum("x")

    @pytest.mark.parametrize("engine_kind", ["gpu", "gpu-sharded", "cpu"])
    def test_histogram_rejects_fixed_point(self, engine_kind):
        # The histogram's edges span the value range of an integer
        # column; over a fixed-point column's stored width they would
        # put every value in the first bucket.
        rng = np.random.default_rng(5)
        relation = Relation("fx", [
            Column.fixed_point(
                "p", rng.integers(0, 4000, 5001) / 8.0, fraction_bits=3
            ),
        ])
        engine = {
            "gpu": lambda: GpuEngine(relation, shards=1),
            "gpu-sharded": lambda: GpuEngine(relation, shards=2),
            "cpu": lambda: CpuEngine(relation),
        }[engine_kind]()
        with pytest.raises(
            QueryError, match="histogram requires an integer column"
        ):
            engine.histogram("p", 5)
