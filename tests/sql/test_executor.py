"""End-to-end SQL execution on both devices."""

import numpy as np
import pytest

from repro.core import Column, CpuEngine, Relation, col
from repro.errors import SqlPlanError
from repro.sql import Database, Device
from repro.sql.ast import ColumnItem, StarItem


@pytest.fixture(scope="module")
def database():
    rng = np.random.default_rng(21)
    relation = Relation(
        "t",
        [
            Column.integer("a", rng.integers(0, 1 << 12, 3000),
                           bits=12),
            Column.integer("b", rng.integers(0, 256, 3000), bits=8),
        ],
    )
    db = Database()
    db.register(relation)
    return db


class TestQueries:
    def test_count_where(self, database):
        relation = database.relation("t")
        expected = int(
            np.count_nonzero(relation.column("a").values >= 2048)
        )
        for device in (Device.GPU, Device.CPU, Device.AUTO):
            result = database.query(
                "SELECT COUNT(*) FROM t WHERE a >= 2048",
                device=device,
            )
            assert result.scalar == expected

    def test_multiple_aggregates_one_row(self, database):
        result = database.query(
            "SELECT COUNT(*), MIN(b), MAX(b), SUM(b) FROM t "
            "WHERE a BETWEEN 1000 AND 3000",
            device=Device.GPU,
        )
        relation = database.relation("t")
        a = relation.column("a").values
        b = relation.column("b").values.astype(np.int64)
        mask = (a >= 1000) & (a <= 3000)
        assert result.rows == [
            (
                int(mask.sum()),
                int(b[mask].min()),
                int(b[mask].max()),
                int(b[mask].sum()),
            )
        ]
        assert result.columns == [
            "COUNT(*)",
            "MIN(b)",
            "MAX(b)",
            "SUM(b)",
        ]

    def test_devices_agree_on_every_aggregate(self, database):
        sql = (
            "SELECT COUNT(*), SUM(b), AVG(b), MIN(b), MAX(b), "
            "MEDIAN(b) FROM t WHERE a >= 1024 AND b < 200"
        )
        gpu = database.query(sql, device=Device.GPU)
        cpu = database.query(sql, device=Device.CPU)
        for left, right in zip(gpu.rows[0], cpu.rows[0]):
            assert left == pytest.approx(right)

    def test_projection_rows(self, database):
        result = database.query(
            "SELECT a, b FROM t WHERE a >= 4000", device=Device.GPU
        )
        relation = database.relation("t")
        mask = relation.column("a").values >= 4000
        assert len(result) == int(mask.sum())
        expected_a = relation.column("a").values[mask].astype(int)
        assert result.column("a") == list(expected_a)
        assert all(isinstance(v, int) for v in result.column("a"))

    def test_star_projection(self, database):
        result = database.query(
            "SELECT * FROM t WHERE a = 0", device=Device.CPU
        )
        assert result.columns == ["a", "b"]

    def test_projection_without_where(self, database):
        result = database.query("SELECT b FROM t", device=Device.CPU)
        assert len(result) == 3000

    def test_alias_in_result_columns(self, database):
        result = database.query(
            "SELECT COUNT(*) AS n FROM t", device=Device.CPU
        )
        assert result.columns == ["n"]
        assert result.scalar == 3000

    def test_semilinear_where(self, database):
        relation = database.relation("t")
        a = relation.column("a").values
        b = relation.column("b").values
        expected = int(np.count_nonzero(a > b))
        result = database.query(
            "SELECT COUNT(*) FROM t WHERE a > b", device=Device.GPU
        )
        assert result.scalar == expected

    def test_cpu_count_scans_the_where_once(self, database):
        # The COUNT item reuses the probe's count on the CPU as it does
        # on the GPU: one selection op, charged one predicate scan.
        result = database.query(
            "SELECT COUNT(*) FROM t WHERE b > 100", device=Device.CPU
        )
        scan = CpuEngine(database.relation("t")).select(col("b") > 100)
        assert result.scalar == scan.count
        assert len(result.op_results) == 1
        assert result.time_ms == scan.time_ms


class TestErrors:
    def test_unknown_table(self, database):
        with pytest.raises(SqlPlanError, match="unknown table"):
            database.query("SELECT * FROM missing")

    def test_mixed_aggregate_and_column_rejected(self, database):
        with pytest.raises(SqlPlanError, match="mixing aggregates"):
            database.query("SELECT COUNT(*), a FROM t", device=Device.CPU)
        with pytest.raises(SqlPlanError, match="mixing aggregates"):
            database.query("SELECT COUNT(*), a FROM t", device=Device.GPU)

    def test_scalar_on_multi_column_result(self, database):
        result = database.query(
            "SELECT COUNT(*), SUM(b) FROM t", device=Device.CPU
        )
        with pytest.raises(SqlPlanError, match="scalar"):
            result.scalar

    def test_missing_result_column(self, database):
        result = database.query("SELECT COUNT(*) FROM t", device=Device.CPU)
        with pytest.raises(SqlPlanError, match="no result column"):
            result.column("zzz")

    def test_register_replaces_engines(self, database):
        # Re-registering a table must invalidate cached engines.
        relation = Relation(
            "tmp", [Column.integer("x", [1, 2, 3])]
        )
        database.register(relation)
        assert database.query(
            "SELECT COUNT(*) FROM tmp", device=Device.CPU
        ).scalar == 3
        replacement = Relation(
            "tmp", [Column.integer("x", [1, 2, 3, 4])]
        )
        database.register(replacement)
        assert database.query(
            "SELECT COUNT(*) FROM tmp", device=Device.CPU
        ).scalar == 4


class TestPlanSurface:
    def test_plan_exposed_on_result(self, database):
        result = database.query(
            "SELECT COUNT(*) FROM t WHERE a > 100", device=Device.AUTO
        )
        assert result.plan.estimated_gpu_s > 0
        assert result.plan.estimated_cpu_s > 0
        assert result.device is result.plan.chosen_device


class TestProjectRows:
    """``Database._project`` builds its rows column by column; they
    equal one ``.item()`` per cell, Python types included."""

    @staticmethod
    def _cellwise(relation, ids, names):
        arrays = [
            relation.column(name).values[ids].astype(np.int64)
            if relation.column(name).is_integer
            else relation.column(name).values[ids]
            for name in names
        ]
        return [
            tuple(array[i].item() for array in arrays)
            for i in range(ids.size)
        ]

    @pytest.fixture(scope="class")
    def relation(self):
        rng = np.random.default_rng(4)
        return Relation(
            "mixed",
            [
                Column.integer("i", rng.integers(-500, 500, 64), bits=12),
                Column.fixed_point("f", rng.uniform(0, 100, 64), 3),
                Column.floating("g", rng.normal(size=64)),
            ],
        )

    @pytest.mark.parametrize(
        "ids", [np.arange(64)[::3], np.array([], dtype=np.int64)],
        ids=["rows", "empty"],
    )
    def test_rows_and_types_match_cellwise_items(self, relation, ids):
        items = [StarItem(), ColumnItem("g", alias="h")]
        rows, labels = Database._project(relation, ids, items)
        names = ["i", "f", "g", "g"]
        assert labels == ["i", "f", "g", "h"]
        expected = self._cellwise(relation, ids, names)
        assert rows == expected
        assert [tuple(map(type, row)) for row in rows] == [
            tuple(map(type, row)) for row in expected
        ]
        if ids.size:
            assert tuple(map(type, rows[0])) == (int, float, float, float)
