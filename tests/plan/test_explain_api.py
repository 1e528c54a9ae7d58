"""The unified result/explain API: Database.explain, the Device enum,
and the cost accessors shared by GpuOpResult / CpuOpResult / QueryResult."""

import pytest

from repro.core import CpuEngine, GpuEngine
from repro.errors import SqlPlanError
from repro.gpu.counters import PipelineStats
from repro.gpu.jit import KernelCache, kernel_summary
from repro.plan import PassSchedule
from repro.sql import Database, Device, DeviceChoice


SQL = (
    "SELECT COUNT(*), MEDIAN(data_count) FROM tcpip "
    "WHERE data_count >= 1000 AND data_count < 400000"
)


@pytest.fixture()
def db(small_relation):
    database = Database()
    database.register(small_relation)
    return database


class TestDeviceEnum:
    def test_device_is_devicechoice(self):
        assert Device is DeviceChoice

    def test_enum_accepted_without_warning(self, db, recwarn):
        db.query(SQL, device=Device.GPU)
        db.plan(SQL, device=Device.AUTO)
        deprecations = [
            w for w in recwarn.list
            if issubclass(w.category, DeprecationWarning)
        ]
        assert not deprecations

    def test_string_form_removed(self, db):
        """The deprecated string device form is gone: strings raise a
        typed plan error that names the enum to use instead."""
        with pytest.raises(SqlPlanError, match="removed"):
            db.query(SQL, device="gpu")
        with pytest.raises(SqlPlanError, match="Device.GPU"):
            db.plan(SQL, device="cpu")
        with pytest.raises(SqlPlanError):
            db.explain(SQL, device="auto")

    def test_unknown_device_still_typed_error(self, db):
        with pytest.raises(SqlPlanError):
            db.query(SQL, device="warp-drive")
        with pytest.raises(SqlPlanError):
            db.query(SQL, device=42)

    def test_result_device_field_is_enum(self, db):
        assert db.query(SQL, device=Device.CPU).device is Device.CPU


class TestExplain:
    def test_explain_returns_a_fused_schedule(self, db):
        schedule = db.explain(SQL, device=Device.GPU)
        assert isinstance(schedule, PassSchedule)
        assert schedule.device == "gpu"
        # Same-column CNF plus a same-column aggregate: everything
        # rides a single copy-to-depth.
        assert schedule.copy_passes == 1
        assert schedule.fused_copies >= 2

    def test_explain_renders_text(self, db):
        text = db.explain(SQL, device=Device.GPU).render_text()
        assert "schedule query ON tcpip [gpu]" in text
        assert "copy-to-depth data_count" in text
        assert "fusion saved" in text

    def test_explain_does_not_execute(self, db, small_relation):
        db.explain(SQL, device=Device.GPU)
        engine = db.gpu_engine(small_relation.name)
        assert engine.plan.stats.depth_misses == 0

    def test_unfused_explain_shows_the_baseline(self, db):
        fused = db.explain(SQL, device=Device.GPU)
        unfused = db.explain(SQL, device=Device.GPU, fuse=False)
        assert unfused.copy_passes > fused.copy_passes
        assert fused.copy_passes <= 0.7 * unfused.copy_passes

    def test_explain_respects_auto_choice(self, db):
        schedule = db.explain(SQL)  # AUTO resolves via the cost model
        assert schedule.device in ("gpu", "cpu")


class TestUnifiedAccessors:
    def test_gpu_op_result_accessors(self, small_relation):
        result = GpuEngine(small_relation).median("data_count")
        assert result.pass_count > 0
        assert result.time_ms > 0
        assert isinstance(result.stats, PipelineStats)
        assert result.stats.num_passes == result.pass_count

    def test_cpu_op_result_accessors(self, small_relation):
        result = CpuEngine(small_relation).median("data_count")
        assert result.pass_count == 0
        assert result.time_ms == result.modeled_ms
        assert result.stats.num_passes == 0

    def test_query_result_gpu_accessors(self, db):
        result = db.query(SQL, device=Device.GPU)
        assert result.pass_count > 0
        assert result.time_ms > 0
        assert result.stats.num_passes == result.pass_count
        assert result.op_results  # the probe + median at minimum

    def test_query_result_cpu_accessors(self, db):
        result = db.query(SQL, device=Device.CPU)
        assert result.pass_count == 0
        assert result.time_ms > 0
        assert result.stats.num_passes == 0

    def test_count_items_reuse_the_probe(self, db, small_relation):
        """COUNT(*) with a WHERE must not re-run the selection: the
        executor reuses the probe's count (the fused lowering)."""
        result = db.query(SQL, device=Device.GPU)
        ops = [
            span
            for r in result.op_results
            for span in [r]
        ]
        # Exactly one probe count; MEDIAN rides the stencil cache.
        assert len(ops) == 2
        expected = db.query(SQL, device=Device.CPU)
        assert result.rows == expected.rows


class TestExplainKernels:
    def test_kernel_lines_are_the_bound_variants(
        self, db, small_relation, monkeypatch
    ):
        """``explain(sql, jit=True)`` names each program compiled for
        exactly the live mask the device binds it with while the same
        query runs."""
        sql = (
            "SELECT SUM(data_count), MEDIAN(flow_rate) FROM tcpip "
            "WHERE data_count >= 1000"
        )
        explained = db.explain(sql, device=Device.GPU, jit=True)
        bound = []
        original = KernelCache.get_or_bind

        def spy(self, program, live, textures, parameters):
            bound.append(kernel_summary(program, live))
            return original(self, program, live, textures, parameters)

        monkeypatch.setattr(KernelCache, "get_or_bind", spy)
        db.gpu_engine(small_relation.name).device.jit = True
        db.query(sql, device=Device.GPU)
        assert explained.meta["kernels"] == list(dict.fromkeys(bound))
        assert any(
            line.startswith("test-bit.x: 4/5 ops after DCE, live o[COLR].w")
            for line in explained.meta["kernels"]
        )
