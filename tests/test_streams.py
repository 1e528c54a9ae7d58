"""Continuous queries over streams (the section 7 extension)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import col
from repro.core.predicates import SemiLinear
from repro.errors import (
    DataError,
    DepthPrecisionError,
    DeviceLostError,
    QueryError,
)
from repro.faults import (
    FaultKind,
    FaultPlan,
    FaultRule,
    ResilientExecutor,
    use_faults,
)
from repro.gpu.texture import texture_shape_for
from repro.gpu.types import CompareFunc
from repro.streams import KINDS, ContinuousQuery, StreamEngine


def _engine(capacity=100):
    return StreamEngine([("v", 8), ("g", 3)], capacity=capacity)


def _batch(rng, size):
    return {
        "v": rng.integers(0, 256, size),
        "g": rng.integers(0, 8, size),
    }


class TestConstruction:
    def test_schema_validation(self):
        with pytest.raises(DataError):
            StreamEngine([], capacity=10)
        with pytest.raises(DataError):
            StreamEngine([("v", 8)], capacity=0)
        with pytest.raises(DataError):
            StreamEngine([("v", 25)], capacity=10)
        with pytest.raises(DataError):
            StreamEngine([("v", 8), ("v", 8)], capacity=10)

    def test_query_validation(self):
        engine = _engine()
        with pytest.raises(QueryError):
            ContinuousQuery("q", "bogus")
        with pytest.raises(QueryError):
            ContinuousQuery("q", "sum")  # needs a column
        with pytest.raises(QueryError):
            ContinuousQuery("q", "kth_largest", column="v")  # needs k
        with pytest.raises(QueryError):
            engine.register(
                ContinuousQuery("q", "sum", column="missing")
            )
        with pytest.raises(QueryError):
            engine.register(
                ContinuousQuery(
                    "q", "count", predicate=col("missing") > 1
                )
            )

    def test_register_unregister(self):
        engine = _engine()
        engine.register(ContinuousQuery("a", "count"))
        engine.register(ContinuousQuery("b", "sum", column="v"))
        assert engine.queries == ["a", "b"]
        engine.unregister("a")
        assert engine.queries == ["b"]


class TestBatchValidation:
    def test_missing_column(self):
        engine = _engine()
        with pytest.raises(DataError, match="missing"):
            engine.append({"v": np.array([1])})

    def test_length_mismatch(self):
        engine = _engine()
        with pytest.raises(DataError, match="equal length"):
            engine.append(
                {"v": np.array([1, 2]), "g": np.array([1])}
            )

    def test_out_of_domain_values(self):
        engine = _engine()
        with pytest.raises(DataError, match="outside"):
            engine.append(
                {"v": np.array([256]), "g": np.array([0])}
            )
        with pytest.raises(DataError, match="outside"):
            engine.append(
                {"v": np.array([-1]), "g": np.array([0])}
            )

    def test_empty_batch_is_a_tick(self):
        engine = _engine()
        engine.register(ContinuousQuery("n", "count"))
        tick = engine.append(
            {"v": np.array([]), "g": np.array([])}
        )
        assert tick.window_size == 0
        assert tick.results["n"] is None

    def test_oversized_batch_keeps_newest(self):
        engine = _engine(capacity=10)
        engine.register(ContinuousQuery("mx", "maximum", column="v"))
        values = np.arange(30) % 256
        tick = engine.append(
            {"v": values, "g": np.zeros(30, dtype=np.int64)}
        )
        assert tick.window_size == 10
        window = engine.window_relation().column("v").values
        assert set(window.astype(int)) == set(range(20, 30))


class TestSlidingWindow:
    def test_matches_reference_across_wraps(self):
        rng = np.random.default_rng(1)
        engine = _engine(capacity=100)
        engine.register(ContinuousQuery("n", "count"))
        engine.register(
            ContinuousQuery("hot", "count", predicate=col("v") >= 200)
        )
        engine.register(ContinuousQuery("med", "median", column="v"))
        engine.register(ContinuousQuery("sum", "sum", column="v"))
        engine.register(
            ContinuousQuery("mn", "minimum", column="v")
        )
        history = []
        for _ in range(7):
            batch = _batch(rng, 37)
            history.append(batch["v"])
            tick = engine.append(batch)
            window = np.concatenate(history)[-100:]
            descending = np.sort(window)[::-1]
            assert tick.results["n"] == window.size
            assert tick.results["hot"] == int((window >= 200).sum())
            assert tick.results["sum"] == int(window.sum())
            assert tick.results["mn"] == int(window.min())
            assert tick.results["med"] == int(
                descending[(window.size + 1) // 2 - 1]
            )

    def test_boolean_predicates_on_stream(self):
        rng = np.random.default_rng(2)
        engine = _engine(capacity=80)
        predicate = (col("v") >= 100) & (col("g") < 4)
        engine.register(
            ContinuousQuery("sel", "selectivity", predicate=predicate)
        )
        history_v, history_g = [], []
        for _ in range(4):
            batch = _batch(rng, 30)
            history_v.append(batch["v"])
            history_g.append(batch["g"])
            tick = engine.append(batch)
            v = np.concatenate(history_v)[-80:]
            g = np.concatenate(history_g)[-80:]
            expected = ((v >= 100) & (g < 4)).sum() / v.size
            assert tick.results["sel"] == pytest.approx(expected)

    def test_predicated_aggregate_over_window(self):
        rng = np.random.default_rng(3)
        engine = _engine(capacity=60)
        engine.register(
            ContinuousQuery(
                "avg_hot",
                "average",
                column="v",
                predicate=col("g") == 1,
            )
        )
        history_v, history_g = [], []
        for _ in range(5):
            batch = _batch(rng, 25)
            history_v.append(batch["v"])
            history_g.append(batch["g"])
            tick = engine.append(batch)
            v = np.concatenate(history_v)[-60:]
            g = np.concatenate(history_g)[-60:]
            selected = v[g == 1]
            if selected.size == 0:
                assert tick.results["avg_hot"] is None
            else:
                assert tick.results["avg_hot"] == pytest.approx(
                    selected.mean()
                )

    def test_kth_larger_than_window_returns_none(self):
        engine = _engine(capacity=50)
        engine.register(
            ContinuousQuery("k", "kth_largest", column="v", k=10)
        )
        tick = engine.append(
            {"v": np.arange(5), "g": np.zeros(5, dtype=np.int64)}
        )
        assert tick.results["k"] is None

    @given(
        batches=st.lists(
            st.lists(st.integers(0, 255), min_size=1, max_size=20),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_property_sum_tracks_window(self, batches):
        engine = StreamEngine([("v", 8)], capacity=30)
        engine.register(ContinuousQuery("s", "sum", column="v"))
        history = []
        for values in batches:
            history.extend(values)
            tick = engine.append({"v": np.array(values)})
            assert tick.results["s"] == sum(history[-30:])


class TestCostAccounting:
    def test_appends_pay_batch_proportional_upload(self):
        engine = StreamEngine([("v", 8)], capacity=10_000)
        engine.register(ContinuousQuery("n", "count"))
        small = engine.append({"v": np.zeros(10, dtype=np.int64)})
        large = engine.append(
            {"v": np.zeros(5_000, dtype=np.int64)}
        )
        assert large.gpu_time.upload_s > small.gpu_time.upload_s

    def test_tick_cost_positive(self):
        engine = _engine()
        engine.register(ContinuousQuery("m", "median", column="v"))
        tick = engine.append(
            {
                "v": np.arange(50) % 256,
                "g": np.zeros(50, dtype=np.int64),
            }
        )
        assert tick.gpu_ms > 0

    def test_semilinear_query_on_stream(self):
        from repro.core.predicates import SemiLinear
        from repro.gpu.types import CompareFunc

        rng = np.random.default_rng(4)
        engine = _engine(capacity=40)
        predicate = SemiLinear(
            ("v", "g"), (1.0, -10.0), CompareFunc.GEQUAL, 50.0
        )
        engine.register(
            ContinuousQuery("sl", "count", predicate=predicate)
        )
        history_v, history_g = [], []
        for _ in range(3):
            batch = _batch(rng, 20)
            history_v.append(batch["v"])
            history_g.append(batch["g"])
            tick = engine.append(batch)
            v = np.concatenate(history_v)[-40:].astype(np.float32)
            g = np.concatenate(history_g)[-40:].astype(np.float32)
            expected = int((v - 10 * g >= 50).sum())
            # Ring placement reorders records but not counts.
            assert tick.results["sl"] == expected

    def test_window_relation_empty_rejected(self):
        engine = _engine()
        with pytest.raises(QueryError):
            engine.window_relation()


class TestErrorPaths:
    def test_register_against_unknown_column(self):
        engine = _engine()
        with pytest.raises(QueryError, match="unknown column"):
            engine.register(
                ContinuousQuery("q", "median", column="dropped")
            )
        with pytest.raises(QueryError, match="unknown predicate"):
            engine.register(
                ContinuousQuery(
                    "q", "count", predicate=col("dropped") > 1
                )
            )
        assert engine.queries == []  # nothing half-registered

    def test_unregister_unknown_query_is_a_noop(self):
        engine = _engine()
        engine.register(ContinuousQuery("keep", "count"))
        engine.unregister("never-registered")
        assert engine.queries == ["keep"]

    def test_fault_without_executor_propagates(self, monkeypatch):
        engine = _engine()
        engine.register(ContinuousQuery("med", "median", column="v"))

        def boom(*_args, **_kwargs):
            raise DeviceLostError("median pass lost")

        monkeypatch.setattr("repro.core.aggregates.bit_search", boom)
        with pytest.raises(DeviceLostError):
            engine.append(
                {
                    "v": np.arange(20) % 256,
                    "g": np.zeros(20, dtype=np.int64),
                }
            )


class TestResilience:
    def _resilient_engine(self, capacity=100):
        executor = ResilientExecutor()
        engine = StreamEngine(
            [("v", 8), ("g", 3)], capacity=capacity, executor=executor
        )
        return engine, executor

    def test_one_query_degrades_while_others_proceed(
        self, monkeypatch
    ):
        engine, executor = self._resilient_engine()
        engine.register(ContinuousQuery("n", "count"))
        engine.register(
            ContinuousQuery("hot", "count", predicate=col("v") >= 200)
        )
        engine.register(ContinuousQuery("med", "median", column="v"))

        def boom(*_args, **_kwargs):
            raise DeviceLostError("median pass lost")

        monkeypatch.setattr("repro.core.aggregates.bit_search", boom)
        values = (np.arange(50) * 7) % 256
        tick = engine.append(
            {"v": values, "g": np.zeros(50, dtype=np.int64)}
        )

        assert list(tick.degraded) == ["med"]
        assert "DeviceLostError" in tick.degraded["med"]
        # The degraded query still answers — host-side, exactly.
        descending = np.sort(values)[::-1]
        assert tick.results["med"] == int(
            descending[(values.size + 1) // 2 - 1]
        )
        # The healthy queries ran on the GPU, untouched.
        assert tick.results["n"] == 50
        assert tick.results["hot"] == int((values >= 200).sum())
        assert executor.stats.fallbacks["stream:med"] == 1
        # The engine op retried and gave up; the stream degraded once.
        assert executor.stats.gave_up["median"] == 1

    def test_fault_plan_degrades_predicated_queries(self):
        engine, executor = self._resilient_engine()
        engine.register(ContinuousQuery("n", "count"))
        engine.register(
            ContinuousQuery("hot", "count", predicate=col("v") >= 100)
        )
        plan = FaultPlan(
            [FaultRule(FaultKind.OCCLUSION, max_fires=None)],
            stats=executor.stats,
        )
        values = (np.arange(60) * 3) % 256
        with use_faults(plan):
            tick = engine.append(
                {"v": values, "g": np.zeros(60, dtype=np.int64)}
            )
        # The predicate-free count never touches the substrate; the
        # predicated one loses every occlusion result and degrades.
        assert "hot" in tick.degraded
        assert "n" not in tick.degraded
        assert tick.results["n"] == 60
        assert tick.results["hot"] == int((values >= 100).sum())

    def test_append_retries_transient_upload_fault(self):
        engine, executor = self._resilient_engine()
        engine.register(ContinuousQuery("s", "sum", column="v"))
        plan = FaultPlan(
            [FaultRule(FaultKind.MEMORY, max_fires=1)],
            stats=executor.stats,
        )
        values = np.arange(30) % 256
        with use_faults(plan):
            tick = engine.append(
                {"v": values, "g": np.zeros(30, dtype=np.int64)}
            )
        assert plan.fired(FaultKind.MEMORY) == 1
        assert executor.stats.retries["stream_append"] == 1
        assert tick.degraded == {}
        assert tick.results["s"] == int(values.sum())

    def test_degradation_keeps_tracking_across_ticks(self):
        """After a degraded tick the engine recovers: the next clean
        tick runs fully on the GPU again."""
        engine, executor = self._resilient_engine(capacity=40)
        engine.register(
            ContinuousQuery("hot", "count", predicate=col("v") >= 50)
        )
        plan = FaultPlan(
            [FaultRule(FaultKind.OCCLUSION, max_fires=None)],
            stats=executor.stats,
        )
        first = np.arange(20) % 256
        with use_faults(plan):
            degraded_tick = engine.append(
                {"v": first, "g": np.zeros(20, dtype=np.int64)}
            )
        assert "hot" in degraded_tick.degraded

        second = (np.arange(20) + 100) % 256
        clean_tick = engine.append(
            {"v": second, "g": np.zeros(20, dtype=np.int64)}
        )
        window = np.concatenate([first, second])[-40:]
        assert clean_tick.degraded == {}
        assert clean_tick.results["hot"] == int((window >= 50).sum())


class TestHostPathDifferential:
    """A query forced onto the host path answers exactly what the clean
    GPU path answers, tick by tick, across ring wrap-arounds."""

    CAPACITY = 37

    PREDICATES = {
        "all": None,
        "hot": col("v") >= 150,
        "none": col("v") > 255,
    }

    def _queries(self):
        queries = []
        for kind in KINDS:
            for label, predicate in self.PREDICATES.items():
                queries.append(ContinuousQuery(
                    f"{kind}-{label}",
                    kind,
                    column=None if kind in ("count", "selectivity")
                    else "v",
                    predicate=predicate,
                    k=3 if kind == "kth_largest" else None,
                ))
        queries.append(ContinuousQuery(
            "kth-over-window", "kth_largest", column="v",
            k=self.CAPACITY + 5,
        ))
        return queries

    def test_degraded_answers_match_clean(self):
        clean = StreamEngine(
            [("v", 8), ("g", 3)], capacity=self.CAPACITY,
            executor=ResilientExecutor(),
        )
        forced = StreamEngine(
            [("v", 8), ("g", 3)], capacity=self.CAPACITY,
            executor=ResilientExecutor(),
        )

        def gpu_fails(*_args, **_kwargs):
            raise DepthPrecisionError("forced onto the host path")

        forced._evaluate_one = gpu_fails
        queries = self._queries()
        for query in queries:
            clean.register(query)
            forced.register(query)
        rng = np.random.default_rng(41)
        # 15-record ticks into a 37-slot ring: the writes straddle the
        # ring's end on the third and fifth ticks.
        for _tick in range(6):
            batch = _batch(rng, 15)
            expected = clean.append(batch)
            got = forced.append(batch)
            assert expected.degraded == {}
            assert sorted(got.degraded) == sorted(q.name for q in queries)
            assert {
                name: (type(value), value)
                for name, value in got.results.items()
            } == {
                name: (type(value), value)
                for name, value in expected.results.items()
            }


class TestEngineRouting:
    """Continuous queries run through the stream's GpuEngine: JIT and
    interpreter agree, debug mode verifies every schedule, one tick's
    queries share depth copies, and uploads cost what they always did."""

    SEMILINEAR = SemiLinear(
        ("v", "g"), (1.0, -10.0), CompareFunc.GEQUAL, 50.0
    )

    def _stream(self):
        stream = StreamEngine(
            [("v", 8), ("g", 3)], capacity=TestHostPathDifferential.CAPACITY
        )
        for query in TestHostPathDifferential()._queries():
            stream.register(query)
        stream.register(ContinuousQuery(
            "sum-semilinear", "sum", column="v", predicate=self.SEMILINEAR
        ))
        return stream

    def _ticks(self, stream, count=6, seed=43):
        rng = np.random.default_rng(seed)
        # 15-record ticks into a 37-slot ring wrap on the third and
        # fifth ticks.
        return [stream.append(_batch(rng, 15)) for _ in range(count)]

    def test_jit_and_interpreter_agree(self):
        jit, interpreted = self._stream(), self._stream()
        jit.device.jit = True
        interpreted.device.jit = False
        for got, expected in zip(
            self._ticks(interpreted), self._ticks(jit)
        ):
            assert {
                name: (type(value), value)
                for name, value in got.results.items()
            } == {
                name: (type(value), value)
                for name, value in expected.results.items()
            }
            assert got.gpu_time == expected.gpu_time

    def test_debug_mode_verifies_every_schedule(self):
        stream = self._stream()
        stream.engine.debug = True
        rng = np.random.default_rng(44)
        verified = [0]
        for _ in range(3):
            stream.append(_batch(rng, 15))
            verified.append(stream.engine.debug_verifications)
            assert verified[-1] > verified[-2]

    def test_predicate_and_median_share_one_depth_copy(self):
        stream = _engine(capacity=50)
        stream.register(ContinuousQuery(
            "med-hot", "median", column="v", predicate=col("v") >= 100
        ))
        rng = np.random.default_rng(5)
        for _ in range(4):
            tick = stream.append(_batch(rng, 20))
            assert tick.results["med-hot"] is not None
            copies = [
                p for p in stream.device.stats.passes
                if (p.program or "").startswith("copy-to-depth")
            ]
            assert len(copies) == 1

    def test_semilinear_upload_bytes_per_tick(self):
        """Every tick uploads the batch of each attribute plus the
        whole packed RGBA layout the semi-linear query reads, from its
        first tick on and only while it is registered."""
        capacity, batch = 37, 15
        height, width = texture_shape_for(capacity)
        packed = height * width * 4 * 4
        stream = _engine(capacity=capacity)
        stream.register(ContinuousQuery("n", "count"))
        rng = np.random.default_rng(6)
        stream.append(_batch(rng, batch))
        assert stream.device.stats.bytes_uploaded == batch * 2 * 4
        stream.register(ContinuousQuery(
            "sl", "count", predicate=self.SEMILINEAR
        ))
        for _ in range(4):
            stream.append(_batch(rng, batch))
            assert stream.device.stats.bytes_uploaded == (
                batch * 2 * 4 + packed
            )
        stream.unregister("sl")
        stream.append(_batch(rng, batch))
        assert stream.device.stats.bytes_uploaded == batch * 2 * 4
