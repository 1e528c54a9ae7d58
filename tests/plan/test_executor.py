"""The unified execution choke point: ``GpuEngine.execute_schedule``.

Every named engine op, every SQL statement, and every service query
must funnel through one entry point so the verifier, tracer, fault
retries, deadlines and the JIT toggle all hook a single place.  These
tests pin that contract, the executor's refusal modes, and
deadline/breaker behaviour exercised *through* the choke point.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import CpuEngine, GpuEngine
from repro.core.predicates import Between, Comparison
from repro.errors import QueryError, QueryTimeoutError
from repro.faults import (
    CircuitBreaker,
    Deadline,
    FaultKind,
    FaultPlan,
    FaultRule,
    ManualClock,
    ResilientExecutor,
    use_deadline,
    use_faults,
)
from repro.gpu.types import CompareFunc
from repro.plan import ScheduleExecutor, compiler
from repro.service import QueryService
from repro.sql import Database, Device


def _pred(value=100):
    return Comparison("data_loss", CompareFunc.GREATER, value)


def _counting(monkeypatch):
    """Wrap ``GpuEngine.execute_schedule`` to record every dispatch."""
    calls = []
    original = GpuEngine.execute_schedule

    def spy(self, schedule, **kwargs):
        calls.append(schedule.op)
        return original(self, schedule, **kwargs)

    monkeypatch.setattr(GpuEngine, "execute_schedule", spy)
    return calls


class TestChokePoint:
    def test_every_named_op_routes_through_execute_schedule(
        self, small_relation, monkeypatch
    ):
        calls = _counting(monkeypatch)
        engine = GpuEngine(small_relation)
        predicate = _pred()
        engine.select(predicate)
        engine.count()
        engine.sum("data_count", predicate)
        engine.average("data_count", predicate)
        engine.minimum("data_count", predicate)
        engine.maximum("data_count", predicate)
        engine.median("data_count", predicate)
        engine.kth_largest("data_count", 3, predicate)
        engine.kth_smallest("data_count", 3, predicate)
        engine.top_k("data_count", 5, predicate)
        engine.quantiles("data_count", [0.5, 0.9], predicate)
        engine.selectivities([predicate, _pred(500)])
        engine.histogram("data_count", buckets=8)
        assert len(calls) >= 13
        assert {"select", "count", "sum", "average", "minimum",
                "kth_largest", "kth_smallest", "median", "top_k",
                "quantiles", "selectivities", "histogram"} <= set(calls)

    def test_sql_routes_through_execute_schedule(
        self, small_relation, monkeypatch
    ):
        calls = _counting(monkeypatch)
        db = Database()
        db.register(small_relation)
        db.query(
            "SELECT COUNT(*) FROM tcpip WHERE data_loss > 100",
            device=Device.GPU,
        )
        assert calls

    def test_service_routes_through_execute_schedule(
        self, small_relation, monkeypatch
    ):
        calls = _counting(monkeypatch)
        db = Database()
        db.register(small_relation)
        service = QueryService(db)
        with service.session("probe") as session:
            session.query(
                "SELECT MEDIAN(data_count) FROM tcpip",
                device=Device.GPU,
            )
        assert calls


class TestMaximumSchedule:
    """The compiler emits op ``maximum`` (``lower_aggregate`` and
    ``lower_statement``); ``execute_schedule`` must run it."""

    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("predicate", [None, _pred()])
    def test_maximum_schedule_matches_named_op(
        self, small_relation, shards, predicate
    ):
        engine = GpuEngine(small_relation, shards=shards)
        schedule = compiler.lower_aggregate(
            small_relation, "maximum", "data_count", predicate=predicate
        )
        result = engine.execute_schedule(schedule)
        assert result.value == engine.maximum(
            "data_count", predicate
        ).value
        if shards > 1:
            assert result.combiner == "max over per-shard maxima"

    def test_empty_selection_is_a_typed_error(self, small_relation):
        engine = GpuEngine(small_relation, shards=1)
        schedule = compiler.lower_aggregate(
            small_relation, "maximum", "data_count",
            predicate=_pred(10**9),
        )
        with pytest.raises(QueryError, match="MAX of an empty selection"):
            engine.execute_schedule(schedule)


class TestExecutorRefusals:
    def test_sharded_and_single_device_drive_the_same_ops(self):
        from repro.plan.executor import DRIVERS
        from repro.shard import ShardedExecutor

        assert set(ShardedExecutor._DRIVERS) == set(DRIVERS)

    def test_unknown_op_has_no_driver(self, small_relation):
        engine = GpuEngine(small_relation)
        schedule = compiler.lower_select(small_relation, _pred())
        bogus = dataclasses.replace(schedule, op="join")
        with pytest.raises(QueryError, match="no execution driver"):
            engine.execute_schedule(bogus)

    def test_descriptive_schedule_refused(self, small_relation):
        engine = GpuEngine(small_relation)
        schedule = compiler.lower_select(small_relation, _pred())
        descriptive = dataclasses.replace(schedule, payload=None)
        with pytest.raises(
            QueryError, match="carries no execution payload"
        ):
            engine.execute_schedule(descriptive)


class TestJitOverride:
    def test_per_call_override_and_restore(self, small_relation):
        engine = GpuEngine(small_relation, jit=False)
        schedule = compiler.lower_aggregate(
            small_relation, "median", "data_count"
        )
        assert engine.device.kernels.misses == 0
        result = engine.execute_schedule(schedule, jit=True)
        baseline = engine.median("data_count")
        assert result.value == baseline.value
        # The override bound kernels, then restored the engine default.
        assert engine.device.kernels.misses > 0
        assert engine.device.jit is False

    def test_env_default(self, small_relation, monkeypatch):
        monkeypatch.setenv("REPRO_JIT", "0")
        assert GpuEngine(small_relation).device.jit is False
        monkeypatch.setenv("REPRO_JIT", "1")
        assert GpuEngine(small_relation).device.jit is True


class TestRunnerModuleRemoved:
    def test_shim_module_is_gone(self):
        with pytest.raises(ImportError):
            from repro.plan import runner  # noqa: F401

    def test_public_surface_dropped_shim_names(self):
        import repro.plan as plan

        for name in ("harvest", "run_selectivities", "run_histogram"):
            assert name not in plan.__all__
            assert not hasattr(plan, name)


class TestDeadlineThroughExecuteSchedule:
    def test_expired_deadline_cancels_schedule(self, small_relation):
        engine = GpuEngine(small_relation)
        schedule = compiler.lower_select(small_relation, _pred())
        clock = ManualClock()
        deadline = Deadline(0.5, clock=clock)
        clock.advance(1.0)
        with use_deadline(deadline):
            with pytest.raises(QueryTimeoutError):
                engine.execute_schedule(schedule)
        # The engine recovers for the next schedule.
        assert engine.execute_schedule(schedule).count >= 0

    def test_jit_path_honours_deadline(self, small_relation):
        engine = GpuEngine(small_relation, jit=True)
        schedule = compiler.lower_aggregate(
            small_relation, "median", "data_count"
        )
        clock = ManualClock()
        deadline = Deadline(0.5, clock=clock)
        clock.advance(1.0)
        with use_deadline(deadline):
            with pytest.raises(QueryTimeoutError):
                engine.execute_schedule(schedule)


class TestBreakerThroughExecuteSchedule:
    def test_persistent_fault_opens_breaker_and_degrades(
        self, small_relation
    ):
        """A schedule-driven GPU failure trips the breaker; the next
        query short-circuits to a correct CPU answer."""
        plan = FaultPlan(
            [FaultRule(FaultKind.DEVICE_LOST, max_fires=None)],
            seed=5,
        )
        executor = ResilientExecutor(stats=plan.stats)
        db = Database(executor=executor)
        db.register(small_relation)
        breaker = CircuitBreaker(
            failure_threshold=1,
            cooldown_s=3600.0,
            clock=ManualClock(),
            stats=plan.stats,
        )
        service = QueryService(db, breaker=breaker)
        sql = "SELECT COUNT(*) FROM tcpip WHERE data_loss > 100"
        expected = CpuEngine(small_relation).select(
            _pred()
        ).count
        with use_faults(plan):
            with service.session("storm") as session:
                # Forced-GPU query dies on the persistent fault and
                # charges the breaker.
                with pytest.raises(QueryError):
                    session.query(sql, device=Device.GPU)
                # Breaker open: the service short-circuits to the CPU
                # and the answer stays correct.
                second = session.query(sql)
                assert second.breaker_state == "open"
                assert second.degraded
                assert second.scalar == expected
        assert plan.stats.breaker_short_circuits >= 1
