"""ResilientExecutor: backoff schedule, fault taxonomy, fallback."""

import pytest

from repro.errors import (
    DepthPrecisionError,
    DeviceLostError,
    FaultConfigError,
    OcclusionTimeoutError,
    QueryError,
    ReadbackError,
    VideoMemoryError,
)
from repro.faults import (
    TRANSIENT_FAULTS,
    ResilientExecutor,
    RetryPolicy,
    SimClock,
    current_executor,
    use_executor,
)
from repro.trace import Tracer


class _Flaky:
    """Raises the queued errors in order, then returns ``value``."""

    def __init__(self, errors, value="ok"):
        self.errors = list(errors)
        self.value = value
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.errors:
            raise self.errors.pop(0)
        return self.value


class TestRetrySchedule:
    def test_transient_faults_retry_through(self):
        clock = SimClock()
        executor = ResilientExecutor(clock=clock)
        fn = _Flaky([DeviceLostError("x"), OcclusionTimeoutError("y")])
        assert executor.run(fn, op="count") == "ok"
        assert fn.calls == 3
        assert clock.sleeps == [0.01, 0.02]  # base, then doubled
        assert executor.stats.retries["count"] == 2
        assert executor.stats.total_fallbacks == 0

    def test_backoff_is_capped(self):
        clock = SimClock()
        executor = ResilientExecutor(
            policy=RetryPolicy(
                max_attempts=5,
                base_delay_s=0.1,
                multiplier=4.0,
                max_delay_s=0.25,
            ),
            clock=clock,
        )
        fn = _Flaky([ReadbackError(str(i)) for i in range(4)])
        assert executor.run(fn) == "ok"
        assert clock.sleeps == [0.1, 0.25, 0.25, 0.25]
        assert clock.slept_s == pytest.approx(0.85)

    def test_exhausted_retries_raise_the_last_fault(self):
        executor = ResilientExecutor(
            policy=RetryPolicy(max_attempts=3)
        )
        fn = _Flaky([VideoMemoryError(str(i)) for i in range(10)])
        with pytest.raises(VideoMemoryError, match="2"):
            executor.run(fn, op="sum")
        assert fn.calls == 3
        assert executor.stats.retries["sum"] == 2
        assert executor.stats.gave_up["sum"] == 1

    def test_persistent_faults_never_retry(self):
        clock = SimClock()
        executor = ResilientExecutor(clock=clock)
        fn = _Flaky([DepthPrecisionError("degraded")])
        with pytest.raises(DepthPrecisionError):
            executor.run(fn, op="median")
        assert fn.calls == 1
        assert clock.sleeps == []
        assert executor.stats.total_retries == 0

    def test_non_gpu_errors_pass_through(self):
        executor = ResilientExecutor()
        fn = _Flaky([QueryError("bad query")])
        with pytest.raises(QueryError):
            executor.run(fn)
        assert fn.calls == 1

    def test_every_transient_kind_is_a_gpu_error(self):
        from repro.errors import GpuError, ReproError

        for fault in TRANSIENT_FAULTS:
            assert issubclass(fault, GpuError)
            assert issubclass(fault, ReproError)
        assert DepthPrecisionError not in TRANSIENT_FAULTS

    def test_retry_and_give_up_events_traced(self):
        tracer = Tracer()
        executor = ResilientExecutor(
            policy=RetryPolicy(max_attempts=2)
        )
        with tracer.span("op"):
            with pytest.raises(DeviceLostError):
                executor.run(
                    _Flaky([DeviceLostError("a"), DeviceLostError("b")]),
                    op="select",
                    tracer=tracer,
                )
        names = [e.name for e in tracer.finish().all_events()]
        assert names == ["retry", "gave-up"]


class TestFallback:
    def test_success_reports_no_fallback(self):
        executor = ResilientExecutor()
        value, error = executor.run_with_fallback(
            lambda: 7, lambda: -1, op="count"
        )
        assert (value, error) == (7, None)
        assert executor.stats.total_fallbacks == 0

    def test_persistent_failure_degrades(self):
        tracer = Tracer()
        executor = ResilientExecutor()
        fn = _Flaky([DepthPrecisionError("depth gone")])
        with tracer.span("query"):
            value, error = executor.run_with_fallback(
                fn, lambda: "cpu answer", op="median", tracer=tracer
            )
        assert value == "cpu answer"
        assert isinstance(error, DepthPrecisionError)
        assert executor.stats.fallbacks["median"] == 1
        events = {
            e.name: e.attrs for e in tracer.finish().all_events()
        }
        assert events["fallback"]["error"] == "DepthPrecisionError"

    def test_transient_failure_retries_before_degrading(self):
        executor = ResilientExecutor(
            policy=RetryPolicy(max_attempts=2)
        )
        fn = _Flaky([DeviceLostError(str(i)) for i in range(5)])
        value, error = executor.run_with_fallback(
            fn, lambda: "cpu answer", op="select"
        )
        assert value == "cpu answer"
        assert isinstance(error, DeviceLostError)
        assert fn.calls == 2  # retried up to budget first

    def test_non_gpu_errors_skip_the_fallback(self):
        executor = ResilientExecutor()
        with pytest.raises(QueryError):
            executor.run_with_fallback(
                _Flaky([QueryError("bad")]), lambda: "never"
            )


    def test_degrade_records_without_retrying(self):
        tracer = Tracer()
        executor = ResilientExecutor()
        with tracer.span("query"):
            value = executor.degrade(
                DeviceLostError("gone"), lambda: "cpu answer",
                op="query", tracer=tracer,
            )
        assert value == "cpu answer"
        assert executor.stats.fallbacks["query"] == 1
        assert executor.stats.total_retries == 0
        events = [
            (e.name, e.attrs) for e in tracer.finish().all_events()
        ]
        assert events == [(
            "fallback",
            {"op": "query", "error": "DeviceLostError", "detail": "gone"},
        )]


class TestPolicyValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(FaultConfigError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(FaultConfigError, match="delays"):
            RetryPolicy(base_delay_s=-1)
        with pytest.raises(FaultConfigError, match="multiplier"):
            RetryPolicy(multiplier=0.5)


class TestProcessWideExecutor:
    def test_use_executor_installs_and_restores(self):
        assert current_executor() is None
        executor = ResilientExecutor()
        with use_executor(executor) as installed:
            assert installed is executor
            assert current_executor() is executor
        assert current_executor() is None
