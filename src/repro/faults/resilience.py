"""Retry-and-fallback policy around the fragile GPU substrate.

:class:`ResilientExecutor` is the host-side control loop that treats
the GPU as an unreliable coprocessor: every engine operation runs
through :meth:`ResilientExecutor.run`, which retries *transient* faults
(device lost, occlusion timeout, readback corruption, video-memory
pressure) with capped exponential backoff and lets *persistent* faults
(depth precision, exhausted retries) escalate to the caller — where
:class:`~repro.sql.executor.Database` degrades gracefully to the CPU
engine and :class:`~repro.streams.StreamEngine` degrades per continuous
query instead of killing the tick.

Backoff waits go through an injectable clock.  The default
:class:`SimClock` only *accounts* for the waits (``clock.slept_s``), so
tests and benchmarks never really sleep; pass :class:`WallClock` to
actually pace retries against a live device.
"""

from __future__ import annotations

import dataclasses
import time

from ..errors import (
    DeviceLostError,
    FaultConfigError,
    GpuError,
    OcclusionTimeoutError,
    ReadbackError,
    VideoMemoryError,
)
from .plan import FaultStats

#: Fault types worth retrying: the device may recover, memory pressure
#: may clear, a lost query or corrupt transfer re-runs cleanly.  Every
#: other :class:`~repro.errors.GpuError` (precision, misuse, assembly)
#: is persistent for the operation and escalates immediately.
TRANSIENT_FAULTS = (
    DeviceLostError,
    OcclusionTimeoutError,
    ReadbackError,
    VideoMemoryError,
)


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff knobs."""

    #: Total attempts (first try included).
    max_attempts: int = 3
    #: Wait before the first retry.
    base_delay_s: float = 0.01
    #: Multiplier applied after every retry.
    multiplier: float = 2.0
    #: Ceiling on any single wait.
    max_delay_s: float = 0.25

    def __post_init__(self):
        if self.max_attempts < 1:
            raise FaultConfigError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise FaultConfigError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise FaultConfigError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )


class SimClock:
    """Accounting-only clock: backoff waits accumulate, nobody sleeps."""

    def __init__(self):
        #: Total simulated seconds spent waiting between retries.
        self.slept_s = 0.0
        #: Every individual wait, in order.
        self.sleeps: list[float] = []

    def sleep(self, seconds: float) -> None:
        self.slept_s += seconds
        self.sleeps.append(seconds)


class WallClock:
    """Really sleeps — for pacing retries against a live device."""

    def __init__(self):
        self.slept_s = 0.0
        self.sleeps: list[float] = []

    def sleep(self, seconds: float) -> None:  # pragma: no cover - timing
        time.sleep(seconds)
        self.slept_s += seconds
        self.sleeps.append(seconds)


class ResilientExecutor:
    """Runs operations with retry-on-transient-fault semantics.

    One executor is typically shared by every engine of a
    :class:`~repro.sql.executor.Database`, so its :class:`FaultStats`
    aggregates the whole workload's retries and fallbacks.
    """

    def __init__(
        self,
        policy: RetryPolicy | None = None,
        clock=None,
        stats: FaultStats | None = None,
    ):
        self.policy = policy if policy is not None else RetryPolicy()
        self.clock = clock if clock is not None else SimClock()
        self.stats = stats if stats is not None else FaultStats()

    def run(self, fn, *, op: str = "op", tracer=None):
        """Run ``fn`` with retries on transient GPU faults.

        Each retry re-invokes ``fn`` from scratch (engine operations
        re-render all their passes, so attempts are independent).  The
        final failure — transient faults past the attempt budget, or
        any persistent :class:`~repro.errors.GpuError` on the first
        throw — propagates to the caller.
        """
        policy = self.policy
        delay = policy.base_delay_s
        attempt = 1
        while True:
            try:
                return fn()
            except TRANSIENT_FAULTS as error:
                if attempt >= policy.max_attempts:
                    self.stats.record_give_up(op)
                    if tracer is not None:
                        tracer.record_event(
                            "gave-up",
                            op=op,
                            attempts=attempt,
                            error=type(error).__name__,
                        )
                    raise
                wait = min(delay, policy.max_delay_s)
                self.stats.record_retry(op)
                if tracer is not None:
                    tracer.record_event(
                        "retry",
                        op=op,
                        attempt=attempt,
                        delay_s=wait,
                        error=type(error).__name__,
                    )
                self.clock.sleep(wait)
                delay *= policy.multiplier
                attempt += 1

    def run_with_fallback(
        self, fn, fallback, *, op: str = "op", tracer=None
    ):
        """``run(fn)``, degrading to ``fallback()`` when the GPU path
        fails for good.

        Returns ``(value, None)`` on GPU success or
        ``(fallback_value, error)`` after degradation; non-GPU errors
        (bad queries, data errors) propagate untouched — they would
        fail on any device.
        """
        try:
            return self.run(fn, op=op, tracer=tracer), None
        except GpuError as error:
            return self.degrade(error, fallback, op=op, tracer=tracer), error

    def degrade(self, error, fallback, *, op: str = "op", tracer=None):
        """The degrade step: count a fallback for ``op``, record the
        ``fallback`` trace event for ``error``, then return
        ``fallback()``.  :meth:`run_with_fallback` ends here; callers
        whose GPU path already retried (``Database``) call it
        directly."""
        self.stats.record_fallback(op)
        if tracer is not None:
            tracer.record_event(
                "fallback",
                op=op,
                error=type(error).__name__,
                detail=str(error),
            )
        return fallback()
