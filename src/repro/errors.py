"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GpuError(ReproError):
    """Base class for errors raised by the GPU simulator substrate."""


class TextureError(GpuError):
    """Invalid texture construction, format, or access."""


class FramebufferError(GpuError):
    """Invalid framebuffer configuration or buffer access."""


class RenderStateError(GpuError):
    """Invalid render-state configuration (tests, masks, references)."""


class AssemblyError(GpuError):
    """A fragment program failed to assemble.

    Carries the 1-based source line where assembly failed, when known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ProgramExecutionError(GpuError):
    """A fragment program failed while executing (bad bindings, registers)."""


class OcclusionQueryError(GpuError):
    """Occlusion query misuse (nested begin, result before end, ...)."""


class VideoMemoryError(GpuError):
    """Video memory exhaustion or invalid allocation."""


class DeviceLostError(GpuError):
    """The device was lost mid-operation (driver reset, bus hiccup).

    A *transient* fault: the operation can be retried from scratch —
    every engine operation re-renders its passes, so nothing is lost
    beyond the work of the failed attempt.
    """


class OcclusionTimeoutError(OcclusionQueryError):
    """An occlusion-query result never arrived (timeout / lost query).

    Transient: re-running the operation re-issues the query.
    """


class ReadbackError(GpuError):
    """A buffer readback returned corrupt data (detected by the
    transfer checksum).  Transient: the buffer itself is intact, so the
    readback can simply be retried."""


class DepthPrecisionError(GpuError):
    """The depth buffer cannot hold the precision an attribute copy
    needs (the paper's section 6.1 precision limitation).  *Persistent*
    for the operation: retrying will not grow the depth buffer — fall
    back to the CPU engine instead."""


class FaultConfigError(ReproError):
    """Invalid fault-injection plan (unknown kind, bad parameters)."""


class AdmissionRejectedError(ReproError):
    """The query service refused a new query at admission time.

    Raised by :class:`~repro.service.QueryService` when the bounded
    in-flight budget is exhausted — the overload signal callers shed
    load on.  Deliberately *not* a :class:`GpuError`: rejection happens
    before any device work, so nothing is retried or degraded.
    """


class QueryTimeoutError(ReproError):
    """A per-query deadline expired before the query finished.

    Raised cooperatively between rendering passes (the substrate checks
    the installed :class:`~repro.faults.Deadline` at its choke points)
    or while waiting in the service's admission queue.  Not a
    :class:`GpuError`: a timeout says nothing about device health, so
    the resilient executor never retries it and the SQL layer never
    degrades it to the CPU engine.
    """


class DataError(ReproError):
    """Invalid column/relation data (out-of-range values, shape mismatch)."""


class QueryError(ReproError):
    """Invalid query construction (bad predicate, unknown column)."""


class StaleSelectionError(QueryError):
    """A :class:`~repro.core.engine.Selection` was read after a later
    query overwrote the engine's stencil buffer.

    The stencil buffer holds exactly one live selection mask; call
    ``materialize()`` (or ``record_ids()``) before issuing the next
    stencil-writing query, or re-run ``select()``.
    """


class PlanVerificationError(QueryError):
    """A compiled :class:`~repro.plan.PassSchedule` failed static
    verification (:mod:`repro.analysis`): the schedule would read stale
    depth state, violate the EvalCNF stencil protocol, leak or
    double-harvest an occlusion query, or serve a cached result whose
    key does not cover everything it read.

    Carries the full :class:`~repro.analysis.VerificationReport` as
    ``report`` when raised by the verifier entry points.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class DataRaceError(ReproError):
    """The concurrency sanitizer observed a data race (hazard H109) or
    an order-sensitive shard combiner (hazard H110).

    Raised by :meth:`repro.analysis.race.RaceReport.raise_if_failed`
    and :meth:`repro.analysis.race.CombinerReport.raise_if_failed`;
    carries the offending report as ``report``.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class StaleMemoError(ReproError):
    """A device memo served an answer its miss path does not give
    (hazard H111 ``stale-memo``).

    Raised only while the sanitizer is armed (``REPRO_SAN=1``), when a
    memo hit is re-derived from the buffers and differs: a buffer
    changed without its generation moving, or the memo's key misses an
    input.  Not a :class:`GpuError`, so no retry or host fallback hides
    it.  Carries the memo's name as ``memo`` and the key it was served
    under as ``key``.
    """

    def __init__(self, memo: str, key, detail: str):
        super().__init__(
            f"H111 stale-memo: {memo} served key {key!r}: {detail}"
        )
        self.memo = memo
        self.key = key


class SqlError(ReproError):
    """Base class for SQL front-end errors."""


class SqlSyntaxError(SqlError):
    """The SQL text failed to lex or parse.

    Carries the position (offset into the source text) when known.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"at offset {position}: {message}"
        super().__init__(message)
        self.position = position


class SqlPlanError(SqlError):
    """The query parsed but cannot be planned (unsupported shape, unknown
    table or column)."""


class BenchmarkError(ReproError):
    """Benchmark harness misuse (unknown experiment id, bad parameters)."""
