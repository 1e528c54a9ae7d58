"""Continuous queries over streams — the paper's closing future-work item.

Section 7: "We also plan to ... perform continuous queries over streams
using GPUs."  This module builds that on the reproduced primitives:

* a **sliding window** of the most recent ``capacity`` records lives in
  a host ring mirrored into GPU textures — appending a batch overwrites
  the oldest slots with one ``glTexSubImage2D``-style partial upload per
  attribute (bandwidth proportional to the *batch*, not the window);
* **registered continuous queries** (COUNT / selectivity / SUM / AVG /
  MIN / MAX / MEDIAN / k-th largest, each with an optional predicate)
  are re-evaluated against the window after every append, through the
  public operations of one :class:`~repro.core.engine.GpuEngine` over
  the window (plan cache, JIT, debug verification and fault retry
  included);
* per-append results and simulated GPU cost come back together, so the
  sustainable stream rate on the FX 5900 can be estimated.

Aggregations and counts are order-insensitive, so ring placement never
affects results; ``window_relation()`` exposes the current window as a
plain :class:`~repro.core.relation.Relation` for host-side verification.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping

import numpy as np

from .core.column import Column
from .core.cpu_engine import CpuEngine
from .core.engine import GpuEngine
from .core.predicates import Predicate
from .core.relation import Relation
from .errors import DataError, GpuError, QueryError
from .faults import current_executor
from .gpu.cost import GpuCostModel, GpuTime
from .gpu.counters import PipelineStats

#: Supported continuous aggregate kinds.
KINDS = (
    "count",
    "selectivity",
    "sum",
    "average",
    "minimum",
    "maximum",
    "median",
    "kth_largest",
)


@dataclasses.dataclass(frozen=True)
class StreamColumn:
    """Schema entry: attribute name plus its integer bit width."""

    name: str
    bits: int

    def __post_init__(self):
        if not 1 <= self.bits <= 24:
            raise DataError(
                f"stream column {self.name!r}: bits={self.bits} "
                "outside [1, 24]"
            )


@dataclasses.dataclass
class ContinuousQuery:
    """A registered query, re-evaluated after every append."""

    name: str
    kind: str
    column: str | None = None
    predicate: Predicate | None = None
    k: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise QueryError(
                f"unknown continuous-query kind {self.kind!r}; "
                f"supported: {KINDS}"
            )
        needs_column = self.kind not in ("count", "selectivity")
        if needs_column and self.column is None:
            raise QueryError(
                f"{self.kind} queries need a column"
            )
        if self.kind == "kth_largest" and (self.k is None or self.k < 1):
            raise QueryError("kth_largest queries need k >= 1")


@dataclasses.dataclass
class StreamTick:
    """Outcome of one append: per-query results plus simulated cost."""

    #: Records currently in the window.
    window_size: int
    #: Total records ever appended.
    total_appended: int
    #: Query name -> value (None while the window is empty, or when a
    #: predicate selects nothing for an order statistic / AVG).
    results: dict
    #: Simulated GPU cost of the upload + re-evaluation.
    gpu_time: GpuTime
    #: Query name -> error text, for queries whose GPU evaluation
    #: failed this tick and whose result was recomputed host-side (only
    #: populated when the engine has a ResilientExecutor).
    degraded: dict = dataclasses.field(default_factory=dict)

    @property
    def gpu_ms(self) -> float:
        return self.gpu_time.total_ms


class StreamEngine:
    """Sliding-window continuous queries on the simulated GPU."""

    def __init__(
        self,
        schema: list[StreamColumn] | list[tuple[str, int]],
        capacity: int,
        cost_model: GpuCostModel | None = None,
        executor=None,
    ):
        """``executor`` attaches a
        :class:`~repro.faults.ResilientExecutor`: batch uploads and
        every engine operation retry transient GPU faults, and a query
        whose GPU evaluation still fails is recomputed host-side from
        the window — the tick degrades *per query*
        (:attr:`StreamTick.degraded`) instead of dying.  Defaults to
        the process-wide executor (usually ``None``).
        """
        if capacity < 1:
            raise DataError(
                f"window capacity must be positive, got {capacity}"
            )
        columns: list[StreamColumn] = []
        for entry in schema:
            if isinstance(entry, StreamColumn):
                columns.append(entry)
            else:
                name, bits = entry
                columns.append(StreamColumn(name, bits))
        if not columns:
            raise DataError("stream schema needs at least one column")
        names = [column.name for column in columns]
        if len(set(names)) != len(names):
            raise DataError(f"duplicate stream columns in {names}")

        self.capacity = capacity
        self.schema = {column.name: column for column in columns}
        self.executor = (
            executor if executor is not None else current_executor()
        )
        self.total_appended = 0
        self._queries: dict[str, ContinuousQuery] = {}
        self._ring = {
            name: np.zeros(capacity, dtype=np.float32)
            for name in self.schema
        }
        # Sized for the full ring; every attribute texture is resident
        # from the start, so each append uploads every attribute's batch.
        self.engine = GpuEngine(
            self._window(capacity), cost_model=cost_model,
            executor=self.executor, shards=1,
        )
        for name in self.schema:
            self.engine.column_texture(name)
        self.device = self.engine.device
        self.cost_model = self.engine.cost_model

    # -- schema / window state -------------------------------------------------

    @property
    def window_size(self) -> int:
        return min(self.total_appended, self.capacity)

    @property
    def column_names(self) -> list[str]:
        return list(self.schema)

    def _window(self, size: int) -> Relation:
        """The first ``size`` ring slots as a relation of views (no
        copy)."""
        return Relation("window", [
            Column(
                name, self._ring[name][:size], is_integer=True,
                bits=meta.bits, lo=0.0, hi=float(1 << meta.bits),
            )
            for name, meta in self.schema.items()
        ])

    def window_relation(self) -> Relation:
        """The current window as a host-side relation (verification,
        ad-hoc queries)."""
        if self.window_size == 0:
            raise QueryError("the stream window is empty")
        # Column.integer copies the views (its astype always does).
        return Relation("window", [
            Column.integer(column.name, column.values, bits=column.bits)
            for column in self._window(self.window_size).columns()
        ])

    # -- continuous queries ------------------------------------------------------

    def register(self, query: ContinuousQuery) -> None:
        """Register (or replace) a continuous query."""
        needs_column = query.kind not in ("count", "selectivity")
        if needs_column and query.column not in self.schema:
            raise QueryError(
                f"query {query.name!r}: unknown column {query.column!r}"
            )
        if query.predicate is not None:
            self._validate_predicate_columns(query)
        self._queries[query.name] = query

    def _validate_predicate_columns(self, query: ContinuousQuery):
        from .sql.planner import predicate_columns

        unknown = predicate_columns(query.predicate) - set(self.schema)
        if unknown:
            raise QueryError(
                f"query {query.name!r}: unknown predicate columns "
                f"{sorted(unknown)}"
            )

    def unregister(self, name: str) -> None:
        self._queries.pop(name, None)

    @property
    def queries(self) -> list[str]:
        return list(self._queries)

    # -- appends ---------------------------------------------------------------------

    def append(self, batch: Mapping[str, np.ndarray]) -> StreamTick:
        """Append a batch of records and re-evaluate every query.

        ``batch`` maps every schema column to an equal-length array.
        Batches larger than the window keep only their newest
        ``capacity`` records (the older ones would be evicted within
        the same tick anyway).

        Afterwards ``device.stats`` holds the whole tick: the upload
        window followed by every engine operation's passes.
        """
        arrays = self._validate_batch(batch)
        size = arrays[self.column_names[0]].shape[0]
        self.device.stats.reset()
        if size:
            # Ring writes are idempotent (total_appended advances only
            # afterwards), so a transient upload fault simply re-writes
            # the same slots.
            if self.executor is None:
                self._write_ring(arrays, size)
            else:
                self.executor.run(
                    lambda: self._write_ring(arrays, size),
                    op="stream_append",
                    tracer=self.device.tracer,
                )
            self.total_appended += size
        windows = [self.device.stats.snapshot()]
        results, degraded = self._evaluate(windows)
        self.device.stats = PipelineStats.merged(windows)
        return StreamTick(
            window_size=self.window_size,
            total_appended=self.total_appended,
            results=results,
            gpu_time=self.cost_model.time(self.device.stats),
            degraded=degraded,
        )

    def _validate_batch(self, batch) -> dict[str, np.ndarray]:
        missing = set(self.schema) - set(batch)
        if missing:
            raise DataError(
                f"batch missing columns {sorted(missing)}"
            )
        arrays = {}
        size = None
        for name, meta in self.schema.items():
            values = np.asarray(batch[name])
            if values.ndim != 1:
                raise DataError(
                    f"batch column {name!r} must be 1-D"
                )
            if size is None:
                size = values.size
            elif values.size != size:
                raise DataError("batch columns must have equal length")
            if values.size and (
                np.any(values < 0)
                or np.any(values >= (1 << meta.bits))
            ):
                raise DataError(
                    f"batch column {name!r}: values outside "
                    f"[0, 2**{meta.bits})"
                )
            if values.size > self.capacity:
                values = values[-self.capacity:]
            arrays[name] = values.astype(np.float32)
        return arrays

    def _write_ring(self, arrays: dict[str, np.ndarray], size: int):
        """Scatter the batch into ring slots: at most two spans, each
        one partial upload per attribute."""
        start = self.total_appended % self.capacity
        first = min(size, self.capacity - start)
        spans = [(start, first)]
        if first < size:
            spans.append((0, size - first))
        for name, values in arrays.items():
            self._ring[name][start:start + first] = values[:first]
            self._ring[name][:size - first] = values[first:]
        self.engine.write_records(
            self._window(min(self.total_appended + size, self.capacity)),
            spans,
        )

    # -- evaluation --------------------------------------------------------------------

    def _evaluate(self, windows: list[PipelineStats]) -> tuple[dict, dict]:
        """Every query's answer; each GPU operation's stats window is
        appended to ``windows``."""
        results: dict = {}
        degraded: dict = {}
        if self.window_size == 0:
            return {name: None for name in self._queries}, degraded
        for name, query in self._queries.items():
            try:
                results[name] = self._evaluate_one(query, windows)
            except GpuError as error:
                if self.executor is None:
                    raise
                # Engine operations already retried; degrade this query
                # alone, the other queries proceed on the GPU.
                results[name] = self.executor.degrade(
                    error,
                    lambda q=query: self._evaluate_one_host(q),
                    op=f"stream:{name}",
                    tracer=self.device.tracer,
                )
                degraded[name] = f"{type(error).__name__}: {error}"
        return results, degraded

    def _evaluate_one(
        self, query: ContinuousQuery, windows: list[PipelineStats]
    ):
        """One query through the engine's public operations.  The
        aggregate reuses the selection's stencil mask (and depth copy)
        through the plan cache."""
        engine = self.engine
        valid_count = self.window_size
        if query.predicate is not None:
            selection = engine.select(query.predicate)
            windows.append(selection.stats)
            valid_count = selection.count

        def aggregate():
            result = engine.aggregate(
                query.kind, query.column, query.predicate, k=query.k
            )
            windows.append(result.stats)
            return result.value

        return self._answer(query, valid_count, aggregate)

    def _evaluate_one_host(self, query: ContinuousQuery):
        """A degraded query: the same answer from
        :class:`~repro.core.cpu_engine.CpuEngine` over a window
        copy."""
        cpu = CpuEngine(self.window_relation())
        cpu.tracer = None  # the ctor falls back to the process tracer
        return self._answer(
            query,
            cpu.count(query.predicate).value,
            lambda: cpu.aggregate(
                query.kind, query.column, query.predicate, k=query.k
            ).value,
        )

    def _answer(self, query: ContinuousQuery, valid_count: int, aggregate):
        """The result policy both evaluation paths share: COUNT and
        selectivity come from the valid count; an empty selection, or
        a k larger than it, answers None; anything else is
        ``aggregate()``."""
        if query.kind == "count":
            return valid_count
        if query.kind == "selectivity":
            return valid_count / self.window_size
        if valid_count == 0:
            return None
        if query.kind == "kth_largest" and query.k > valid_count:
            return None
        return aggregate()
