"""Continuous queries over streams — the paper's closing future-work item.

Section 7: "We also plan to ... perform continuous queries over streams
using GPUs."  This module builds that on the reproduced primitives:

* a **sliding window** of the most recent ``capacity`` records lives in
  GPU textures, maintained as a ring — appending a batch overwrites the
  oldest slots with one ``glTexSubImage2D``-style partial upload per
  attribute (bandwidth proportional to the *batch*, not the window);
* **registered continuous queries** (COUNT / selectivity / SUM / AVG /
  MIN / MAX / MEDIAN / k-th largest, each with an optional predicate)
  are re-evaluated against the window after every append, using exactly
  the rendering-pass machinery of :mod:`repro.core`;
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

from .core import aggregates
from .core.column import Column
from .core.cpu_engine import CpuEngine
from .core.engine import split_copy_stats
from .core.predicates import Predicate
from .core.relation import Relation
from .core.select import execute_selection
from .errors import DataError, QueryError
from .faults import current_executor
from .gpu.cost import GpuCostModel, GpuTime
from .gpu.pipeline import Device
from .gpu.texture import Texture, texture_shape_for

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
        per-query evaluations retry transient GPU faults, and a query
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
        self.shape = texture_shape_for(capacity)
        self.device = Device(*self.shape)
        self.cost_model = cost_model or GpuCostModel()
        self.executor = (
            executor if executor is not None else current_executor()
        )
        self.total_appended = 0
        self._queries: dict[str, ContinuousQuery] = {}
        self._textures: dict[str, Texture] = {}
        self._packed: dict[tuple[str, ...], Texture] = {}
        for column in columns:
            texture = Texture.from_values(
                np.zeros(capacity, dtype=np.float32), shape=self.shape
            )
            self.device.bind_texture(0, texture)  # make resident
            self._textures[column.name] = texture

    # -- schema / window state -------------------------------------------------

    @property
    def window_size(self) -> int:
        return min(self.total_appended, self.capacity)

    @property
    def column_names(self) -> list[str]:
        return list(self.schema)

    def window_relation(self) -> Relation:
        """The current window as a host-side relation (verification,
        ad-hoc queries)."""
        if self.window_size == 0:
            raise QueryError("the stream window is empty")
        columns = []
        for name, meta in self.schema.items():
            values = self._textures[name].linear_view()[
                : self.window_size, 0
            ]
            columns.append(
                Column.integer(name, values.copy(), bits=meta.bits)
            )
        return Relation("window", columns)

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
        results, degraded = self._evaluate()
        window = self.device.stats.snapshot()
        copy, compute = split_copy_stats(window)
        gpu_time = self.cost_model.time(copy) + self.cost_model.time(
            compute
        )
        return StreamTick(
            window_size=self.window_size,
            total_appended=self.total_appended,
            results=results,
            gpu_time=gpu_time,
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
        """Scatter the batch into ring slots with at most two partial
        uploads per attribute."""
        start = self.total_appended % self.capacity
        first = min(size, self.capacity - start)
        for name, values in arrays.items():
            texture = self._textures[name]
            self.device.upload_texels(texture, start, values[:first])
            if first < size:
                self.device.upload_texels(
                    texture, 0, values[first:]
                )
        self._packed.clear()  # packed layouts are rebuilt lazily

    # -- evaluation --------------------------------------------------------------------

    def column_texture(self, name: str) -> tuple[Texture, float, int]:
        """TextureProvider protocol (window-sized view)."""
        meta = self.schema[name]
        texture = self._textures[name]
        texture.count = self.window_size
        return texture, 1.0 / (1 << meta.bits), 0

    def packed_texture(self, names: tuple[str, ...]) -> Texture:
        """TextureProvider protocol: RGBA pack for semi-linear and
        polynomial predicates, rebuilt after ring writes."""
        names = tuple(names)
        texture = self._packed.get(names)
        if texture is None:
            columns = [
                self._textures[name].linear_view()[:, 0].copy()
                for name in names
            ]
            num_texels = self.shape[0] * self.shape[1]
            while len(columns) < 4:
                columns.append(np.zeros(num_texels, dtype=np.float32))
            texture = Texture.from_columns(columns, shape=self.shape)
            # Honest accounting: refreshing the packed layout after a
            # ring write re-uploads it.
            self.device.bind_texture(0, texture)
            self._packed[names] = texture
        texture.count = self.window_size
        return texture

    def _evaluate(self) -> tuple[dict, dict]:
        results: dict = {}
        degraded: dict = {}
        if self.window_size == 0:
            return {name: None for name in self._queries}, degraded
        relation = self.window_relation()
        for name, query in self._queries.items():
            if self.executor is None:
                results[name] = self._evaluate_one(query, relation)
                continue

            def attempt(q=query):
                # Start every attempt from clean device state — a
                # fault can leave a dangling occlusion query behind.
                self.device.abort_query()
                return self._evaluate_one(q, relation)

            # Degrade this query alone: recompute host-side from the
            # window copy; the other queries proceed on GPU.
            results[name], error = self.executor.run_with_fallback(
                attempt,
                lambda q=query: self._evaluate_one_host(q, relation),
                op=f"stream:{name}",
                tracer=self.device.tracer,
            )
            if error is not None:
                degraded[name] = f"{type(error).__name__}: {error}"
        return results, degraded

    def _evaluate_one(self, query: ContinuousQuery, relation: Relation):
        device = self.device
        valid = None
        valid_count = self.window_size
        if query.predicate is not None:
            outcome = execute_selection(
                device, relation, self, query.predicate
            )
            valid = outcome.valid_stencil
            valid_count = outcome.count

        def aggregate():
            meta = self.schema[query.column]
            texture, scale, channel = self.column_texture(query.column)
            if query.kind in ("sum", "average"):
                total = aggregates.accumulate(
                    device, texture, meta.bits,
                    channel=channel, valid_stencil=valid,
                )
                return total if query.kind == "sum" else total / valid_count
            (rank,) = aggregates.order_targets(
                query.kind, valid_count, k=query.k
            )
            return aggregates.kth_largest(
                device, texture, meta.bits, rank, scale,
                channel=channel, valid_stencil=valid,
            )

        return self._answer(query, valid_count, aggregate)

    def _evaluate_one_host(
        self, query: ContinuousQuery, relation: Relation
    ):
        """A degraded query: the same answer from
        :class:`~repro.core.cpu_engine.CpuEngine` over the window
        copy."""
        cpu = CpuEngine(relation)
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
