"""CPU query engine: the paper's optimized baseline behind the same API.

:class:`CpuEngine` mirrors :class:`~repro.core.engine.GpuEngine` method
for method, so integration tests can assert both engines agree on every
answer, and the benchmark harness can price both sides of each figure.

Answers come from the vectorized scans in :mod:`repro.cpu`; simulated
dual-Xeon timings come from :class:`~repro.cpu.cost.CpuCostModel` driven
by the *structure* of the query (records scanned, predicate terms,
selection compaction), mirroring how the GPU side is priced from
pipeline counters.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..cpu import aggregate as cpu_aggregate
from ..cpu.quickselect import partition_select
from ..cpu.quickselect import quickselect as hoare_quickselect
from ..cpu.cost import CpuCostModel
from ..errors import QueryError
from ..trace import current_tracer
from . import aggregates
from .polynomial import Polynomial
from .predicates import (
    And,
    Between,
    Comparison,
    Not,
    Or,
    Predicate,
    SemiLinear,
)
from .relation import Relation


def predicate_terms(predicate: Predicate, model: CpuCostModel) -> float:
    """Equivalent simple-predicate terms a fused CPU scan evaluates per
    record for this predicate (figure 5's linear-in-attributes cost)."""
    if isinstance(predicate, Comparison):
        return 1.0
    if isinstance(predicate, Between):
        return model.range_term_factor
    if isinstance(predicate, SemiLinear):
        return model.semilinear_ns_per_record / model.predicate_ns_per_record
    if isinstance(predicate, Polynomial):
        # A multiply per exponent step on top of the semi-linear scan.
        multiplies = sum(max(p - 1, 0) for p in predicate.exponents)
        base = model.semilinear_ns_per_record / model.predicate_ns_per_record
        return base + 0.15 * multiplies
    if isinstance(predicate, Not):
        return predicate_terms(predicate.child, model)
    if isinstance(predicate, (And, Or)):
        return sum(
            predicate_terms(child, model) for child in predicate.children
        )
    raise QueryError(
        f"cannot price predicate of type {type(predicate).__name__}"
    )


@dataclasses.dataclass
class CpuOpResult:
    """Answer plus simulated CPU seconds."""

    value: object
    modeled_s: float

    @property
    def modeled_ms(self) -> float:
        return self.modeled_s * 1e3

    # -- unified result accessors (shared with GpuOpResult/QueryResult) --

    @property
    def time_ms(self) -> float:
        """Simulated dual-Xeon milliseconds (alias of ``modeled_ms``)."""
        return self.modeled_ms

    @property
    def pass_count(self) -> int:
        """The CPU issues no rendering passes."""
        return 0

    @property
    def stats(self):
        """An empty pipeline-statistics window (no GPU work)."""
        from ..gpu.counters import PipelineStats

        return PipelineStats()


@dataclasses.dataclass
class CpuSelection(CpuOpResult):
    mask: np.ndarray = None
    total_records: int = 0

    @property
    def count(self) -> int:
        return int(self.value)

    @property
    def selectivity(self) -> float:
        if self.total_records == 0:
            return 0.0
        return self.count / self.total_records

    def record_ids(self) -> np.ndarray:
        return np.flatnonzero(self.mask)


class CpuEngine:
    """CPU-backed query engine over one relation."""

    def __init__(
        self,
        relation: Relation,
        cost_model: CpuCostModel | None = None,
        faithful_quickselect: bool = False,
        tracer=None,
    ):
        self.relation = relation
        self.cost_model = cost_model or CpuCostModel()
        #: Use the pure-Python Hoare FIND (paper-faithful but slow to
        #: *actually run*) instead of numpy.partition.  Identical values.
        self.faithful_quickselect = faithful_quickselect
        #: Optional :class:`~repro.trace.Tracer` — each operation
        #: becomes a span (no pass events; the CPU has no passes).
        #: Defaults to the process-wide tracer, usually ``None``.
        self.tracer = tracer if tracer is not None else current_tracer()

    # -- measurement helpers -----------------------------------------------------

    def _begin(self, op: str, **attrs):
        if self.tracer is None:
            return None
        return self.tracer.begin(op, **attrs)

    def _finish(self, span, result: CpuOpResult) -> CpuOpResult:
        if span is not None:
            self.tracer.end(span, modeled_ms=result.modeled_ms)
        return result

    # -- selection ---------------------------------------------------------------

    def select(self, predicate: Predicate) -> CpuSelection:
        span = self._begin("select", predicate=str(predicate))
        records = self.relation.num_records
        mask = predicate.mask(self.relation)
        terms = predicate_terms(predicate, self.cost_model)
        modeled = self.cost_model.predicate_scan_s(records, terms)
        return self._finish(span, CpuSelection(
            value=int(np.count_nonzero(mask)),
            modeled_s=modeled,
            mask=mask,
            total_records=records,
        ))

    def count(self, predicate: Predicate | None = None) -> CpuOpResult:
        return self.aggregate("count", predicate=predicate)

    def selectivity(self, predicate: Predicate) -> float:
        return self.select(predicate).selectivity

    # -- helpers -----------------------------------------------------------------------

    def select_values(
        self, column_name: str, predicate: Predicate | None = None
    ) -> tuple[np.ndarray, CpuSelection | None]:
        """The values of the records ``predicate`` selects, plus its
        :class:`CpuSelection` (``None`` without a WHERE).

        Bit-sliceable columns (integer / fixed-point) come back in
        their *stored* integer domain so order statistics and sums use
        exactly the arithmetic the GPU's bit-sliced algorithms use;
        results map back through ``from_stored`` / ``sum_from_stored``.
        """
        column = self.relation.column(column_name)
        if column.supports_bit_slicing:
            values = column.stored_values()
        else:
            values = column.values
        if predicate is None:
            return values, None
        selection = self.select(predicate)
        return values[selection.mask], selection

    def stored_sum(
        self, column_name: str, predicate: Predicate | None = None
    ) -> tuple[int, int]:
        """The SUM/AVG body: ``(stored_total, valid_count)`` over the
        selection (CPU twin of
        :meth:`~repro.plan.executor.ScheduleExecutor.stored_sum`)."""
        values, _selection = self.select_values(column_name, predicate)
        return cpu_aggregate.exact_sum(values), int(values.size)

    def _from_stored(self, column_name: str, stored):
        column = self.relation.column(column_name)
        if column.supports_bit_slicing:
            return column.from_stored(stored)
        return stored

    def _sum_from_stored(self, column_name: str, total, count: int):
        """Map a stored-domain SUM back to value units (the per-value
        bias does not distribute over a sum)."""
        column = self.relation.column(column_name)
        if column.supports_bit_slicing:
            return column.sum_from_stored(total, count)
        return total

    def _select_kth(self, values: np.ndarray, k: int) -> int:
        # The extreme ranks (MIN, MAX) are one scan, as they are priced.
        if k == 1:
            return int(cpu_aggregate.maximum(values))
        if k == values.size:
            return int(cpu_aggregate.minimum(values))
        if self.faithful_quickselect:
            return int(hoare_quickselect(values, k))
        return int(partition_select(values, k))

    def _order_statistic_cost(
        self,
        records: int,
        selectivity: float,
        predicate: Predicate | None,
        k: int | None = None,
    ) -> float:
        if predicate is None:
            return self.cost_model.quickselect_s(records, k)
        # Selection scan + compaction + QuickSelect over survivors
        # (paper section 5.9 test 3: the CPU must copy valid data out).
        terms = predicate_terms(predicate, self.cost_model)
        return self.cost_model.predicate_scan_s(
            records, terms
        ) + self.cost_model.quickselect_with_selection_s(
            records, selectivity, k
        )

    # -- aggregates ----------------------------------------------------------------------

    #: Ops :meth:`aggregate` accepts — the same set as
    #: :meth:`GpuEngine.aggregate <repro.core.engine.GpuEngine.aggregate>`.
    AGGREGATE_OPS = aggregates.AGGREGATE_OPS

    def aggregate(
        self,
        op: str,
        column_name: str | None = None,
        predicate: Predicate | None = None,
        *,
        k: int | None = None,
        fractions: list[float] | None = None,
    ) -> CpuOpResult:
        """Single entry point for every aggregate operation (CPU twin
        of :meth:`~repro.core.engine.GpuEngine.aggregate`); the named
        methods are thin wrappers over it.

        Every order statistic is QuickSelect at the k-th-largest ranks
        :func:`~repro.core.aggregates.order_targets` picks — the rank
        table the GPU's bit search uses, with its k-range and
        empty-selection errors.  Modeled time: SUM, AVG, MIN and MAX
        are one scan; the other order statistics pay (selection scan,
        compaction and) one QuickSelect per rank, the median priced at
        ``k=None``.
        """
        if op not in self.AGGREGATE_OPS:
            raise QueryError(
                f"unknown aggregate op {op!r}; expected one of "
                f"{', '.join(self.AGGREGATE_OPS)}"
            )
        records = self.relation.num_records
        if op == "count":
            if predicate is not None:
                # A counted WHERE is exactly a selection.
                return self.select(predicate)
            span = self._begin("count")
            return self._finish(span, CpuOpResult(
                value=records, modeled_s=self.cost_model.count_s(records)
            ))
        if column_name is None:
            raise QueryError(f"aggregate {op!r} needs a column")
        if op in ("kth_largest", "kth_smallest", "top_k"):
            # Rejects k outside [1, num_records] before the scan.
            aggregates.order_targets(op, records, k=k)
        if op == "quantiles":
            if not fractions:
                raise QueryError(
                    "quantiles() needs at least one fraction"
                )
            if any(not 0.0 <= q <= 1.0 for q in fractions):
                raise QueryError(
                    f"fractions must lie in [0, 1], got {fractions}"
                )
        attrs: dict = {"column": column_name}
        if k is not None:
            attrs["k"] = k
        if fractions is not None:
            attrs["fractions"] = list(fractions)
        span = self._begin(op, **attrs)
        try:
            value, modeled = self._aggregate(
                op, column_name, predicate, k, fractions
            )
        except BaseException:
            if span is not None:
                self.tracer.end(span)
            raise
        return self._finish(
            span, CpuOpResult(value=value, modeled_s=modeled)
        )

    def _aggregate(self, op, column_name, predicate, k, fractions):
        """``(value, modeled_s)`` of one validated aggregate."""
        from .engine import TopK

        records = self.relation.num_records
        values, selection = self.select_values(column_name, predicate)
        if op in ("sum", "average"):
            if op == "average" and values.size == 0:
                raise QueryError("AVG of an empty selection")
            value = self._sum_from_stored(
                column_name, cpu_aggregate.exact_sum(values), values.size
            )
            if op == "average":
                value = value / values.size
            return value, self.cost_model.sum_s(records)
        ranks = aggregates.order_targets(
            op, values.size, k=k, fractions=fractions
        )
        stored = [self._select_kth(values, rank) for rank in ranks]
        found = [self._from_stored(column_name, s) for s in stored]
        if op == "quantiles":
            value = found
        elif op == "top_k":
            ids = np.flatnonzero(values >= stored[0])
            if selection is not None:
                ids = np.flatnonzero(selection.mask)[ids]
            value = TopK(threshold=found[0], record_ids=ids)
        else:
            value = found[0]
        if op in ("minimum", "maximum"):
            return value, self.cost_model.sum_s(records)
        selectivity = 1.0 if selection is None else selection.selectivity
        if op == "median":
            cost_ks: list = [None]
        elif op == "kth_smallest":
            cost_ks = [k]  # priced at the caller's k, not its rank
        else:
            cost_ks = ranks
        return value, sum(
            self._order_statistic_cost(
                records, selectivity, predicate, cost_k
            )
            for cost_k in cost_ks
        )

    def kth_largest(
        self, column_name: str, k: int, predicate: Predicate | None = None
    ) -> CpuOpResult:
        return self.aggregate("kth_largest", column_name, predicate, k=k)

    def kth_smallest(
        self, column_name: str, k: int, predicate: Predicate | None = None
    ) -> CpuOpResult:
        return self.aggregate("kth_smallest", column_name, predicate, k=k)

    def maximum(self, column_name, predicate=None) -> CpuOpResult:
        return self.aggregate("maximum", column_name, predicate)

    def minimum(self, column_name, predicate=None) -> CpuOpResult:
        return self.aggregate("minimum", column_name, predicate)

    def median(self, column_name, predicate=None) -> CpuOpResult:
        return self.aggregate("median", column_name, predicate)

    def top_k(
        self, column_name: str, k: int, predicate: Predicate | None = None
    ) -> CpuOpResult:
        """Record ids of the k largest values, ties included — mirrors
        :meth:`repro.core.engine.GpuEngine.top_k`.  ``value`` has
        ``threshold`` and ``record_ids`` attributes."""
        return self.aggregate("top_k", column_name, predicate, k=k)

    def quantiles(
        self,
        column_name: str,
        fractions: list[float],
        predicate: Predicate | None = None,
    ) -> CpuOpResult:
        """Quantile ladder (CPU twin of
        :meth:`~repro.core.engine.GpuEngine.quantiles`)."""
        return self.aggregate(
            "quantiles", column_name, predicate, fractions=fractions
        )

    def sum(self, column_name, predicate=None) -> CpuOpResult:
        return self.aggregate("sum", column_name, predicate)

    def average(self, column_name, predicate=None) -> CpuOpResult:
        return self.aggregate("average", column_name, predicate)

    # -- batched scans -------------------------------------------------------------------

    def selectivities(self, predicates) -> CpuOpResult:
        """Batched selectivity analysis (CPU twin of
        :meth:`~repro.core.engine.GpuEngine.selectivities`)."""
        if not predicates:
            raise QueryError(
                "selectivities() needs at least one predicate"
            )
        span = self._begin(
            "selectivities", num_predicates=len(predicates)
        )
        counts = [self.select(p).count for p in predicates]
        modeled = sum(
            self.cost_model.predicate_scan_s(
                self.relation.num_records,
                predicate_terms(p, self.cost_model),
            )
            for p in predicates
        )
        return self._finish(
            span, CpuOpResult(value=counts, modeled_s=modeled)
        )

    def histogram(
        self, column_name: str, buckets: int = 32
    ) -> CpuOpResult:
        """Bucketed value counts over the GPU histogram's integer edges
        (:func:`~repro.core.aggregates.histogram_edges`).  ``value`` is
        ``(edges, counts)``."""
        column = self.relation.column(column_name)
        edges = aggregates.histogram_edges(column, buckets)
        span = self._begin("histogram", column=column_name,
                           buckets=buckets)
        counts, _bins = np.histogram(
            column.values.astype(np.int64), bins=edges
        )
        records = self.relation.num_records
        return self._finish(span, CpuOpResult(
            value=(edges, counts.astype(np.int64)),
            modeled_s=self.cost_model.predicate_scan_s(records),
        ))
