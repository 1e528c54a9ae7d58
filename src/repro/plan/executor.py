"""Whole-schedule execution on one device.

:class:`ScheduleExecutor` is the execution half of the plan layer — the
runtime twin of :mod:`repro.plan.compiler`.  Every engine operation
compiles to a :class:`~repro.plan.passes.PassSchedule` carrying an
execution ``payload`` and runs through
:meth:`~repro.core.engine.GpuEngine.execute_schedule`, which refuses
schedules it has no driver or payload for, verifies in debug mode,
applies any per-call ``jit`` override and then delegates here (or, on a
sharded engine, to :class:`~repro.shard.sharded.ShardedExecutor`).

Drivers follow how an op uses the device, not its name (:data:`DRIVERS`):

* selection, COUNT, SUM/AVG (:meth:`ScheduleExecutor.stored_sum`: the
  selection plus the bit-sliced Accumulator) and the batched
  selectivity / histogram sweeps;
* one order-statistic driver for k-th largest/smallest, MIN, MAX,
  median, quantiles and top-k: ranks from
  :func:`~repro.core.aggregates.order_targets`, one shared depth copy
  (:meth:`~repro.core.engine.GpuEngine.prepare_search`), one
  :func:`~repro.core.aggregates.bit_search` per rank, and the top-k
  stencil mark.

Each driver owns its entire loop — copy-to-depth batching through the
engine's cache-aware depth tracking, quad rasterization, and occlusion
harvesting — and the tracer / fault / deadline hooks sit at the single
``execute_schedule`` choke point:

* the op span and stats window open and close around the driver;
* faults and retries wrap the whole schedule (``@_resilient`` on
  ``execute_schedule``);
* deadlines cancel at pass boundaries inside the driver loop.
"""

from __future__ import annotations

from functools import partial
from typing import Any

import numpy as np

from ..core import aggregates
from ..core.compare import compare_pass
from ..core.predicates import Between, Comparison, Predicate
from ..core.range_query import range_pass
from ..core.select import execute_selection
from ..errors import QueryError
from .passes import PassSchedule, predicate_key


#: Schedule op -> :class:`ScheduleExecutor` driver method.  The ops
#: :meth:`~repro.core.engine.GpuEngine.execute_schedule` accepts; the
#: sharded executor drives the same set.
DRIVERS = {
    "select": "_run_select",
    "count": "_run_count",
    "sum": "_run_sum_average",
    "average": "_run_sum_average",
    "selectivities": "_run_selectivities",
    "histogram": "_run_histogram",
    "kth_largest": "_run_order_statistic",
    "kth_smallest": "_run_order_statistic",
    "minimum": "_run_order_statistic",
    "maximum": "_run_order_statistic",
    "median": "_run_order_statistic",
    "quantiles": "_run_order_statistic",
    "top_k": "_run_order_statistic",
}


class ScheduleExecutor:
    """Executes compiled :class:`PassSchedule`\\ s against one engine.

    Stateless between calls — construction is free, so
    ``ScheduleExecutor(engine).execute(schedule)`` per operation is the
    intended usage (:meth:`GpuEngine.execute_schedule` does exactly
    that, after refusing schedules it cannot run, verifying in debug
    mode and applying any per-call ``jit`` override).
    """

    def __init__(self, engine: Any):
        self.engine = engine

    def execute(self, schedule: PassSchedule) -> Any:
        """Run one compiled, already-vetted schedule end to end."""
        return getattr(self, DRIVERS[schedule.op])(schedule)

    # -- op drivers ---------------------------------------------------------

    def _run_select(self, schedule: PassSchedule) -> Any:
        from ..core.engine import Selection

        engine = self.engine
        predicate = schedule.payload["predicate"]
        engine._begin("select", predicate=str(predicate))
        outcome = execute_selection(
            engine.device, engine.relation, engine, predicate
        )
        if engine.fusion:
            # select() always executes (callers rely on a fresh mask);
            # later aggregates with the same WHERE hit this entry.
            engine.plan.stencil.note(
                engine.device,
                predicate_key(predicate),
                engine._predicate_fingerprint(predicate),
                outcome.count,
                outcome.valid_stencil,
            )
        result = engine._finish(outcome.count)
        return Selection(
            value=outcome.count,
            copy=result.copy,
            compute=result.compute,
            model=engine.cost_model,
            valid_stencil=outcome.valid_stencil,
            total_records=engine.relation.num_records,
            engine=engine,
            generation=engine.device.stencil_generation,
            context=engine.contexts.active,
        )

    def _run_count(self, schedule: PassSchedule) -> Any:
        engine = self.engine
        engine._begin("count")
        value = aggregates.count_valid(
            engine.device, engine.relation.num_records
        )
        return engine._finish(value)

    def stored_sum(
        self,
        column_name: str,
        predicate: Predicate | None,
        empty_error: str | None = None,
    ) -> tuple[int, int]:
        """The SUM/AVG body: the selection (reused through the stencil
        cache when live) then the bit-sliced Accumulator over the
        stored encoding.  Returns ``(stored_total, valid_count)``.

        ``empty_error`` raises before the Accumulator runs when the
        selection is empty (single-device AVG); shards pass ``None``,
        an empty shard legitimately contributing ``(0, 0)``.
        """
        engine = self.engine
        texture, channel = engine.stored_texture(column_name)
        valid, valid_count = engine._selection_stencil(predicate)
        if empty_error is not None and valid_count == 0:
            raise QueryError(empty_error)
        total = aggregates.accumulate(
            engine.device, texture,
            engine.relation.column(column_name).bits,
            channel=channel, valid_stencil=valid,
        )
        return int(total), int(valid_count)

    def _run_sum_average(self, schedule: PassSchedule) -> Any:
        engine = self.engine
        op = schedule.op
        column_name = schedule.payload["column"]
        column = engine.relation.column(column_name)
        engine._begin(op, column=column_name)
        total, valid_count = self.stored_sum(
            column_name,
            schedule.payload.get("predicate"),
            empty_error=(
                "AVG of an empty selection" if op == "average" else None
            ),
        )
        value = column.sum_from_stored(total, valid_count)
        if op == "average":
            value = value / valid_count
        return engine._finish(value)

    def _run_order_statistic(self, schedule: PassSchedule) -> Any:
        """Every order statistic (k-th largest/smallest, MIN, MAX,
        median, quantiles, top-k): the selection, the ranks from
        :func:`~repro.core.aggregates.order_targets`, one shared depth
        copy, one :func:`~repro.core.aggregates.bit_search` per rank —
        and for top-k the stencil mark of records at or above the
        threshold."""
        from ..core.engine import TopK

        engine = self.engine
        op = schedule.op
        payload = schedule.payload
        column_name = payload["column"]
        k = payload.get("k")
        fractions = payload.get("fractions")
        column = engine.relation.column(column_name)
        # Upload on first use ahead of the selection's textures: under
        # video-memory pressure residency order decides what is evicted
        # and re-uploaded (and charged) later.
        engine.column_texture(column_name)
        attrs: dict[str, Any] = {"column": column_name}
        if k is not None:
            attrs["k"] = k
        if fractions is not None:
            attrs["fractions"] = list(fractions)
        engine._begin(op, **attrs)
        valid, valid_count = engine._selection_stencil(
            payload.get("predicate")
        )
        targets = aggregates.order_targets(
            op, valid_count, k=k, fractions=fractions
        )
        valid, texture = engine.prepare_search(
            column_name, valid, ensure_mask=op == "top_k"
        )
        count = partial(
            aggregates.count_at_least, engine.device, texture, column.bits
        )
        values = [
            column.from_stored(aggregates.bit_search(count, column.bits, t))
            for t in targets
        ]
        if op == "quantiles":
            return engine._finish(values)
        if op == "top_k":
            ids = aggregates.mark_top_k(
                engine.device, texture, valid,
                column.normalize(values[0]), engine.relation.num_records,
            )
            return engine._finish(
                TopK(threshold=values[0], record_ids=ids)
            )
        return engine._finish(values[0])

    def _run_selectivities(self, schedule: PassSchedule) -> Any:
        engine = self.engine
        predicates = schedule.payload["predicates"]
        engine._begin(
            "selectivities", num_predicates=len(predicates)
        )
        engine._trace_schedule(schedule)
        counts = self.run_selectivities(
            predicates, fuse=engine.fusion
        )
        return engine._finish(counts)

    def _run_histogram(self, schedule: PassSchedule) -> Any:
        engine = self.engine
        column_name = schedule.payload["column"]
        buckets = schedule.payload["buckets"]
        edges = schedule.payload["edges"]
        engine._begin(
            "histogram", column=column_name, buckets=buckets
        )
        engine._trace_schedule(schedule)
        counts = self.run_histogram(
            column_name, edges, fuse=engine.fusion
        )
        return engine._finish((edges, counts))

    # -- counting sweeps (the former repro.plan.runner functions) -----------

    @staticmethod
    def harvest(queries: Any) -> list:
        """Retrieve a batch of occlusion results with one pipeline
        stall.

        Queries pipeline (paper section 5.3): by the time the final
        result is waited on synchronously, every earlier one is
        already available and costs nothing to read.
        """
        results = []
        for index, query in enumerate(queries):
            synchronous = index == len(queries) - 1
            results.append(query.result(synchronous=synchronous))
        return results

    def _counted_quad(self, predicate: Predicate) -> Any:
        """Render one simple predicate as an occlusion-counted quad
        against the depth buffer (after routing its attribute there)
        and return the still-pending query."""
        engine = self.engine
        device = engine.device
        column = engine.relation.column(predicate.column)
        texture, _scale, _channel = engine.ensure_depth(
            predicate.column
        )
        query = device.begin_query()
        if isinstance(predicate, Comparison):
            compare_pass(
                device,
                predicate.op,
                column.normalize(
                    column.clamp_to_domain(predicate.value)
                ),
                texture.count,
            )
        else:
            range_pass(
                device,
                column.normalize(column.clamp_to_domain(predicate.low)),
                column.normalize(
                    column.clamp_to_domain(predicate.high)
                ),
                texture.count,
            )
        device.end_query()
        return query

    def run_selectivities(
        self, predicates: list, fuse: bool = True
    ) -> list:
        """Execute the batched selectivity sweep; counts align with
        ``predicates``.

        Simple predicates render as counted quads with the stencil
        disabled; general predicates fall back to the full selection
        machinery (which owns the stencil buffer), flushing any
        pending batch first so result order is preserved.
        """
        engine = self.engine
        device = engine.device
        device.state.color_mask = (False, False, False, False)
        device.state.stencil.enabled = False
        counts: list = []
        pending: list = []

        def flush() -> None:
            if not pending:
                return
            for (index, _query), value in zip(
                pending,
                self.harvest([query for _i, query in pending]),
            ):
                counts[index] = value
            pending.clear()

        for predicate in predicates:
            if isinstance(predicate, (Comparison, Between)):
                query = self._counted_quad(predicate)
                counts.append(None)
                if fuse:
                    pending.append((len(counts) - 1, query))
                else:
                    counts[-1] = query.result(synchronous=True)
            else:
                flush()
                outcome = execute_selection(
                    device, engine.relation, engine, predicate
                )
                counts.append(outcome.count)
                device.state.stencil.enabled = False
        flush()
        return counts

    def run_histogram(
        self,
        column_name: str,
        edges: np.ndarray,
        fuse: bool = True,
    ) -> np.ndarray:
        """Execute the histogram sweep over precomputed bucket
        ``edges``.

        Fused: one depth copy, one counted depth-bounds quad per
        bucket, one batched harvest — and the stencil buffer is left
        untouched, so an earlier selection's mask survives.  Unfused:
        each bucket re-runs the full range selection exactly as the
        pre-fusion engine did.
        """
        engine = self.engine
        device = engine.device
        column = engine.relation.column(column_name)
        counts = np.zeros(edges.size - 1, dtype=np.int64)
        if not fuse:
            for index in range(edges.size - 1):
                outcome = execute_selection(
                    device,
                    engine.relation,
                    engine,
                    Between(
                        column_name,
                        int(edges[index]),
                        int(edges[index + 1] - 1),
                    ),
                )
                counts[index] = outcome.count
            return counts

        device.state.color_mask = (False, False, False, False)
        device.state.stencil.enabled = False
        texture, _scale, _channel = engine.ensure_depth(column_name)
        queries = []
        for index in range(edges.size - 1):
            low = column.normalize(
                column.clamp_to_domain(int(edges[index]))
            )
            high = column.normalize(
                column.clamp_to_domain(int(edges[index + 1] - 1))
            )
            query = device.begin_query()
            range_pass(device, low, high, texture.count)
            device.end_query()
            queries.append(query)
        for index, value in enumerate(self.harvest(queries)):
            counts[index] = value
        return counts
