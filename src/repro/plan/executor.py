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

* selection (and COUNT with a WHERE) and the selectivity / histogram
  sweeps walk their schedule's nodes
  (:func:`~repro.core.select.run_passes`) and only fold the harvested
  counts;
* SUM/AVG (:meth:`ScheduleExecutor.stored_sum`) walk the selection
  prefix (:meth:`~repro.core.engine.GpuEngine._selection_stencil`,
  skipped on a stencil-cache hit), then run the bit-sliced
  Accumulator;
* one order-statistic driver for k-th largest/smallest, MIN, MAX,
  median, quantiles and top-k: the selection prefix, ranks from
  :func:`~repro.core.aggregates.order_targets`, one shared depth copy
  (:meth:`~repro.core.engine.GpuEngine.prepare_search`), one
  :func:`~repro.core.aggregates.bit_search` per rank, and the top-k
  stencil mark.

The tracer / fault / deadline hooks sit at the single
``execute_schedule`` choke point:

* the op span and stats window open and close around the driver;
* faults and retries wrap the whole schedule
  (:func:`~repro.core.engine.run_resilient`);
* deadlines cancel at pass boundaries inside the walk or driver loop.
"""

from __future__ import annotations

from functools import partial
from itertools import islice
from typing import Any

import numpy as np

from ..core import aggregates
from ..core.select import run_passes
from ..errors import QueryError
from .passes import PassSchedule


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
        """A selection — also COUNT with a WHERE — walks its nodes and
        leaves the mask; later aggregates with the same WHERE hit the
        stencil-cache entry it notes (select() itself always runs, so
        callers get a fresh mask)."""
        from ..core.engine import Selection

        engine = self.engine
        predicate = schedule.payload["predicate"]
        engine._begin("select", predicate=str(predicate))
        valid_stencil, count = engine._walk_selection(schedule)
        result = engine._finish(count)
        return Selection(
            value=count,
            copy=result.copy,
            compute=result.compute,
            model=engine.cost_model,
            valid_stencil=valid_stencil,
            total_records=engine.relation.num_records,
            engine=engine,
            generation=engine.device.stencil_generation,
            context=engine.contexts.active,
        )

    def _run_count(self, schedule: PassSchedule) -> Any:
        if schedule.payload["predicate"] is not None:
            return self._run_select(schedule)
        engine = self.engine
        engine._begin("count")
        value = aggregates.count_valid(
            engine.device, engine.relation.num_records
        )
        return engine._finish(value)

    def stored_sum(
        self, schedule: PassSchedule, empty_error: str | None = None
    ) -> tuple[int, int]:
        """The SUM/AVG body: the selection (reused through the stencil
        cache when live) then the bit-sliced Accumulator over the
        stored encoding.  Returns ``(stored_total, valid_count)``.

        ``empty_error`` raises before the Accumulator runs when the
        selection is empty (single-device AVG); shards pass ``None``,
        an empty shard legitimately contributing ``(0, 0)``.
        """
        engine = self.engine
        column_name = schedule.payload["column"]
        texture, channel = engine.stored_texture(column_name)
        valid, valid_count = engine._selection_stencil(schedule)
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
            schedule,
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
        valid, valid_count = engine._selection_stencil(schedule)
        targets = aggregates.order_targets(
            op, valid_count, k=k, fractions=fractions
        )
        valid, texture = engine.prepare_search(schedule, valid)
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
        """Walk the sweep; each predicate's count sums the occlusion
        results its nodes harvest (one per comparison or range, the
        selection's own count otherwise)."""
        engine = self.engine
        predicates = schedule.payload["predicates"]
        engine._begin(
            "selectivities", num_predicates=len(predicates)
        )
        engine._trace_schedule(schedule)
        harvested = iter(run_passes(engine, schedule.nodes))
        counts = [
            sum(islice(harvested, results))
            for results in schedule.payload["results"]
        ]
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
        counts = np.array(run_passes(engine, schedule.nodes), np.int64)
        return engine._finish((edges, counts))
