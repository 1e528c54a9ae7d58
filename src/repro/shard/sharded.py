"""N simulated devices behind one engine: the fan-out/combine layer.

:class:`ShardedDevice` partitions an engine's relation into contiguous
row ranges (:func:`~repro.shard.partition.shard_bounds`) and builds one
fully independent :class:`~repro.core.engine.GpuEngine` per range.  Each
shard engine owns its own simulated FX-5900 and a **disjoint generation
band**: its :class:`~repro.gpu.context.ContextScheduler` starts at
``base_cid = (i + 1) * SHARD_CID_STRIDE``, so no stencil/depth
generation minted on one shard can ever equal a generation minted on
another shard (or on the host engine, which keeps band 0).  That is the
runtime half of the H108 shard-aliasing guarantee
(:mod:`repro.analysis.sharding` is the static half).

:class:`ShardedExecutor` is the fan-out twin of
:class:`~repro.plan.executor.ScheduleExecutor`: it takes the *parent*
engine's compiled :class:`~repro.plan.passes.PassSchedule` and runs the
operation on every shard on a thread pool — the parent's own schedule
for folded ops, the shared search primitives of
:mod:`repro.core.aggregates` for order statistics — then merges on the
host with the op's typed combiner:

* COUNT / SUM / MIN / MAX / AVG merge trivially (sums, extrema,
  weighted ``(sum, count)`` pairs);
* selections, selectivities and histograms concatenate / element-wise
  sum the per-shard results;
* k-th largest (and every order statistic built on it) becomes a
  **distributed bit-wise binary search**: each round broadcasts the
  candidate prefix ``x + 2**i`` to every shard, renders one
  occlusion-counted comparison quad per shard, and sums the per-shard
  counts before deciding the bit (Lemma 1 applies to the summed count).
  Every shard issues exactly the single-device figure-7 pass sequence —
  one depth copy plus ``bits`` comparison passes — over ``1/N`` of the
  records, which is where the near-linear modeled speedup comes from.

Fault semantics: a shard whose GPU path keeps failing (its resilient
retries exhausted, or the shard was :meth:`~ShardedDevice.kill`\\ ed)
**degrades to a CPU recompute of that shard only** — the query never
fails and never mixes in a corrupted partial answer.  Deadlines are
thread-local, so the dispatching thread's deadline is re-installed
inside every worker; a :class:`~repro.errors.QueryTimeoutError` is
never degraded, exactly like the single-device engine.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Any, Callable

import numpy as np

from .. import sanitize
from ..core import aggregates
from ..core.engine import (
    GpuOpResult,
    Selection,
    TopK,
    run_resilient,
    split_copy_stats,
)
from ..errors import (
    DeviceLostError,
    GpuError,
    QueryError,
    QueryTimeoutError,
)
from ..faults.deadline import current_deadline, use_deadline
from ..gpu.counters import PipelineStats
from ..plan.executor import ScheduleExecutor
from .combiners import COMBINER_SPECS, fold
from .partition import pool_threads, shard_bounds, slice_relation
from .results import (
    COMBINE_MS_PER_SHARD,
    ShardedOpResult,
    ShardedSelection,
)

#: Context-id stride between shard generation bands.  Shard *i* owns
#: cids ``[(i + 1) * STRIDE, (i + 2) * STRIDE)`` — a million virtual
#: contexts per shard before neighboring bands could meet — while the
#: host engine keeps band 0.
SHARD_CID_STRIDE = 1 << 20

#: One-line combiner description per schedule op (rendered by
#: ``Database.explain`` and carried on every fan-out result).
#: Derived from the typed combiner table (:mod:`repro.shard.combiners`)
#: so the rendered description can never drift from the fold the
#: executor actually applies — and so hazard H110 checks the real
#: merge, not a doc string.
COMBINERS = {spec.op: spec.description for spec in COMBINER_SPECS}


@dataclasses.dataclass
class Shard:
    """One partition: a row range and the engine that owns it."""

    index: int
    start: int
    stop: int
    engine: object
    #: The :class:`~repro.core.cpu_engine.CpuEngine` over the same
    #: slice: every degraded-shard recompute runs on it.
    cpu: object
    #: Deterministic kill switch (chaos tests, the bench harness):
    #: while True, every GPU task on this shard raises
    #: :class:`DeviceLostError` and the shard degrades to the CPU.
    forced_dead: bool = False

    @property
    def name(self) -> str:
        return f"shard-{self.index}"

    @property
    def num_records(self) -> int:
        return self.stop - self.start


class ShardedDevice:
    """The shard pool: N per-shard engines plus the thread pool and the
    context-propagation map that keep them in lockstep with the parent
    engine."""

    def __init__(self, engine: Any, shards: int) -> None:
        from ..core.cpu_engine import CpuEngine
        from ..core.engine import GpuEngine

        self.parent = engine
        relation = engine.relation
        self.shards: list[Shard] = []
        for index, (start, stop) in enumerate(
            shard_bounds(relation.num_records, shards)
        ):
            shard_relation = slice_relation(relation, start, stop)
            shard_engine = GpuEngine(
                shard_relation,
                cost_model=engine.cost_model,
                layout=engine.layout,
                executor=engine.executor,
                fusion=engine.fusion,
                debug=engine.debug,
                jit=engine.device.jit,
                shards=1,
                context_band=(index + 1) * SHARD_CID_STRIDE,
            )
            cpu = CpuEngine(shard_relation)
            # Shard engines must not trace: the tracer is a stack and
            # shard work runs on pool threads.  The parent records
            # per-shard summary events after the join instead.  Set
            # explicitly — both engine ctors fall back to the
            # process-wide tracer when given None.
            shard_engine.tracer = None
            cpu.tracer = None
            self.shards.append(
                Shard(index, start, stop, shard_engine, cpu)
            )
        self._pool: ThreadPoolExecutor | None = None
        #: Parent context cid -> per-shard mirror contexts.
        self._contexts: dict[int, list] = {}
        if engine.debug:
            from ..analysis import verify_shard_fanout

            verify_shard_fanout(self.bands()).raise_if_failed()

    def __len__(self) -> int:
        return len(self.shards)

    @property
    def threads(self) -> int:
        """Worker threads the pool runs (see
        :func:`~repro.shard.partition.pool_threads`)."""
        return pool_threads(len(self.shards))

    def bands(self) -> list:
        """The generation-band descriptors the H108 verifier checks
        (host band 0 plus one band per shard)."""
        from ..analysis.sharding import ShardBand

        bands = [
            ShardBand(
                owner="host",
                base_cid=self.parent.contexts.base_cid,
                cid_span=SHARD_CID_STRIDE,
            )
        ]
        for shard in self.shards:
            bands.append(
                ShardBand(
                    owner=shard.name,
                    base_cid=shard.engine.contexts.base_cid,
                    cid_span=SHARD_CID_STRIDE,
                )
            )
        return bands

    # -- chaos hooks --------------------------------------------------------

    def kill(self, index: int) -> None:
        """Mark one shard's device lost (deterministically): its next
        GPU task raises :class:`DeviceLostError` and the shard serves
        CPU recomputes until :meth:`revive`."""
        self.shards[index].forced_dead = True

    def revive(self, index: int) -> None:
        """Undo :meth:`kill`."""
        self.shards[index].forced_dead = False

    # -- the pool -----------------------------------------------------------

    def map(self, fn: Callable[[Shard], Any]) -> list:
        """Run ``fn(shard)`` for every shard concurrently; results come
        back in shard order.

        The calling thread's deadline (thread-local) is re-installed in
        every worker so cooperative cancellation crosses the pool.  All
        futures are always joined; the first exception *in shard order*
        is then re-raised.
        """
        deadline = current_deadline()

        def worker(shard: Shard, token: Any) -> Any:
            # Submit→begin and end→join are the pool's happens-before
            # edges: everything the submitter did is visible to the
            # worker, everything the worker did is visible after the
            # host joins its future.
            sanitize.task_begin(token)
            try:
                if deadline is None:
                    return fn(shard)
                with use_deadline(deadline):
                    return fn(shard)
            finally:
                sanitize.task_end(token)

        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.threads,
                thread_name_prefix="repro-shard",
            )
        futures = []
        for shard in self.shards:
            token = sanitize.fork()
            futures.append(
                (self._pool.submit(worker, shard, token), token)
            )
        results: list = []
        error: BaseException | None = None
        for future, token in futures:
            try:
                results.append(future.result())
            # Every future is joined before the first error (in shard
            # order) is re-raised below — nothing is swallowed.
            # repro-lint: disable=bare-except
            except BaseException as exc:
                results.append(None)
                if error is None:
                    error = exc
            # The worker ran (successfully or not) — either way its
            # writes are ordered before everything after this join.
            sanitize.task_join(token)
        if error is not None:
            raise error
        return results

    # -- context propagation ------------------------------------------------

    def create_context(self, parent_context: Any) -> None:
        """Mirror a parent-engine context onto every shard (called by
        ``GpuEngine.create_context``)."""
        self._contexts[parent_context.cid] = [
            shard.engine.create_context(
                f"{parent_context.name}@{shard.name}"
            )
            for shard in self.shards
        ]

    def _mirrors(self, parent_context: Any) -> list:
        if (
            parent_context is None
            or parent_context is self.parent.contexts.default
        ):
            return [shard.engine.contexts.default for shard in self.shards]
        try:
            return self._contexts[parent_context.cid]
        except KeyError:
            raise QueryError(
                f"context {parent_context.name!r} was not created "
                "through this sharded engine"
            ) from None

    def activate_context(self, parent_context: Any) -> None:
        for shard, mirror in zip(
            self.shards, self._mirrors(parent_context)
        ):
            shard.engine.activate_context(mirror)

    def release_context(self, parent_context: Any) -> None:
        for shard, mirror in zip(
            self.shards, self._mirrors(parent_context)
        ):
            shard.engine.release_context(mirror)
        self._contexts.pop(parent_context.cid, None)


def _extremum_of(op: str, k: int | None) -> str | None:
    """The MIN or MAX an order statistic reduces to, if any (MIN, MAX,
    and the first largest / smallest): those merge per-shard extrema
    instead of running the distributed search."""
    if k == 1:
        op = {"kth_largest": "maximum", "kth_smallest": "minimum"}.get(
            op, op
        )
    return op if op in ("minimum", "maximum") else None


@dataclasses.dataclass
class _ShardState:
    """Per-shard mutable state for one fanned-out operation."""

    shard: Shard
    #: The parent's schedule: each shard walks its selection prefix.
    schedule: Any
    #: True while the shard's GPU holds the prepared selection mask and
    #: depth copy; cleared by faults so retries rebuild both.
    prepared: bool = False
    valid: int | None = None
    valid_count: int = 0
    texture: object = None
    #: CPU mirror, populated lazily on degradation only: the selected
    #: stored values and the selection mask (None without a WHERE).
    cpu_values: np.ndarray | None = None
    cpu_mask: np.ndarray | None = None

    @property
    def op(self) -> str:
        return self.schedule.op

    @property
    def column_name(self) -> str:
        return self.schedule.payload["column"]

    @property
    def predicate(self) -> Any:
        return self.schedule.payload.get("predicate")


class ShardedExecutor:
    """Runs one parent :class:`PassSchedule` as N per-shard executions
    plus a host combiner.  Like :class:`ScheduleExecutor` it is
    stateless between operations — construct one per call.

    Two strategies cover every op:

    * **same schedule per shard plus a typed fold** — select, count,
      sum, selectivities and histogram: each shard engine runs the
      parent's own schedule through its ``execute_schedule`` and the
      host folds the partials (:mod:`repro.shard.combiners`);
    * **distributed search** — the order statistics: the shared
      :func:`~repro.core.aggregates.bit_search` over a count function
      that sums one pool round of per-shard comparison quads, at the
      ranks :func:`~repro.core.aggregates.order_targets` derives from
      the summed valid count.  MIN and MAX instead run one local
      search per shard and keep the extremum.

    AVG runs the single-device SUM/AVG body per shard and merges the
    ``(sum, count)`` pairs.
    """

    _DRIVERS = {
        "select": "_run_select",
        "count": "_run_count",
        "sum": "_run_fold",
        "selectivities": "_run_fold",
        "histogram": "_run_fold",
        "average": "_run_average",
        "kth_largest": "_run_order_statistic",
        "kth_smallest": "_run_order_statistic",
        "minimum": "_run_order_statistic",
        "maximum": "_run_order_statistic",
        "median": "_run_order_statistic",
        "quantiles": "_run_order_statistic",
        "top_k": "_run_order_statistic",
    }

    def __init__(self, engine: Any) -> None:
        self.engine = engine
        self.pool: ShardedDevice = engine.sharded
        #: shard index -> error string, for shards that fell back to
        #: the CPU during *this* operation.  Written by pool workers
        #: (concurrently) and read both by workers and, post-join, by
        #: the host — hence the lock.
        self._degraded: dict[int, str] = {}
        self._degraded_lock = sanitize.TrackedLock()

    # -- entry point --------------------------------------------------------

    def execute(self, schedule: Any) -> Any:
        """Fan one already-vetted parent schedule out (see
        :meth:`GpuEngine.execute_schedule`)."""
        # One stats window per shard per operation, opened host-side so
        # a shard that degrades before its first pass reports zero work
        # instead of a stale window.
        for shard in self.pool.shards:
            shard.engine.device.stats.reset()
        driver = getattr(self, self._DRIVERS[schedule.op])
        tracer = self.engine.tracer
        if tracer is None:
            return driver(schedule)
        span = tracer.begin(
            schedule.op,
            shards=len(self.pool.shards),
            table=schedule.table,
        )
        try:
            result = driver(schedule)
        except BaseException:
            tracer.end(span)
            raise
        model = self.engine.cost_model
        degraded = self._degraded_snapshot()
        for index, part in enumerate(result.shard_results):
            tracer.record_event(
                "shard",
                category="shard",
                shard=f"shard-{index}",
                modeled_ms=part.total_time(model).total_ms,
                passes=part.pass_count,
                degraded=index in result.degraded_shards,
            )
        for index in result.degraded_shards:
            tracer.record_event(
                "shard-degraded",
                category="shard",
                shard=f"shard-{index}",
                error=degraded.get(index, ""),
            )
        tracer.record_event(
            "shard-combine",
            category="shard",
            combiner=result.combiner,
            combiner_ms=result.combiner_ms,
        )
        tracer.end(span, modeled_ms=result.time_ms)
        return result

    # -- degradation --------------------------------------------------------

    def _shard_call(
        self, shard: Shard, gpu_fn: Callable, cpu_fn: Callable
    ) -> Any:
        """Run a shard task on its GPU, degrading that shard — and only
        that shard — to ``cpu_fn`` when the GPU path fails for good.

        ``gpu_fn`` must already carry its own resilient retries (engine
        methods do; custom bodies go through :meth:`_resilient`).  A
        :class:`QueryTimeoutError` always propagates: deadlines cancel
        the whole query, they do not degrade it.
        """
        if self._is_degraded(shard):
            return cpu_fn(shard)
        if shard.forced_dead:
            self._degrade(
                shard, DeviceLostError(f"{shard.name} device lost")
            )
            return cpu_fn(shard)
        try:
            return gpu_fn(shard)
        except GpuError as error:
            self._degrade(shard, error)
            return cpu_fn(shard)

    def _is_degraded(self, shard: Shard) -> bool:
        with self._degraded_lock:
            sanitize.note(self, "_degraded", sanitize.READ)
            return shard.index in self._degraded

    def _degraded_snapshot(self) -> dict[int, str]:
        with self._degraded_lock:
            sanitize.note(self, "_degraded", sanitize.READ)
            return dict(self._degraded)

    def _degrade(self, shard: Shard, error: Exception) -> None:
        with self._degraded_lock:
            sanitize.note(self, "_degraded", sanitize.WRITE)
            self._degraded[shard.index] = (
                f"{type(error).__name__}: {error}"
            )
        executor = self.engine.executor
        if executor is not None:
            executor.stats.record_fallback(shard.name)

    def _resilient(
        self, shard: Shard, fn: Callable, op: str
    ) -> Any:
        """One shard task through :func:`run_resilient` on the shard's
        engine, attributed to ``shard-<i>:<op>``."""
        return run_resilient(
            shard.engine, fn, op=f"{shard.name}:{op}", tracer=None
        )

    def _guarded(self, state: _ShardState, body: Callable) -> Any:
        """Run ``body()`` against prepared GPU state, re-running
        :meth:`_prepare_search` first whenever a fault tore the
        prepared selection mask / depth copy down."""

        def run() -> Any:
            if not state.prepared:
                self._prepare_search(state)
            try:
                return body()
            except GpuError:
                state.prepared = False
                raise

        return self._resilient(state.shard, run, state.op)

    # -- CPU mirrors --------------------------------------------------------

    def _cpu_state(self, state: _ShardState) -> _ShardState:
        """Materialize the shard's selected stored values and selection
        mask on the host (degraded shards only)."""
        if state.cpu_values is None:
            values, selection = state.shard.cpu.select_values(
                state.column_name, state.predicate
            )
            state.cpu_values = values
            state.cpu_mask = None if selection is None else selection.mask
            state.valid_count = int(values.size)
        return state

    # -- result assembly ----------------------------------------------------

    def _combined(
        self, op: str, value: Any, parts: Any, combiner: str | None = None
    ) -> ShardedOpResult:
        """Assemble the fan-out result; ``combiner`` names the spec
        whose description it carries when that is not ``op``'s own
        (MIN/MAX-shaped k-th searches)."""
        return ShardedOpResult(
            value=value,
            copy=PipelineStats.merged([p.copy for p in parts]),
            compute=PipelineStats.merged([p.compute for p in parts]),
            model=self.engine.cost_model,
            shard_results=list(parts),
            combiner=COMBINERS[combiner or op],
            combiner_ms=COMBINE_MS_PER_SHARD * len(parts),
            degraded_shards=tuple(sorted(self._degraded_snapshot())),
        )

    def _harvest(
        self, states: list[_ShardState], value_of: Callable
    ) -> list:
        """Close every shard's stats window into a per-shard
        :class:`GpuOpResult` (degraded shards report the GPU work they
        did manage before falling back)."""
        parts = []
        for state in states:
            copy, compute = split_copy_stats(
                state.shard.engine.device.stats.snapshot()
            )
            state.shard.engine.device.stats.reset()
            parts.append(
                GpuOpResult(
                    value=value_of(state),
                    copy=copy,
                    compute=compute,
                    model=self.engine.cost_model,
                )
            )
        return parts

    # -- folded ops: the parent's schedule on every shard -------------------

    def _run_select(self, schedule: Any) -> Any:
        predicate = schedule.payload["predicate"]

        def cpu(shard: Shard) -> Selection:
            ids = shard.cpu.select(predicate).record_ids()
            return Selection(
                value=int(ids.size),
                copy=PipelineStats(),
                compute=PipelineStats(),
                model=self.engine.cost_model,
                valid_stencil=1,
                total_records=shard.num_records,
                engine=None,
                _cached_ids=ids,
            )

        parts = self.pool.map(
            lambda shard: self._shard_call(
                shard, lambda s: s.engine.execute_schedule(schedule), cpu
            )
        )
        return ShardedSelection(
            value=sum(part.count for part in parts),
            copy=PipelineStats.merged([p.copy for p in parts]),
            compute=PipelineStats.merged([p.compute for p in parts]),
            model=self.engine.cost_model,
            valid_stencil=1,
            total_records=self.engine.relation.num_records,
            engine=self.engine,
            shard_results=list(parts),
            offsets=tuple(s.start for s in self.pool.shards),
            combiner=COMBINERS["select"],
            combiner_ms=COMBINE_MS_PER_SHARD * len(parts),
            degraded_shards=tuple(sorted(self._degraded_snapshot())),
        )

    def _run_count(self, schedule: Any) -> Any:
        """COUNT with a WHERE is the sharded selection; COUNT(*)
        folds."""
        if schedule.payload["predicate"] is not None:
            return self._run_select(schedule)
        return self._run_fold(schedule)

    def _run_fold(self, schedule: Any) -> Any:
        """count, sum, selectivities, histogram: every shard runs the
        parent's schedule; the host folds the partial values."""
        op = schedule.op
        payload = schedule.payload

        def cpu(shard: Shard) -> GpuOpResult:
            if op == "selectivities":
                result = shard.cpu.selectivities(payload["predicates"])
            elif op == "histogram":
                result = shard.cpu.histogram(
                    payload["column"], payload["buckets"]
                )
            else:
                result = shard.cpu.aggregate(
                    op, payload["column"], payload["predicate"]
                )
            return GpuOpResult(
                value=result.value,
                copy=PipelineStats(),
                compute=PipelineStats(),
                model=self.engine.cost_model,
            )

        parts = self.pool.map(
            lambda shard: self._shard_call(
                shard, lambda s: s.engine.execute_schedule(schedule), cpu
            )
        )
        partials = [part.value for part in parts]
        if op == "histogram":
            value: Any = (
                schedule.payload["edges"],
                fold(op, [counts for _edges, counts in partials]),
            )
        else:
            value = fold(op, partials)
        return self._combined(op, value, parts)

    def _run_average(self, schedule: Any) -> Any:
        column_name = schedule.payload["column"]
        predicate = schedule.payload.get("predicate")
        column = self.engine.relation.column(column_name)
        states = {
            shard.index: _ShardState(shard, schedule)
            for shard in self.pool.shards
        }

        def gpu(shard: Shard) -> Any:
            # The single-device SUM/AVG body minus the division; an
            # empty shard legitimately contributes (0, 0).
            body = ScheduleExecutor(shard.engine)
            return self._resilient(
                shard, lambda: body.stored_sum(schedule), "average"
            )

        def cpu(shard: Shard) -> Any:
            return shard.cpu.stored_sum(column_name, predicate)

        partials = self.pool.map(
            lambda shard: self._shard_call(shard, gpu, cpu)
        )
        total, count = fold(
            "average", [tuple(part) for part in partials]
        )
        if count == 0:
            raise QueryError("AVG of an empty selection")
        value = column.sum_from_stored(total, count) / count
        parts = self._harvest(
            list(states.values()),
            lambda state: partials[state.shard.index],
        )
        return self._combined("average", value, parts)

    # -- order statistics ---------------------------------------------------

    def _prepare_search(self, state: _ShardState) -> None:
        """Per-shard GPU prep for order statistics: the selection mask,
        then the engine's shared search prep (depth copy through the
        shard's fusion cache, valid-stencil test armed).  Idempotent —
        faults re-run it from scratch."""
        engine = state.shard.engine
        valid, state.valid_count = engine._selection_stencil(
            state.schedule
        )
        state.valid, state.texture = engine.prepare_search(
            state.schedule, valid
        )
        state.prepared = True

    def _prepare_all(self, states: dict[int, _ShardState]) -> int:
        """Fan the search prep out to every shard; returns the combined
        valid-record count (degraded shards count on the CPU)."""
        self._on_shards(states, lambda state: None, lambda state: None)
        return sum(state.valid_count for state in states.values())

    def _on_shards(
        self,
        states: dict[int, _ShardState],
        gpu_body: Callable[[_ShardState], Any],
        cpu_body: Callable[[_ShardState], Any],
    ) -> list:
        """One pool round: ``gpu_body`` against each shard's prepared
        state, or ``cpu_body`` on its host mirror once it degraded."""
        return self.pool.map(
            lambda shard: self._shard_call(
                shard,
                lambda s: self._guarded(
                    states[s.index], lambda: gpu_body(states[s.index])
                ),
                lambda s: cpu_body(self._cpu_state(states[s.index])),
            )
        )

    def _search_counter(
        self, states: dict[int, _ShardState], bits: int
    ) -> Callable[[int], int]:
        """``count_at_least`` for :func:`aggregates.bit_search` across
        the pool: every shard renders one occlusion-counted ``GEQUAL``
        quad at the broadcast value and the host sums the counts — one
        distributed COUNT per round, folded with the count combiner."""

        def count_at_least(value: int) -> int:
            counts = self._on_shards(
                states,
                lambda state: int(
                    aggregates.count_at_least(
                        state.shard.engine.device, state.texture, bits,
                        value,
                    )
                ),
                lambda state: int(
                    np.count_nonzero(state.cpu_values >= value)
                ),
            )
            return fold("count", counts)

        return count_at_least

    def _extremum(
        self, states: dict[int, _ShardState], bits: int, op: str,
    ) -> int:
        """MIN/MAX merge trivially: each shard runs its *local* search
        (the same passes) at its local rank and the host keeps the
        extremum.  Shards whose selection is empty sit the search
        out."""

        def gpu(state: _ShardState) -> int | None:
            if state.valid_count == 0:
                return None
            (rank,) = aggregates.order_targets(op, state.valid_count)
            count = partial(
                aggregates.count_at_least,
                state.shard.engine.device, state.texture, bits,
            )
            return aggregates.bit_search(count, bits, rank)

        def cpu(state: _ShardState) -> int | None:
            if state.valid_count == 0:
                return None
            if op == "maximum":
                return int(state.cpu_values.max())
            return int(state.cpu_values.min())

        found = [
            value
            for value in self._on_shards(states, gpu, cpu)
            if value is not None
        ]
        return fold(op, found)

    def _run_order_statistic(self, schedule: Any) -> Any:
        op = schedule.op
        payload = schedule.payload
        k = payload.get("k")
        column_name = payload["column"]
        column = self.engine.relation.column(column_name)
        states = {
            shard.index: _ShardState(shard, schedule)
            for shard in self.pool.shards
        }
        total_valid = self._prepare_all(states)
        targets = aggregates.order_targets(
            op, total_valid, k=k, fractions=payload.get("fractions")
        )
        extremum = _extremum_of(op, k)
        if extremum is not None:
            stored = [self._extremum(states, column.bits, extremum)]
        else:
            count = self._search_counter(states, column.bits)
            stored = [
                aggregates.bit_search(count, column.bits, target)
                for target in targets
            ]
        values = [column.from_stored(value) for value in stored]
        if op == "quantiles":
            value: Any = values
        elif op == "top_k":
            value = self._mark_top_k(states, column, values[0], stored[0])
        else:
            value = values[0]
        parts = self._harvest(
            list(states.values()), lambda s: s.valid_count
        )
        return self._combined(op, value, parts, combiner=extremum)

    def _mark_top_k(
        self,
        states: dict[int, _ShardState],
        column: Any,
        threshold: Any,
        stored_threshold: int,
    ) -> TopK:
        """The single-device mark pass on every shard, ids offset by
        the shard start and concatenated in shard order."""
        depth = column.normalize(threshold)

        def mark(state: _ShardState) -> np.ndarray:
            # The INCR pass consumes the prepared mask: if anything
            # after it faults, the retry must rebuild the mask first or
            # surviving records would be bumped twice.
            state.prepared = False
            return aggregates.mark_top_k(
                state.shard.engine.device, state.texture, state.valid,
                depth, state.shard.num_records,
            )

        def cpu(state: _ShardState) -> np.ndarray:
            ids = np.flatnonzero(state.cpu_values >= stored_threshold)
            if state.cpu_mask is not None:
                ids = np.flatnonzero(state.cpu_mask)[ids]
            return ids

        id_parts = self._on_shards(states, mark, cpu)
        ids = np.concatenate(
            [
                np.asarray(part, dtype=np.int64) + shard.start
                for part, shard in zip(id_parts, self.pool.shards)
            ]
        )
        return TopK(threshold=threshold, record_ids=ids)
