"""SQL execution over the GPU and CPU engines.

:class:`Database` is the user-facing entry point::

    db = Database()
    db.register(make_tcpip(100_000))
    result = db.query(
        "SELECT COUNT(*), MAX(data_count) FROM tcpip "
        "WHERE data_loss > 100 AND flow_rate BETWEEN 1000 AND 60000"
    )

Queries run on whichever device the planner picks (GPU for selections
and order statistics at scale, CPU for SUM/AVG — the paper's
co-processor split) unless ``device=`` forces one.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..core.cpu_engine import CpuEngine
from ..core.engine import GpuEngine
from ..core.relation import Relation
from ..cpu.cost import CpuCostModel
from ..errors import GpuError, QueryError, SqlPlanError
from ..faults import ResilientExecutor, current_executor
from ..gpu.cost import GpuCostModel
from ..gpu.counters import PipelineStats
from ..plan import PassSchedule, lower_statement
from ..trace import Trace, Tracer
from .ast import (
    AGGREGATE_OPS,
    AggregateFunc,
    AggregateItem,
    ColumnItem,
    SelectStatement,
    StarItem,
)
from .parser import parse
from .planner import DeviceChoice, Planner, QueryPlan


@dataclasses.dataclass
class QueryResult:
    """Rows plus provenance: which device ran it and the plan."""

    columns: list[str]
    rows: list[tuple]
    device: DeviceChoice
    plan: QueryPlan
    #: Per-pass execution trace, when the query ran with ``trace=True``.
    trace: Trace | None = None
    #: True when the GPU path failed for good and the answer came from
    #: the CPU engine instead (``device`` reflects the engine that
    #: actually produced the rows).
    fallback: bool = False
    #: The persistent GPU error that forced the fallback, as text.
    fallback_error: str | None = None
    #: Per-operation engine results (``GpuOpResult``/``CpuOpResult``)
    #: collected while the query ran, in execution order.
    op_results: list = dataclasses.field(
        default_factory=list, repr=False, compare=False
    )

    # -- unified cost accessors (shared with GpuOpResult/CpuOpResult) --

    @property
    def time_ms(self) -> float:
        """Simulated device milliseconds summed over every engine
        operation this query issued."""
        return sum(result.time_ms for result in self.op_results)

    @property
    def pass_count(self) -> int:
        """Rendering passes issued across the whole query (0 on CPU)."""
        return sum(result.pass_count for result in self.op_results)

    @property
    def stats(self) -> PipelineStats:
        """Merged pipeline statistics over every engine operation."""
        return PipelineStats.merged(
            result.stats for result in self.op_results
        )

    @property
    def scalar(self):
        """The single value of a one-row, one-column result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise SqlPlanError(
                f"result is {len(self.rows)}x{len(self.columns)}, "
                "not scalar"
            )
        return self.rows[0][0]

    def column(self, label: str) -> list:
        try:
            index = self.columns.index(label)
        except ValueError:
            raise SqlPlanError(
                f"no result column {label!r}; have {self.columns}"
            ) from None
        return [row[index] for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)


class Database:
    """A named collection of relations with lazily-built engines."""

    def __init__(
        self,
        gpu_cost: GpuCostModel | None = None,
        cpu_cost: CpuCostModel | None = None,
        executor: ResilientExecutor | None = None,
        shards: int | None = None,
    ):
        """``executor`` attaches a
        :class:`~repro.faults.ResilientExecutor` shared by every engine
        this database builds: engine operations retry transient GPU
        faults, and a query whose GPU path fails for good degrades to
        the CPU engine with ``QueryResult.fallback`` set (unless the
        caller forced ``device="gpu"``).  Defaults to the process-wide
        executor from :func:`repro.faults.use_executor`, usually
        ``None`` — GPU failures then surface as
        :class:`~repro.errors.QueryError`.

        ``shards`` partitions every GPU engine this database builds
        across that many simulated devices (:mod:`repro.shard`):
        per-shard schedules run concurrently and the host combines the
        answers.  ``None`` follows ``REPRO_SHARDS``; the default of 1
        is the single-device engine, bit-identical to ``shards=None``
        with the variable unset.  ``explain`` renders the fan-out.
        """
        from ..shard import resolve_shards

        self.gpu_cost = gpu_cost or GpuCostModel()
        self.cpu_cost = cpu_cost or CpuCostModel()
        self.shards = resolve_shards(shards)
        self.executor = (
            executor if executor is not None else current_executor()
        )
        self.planner = Planner(self.gpu_cost, self.cpu_cost)
        self._relations: dict[str, Relation] = {}
        self._gpu_engines: dict[str, GpuEngine] = {}
        self._cpu_engines: dict[str, CpuEngine] = {}
        #: Tracer of the in-flight traced query, threaded into engines
        #: built lazily while it runs.
        self._query_tracer: Tracer | None = None
        #: Engine op results of the in-flight query (``None`` when idle).
        self._op_log: list | None = None

    def register(self, relation: Relation) -> None:
        self._relations[relation.name] = relation
        self._gpu_engines.pop(relation.name, None)
        self._cpu_engines.pop(relation.name, None)

    def relation(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise SqlPlanError(
                f"unknown table {name!r}; registered: "
                f"{sorted(self._relations)}"
            ) from None

    def gpu_engine(self, name: str) -> GpuEngine:
        engine = self._gpu_engines.get(name)
        if engine is None:
            engine = GpuEngine(
                self.relation(name),
                self.gpu_cost,
                tracer=self._query_tracer,
                executor=self.executor,
                shards=self.shards,
            )
            self._gpu_engines[name] = engine
        return engine

    def cpu_engine(self, name: str) -> CpuEngine:
        engine = self._cpu_engines.get(name)
        if engine is None:
            engine = CpuEngine(
                self.relation(name),
                self.cpu_cost,
                tracer=self._query_tracer,
            )
            self._cpu_engines[name] = engine
        return engine

    # -- entry points ------------------------------------------------------------

    @staticmethod
    def _normalize_device(device) -> DeviceChoice:
        """Require the :class:`DeviceChoice` enum (``repro.sql.Device``).

        The string form (``"gpu"`` / ``"cpu"`` / ``"auto"``) went
        through a deprecation cycle and is now rejected outright with a
        typed error naming the replacement.
        """
        if isinstance(device, DeviceChoice):
            return device
        if isinstance(device, str):
            raise SqlPlanError(
                f"device={device!r}: the string device form has been "
                "removed; pass repro.sql.Device.GPU / .CPU / .AUTO"
            )
        raise SqlPlanError(
            f"unknown device {device!r}; pass repro.sql.Device.GPU / "
            ".CPU / .AUTO"
        )

    def plan(
        self, sql: str, device: DeviceChoice = DeviceChoice.AUTO
    ) -> QueryPlan:
        statement = parse(sql)
        relation = self.relation(statement.table)
        right = None
        if statement.join is not None:
            right = self.relation(statement.join.right_table)
        return self.planner.plan(
            statement,
            relation,
            self._normalize_device(device),
            right_relation=right,
        )

    def explain(
        self,
        sql: str,
        device: DeviceChoice = DeviceChoice.AUTO,
        fuse: bool = True,
        verify: bool = False,
        jit: bool = False,
    ) -> PassSchedule:
        """Compile ``sql`` to the :class:`~repro.plan.PassSchedule` the
        chosen device would execute, without running it.

        The schedule renders with
        :meth:`~repro.plan.PassSchedule.render_text`, mirroring the
        pass tree a traced execution produces.  ``fuse=False`` shows
        the unfused lowering for comparison.

        ``verify=True`` additionally runs the static schedule verifier
        (:mod:`repro.analysis`) over the compiled schedule, raising
        :class:`~repro.errors.PlanVerificationError` — whose ``report``
        attribute carries the typed diagnostics — if it hides a hazard.

        ``jit=True`` annotates the schedule (``meta["kernels"]``) with
        the :mod:`repro.gpu.jit` compiled-kernel summaries of the
        fragment programs its passes bind — one line per distinct
        program showing the instruction count surviving dead-code
        elimination.  Fixed-function passes (plain compare / range
        quads) bind no program and are not listed.
        """
        plan = self.plan(sql, device=device)
        schedule = lower_statement(
            plan.statement,
            plan.relation,
            fuse=fuse,
            device=plan.chosen_device.value,
        )
        if verify:
            from ..analysis import assert_verified

            assert_verified(schedule)
        if jit:
            schedule.meta["kernels"] = self._kernel_summaries(schedule)
        if self.shards > 1 and schedule.device == "gpu":
            schedule.fanout = self._shard_fanout(
                schedule, plan.relation, plan.statement
            )
        return schedule

    def _shard_fanout(
        self, schedule: PassSchedule, relation: Relation, statement
    ):
        """The :class:`~repro.plan.ShardFanout` annotation describing
        how this database's shard pool would execute ``schedule``: the
        balanced record partition, each shard's virtual-context cid
        band, and the host-side combiner for the schedule's op."""
        from ..plan import ShardFanout
        from ..shard import (
            COMBINERS,
            SHARD_CID_STRIDE,
            pool_threads,
            shard_bounds,
        )

        combiner = COMBINERS.get(schedule.op)
        if combiner is None:
            # Whole-statement schedules carry op="query"; name the
            # combiner of each aggregate item (projections concatenate).
            labels: list[str] = []
            for item in getattr(statement, "items", ()):
                func = getattr(item, "func", None)
                if func is None:
                    continue
                label = COMBINERS.get(AGGREGATE_OPS[func])
                if label and label not in labels:
                    labels.append(label)
            combiner = (
                "; ".join(labels) if labels else COMBINERS["select"]
            )
        bounds = shard_bounds(relation.num_records, self.shards)
        return ShardFanout(
            shards=self.shards,
            threads=pool_threads(self.shards),
            shard_records=tuple(stop - start for start, stop in bounds),
            bands=tuple(
                ((index + 1) * SHARD_CID_STRIDE, SHARD_CID_STRIDE)
                for index in range(self.shards)
            ),
            combiner=combiner,
        )

    @staticmethod
    def _kernel_summaries(schedule: PassSchedule) -> list[str]:
        """Compiled-kernel one-liners for the statically-known fragment
        programs a schedule's passes bind (copy-to-depth and the
        Accumulator's alpha-tested TestBit), each compiled for the
        color components its pass's render state observes — the
        variant the device binds — deduplicated in first-use order."""
        from ..core.aggregates import accumulator_state
        from ..core.compare import copy_to_depth_state
        from ..gpu.jit import kernel_summary, live_color
        from ..gpu.programs import copy_to_depth_program, test_bit_program
        from ..gpu.state import RenderState
        from ..plan import CompareQuadPass, CopyDepthPass

        def live_under(configure) -> tuple:
            state = RenderState()
            configure(state)
            return live_color(state)

        summaries: list[str] = []
        for node in schedule.nodes:
            if isinstance(node, CopyDepthPass):
                text = kernel_summary(
                    copy_to_depth_program(node.channel),
                    live_under(copy_to_depth_state),
                )
            elif isinstance(node, CompareQuadPass) and (
                node.detail.startswith("TestBit")
            ):
                text = kernel_summary(
                    test_bit_program(), live_under(accumulator_state)
                )
            else:
                continue
            if text not in summaries:
                summaries.append(text)
        return summaries

    def query(
        self,
        sql: str,
        device: DeviceChoice = DeviceChoice.AUTO,
        trace: bool = False,
    ) -> QueryResult:
        """Parse, plan and execute ``sql``.

        ``trace=True`` records every engine operation and rendering
        pass of this query into a :class:`~repro.trace.Trace`
        (``result.trace``); render it with
        :func:`repro.trace.render_text` or export it with
        :func:`repro.trace.write_chrome_trace`.
        """
        requested = self._normalize_device(device)
        plan = self.plan(sql, device=requested)
        chosen = plan.chosen_device
        if not trace:
            rows, columns, fell_back = self._execute(
                plan, chosen, requested=requested
            )
            return self._result(plan, chosen, rows, columns, fell_back)
        tracer = Tracer(cost_model=self.gpu_cost)
        # Attach the tracer to every cached engine (engines built while
        # it is installed pick it up through the cache accessors), and
        # restore the previous tracers afterwards.
        previous = [
            (engine, engine.tracer)
            for engine in (
                list(self._gpu_engines.values())
                + list(self._cpu_engines.values())
            )
        ]
        for engine, _old in previous:
            engine.tracer = tracer
        self._query_tracer = tracer
        span = tracer.begin(
            "query", category="query", sql=sql, device=chosen.value
        )
        try:
            rows, columns, fell_back = self._execute(
                plan, chosen, requested=requested
            )
        finally:
            tracer.end(span)
            self._query_tracer = None
            restored = set()
            for engine, old in previous:
                engine.tracer = old
                restored.add(id(engine))
            for engine in (
                list(self._gpu_engines.values())
                + list(self._cpu_engines.values())
            ):
                if id(engine) not in restored:
                    engine.tracer = None  # built during this query
        return self._result(
            plan, chosen, rows, columns, fell_back,
            trace=tracer.finish(),
        )

    def _result(
        self, plan, chosen, rows, columns, fell_back, trace=None
    ) -> QueryResult:
        ops = self._op_log or []
        self._op_log = None
        if fell_back is not None:
            return QueryResult(
                columns=columns,
                rows=rows,
                device=DeviceChoice.CPU,
                plan=plan,
                trace=trace,
                fallback=True,
                fallback_error=(
                    f"{type(fell_back).__name__}: {fell_back}"
                ),
                op_results=ops,
            )
        return QueryResult(
            columns=columns,
            rows=rows,
            device=chosen,
            plan=plan,
            trace=trace,
            op_results=ops,
        )

    def _note_op(self, result):
        """Collect an engine op result for the in-flight query's unified
        cost accessors; returns the result unchanged."""
        if self._op_log is not None:
            self._op_log.append(result)
        return result

    def _execute(
        self,
        plan: QueryPlan,
        chosen: DeviceChoice,
        requested: DeviceChoice = DeviceChoice.AUTO,
    ):
        """Run the plan; returns ``(rows, columns, fallback_error)``.

        The substrate's typed :class:`~repro.errors.GpuError` never
        leaks raw to the caller: with a
        :class:`~repro.faults.ResilientExecutor` attached (and the
        device not forced to ``"gpu"``), a persistent GPU failure
        degrades to the CPU engine and the error is reported through
        ``QueryResult.fallback``; otherwise it is wrapped in a
        :class:`~repro.errors.QueryError` with the original as
        ``__cause__``.
        """
        statement = plan.statement
        self._op_log = []
        try:
            rows, columns = self._run(statement, chosen)
            return rows, columns, None
        except GpuError as error:
            if chosen is not DeviceChoice.GPU:
                raise  # CPU paths never touch the substrate
            if self.executor is None or requested is DeviceChoice.GPU:
                raise QueryError(
                    f"GPU execution failed: {error}"
                ) from error
            # Engine operations already retried; degrade without
            # another round of retries.
            rows, columns = self.executor.degrade(
                error,
                lambda: self._run(statement, DeviceChoice.CPU),
                op="query",
                tracer=self._query_tracer,
            )
            return rows, columns, error

    def _run(self, statement: SelectStatement, device: DeviceChoice):
        """Execute ``statement`` on ``device``'s engine."""
        if statement.join is not None:
            return self._execute_join(statement, device)
        if device is DeviceChoice.GPU:
            engine = self.gpu_engine(statement.table)
        else:
            engine = self.cpu_engine(statement.table)
        return self._execute_statement(engine, statement)

    # -- execution ------------------------------------------------------------------

    def _execute_join(
        self, statement: SelectStatement, device: DeviceChoice
    ):
        """Equi-join: GPU-histogram-pruned band join or CPU sort-probe.

        Both paths produce identical, deterministically ordered pairs.
        """
        join = statement.join
        left = self.relation(statement.table)
        right = self.relation(join.right_table)
        if device is DeviceChoice.GPU:
            from ..ext.join import band_join

            result = band_join(
                self.gpu_engine(statement.table),
                self.gpu_engine(join.right_table),
                join.left_column,
                join.right_column,
                band=0,
            )
            pairs = result.pairs
        else:
            from ..ext.join import hash_equi_join

            pairs = hash_equi_join(
                left.column(join.left_column).values,
                right.column(join.right_column).values,
            )
        return self._project_join(statement, left, right, pairs)

    def _project_join(self, statement, left, right, pairs):
        items = statement.items
        if statement.is_aggregate:
            labels = [item.label for item in items]
            if len(items) != 1:
                raise SqlPlanError(
                    "JOIN aggregate queries support a single COUNT(*)"
                )
            return [(int(pairs.shape[0]),)], labels
        specs = []  # (side, column_name, label)
        for item in items:
            if isinstance(item, StarItem):
                for name in left.column_names:
                    specs.append(("left", name, f"{left.name}.{name}"))
                for name in right.column_names:
                    specs.append(
                        ("right", name, f"{right.name}.{name}")
                    )
            else:
                side = "left" if item.table == left.name else "right"
                specs.append((side, item.column, item.label))
        labels = [label for _side, _name, label in specs]
        arrays = []
        for side, name, _label in specs:
            relation = left if side == "left" else right
            ids = pairs[:, 0] if side == "left" else pairs[:, 1]
            column = relation.column(name)
            values = column.values[ids]
            if column.is_integer:
                values = values.astype(np.int64)
            arrays.append(values)
        rows = [
            tuple(array[i].item() for array in arrays)
            for i in range(pairs.shape[0])
        ]
        return rows, labels

    def _execute_statement(
        self, engine: GpuEngine | CpuEngine, statement: SelectStatement
    ):
        """One statement body for either engine: aggregate statements
        evaluate the WHERE once (the COUNT probe) and every COUNT item
        reuses the probe's count; projections select the record ids."""
        predicate = statement.where
        if statement.group_by is not None:
            return self._execute_grouped(statement, engine)
        if statement.is_aggregate:
            probe_count = None
            if predicate is not None:
                probe_count = self._note_op(
                    engine.count(predicate)
                ).value
            empty = probe_count == 0
            row = []
            labels = []
            for item in statement.items:
                labels.append(item.label)
                if (
                    probe_count is not None
                    and isinstance(item, AggregateItem)
                    and item.func is AggregateFunc.COUNT
                ):
                    # The probe already evaluated this WHERE mask;
                    # reusing its count here is the executor half of
                    # the plan compiler's selection-reuse fusion.
                    row.append(probe_count)
                    continue
                row.append(
                    self._aggregate_or_null(engine, item, predicate, empty)
                )
            return [tuple(row)], labels
        if predicate is None:
            ids = np.arange(engine.relation.num_records)
        else:
            ids = self._note_op(engine.select(predicate)).record_ids()
        return self._project(engine.relation, ids, statement.items)

    def _aggregate_or_null(self, engine, item, predicate, empty):
        """SQL semantics over empty selections: COUNT(*) is 0, every
        other aggregate is NULL (None)."""
        if empty and isinstance(item, AggregateItem):
            if item.func is AggregateFunc.COUNT:
                return 0
            return None
        return self._aggregate(engine, item, predicate)

    def _aggregate(self, engine: GpuEngine | CpuEngine, item, predicate):
        """One aggregate item on either engine: both expose the
        :data:`~repro.sql.ast.AGGREGATE_OPS` names as methods."""
        if not isinstance(item, AggregateItem):
            raise SqlPlanError(
                "mixing aggregates with plain columns is not supported "
                "(aggregate queries return one row per group)"
            )
        op = AGGREGATE_OPS[item.func]
        if op == "count":
            return self._note_op(engine.count(predicate)).value
        return self._note_op(
            getattr(engine, op)(item.column, predicate)
        ).value

    def _execute_grouped(self, statement: SelectStatement, engine):
        """GROUP BY: one masked aggregation sweep per distinct group
        value, using the engine's stencil/mask selection machinery."""
        from ..core.predicates import And, Comparison
        from ..gpu.types import CompareFunc

        group_column = statement.group_by
        relation = engine.relation
        keys = np.unique(
            relation.column(group_column).values.astype(np.int64)
        )
        labels = [group_column] + [
            item.label for item in statement.items
        ]
        rows = []
        for key in keys:
            group_predicate = Comparison(
                group_column, CompareFunc.EQUAL, float(key)
            )
            if statement.where is not None:
                predicate = And(statement.where, group_predicate)
            else:
                predicate = group_predicate
            if self._note_op(engine.count(predicate)).value == 0:
                continue  # the WHERE clause emptied this group
            row = [int(key)]
            for item in statement.items:
                row.append(self._aggregate(engine, item, predicate))
            rows.append(tuple(row))
        return rows, labels

    @staticmethod
    def _project(relation: Relation, ids: np.ndarray, items):
        names: list[str] = []
        labels: list[str] = []
        for item in items:
            if isinstance(item, StarItem):
                names.extend(relation.column_names)
                labels.extend(relation.column_names)
            elif isinstance(item, ColumnItem):
                names.append(item.column)
                labels.append(item.label)
            else:
                raise SqlPlanError(
                    "mixing aggregates with plain columns is not "
                    "supported (aggregate queries return one row per group)"
                )
        columns = [relation.column(name) for name in names]
        arrays = [
            column.values[ids].astype(np.int64)
            if column.is_integer
            else column.values[ids]
            for column in columns
        ]
        # One ``tolist`` per column converts every cell to the Python
        # int or float ``.item()`` gives, in one C loop.
        rows = list(zip(*(array.tolist() for array in arrays)))
        return rows, labels
