"""The four benchmark workloads and their numpy oracles.

Every workload is a closed loop: a client sends its next request only
after the previous one returned.  Inputs come from the seed alone; the
program under test sees only the generated relation, the SQL text and
the stream batches.  Queries are forced onto ``Device.GPU`` so that a
planner change cannot move work to the CPU engine and pass for a
speed-up.

A workload object owns its inputs and its request sequence.  The
harness calls :meth:`Workload.build` to set the program up (timed as
``setup_s``), :meth:`Workload.issue` once per request, and
:meth:`Workload.expected` afterwards, outside the timed region, to
check every answer.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from typing import Any, Callable, Iterator

import numpy as np

from repro.core import col
from repro.data import make_tcpip
from repro.service import QueryService
from repro.sql import Database, Device
from repro.streams import ContinuousQuery, StreamEngine
from repro.trace import Trace, Tracer

TABLE = "tcpip"
COLUMNS = ("data_count", "data_loss", "flow_rate", "retransmissions")
BITS = {"data_count": 19, "data_loss": 10, "flow_rate": 16,
        "retransmissions": 8}
#: Seeds the warm-up statements, the hot statements and the requests
#: ``modeled_ms_per_op`` averages, whatever ``--seed`` is: the modeled
#: cost then moves with the program, not with the request order or the
#: constants (only the seeded data still nudges early-z culling).
REFERENCE_SEED = 0x5EED


@dataclasses.dataclass(frozen=True)
class Request:
    """One op: a query (template plus constants) or one stream tick."""

    client: int
    index: int
    template: str
    params: tuple
    sql: str | None = None


@dataclasses.dataclass
class ProgramTrace:
    """A trace the program recorded while serving one request."""

    trace: Trace
    #: ``"query"`` (``QueryResult.trace``), ``"shard"`` (one shard
    #: engine) or ``"stream"`` (the stream device).
    source: str
    #: ``perf_counter`` time of the tracer's origin; ``None`` when the
    #: program built the tracer itself (its root span is then placed to
    #: end with the request).
    origin: float | None = None


@dataclasses.dataclass
class Outcome:
    """What one request returned, plus what the traced run reads."""

    answer: Any
    modeled_ms: float
    #: Merged pipeline statistics of the request (bytes moved).
    stats: Any = None
    #: Seconds the request waited in the service's admission queue.
    queued_s: float = 0.0
    traces: list[ProgramTrace] = dataclasses.field(default_factory=list)


# -- SQL templates ----------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Template:
    """A query shape: SQL text, constant generator and numpy oracle."""

    name: str
    sql: str
    draw: Callable[[np.random.Generator], tuple]
    where: Callable[[dict, tuple], np.ndarray]
    answer: Callable[[dict, np.ndarray], list]


def _ints(rng: np.random.Generator, *ranges: tuple[int, int]) -> tuple:
    return tuple(int(rng.integers(lo, hi)) for lo, hi in ranges)


def _count(cols: dict, mask: np.ndarray) -> list:
    return [(int(mask.sum()),)]


def _maximum(column: str):
    def answer(cols: dict, mask: np.ndarray) -> list:
        values = cols[column][mask]
        return [(int(values.max()) if values.size else None,)]
    return answer


def _median(column: str):
    """SQL MEDIAN is the ceil(n/2)-th largest value."""
    def answer(cols: dict, mask: np.ndarray) -> list:
        values = cols[column][mask]
        if not values.size:
            return [(None,)]
        index = values.size - (values.size + 1) // 2
        return [(int(np.partition(values, index)[index]),)]
    return answer


def _sum(column: str):
    def answer(cols: dict, mask: np.ndarray) -> list:
        values = cols[column][mask]
        return [(int(values.sum()) if values.size else None,)]
    return answer


def _project(*names: str):
    """Matching rows in record order."""
    def answer(cols: dict, mask: np.ndarray) -> list:
        ids = np.flatnonzero(mask)
        return list(zip(*(cols[name][ids].tolist() for name in names)))
    return answer


#: The seven query shapes of the paper's section 5.
TEMPLATES = (
    Template(
        "fig3_count",
        "SELECT COUNT(*) FROM tcpip WHERE data_loss > {0}",
        lambda rng: _ints(rng, (20, 121)),
        lambda c, p: c["data_loss"] > p[0],
        _count,
    ),
    Template(
        "fig4_range",
        "SELECT COUNT(*) FROM tcpip WHERE flow_rate BETWEEN {0} AND {1}",
        lambda rng: (lambda lo, w: (lo, lo + w))(
            *_ints(rng, (0, 32768), (4096, 32768))
        ),
        lambda c, p: (c["flow_rate"] >= p[0]) & (c["flow_rate"] <= p[1]),
        _count,
    ),
    Template(
        "fig5_cnf",
        "SELECT COUNT(*) FROM tcpip WHERE data_loss > {0} "
        "AND flow_rate < {1} AND retransmissions >= {2}",
        lambda rng: _ints(rng, (20, 61), (16384, 60001), (5, 41)),
        lambda c, p: (
            (c["data_loss"] > p[0])
            & (c["flow_rate"] < p[1])
            & (c["retransmissions"] >= p[2])
        ),
        _count,
    ),
    Template(
        "max_where",
        "SELECT MAX(data_count) FROM tcpip WHERE data_loss > {0}",
        lambda rng: _ints(rng, (20, 121)),
        lambda c, p: c["data_loss"] > p[0],
        _maximum("data_count"),
    ),
    Template(
        "fig9_median",
        "SELECT MEDIAN(data_count) FROM tcpip WHERE data_loss <= {0}",
        lambda rng: _ints(rng, (40, 401)),
        lambda c, p: c["data_loss"] <= p[0],
        _median("data_count"),
    ),
    Template(
        "fig10_sum",
        "SELECT SUM(retransmissions) FROM tcpip WHERE flow_rate > {0}",
        lambda rng: _ints(rng, (0, 49153)),
        lambda c, p: c["flow_rate"] > p[0],
        _sum("retransmissions"),
    ),
    Template(
        # About 0.1% of uniform 16-bit flow rates.
        "projection",
        "SELECT data_count, flow_rate FROM tcpip "
        "WHERE flow_rate BETWEEN {0} AND {1}",
        lambda rng: (lambda lo: (lo, lo + 63))(*_ints(rng, (0, 65473))),
        lambda c, p: (c["flow_rate"] >= p[0]) & (c["flow_rate"] <= p[1]),
        _project("data_count", "flow_rate"),
    ),
)
TEMPLATE_BY_NAME = {template.name: template for template in TEMPLATES}


def sql_request(
    client: int, index: int, template: Template, params: tuple
) -> Request:
    return Request(
        client, index, template.name, params, template.sql.format(*params)
    )


def shuffled_cycles(rng: np.random.Generator, size: int) -> Iterator[int]:
    """``0 .. size-1`` over and over, each cycle in a seeded order."""
    while True:
        yield from (int(i) for i in rng.permutation(size))


def fresh_queries(
    rng: np.random.Generator,
) -> Iterator[tuple[Template, tuple]]:
    """Rounds of every template once, in a seeded order per round, each
    with fresh constants (the order decides which copy-to-depth passes
    the plan cache can skip)."""
    order = shuffled_cycles(rng, len(TEMPLATES))
    while True:
        template = TEMPLATES[next(order)]
        yield template, template.draw(rng)


def reference_then_seeded(
    stream: Callable[[np.random.Generator], Iterator],
    prefix: int,
    seed: int,
    *key: int,
) -> Iterator:
    """``prefix`` items of ``stream`` drawn from the reference seed,
    then items drawn from ``seed``."""
    return itertools.chain(
        itertools.islice(
            stream(np.random.default_rng([REFERENCE_SEED, *key])), prefix
        ),
        stream(np.random.default_rng([seed, *key])),
    )


def plain(value: Any) -> Any:
    """A result value as a plain Python number (exact ints as int)."""
    if hasattr(value, "item"):
        value = value.item()
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def plain_rows(rows: list) -> list:
    return [tuple(plain(value) for value in row) for row in rows]


def seeded_size(nominal: int, seed: int) -> int:
    """``nominal`` plus 1 to ``nominal / 4096`` records, from the seed.

    Real tables are not a power of two: the texture then has a partly
    filled last row, which the quads must leave out.  The extra records
    move the fragment counts, and so ``modeled_ms_per_op``, by at most
    1/4096 between seeds.
    """
    rng = np.random.default_rng([seed, 4])
    return nominal + int(rng.integers(1, max(1, nominal // 4096) + 1))


# -- workloads --------------------------------------------------------------


class Workload:
    """Base: sizes, seeding and the closed-loop shape of one workload."""

    name = ""
    #: Concurrent closed-loop clients (threads) issuing requests.
    clients = 1
    #: Requests in one round; a timed run stops on a round boundary so
    #: every run issues the same template mix.
    round_size = 1
    #: Per-client requests whose modeled cost is averaged; the loop
    #: always issues at least this many, so the figure repeats exactly
    #: for a given seed.
    modeled_prefix = 1
    #: Set-ups per end-to-end run (``setup_s`` is their median); all but
    #: the first are interleaved with the timed loop.
    setups = 10
    #: Layers the workload's requests pass through; per-layer metrics
    #: of every other layer report 0.
    layers: frozenset[str] = frozenset()
    #: Per-layer metrics that sit on the request's blocking path; their
    #: sum over the request wall time is ``trace.coverage_ratio``.
    blocking_layers: tuple[str, ...] = ()

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed

    def requests(self, client: int) -> Iterator[Request]:
        raise NotImplementedError

    def build(self) -> Any:
        raise NotImplementedError

    def issue(self, state: Any, request: Request, trace: bool) -> Outcome:
        raise NotImplementedError

    def expected(self, requests: list[Request]) -> list:
        raise NotImplementedError

    def sizes(self) -> dict:
        raise NotImplementedError

    # Counters the traced run differences (all cumulative).
    def counters(self, state: Any) -> dict:
        return {}

    def instrument(self, state: Any, clock: Any) -> list:
        """Instance-level timing wrappers for the traced run."""
        return []

    def close(self, state: Any) -> None:
        """Release what :meth:`build` opened."""


class _SqlWorkload(Workload):
    """Shared SQL-template machinery: relation, requests and oracle."""

    round_size = len(TEMPLATES)
    records = 1 << 20
    shards = 1
    layers = frozenset({"sql", "plan", "analysis", "core", "gpu"})
    blocking_layers = (
        "sql.parse_ms", "sql.plan_ms", "plan.lower_ms", "gpu.pass_wall_ms",
    )

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.records = seeded_size(1 << 12 if smoke else self.records, seed)
        self.relation = make_tcpip(self.records, seed=seed)
        self.columns = {
            name: self.relation.column(name).values.astype(np.int64)
            for name in COLUMNS
        }

    def requests(self, client: int) -> Iterator[Request]:
        """Rounds of :func:`fresh_queries`: the modeled prefix from the
        reference seed, the rest from the run's seed."""
        queries = reference_then_seeded(
            fresh_queries, self.modeled_prefix, self.seed, 1, client
        )
        for index, (template, params) in enumerate(queries):
            yield sql_request(client, index, template, params)

    def warmup_sql(self) -> list[str]:
        """One statement per template, from the reference seed."""
        rng = np.random.default_rng([REFERENCE_SEED, 0])
        return [
            sql_request(0, 0, template, template.draw(rng)).sql
            for template in TEMPLATES
        ]

    def expected(self, requests: list[Request]) -> list:
        answers = []
        for request in requests:
            template = TEMPLATE_BY_NAME[request.template]
            mask = template.where(self.columns, request.params)
            answers.append(template.answer(self.columns, mask))
        return answers

    def build_db(self) -> Database:
        db = Database(shards=self.shards)
        db.register(self.relation)
        return db

    def sizes(self) -> dict:
        return {"records": self.records, "shards": self.shards}

    def counters(self, state: Any) -> dict:
        engine = state.gpu_engine(TABLE)
        engines = [engine]
        if engine.sharded is not None:
            engines += [shard.engine for shard in engine.sharded.shards]
        plans = [e.plan.stats for e in engines]
        return _counters(engines, plans)

    def instrument(self, state: Any, clock: Any) -> list:
        return [clock.patch(state.planner, "plan", "sql.plan_ms")]


def _counters(engines: list, plans: list) -> dict:
    return {
        "kernel_hits": sum(e.device.kernels.hits for e in engines),
        "kernel_misses": sum(e.device.kernels.misses for e in engines),
        "context_switches": sum(
            e.contexts.stats.switches for e in engines
        ),
        "depth_hits": sum(p.depth_hits for p in plans),
        "depth_misses": sum(p.depth_misses for p in plans),
        "stencil_hits": sum(p.stencil_hits for p in plans),
        "stencil_misses": sum(p.stencil_misses for p in plans),
    }


class PaperOlap(_SqlWorkload):
    """2^20 records, one client: per-fragment simulator work."""

    name = "paper_olap"
    modeled_prefix = 4 * len(TEMPLATES)
    #: A 2^20-record set-up takes seconds: fewer, so the loop keeps
    #: most of the measured time.
    setups = 4

    def build(self) -> Database:
        db = self.build_db()
        for sql in self.warmup_sql():
            db.query(sql, device=Device.GPU)
        return db

    def issue(self, db: Database, request: Request, trace: bool) -> Outcome:
        result = db.query(request.sql, device=Device.GPU, trace=trace)
        return Outcome(
            answer=plain_rows(result.rows),
            modeled_ms=result.time_ms,
            stats=result.stats,
            traces=[ProgramTrace(result.trace, "query")] if trace else [],
        )


class ShardedOlap(PaperOlap):
    """The paper_olap requests on ``Database(shards=2)``."""

    name = "sharded_olap"
    shards = 2
    layers = PaperOlap.layers | {"shard"}
    blocking_layers = (
        "sql.parse_ms", "sql.plan_ms", "plan.lower_ms",
        "shard.fanout_wall_ms",
    )

    def issue(self, db: Database, request: Request, trace: bool) -> Outcome:
        if not trace:
            return super().issue(db, request, trace)
        # The parent trace records no passes for shard work (shard
        # engines run untraced on pool threads), so each shard engine
        # gets a tracer of its own for this one request.
        engines = [
            shard.engine for shard in db.gpu_engine(TABLE).sharded.shards
        ]
        origins = []
        for engine in engines:
            origins.append(time.perf_counter())
            engine.tracer = Tracer(cost_model=db.gpu_cost)
        try:
            outcome = super().issue(db, request, trace)
        finally:
            finished = [engine.tracer.finish() for engine in engines]
            for engine in engines:
                engine.tracer = None
        outcome.traces.extend(
            ProgramTrace(trace, "shard", origin)
            for trace, origin in zip(finished, origins)
        )
        return outcome


@dataclasses.dataclass
class _ServiceState:
    db: Database
    service: QueryService
    sessions: list


class ServiceSmall(_SqlWorkload):
    """2^14 records behind ``QueryService``, two client sessions."""

    name = "service_small"
    clients = 2
    records = 1 << 14
    modeled_prefix = 200
    layers = _SqlWorkload.layers | {"service"}
    #: Distinct hot statements the repeated half is drawn from.
    hot_statements = 8

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        if smoke:
            self.modeled_prefix = 10
        rng = np.random.default_rng([REFERENCE_SEED, 2])
        self.hot = [
            (template, template.draw(rng))
            for template in itertools.islice(
                itertools.cycle(TEMPLATES), self.hot_statements
            )
        ]

    def _mix(
        self, rng: np.random.Generator
    ) -> Iterator[tuple[Template, tuple]]:
        """Every other query repeats a hot statement; the rest use fresh
        constants.  Both walk seeded permutations, so the mix is the
        same for every seed and only its order varies."""
        hot = shuffled_cycles(rng, len(self.hot))
        fresh = fresh_queries(rng)
        while True:
            yield self.hot[next(hot)]
            yield next(fresh)

    def requests(self, client: int) -> Iterator[Request]:
        queries = reference_then_seeded(
            self._mix, self.modeled_prefix, self.seed, 1, client
        )
        for index, (template, params) in enumerate(queries):
            yield sql_request(client, index, template, params)

    def build(self) -> _ServiceState:
        db = self.build_db()
        service = QueryService(db, max_in_flight=8)
        sessions = [
            service.session(f"client-{client}")
            for client in range(self.clients)
        ]
        for session in sessions:
            for sql in self.warmup_sql():
                session.query(sql, device=Device.GPU)
        return _ServiceState(db, service, sessions)

    def issue(
        self, state: _ServiceState, request: Request, trace: bool
    ) -> Outcome:
        session = state.sessions[request.client]
        result = session.query(request.sql, device=Device.GPU, trace=trace)
        return Outcome(
            answer=plain_rows(result.rows),
            modeled_ms=result.time_ms,
            stats=result.stats,
            queued_s=result.queued_s,
            traces=(
                [ProgramTrace(result.result.trace, "query")] if trace else []
            ),
        )

    def counters(self, state: _ServiceState) -> dict:
        engine = state.db.gpu_engine(TABLE)
        # Every session caches plan outcomes in its own context.
        plans = [engine.contexts.default.plan.stats] + [
            session.context_for(engine).plan.stats
            for session in state.sessions
        ]
        counters = _counters([engine], plans)
        counters["rejected"] = state.service.stats.rejected
        counters["degraded"] = state.service.stats.degraded
        return counters

    def instrument(self, state: _ServiceState, clock: Any) -> list:
        return [clock.patch(state.db.planner, "plan", "sql.plan_ms")]

    def close(self, state: _ServiceState) -> None:
        for session in state.sessions:
            session.close()


@dataclasses.dataclass
class _StreamQuery:
    name: str
    kind: str
    column: str | None
    #: ``(column, lo, hi)`` — an inclusive range predicate, or None.
    where: tuple | None


class StreamWindow(Workload):
    """Continuous queries over a sliding window: the write path."""

    name = "stream_window"
    window = 1 << 16
    batch = 4096
    #: Distinct batches drawn; ticks cycle through them.
    batches = 128
    modeled_prefix = 20
    layers = frozenset({"gpu", "streams"})
    blocking_layers = ("streams.upload_ms", "gpu.pass_wall_ms")

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        if smoke:
            self.window, self.batch, self.batches = 1 << 12, 256, 32
            self.modeled_prefix = 10
        # Batches then straddle the ring's end.
        self.window = seeded_size(self.window, seed)
        rng = np.random.default_rng([seed, 3])
        relation = make_tcpip(
            self.window + self.batches * self.batch, seed=seed
        )
        self.data = {
            name: relation.column(name).values.astype(np.int64)
            for name in COLUMNS
        }
        loss, lo, retx = _ints(rng, (30, 81), (0, 32768), (20, 61))
        self.queries = (
            _StreamQuery("lossy", "count", None,
                         ("data_loss", loss + 1, 1023)),
            _StreamQuery("median_count", "median", "data_count", None),
            _StreamQuery("max_in_band", "maximum", "data_count",
                         ("flow_rate", lo, lo + 16383)),
            _StreamQuery("retx_sum", "sum", "retransmissions",
                         ("data_loss", retx + 1, 1023)),
        )

    def sizes(self) -> dict:
        return {"window": self.window, "batch": self.batch,
                "queries": len(self.queries)}

    def _batch(self, tick: int) -> dict:
        start = self.window + (tick % self.batches) * self.batch
        return {
            name: values[start:start + self.batch]
            for name, values in self.data.items()
        }

    def requests(self, client: int) -> Iterator[Request]:
        for tick in itertools.count():
            yield Request(client, tick, "tick", (tick,))

    def build(self) -> StreamEngine:
        engine = StreamEngine(
            [(name, BITS[name]) for name in COLUMNS], capacity=self.window
        )
        for query in self.queries:
            predicate = None
            if query.where is not None:
                column, lo, hi = query.where
                predicate = col(column).between(lo, hi)
            engine.register(ContinuousQuery(
                query.name, query.kind, column=query.column,
                predicate=predicate,
            ))
        # Filling the window is the warm-up: it uploads every texel
        # and evaluates every query once.
        engine.append({
            name: values[:self.window] for name, values in self.data.items()
        })
        return engine

    def issue(
        self, engine: StreamEngine, request: Request, trace: bool
    ) -> Outcome:
        batch = self._batch(request.params[0])
        if not trace:
            tick = engine.append(batch)
            return Outcome(
                answer={k: plain(v) for k, v in tick.results.items()},
                modeled_ms=tick.gpu_ms,
            )
        origin = time.perf_counter()
        tracer = Tracer(cost_model=engine.cost_model)
        engine.device.tracer = tracer
        try:
            with tracer.span("append", category="stream"):
                tick = engine.append(batch)
        finally:
            engine.device.tracer = None
        return Outcome(
            answer={k: plain(v) for k, v in tick.results.items()},
            modeled_ms=tick.gpu_ms,
            stats=engine.device.stats.snapshot(),
            traces=[ProgramTrace(tracer.finish(), "stream", origin)],
        )

    def expected(self, requests: list[Request]) -> list:
        # The benchmark's own ring buffer, replayed from the fill.
        ring = {
            name: values[:self.window].copy()
            for name, values in self.data.items()
        }
        appended = self.window
        answers = []
        for request in requests:
            slots = (appended + np.arange(self.batch)) % self.window
            for name, values in self._batch(request.params[0]).items():
                ring[name][slots] = values
            appended += self.batch
            answers.append(self._answer(ring))
        return answers

    def _answer(self, ring: dict) -> dict:
        answers = {}
        for query in self.queries:
            mask = np.ones(self.window, dtype=bool)
            if query.where is not None:
                column, lo, hi = query.where
                mask = (ring[column] >= lo) & (ring[column] <= hi)
            if query.kind == "count":
                answers[query.name] = int(mask.sum())
                continue
            values = ring[query.column][mask]
            if not values.size:
                answers[query.name] = None
            elif query.kind == "sum":
                answers[query.name] = int(values.sum())
            elif query.kind == "maximum":
                answers[query.name] = int(values.max())
            else:  # median: the ceil(n/2)-th largest
                index = values.size - (values.size + 1) // 2
                answers[query.name] = int(
                    np.partition(values, index)[index]
                )
        return answers

    def counters(self, engine: StreamEngine) -> dict:
        kernels = engine.device.kernels
        return {"kernel_hits": kernels.hits, "kernel_misses": kernels.misses}

    def instrument(self, engine: StreamEngine, clock: Any) -> list:
        return [clock.patch(engine.device, "upload_texels",
                            "streams.upload_ms")]


WORKLOADS = {
    workload.name: workload
    for workload in (PaperOlap, ShardedOlap, ServiceSmall, StreamWindow)
}
