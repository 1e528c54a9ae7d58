"""The traced run: per-layer metrics measured from outside the program.

Each layer is timed by wrapping its public functions for the length of
the run (lock-protected, because shard and client threads call them
concurrently), or read from the spans, pass events and counters the
program already exposes.  The run replays a workload's first requests
on fresh set-ups: once to warm the process up, once untraced and once
traced; the ratio of the last two mean latencies is the tracing
overhead.

Spans stay in memory and are written once at the end as a Chrome trace
(``repro.trace.write_chrome_trace``): one ``request`` span per op, with
the layer calls made on its thread and the program's own spans and
pass events nested under it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import pathlib
import statistics
import threading
import time
from collections import defaultdict
from typing import Any, Callable

import repro.gpu.pipeline
import repro.plan.compiler
import repro.sql.executor
from repro.analysis import verify_schedule
from repro.gpu.interpreter import ProgramInterpreter
from repro.gpu.jit import BoundKernel, KernelCache
from repro.trace import Span, Trace, write_chrome_trace

from loop import Clients, Sample, check, closed_loop, percentile, timed_build
from workloads import Workload

#: The pass-internal wrappers; ``gpu.tests_ms`` is pass wall time minus
#: their sum (the fixed-function tests and buffer writes).
PASS_PARTS = (
    "gpu.raster_ms", "gpu.depth_quantize_ms", "gpu.program_ms",
    "gpu.jit_bind_ms",
)


@dataclasses.dataclass
class Interval:
    label: str
    start: float
    end: float
    thread: int


class LayerClock:
    """Accumulates wall time per label through timing wrappers."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.seconds: dict[str, float] = defaultdict(float)
        #: Calls kept individually (for the Chrome trace).
        self.intervals: list[Interval] = []
        #: Schedules returned by the wrapped lowerings, with the
        #: thread and time that produced them.
        self.schedules: list[tuple[Any, int, float]] = []

    def wrap(
        self,
        fn: Callable,
        label: str | None,
        keep: bool,
        on_result: Callable[[Any, float], None] | None,
    ) -> Callable:
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if label is not None:
                    with self._lock:
                        self.seconds[label] += end - start
                        if keep:
                            self.intervals.append(Interval(
                                label, start, end, threading.get_ident()
                            ))
            if on_result is not None:
                with self._lock:
                    on_result(result, end)
            return result

        return timed

    @contextlib.contextmanager
    def patch(
        self,
        owner: Any,
        name: str,
        label: str | None,
        keep: bool = True,
        on_result: Callable[[Any, float], None] | None = None,
    ):
        """Replace ``owner.name`` by a wrapper until exit: it adds the
        call's wall time to ``label`` and passes the result and end time
        to ``on_result`` (under the clock's lock)."""
        own = name in vars(owner)
        original = vars(owner)[name] if own else getattr(owner, name)
        setattr(owner, name, self.wrap(original, label, keep, on_result))
        try:
            yield
        finally:
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    def capture_schedule(self, schedule: Any, end: float) -> None:
        self.schedules.append((schedule, threading.get_ident(), end))


def global_patches(clock: LayerClock) -> list:
    """Wrappers on module- and class-level public functions."""
    patches = [
        clock.patch(repro.sql.executor, "parse", "sql.parse_ms"),
        clock.patch(repro.gpu.pipeline, "rasterize_rect", "gpu.raster_ms",
                    keep=False),
        clock.patch(repro.gpu.pipeline, "depth_to_code",
                    "gpu.depth_quantize_ms", keep=False),
        clock.patch(BoundKernel, "run", "gpu.program_ms", keep=False),
        clock.patch(ProgramInterpreter, "run", "gpu.program_ms", keep=False),
        clock.patch(KernelCache, "get_or_bind", "gpu.jit_bind_ms",
                    keep=False),
    ]
    patches += [
        clock.patch(repro.plan.compiler, name, "plan.lower_ms",
                    on_result=clock.capture_schedule)
        for name in ("lower_select", "lower_aggregate")
    ]
    return patches


def replay(
    workload: Workload, ops: int, trace: bool, state: Any = None
) -> list[list[Sample]]:
    """The first ``ops`` requests, shared evenly between the clients, on
    ``state`` (or a fresh set-up, closed afterwards)."""
    own = state is None
    if own:
        state, _ = timed_build(workload)
    clients = Clients.start(workload)
    closed_loop(
        workload, state, clients, deadline=0.0,
        quota=max(1, ops // workload.clients), trace=trace,
    )
    if own:
        workload.close(state)
    return clients.samples


def traced_run(
    workload: Workload, ops: int, trace_dir: pathlib.Path | None
) -> dict:
    # The untraced baseline of the same requests, after one discarded
    # replay so that neither side pays the process's first-use costs.
    warmup = replay(workload, ops, trace=False)
    plain = replay(workload, ops, trace=False)

    state, _ = timed_build(workload)
    before = workload.counters(state)
    clock = LayerClock()
    origin = time.perf_counter()
    with contextlib.ExitStack() as stack:
        for patch in global_patches(clock) + workload.instrument(
            state, clock
        ):
            stack.enter_context(patch)
        traced = replay(workload, ops, trace=True, state=state)
    after = workload.counters(state)
    workload.close(state)

    verify = verify_schedules(clock)
    failures = (
        check(workload, warmup) + check(workload, plain)
        + check(workload, traced)
    )
    plain_samples = [s for client in plain for s in client]
    samples = [s for client in traced for s in client]
    metrics = layer_metrics(
        workload, samples, plain_samples, clock, verify, before, after
    )
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        write_chrome_trace(
            chrome(samples, clock, verify, origin),
            trace_dir / f"{workload.name}.seed{workload.seed}.json",
        )
    return {
        "attempted": len(samples) + 2 * len(plain_samples),
        "failed": len(failures),
        "failures": failures,
        "metrics": metrics,
    }


def verify_schedules(clock: LayerClock) -> list[tuple]:
    """Statically verify every schedule the program lowered, timing
    each check (outside the requests: debug mode is off, so this prices
    a verify-always default).  Returns ``(start, end, thread, lowered)``
    per check: the lowering's thread and time."""
    timings = []
    for schedule, thread, lowered in clock.schedules:
        start = time.perf_counter()
        verify_schedule(schedule)
        timings.append((start, time.perf_counter(), thread, lowered))
    return timings


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(
    workload: Workload,
    samples: list[Sample],
    plain: list[Sample],
    clock: LayerClock,
    verify: list,
    before: dict,
    after: dict,
) -> dict:
    ops = len(samples)
    delta = defaultdict(int, {k: after[k] - before[k] for k in after})
    per_op = {label: seconds * 1e3 / ops
              for label, seconds in clock.seconds.items()}

    query_ms = op_ms = fanout_ms = shard_pass_ms = stream_ms = 0.0
    op_count = passes = fragments = 0
    pass_ms = uploaded = read_back = 0.0
    shards = 0
    for sample in samples:
        outcome = sample.outcome
        if outcome is None:
            continue
        if outcome.stats is not None:
            uploaded += outcome.stats.bytes_uploaded
            read_back += outcome.stats.bytes_read_back
        for program in outcome.traces:
            wall = sum(p.wall_ms for p in program.trace.all_passes())
            passes += program.trace.num_passes
            fragments += sum(p.fragments for p in program.trace.all_passes())
            pass_ms += wall
            if program.source == "shard":
                shard_pass_ms += wall
            for root in program.trace.roots:
                if program.source == "stream":
                    stream_ms += root.wall_ms
                if root.category != "query":
                    continue
                query_ms += root.wall_ms
                children = [c for c in root.children if c.category == "op"]
                op_count += len(children)
                op_ms += sum(c.wall_ms for c in children)
                for child in children:
                    if "shards" in child.attrs:
                        fanout_ms += child.wall_ms
                        shards = child.attrs["shards"]

    latency = statistics.fmean(s.latency_ms for s in samples)
    queued = [s.outcome.queued_s * 1e3 for s in samples if s.outcome]
    values = {
        "sql.parse_ms": per_op.get("sql.parse_ms", 0.0),
        "sql.plan_ms": per_op.get("sql.plan_ms", 0.0),
        "sql.self_ms": (query_ms - op_ms) / ops,
        "plan.lower_ms": per_op.get("plan.lower_ms", 0.0),
        "plan.depth_hit_rate": _ratio(
            delta["depth_hits"], delta["depth_misses"]
        ),
        "plan.stencil_hit_rate": _ratio(
            delta["stencil_hits"], delta["stencil_misses"]
        ),
        "analysis.verify_ms": sum(v[1] - v[0] for v in verify) * 1e3 / ops,
        "core.ops_per_query": op_count / ops,
        "core.op_wall_ms": op_ms / ops,
        "gpu.passes_per_op": passes / ops,
        "gpu.fragments_per_op": fragments / ops,
        "gpu.pass_wall_ms": pass_ms / ops,
        "gpu.ns_per_fragment": pass_ms * 1e6 / fragments if fragments else 0.0,
        "gpu.kernel_hit_rate": _ratio(
            delta["kernel_hits"], delta["kernel_misses"]
        ),
        "gpu.bytes_uploaded_per_op": uploaded / ops,
        "gpu.bytes_read_back_per_op": read_back / ops,
        "gpu.context_switches": delta["context_switches"] / ops,
        "shard.fanout_wall_ms": fanout_ms / ops,
        "shard.shard_pass_wall_ms": shard_pass_ms / ops,
        "shard.parallel_efficiency": (
            shard_pass_ms / (fanout_ms * shards) if fanout_ms else 0.0
        ),
        "service.queue_wait_p50_ms": percentile(queued, 50) if queued else 0.0,
        "service.queue_wait_p90_ms": percentile(queued, 90) if queued else 0.0,
        "service.exec_ms": latency - statistics.fmean(queued or [0.0]),
        "service.rejected": float(delta["rejected"]),
        "service.degraded": float(delta["degraded"]),
        "streams.upload_ms": per_op.get("streams.upload_ms", 0.0),
        "streams.eval_ms": (
            stream_ms / ops - per_op.get("streams.upload_ms", 0.0)
        ),
        "streams.passes_per_tick": passes / ops,
        "trace.overhead_ratio": latency / statistics.fmean(
            s.latency_ms for s in plain
        ),
    }
    for part in PASS_PARTS:
        values[part] = per_op.get(part, 0.0)
    values["gpu.tests_ms"] = values["gpu.pass_wall_ms"] - sum(
        values[part] for part in PASS_PARTS
    )
    request_ms = latency
    if "service" in workload.layers:
        request_ms = values["service.exec_ms"]
    values["trace.coverage_ratio"] = (
        sum(values[name] for name in workload.blocking_layers) / request_ms
    )
    # Layers the workload never passes through report 0.
    return {
        name: value
        if name.split(".")[0] in workload.layers | {"trace"}
        else 0.0
        for name, value in values.items()
    }


# -- Chrome trace -----------------------------------------------------------


def _shifted(span: Span, shift: float) -> Span:
    return dataclasses.replace(
        span,
        start_s=span.start_s + shift,
        end_s=None if span.end_s is None else span.end_s + shift,
        children=[_shifted(child, shift) for child in span.children],
        events=[
            dataclasses.replace(event, t_s=event.t_s + shift)
            for event in span.events
        ],
    )


def chrome(
    samples: list[Sample], clock: LayerClock, verify: list, origin: float
) -> Trace:
    """One ``request`` root per op on the benchmark's clock, holding the
    layer calls made on its thread and the program's spans."""
    roots: list[Span] = []
    for number, sample in enumerate(samples):
        request = sample.request
        span = Span(
            name="request",
            category="request",
            attrs={
                "request_id": number,
                "client": request.client,
                "template": request.template,
            },
            start_s=sample.start - origin,
            end_s=sample.end - origin,
        )
        for interval in clock.intervals:
            if (
                interval.thread == sample.thread
                and sample.start <= interval.start <= sample.end
            ):
                span.children.append(Span(
                    name=interval.label.rsplit("_", 1)[0],
                    category="layer",
                    attrs={"request_id": number},
                    start_s=interval.start - origin,
                    end_s=interval.end - origin,
                ))
        for program in sample.outcome.traces if sample.outcome else ():
            for root in program.trace.roots:
                if program.origin is not None:
                    shift = program.origin - origin
                else:
                    # The program made this tracer itself: its span
                    # closes just before the request returns.
                    shift = (sample.end - origin) - (root.end_s or 0.0)
                child = _shifted(root, shift)
                child.attrs = {**child.attrs, "request_id": number,
                               "source": program.source}
                span.children.append(child)
        roots.append(span)
    for start, end, thread, lowered in verify:
        # Verification runs after the replay; it names the request
        # whose thread lowered the schedule at that time.
        owner = next(
            (
                number for number, sample in enumerate(samples)
                if sample.thread == thread
                and sample.start <= lowered <= sample.end
            ),
            None,
        )
        roots.append(Span(
            name="analysis.verify", category="layer",
            attrs={"request_id": owner},
            start_s=start - origin, end_s=end - origin,
        ))
    return Trace(roots=roots)
