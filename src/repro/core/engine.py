"""The public GPU query engine.

:class:`GpuEngine` wraps one relation: it sizes a simulated device so the
relation's records line up texel-per-pixel, caches the attribute
textures, and exposes the paper's operations as methods.  Every method
returns a result object carrying the answer *and* the measured pipeline
statistics split into the paper's two phases:

* ``copy``    — the copy-to-depth passes (the overhead the paper reports
  separately in figures 3-5),
* ``compute`` — everything else (comparison quads, fragment programs,
  occlusion stalls).

Costing those windows with a :class:`~repro.gpu.cost.GpuCostModel` gives
the simulated GeForce-FX timings the benchmark harness reports.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np

from ..analysis.race import ensure_installed, sanitizer_requested
from ..errors import (
    GpuError,
    PlanVerificationError,
    QueryError,
    QueryTimeoutError,
    StaleSelectionError,
)
from ..faults import current_executor
from ..gpu.context import ContextScheduler, VirtualContext
from ..gpu.cost import GpuCostModel, GpuTime
from ..gpu.counters import PipelineStats
from ..gpu.memory import VideoMemory
from ..gpu.pipeline import Device
from ..gpu.texture import Texture, texture_shape_for
from ..plan.cache import PlanCache
from ..plan.passes import CopyDepthPass, pass_counts, predicate_key
from ..trace import current_tracer
from . import aggregates
from .compare import copy_to_depth
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
from .select import run_passes

_COPY_PREFIX = "copy-to-depth"


def run_resilient(engine, fn, *, op: str, tracer=None):
    """Run ``fn()`` as one resilient operation on ``engine``'s device:
    every attempt starts with no occlusion query in flight, a GPU fault
    or an expired deadline drops the cached depth/stencil outcomes (a
    fault may have interrupted a pass mid-write), and the engine's
    :class:`~repro.faults.ResilientExecutor`, when attached, retries
    transient faults under ``op``'s name.  ``GpuEngine.execute_schedule``
    and the sharded executor's per-shard tasks both run through it.
    """

    def attempt():
        engine.device.abort_query()
        try:
            return fn()
        except GpuError:
            engine.plan.invalidate()
            raise
        except QueryTimeoutError:
            # Not a device fault: never retried, but the abandoned
            # operation still needs cleanup.
            engine.device.abort_query()
            engine.plan.invalidate()
            raise

    if engine.executor is None:
        return attempt()
    return engine.executor.run(attempt, op=op, tracer=tracer)


def _planar_values(column) -> np.ndarray:
    """What a column's single-channel texture holds: stored
    (bias-encoded) values for integer columns and raw quantized values
    for fixed-point columns, whose copy program's power-of-two
    ``depth_scale`` keeps the depth mapping exact; pre-normalized values
    (scale 1) for float columns."""
    if column.is_integer:
        return column.stored_values()
    if column.is_fixed_point:
        return column.values
    return column.normalized_values()


def split_copy_stats(
    window: PipelineStats,
) -> tuple[PipelineStats, PipelineStats]:
    """Split a stats window into (copy passes, everything else)."""
    copy = PipelineStats()
    compute = PipelineStats()
    for p in window.passes:
        if p.program is not None and p.program.startswith(_COPY_PREFIX):
            copy.record_pass(p)
        else:
            compute.record_pass(p)
    compute.bytes_uploaded = window.bytes_uploaded
    compute.bytes_read_back = window.bytes_read_back
    compute.occlusion_results = window.occlusion_results
    compute.clears = window.clears
    return copy, compute


@dataclasses.dataclass
class TopK:
    """Result payload of a top-k query."""

    #: The k-th largest value (the inclusion threshold).
    threshold: int
    #: Ids of records with value >= threshold (may exceed k on ties).
    record_ids: np.ndarray

    def __len__(self) -> int:
        return int(self.record_ids.size)


@dataclasses.dataclass
class GpuOpResult:
    """Answer plus measured statistics for one engine operation."""

    value: object
    copy: PipelineStats
    compute: PipelineStats
    #: Cost model of the engine that produced this result; prices the
    #: unified accessors below (``None`` falls back to model defaults).
    model: GpuCostModel | None = None

    def copy_time(self, model: GpuCostModel) -> GpuTime:
        return model.time(self.copy)

    def compute_time(self, model: GpuCostModel) -> GpuTime:
        return model.time(self.compute)

    def total_time(self, model: GpuCostModel) -> GpuTime:
        return self.copy_time(model) + self.compute_time(model)

    # -- unified result accessors (shared with CpuOpResult/QueryResult) --

    @property
    def time_ms(self) -> float:
        """Simulated GeForce-FX milliseconds, copy + compute phases."""
        return self.total_time(self.model or GpuCostModel()).total_ms

    @property
    def pass_count(self) -> int:
        """Rendering passes issued across both phases."""
        return self.copy.num_passes + self.compute.num_passes

    @property
    def stats(self) -> PipelineStats:
        """Merged pipeline statistics (copy + compute phases)."""
        return PipelineStats.merged((self.copy, self.compute))


@dataclasses.dataclass
class Selection(GpuOpResult):
    """Result of a selection query.  ``value`` is the match count.

    The selection mask lives in the stencil buffer of the virtual
    context that ran the ``select``, and a context holds exactly
    **one** such mask: the next stencil-writing query *in the same
    context* (another ``select``, ``top_k``, ...) overwrites it.  The
    selection snapshots the context's stencil generation at creation;
    reading ``record_ids()`` / ``records()`` after the mask was
    overwritten raises :class:`~repro.errors.StaleSelectionError`
    instead of silently returning the *other* query's records.  Call
    :meth:`materialize` while the selection is live to keep the ids
    across later queries.

    Queries under *other* contexts never stale a selection: reads
    re-activate the owning context (restoring its checkpointed
    buffers), which is what makes concurrent sessions safe by
    construction.
    """

    valid_stencil: int = 1
    total_records: int = 0
    engine: "GpuEngine | None" = None
    #: Stencil generation at creation time (staleness check), in the
    #: owning context's generation band.
    generation: int = 0
    #: The virtual context whose stencil buffer holds the mask; reads
    #: re-activate it through the engine's scheduler, so another
    #: context's queries can never invalidate this selection.
    context: "VirtualContext | None" = None
    _cached_ids: np.ndarray | None = dataclasses.field(
        default=None, repr=False, compare=False
    )

    @property
    def count(self) -> int:
        return int(self.value)

    @property
    def selectivity(self) -> float:
        if self.total_records == 0:
            return 0.0
        return self.count / self.total_records

    @property
    def is_stale(self) -> bool:
        """True when a later query *in the same context* overwrote this
        selection's stencil mask (unmaterialized reads would raise).
        Other contexts' queries cannot stale it — their writes land in
        a different generation band behind a checkpoint."""
        if self.engine is None or self._cached_ids is not None:
            return False
        return self._current_generation() != self.generation

    def _current_generation(self) -> int:
        """The stencil generation this selection's mask lives under."""
        if self.context is not None:
            return self.engine.contexts.stencil_generation_of(
                self.context
            )
        return self.engine.device.stencil_generation

    def materialize(self) -> "Selection":
        """Read the mask back now and cache the record ids, so they
        survive later stencil-writing queries.  Returns ``self``."""
        if self._cached_ids is None:
            self._cached_ids = self._read_ids()
        return self

    def record_ids(self) -> np.ndarray:
        """The selected record indices, from the cached snapshot when
        :meth:`materialize` was called, otherwise via a stencil readback
        (a costed readback — GPUs return results via the bus)."""
        if self._cached_ids is not None:
            return self._cached_ids
        return self._read_ids()

    def _read_ids(self) -> np.ndarray:
        if self.engine is None:
            raise QueryError("selection is detached from its engine")
        device = self.engine.device
        current = self._current_generation()
        if current != self.generation:
            raise StaleSelectionError(
                "selection is stale: a later query overwrote the "
                f"stencil mask (generation {current} "
                f"!= {self.generation}); call materialize() while the "
                "selection is live, or re-run select()"
            )
        if self.context is not None:
            # Swap this selection's context back onto the device (a
            # no-op when it is already active) so the readback sees
            # *its* mask, not whichever context ran last.
            self.engine.activate_context(self.context)
        executor = self.engine.executor
        if executor is None:
            # Staleness already checked above through
            # _current_generation(), which consults the owning
            # context's stencil generation.
            # repro-lint: disable=unchecked-stencil-read
            stencil = device.read_stencil()
        else:
            # The mask is intact in the stencil buffer; a corrupted
            # transfer is recovered by simply reading again.
            stencil = executor.run(
                device.read_stencil,
                op="read_ids",
                tracer=device.tracer,
            )
        ids = np.flatnonzero(stencil == self.valid_stencil)
        return ids[ids < self.total_records]

    def records(self) -> Relation:
        """Materialize the selected rows as a new relation."""
        if self.engine is None:
            raise QueryError("selection is detached from its engine")
        return self.engine.relation.take(self.record_ids())


class GpuEngine:
    """GPU-backed query engine over one relation."""

    def __init__(
        self,
        relation: Relation,
        cost_model: GpuCostModel | None = None,
        video_memory: VideoMemory | None = None,
        layout: str = "planar",
        tracer=None,
        executor=None,
        fusion: bool = True,
        debug: bool = False,
        jit: bool | None = None,
        shards: int | None = None,
        context_band: int = 0,
        sanitize: bool | None = None,
    ):
        """``video_memory`` overrides the default 256 MB pool — pass a
        smaller :class:`~repro.gpu.memory.VideoMemory` to exercise the
        out-of-core texture swapping of paper section 6.1.

        ``executor`` attaches a
        :class:`~repro.faults.ResilientExecutor`: every engine operation
        retries transient GPU faults (device lost, occlusion timeout,
        readback corruption, memory pressure) with capped exponential
        backoff before letting the error escape.  Defaults to the
        process-wide executor installed by
        :func:`repro.faults.use_executor` (usually ``None`` — faults
        propagate immediately).

        ``tracer`` attaches a :class:`~repro.trace.Tracer`: every engine
        operation becomes a span and every rendering pass a
        :class:`~repro.trace.PassEvent`.  Defaults to the process-wide
        tracer installed by :func:`repro.trace.use_tracer` (usually
        ``None`` — the zero-overhead fast path).

        ``layout`` picks the paper's section-3.3 record representation:

        * ``"planar"`` — one single-channel texture per attribute
          ("the same texel location in multiple textures");
        * ``"packed"`` — groups of four attributes share the RGBA
          channels of one texture ("multiple channels of a single
          texel"); the copy-to-depth program then selects the
          attribute's channel with a swizzle.

        Results are identical; the layouts trade texture count against
        channel addressing.

        ``fusion`` enables the pass-fusion plan caches
        (:mod:`repro.plan`): redundant copy-to-depth passes are elided
        when the depth buffer provably still holds the attribute, and
        repeated WHERE clauses reuse the live stencil mask.
        ``fusion=False`` is the honest unfused baseline: every
        operation re-renders all its passes and harvests every
        occlusion count synchronously.

        ``debug`` runs the static schedule verifier
        (:mod:`repro.analysis`) over every operation's compiled
        :class:`~repro.plan.PassSchedule` before any pass executes,
        raising :class:`~repro.errors.PlanVerificationError` on
        hazards (stale depth, stencil-protocol violations, occlusion
        query imbalance, under-keyed caches).

        ``jit`` selects the fragment-program backend: ``True`` compiles
        each program once into a fused numpy kernel
        (:mod:`repro.gpu.jit`), ``False`` interprets instruction by
        instruction.  Both produce bit-identical results and identical
        modeled cost; JIT only changes host wall-clock.  ``None``
        (default) follows the ``REPRO_JIT`` environment variable —
        on unless ``REPRO_JIT=0``.

        ``shards`` partitions the relation across N simulated devices
        (:mod:`repro.shard`): every operation fans out as per-shard
        schedules on a thread pool and merges on the host.  ``None``
        (default) follows the ``REPRO_SHARDS`` environment variable;
        the resolved default of 1 is bit-identical to a single device.

        ``context_band`` offsets this engine's virtual-context cids
        (generation banding); the shard layer uses it to give every
        shard device a disjoint band.  Leave at 0 everywhere else.

        ``sanitize`` turns on the concurrency sanitizer
        (:mod:`repro.analysis.race`): every buffer/cache/stats access
        becomes a recorded event and unordered cross-thread access
        pairs surface as H109 ``device-race`` diagnostics via
        :func:`repro.analysis.race.race_report`.  ``None`` (default)
        follows the ``REPRO_SAN`` environment variable; off costs one
        predicate check per hook.
        """
        if layout not in ("planar", "packed"):
            raise QueryError(
                f"layout must be 'planar' or 'packed', got {layout!r}"
            )
        self.relation = relation
        self.layout = layout
        if sanitize or (sanitize is None and sanitizer_requested()):
            ensure_installed(force=bool(sanitize))
        self.shape = texture_shape_for(relation.num_records)
        if jit is None:
            jit = os.environ.get("REPRO_JIT", "1") != "0"
        self.device = Device(
            *self.shape,
            video_memory=video_memory,
            tracer=tracer if tracer is not None else current_tracer(),
            jit=jit,
        )
        self.cost_model = cost_model or GpuCostModel()
        self.executor = (
            executor if executor is not None else current_executor()
        )
        self._op_span = None
        #: (passes, synchronous occlusion reads, clears) of the current
        #: op's schedule that the depth and stencil caches elided — what
        #: the debug-mode execution check subtracts.
        self._elided = [0, 0, 0]
        self.fusion = fusion
        self.debug = debug
        #: Schedules statically verified so far (debug mode only);
        #: fault-retried operations verify again on every attempt.
        self.debug_verifications = 0
        # Virtual stencil/depth contexts multiplexed onto the device;
        # every context gets its own plan cache (a depth/stencil
        # outcome cached under one context must not satisfy a lookup
        # under another).  The cache resolves the tracer lazily:
        # engines swap tracers mid-life (Database re-targets per
        # query).
        self.contexts = ContextScheduler(
            self.device,
            plan_factory=lambda: PlanCache(
                tracer_source=lambda: self.device.tracer
            ),
            base_cid=context_band,
        )
        # Sharded execution (repro.shard): resolved here so shards=None
        # follows REPRO_SHARDS; 1 keeps the single-device fast path
        # (self.sharded stays None and nothing changes).
        from ..shard.partition import resolve_shards

        num_shards = resolve_shards(shards)
        self.sharded = None
        if num_shards > 1:
            from ..shard.sharded import ShardedDevice

            self.sharded = ShardedDevice(self, num_shards)
        self._column_textures: dict[str, Texture] = {}
        self._stored_textures: dict[str, Texture] = {}
        self._packed_textures: dict[tuple[str, ...], Texture] = {}
        self._layout_groups: dict[str, tuple[tuple[str, ...], int]] = {}
        self._records_written = False
        if layout == "packed":
            names = relation.column_names
            for start in range(0, len(names), 4):
                group = tuple(names[start:start + 4])
                for channel, name in enumerate(group):
                    self._layout_groups[name] = (group, channel)

    @property
    def tracer(self):
        """The attached tracer (``None`` = tracing disabled)."""
        return self.device.tracer

    @tracer.setter
    def tracer(self, value) -> None:
        self.device.tracer = value

    # -- virtual contexts --------------------------------------------------------

    @property
    def plan(self) -> PlanCache:
        """The *active* context's plan cache (each virtual context
        caches its own depth/stencil outcomes)."""
        return self.contexts.active.plan

    def create_context(self, name: str | None = None) -> VirtualContext:
        """Allocate a private stencil/depth context on this engine's
        device (see :class:`~repro.gpu.context.ContextScheduler`).  On
        a sharded engine the context is mirrored onto every shard."""
        context = self.contexts.create(name)
        if self.sharded is not None:
            self.sharded.create_context(context)
        return context

    def activate_context(self, context: VirtualContext) -> VirtualContext:
        """Make ``context`` the device's live stencil/depth state
        (checkpointing the previously active context).  Subsequent
        operations and selections run under it.  On a sharded engine
        the per-shard mirror contexts activate in lockstep."""
        activated = self.contexts.activate(context)
        if self.sharded is not None:
            self.sharded.activate_context(context)
        return activated

    def release_context(self, context: VirtualContext) -> None:
        """Drop ``context``'s checkpoint; it can no longer be
        activated.  Sharded engines release the mirrors too."""
        if self.sharded is not None:
            self.sharded.release_context(context)
        self.contexts.release(context)

    # -- textures ---------------------------------------------------------------

    def column_texture(self, name: str) -> tuple[Texture, float, int]:
        """Texture + depth scale + channel for one column.

        Planar layout: a single-channel texture per attribute.  Packed
        layout: the attribute's RGBA group texture plus its channel
        index (the copy program swizzles the channel out).  Integer and
        fixed-point columns upload raw values (the copy program's
        power-of-two scale keeps the depth mapping exact); float
        columns upload pre-normalized values with scale 1.
        """
        column = self.relation.column(name)
        if self.layout == "packed" and not column.is_fixed_point:
            return self._packed_column_texture(name, column)
        texture = self._column_textures.get(name)
        if texture is None:
            texture = Texture.from_values(
                _planar_values(column), shape=self.shape
            )
            self._warm(texture)
            self._column_textures[name] = texture
        if column.is_integer or column.is_fixed_point:
            scale = column.depth_scale
        else:
            scale = 1.0
        return texture, scale, 0

    def _packed_column_texture(self, name: str, column):
        """Packed layout: locate the attribute's RGBA group + channel.

        Float columns are packed pre-normalized (their per-column
        affine maps differ, so normalization cannot ride on the shared
        copy scale); integer columns are packed raw and rely on the
        power-of-two copy scale.  Mixed groups therefore pack the
        normalized representation for floats and raw for integers —
        each attribute still gets its own (scale, channel) pair.
        """
        group, channel = self._layout_groups[name]
        texture = self._packed_textures.get(("layout",) + group)
        if texture is None:
            columns = []
            for member in group:
                member_column = self.relation.column(member)
                if member_column.is_integer:
                    columns.append(member_column.stored_values())
                else:
                    columns.append(member_column.normalized_values())
            while len(columns) < 4:
                columns.append(
                    np.zeros(self.relation.num_records, dtype=np.float32)
                )
            texture = Texture.from_columns(columns, shape=self.shape)
            self._warm(texture)
            self._packed_textures[("layout",) + group] = texture
        scale = column.depth_scale if column.is_integer else 1.0
        return texture, scale, channel

    def stored_texture(self, name: str) -> tuple[Texture, int]:
        """Integer-domain ``(texture, channel)`` for bit-sliced
        aggregation: raw values for integer columns (their regular
        texture, honoring the packed layout's channel), or
        ``value * 2**fraction_bits`` for fixed-point columns."""
        column = self.relation.column(name)
        if column.is_integer:
            texture, _scale, channel = self.column_texture(name)
            return texture, channel
        texture = self._stored_textures.get(name)
        if texture is None:
            texture = Texture.from_values(
                column.stored_values(), shape=self.shape
            )
            self._warm(texture)
            self._stored_textures[name] = texture
        return texture, 0

    def packed_texture(self, names: tuple[str, ...]) -> Texture:
        """Raw attribute values packed into the channels of one texture
        (the semi-linear layout, paper section 3.3)."""
        names = tuple(names)
        texture = self._packed_textures.get(names)
        if texture is None:
            columns = [self.relation.column(name).values for name in names]
            # Always pack a full RGBA texture: with fewer channels the
            # texture-fetch fill convention (LUMINANCE replication, alpha
            # = 1) would leak into the DP4 coefficients.
            while len(columns) < 4:
                columns.append(
                    np.zeros(self.relation.num_records, dtype=np.float32)
                )
            texture = Texture.from_columns(columns, shape=self.shape)
            self._warm(texture)
            self._packed_textures[names] = texture
        return texture

    def _warm(self, texture: Texture) -> None:
        """Upload a texture outside the measured window.

        The paper's measurements assume resident attribute textures
        (256 MB of video memory holds "more than 50 attributes",
        section 5.1); one-time AGP uploads are setup, not query cost.
        ``total_uploaded`` on the device's memory manager still records
        them for out-of-core analyses.  Once :meth:`write_records` has
        changed the relation its data is live, and a build is charged.
        """
        before = self.device.stats.bytes_uploaded
        self.device.bind_texture(0, texture)
        if not self._records_written:
            self.device.stats.bytes_uploaded = before

    def write_records(
        self, relation: Relation, spans: list[tuple[int, int]]
    ) -> None:
        """Adopt ``relation``, whose records changed in place over the
        ``(start, count)`` spans — the sliding window's ring writes
        (:mod:`repro.streams`).

        Every resident attribute texture receives just the span texels
        (``glTexSubImage2D``, charged as bus traffic, so an append
        costs bandwidth proportional to the batch); texture generations
        advance, so the depth and stencil caches drop outcomes computed
        from the old contents.  Packed and fixed-point stored textures
        interleave or rescale attributes: they are dropped, and the
        next read rebuilds them with a charged full upload.
        ``relation`` keeps the schema and fits this engine's textures;
        its record count becomes every texture's valid ``count``.
        """
        if self.sharded is not None:
            raise QueryError("write_records needs a single-device engine")
        self.relation = relation
        self._records_written = True
        for name, texture in self._column_textures.items():
            values = _planar_values(relation.column(name))
            for start, count in spans:
                self.device.upload_texels(
                    texture, start, values[start:start + count]
                )
            texture.count = relation.num_records
        self._stored_textures.clear()
        self._packed_textures.clear()

    # -- plan cache ----------------------------------------------------------------

    def ensure_depth(self, name: str) -> tuple[Texture, float, int]:
        """Route ``name``'s values into the depth buffer, skipping the
        copy pass when the plan cache proves they are already there
        (same texture contents, no depth write since the last copy).

        With ``fusion=False`` the copy is unconditional — the honest
        unfused baseline.  Returns ``(texture, depth_scale, channel)``
        exactly like :meth:`column_texture`.
        """
        texture, scale, channel = self.column_texture(name)
        if self._depth_ready(name, texture):
            self._elided[0] += 1
            return texture, scale, channel
        copy_to_depth(self.device, texture, scale, channel=channel)
        self.plan.depth.note(self.device, name, texture)
        return texture, scale, channel

    def _depth_ready(self, name: str, texture: Texture) -> bool:
        """True when the plan cache proves the depth buffer already
        holds ``name`` (the caller elides its copy-to-depth; otherwise
        it must ``plan.depth.note`` after copying)."""
        if not self.fusion:
            return False
        if self.plan.depth.lookup(self.device, name, texture):
            self.plan.depth_hit(name)
            return True
        self.plan.depth_miss(name)
        return False

    def _predicate_fingerprint(
        self, predicate: Predicate
    ) -> tuple[tuple[int, int], ...]:
        """(texture id, texture generation) for every texture the
        predicate reads — the content half of a stencil-cache key."""
        pairs: list[tuple[int, int]] = []

        def visit(p: Predicate) -> None:
            if isinstance(p, (Comparison, Between)):
                texture, _scale, _channel = self.column_texture(p.column)
                pairs.append((texture.id, texture.generation))
            elif isinstance(p, (SemiLinear, Polynomial)):
                texture = self.packed_texture(tuple(p.columns))
                pairs.append((texture.id, texture.generation))
            elif isinstance(p, Not):
                visit(p.child)
            elif isinstance(p, (And, Or)):
                for child in p.children:
                    visit(child)
            else:
                raise QueryError(
                    f"cannot fingerprint {type(p).__name__} predicate"
                )

        visit(predicate)
        unique: list[tuple[int, int]] = []
        for pair in pairs:
            if pair not in unique:
                unique.append(pair)
        return tuple(unique)

    def invalidate_plan_cache(self) -> None:
        """Drop every cached depth/stencil outcome.

        Benchmarks call this between iterations to measure cold-cache
        behavior; it is also invoked automatically whenever a resilient
        attempt fails with a GPU fault.
        """
        self.plan.invalidate()

    def _trace_schedule(self, schedule) -> None:
        """Attach a compiled schedule's fusion facts to the op span."""
        tracer = self.device.tracer
        if tracer is not None:
            tracer.record_event(
                "schedule",
                category="plan",
                op=schedule.op,
                passes=schedule.render_passes,
                copies=schedule.copy_passes,
                stalls=schedule.stalls,
                fused_copies=schedule.fused_copies,
                fused_stalls=schedule.fused_stalls,
            )

    def _verify_schedule(self, schedule) -> None:
        """Debug mode: statically verify a compiled schedule before any
        of its passes touch the device.  Raises
        :class:`~repro.errors.PlanVerificationError` on hazards; no-op
        unless the engine was built with ``debug=True``."""
        if not self.debug:
            return
        # Runtime import: repro.analysis imports repro.plan, which
        # reaches back into repro.core at import time.
        from ..analysis import assert_verified

        assert_verified(schedule)
        self.debug_verifications += 1

    # -- measurement helpers -------------------------------------------------------

    def _begin(self, op: str | None = None, **attrs) -> None:
        """Start a fresh stats window (and, when tracing, an op span)."""
        self.device.stats.reset()
        self._elided = [0, 0, 0]
        tracer = self.device.tracer
        if tracer is not None:
            if self._op_span is not None and self._op_span.end_s is None:
                # The previous op raised mid-span; close it so this
                # op's span does not nest under a dead one.
                tracer.end(self._op_span)
            self._op_span = tracer.begin(op or "op", **attrs)
        else:
            self._op_span = None

    def _finish(self, value) -> GpuOpResult:
        copy, compute = split_copy_stats(self.device.stats.snapshot())
        self.device.stats.reset()
        result = GpuOpResult(
            value=value, copy=copy, compute=compute, model=self.cost_model
        )
        tracer = self.device.tracer
        if tracer is not None and self._op_span is not None:
            tracer.end(
                self._op_span,
                modeled_ms=result.total_time(self.cost_model).total_ms,
            )
            self._op_span = None
        return result

    # -- queries ----------------------------------------------------------------------

    def execute_schedule(self, schedule, *, jit: bool | None = None):
        """Run one compiled :class:`~repro.plan.PassSchedule` end to
        end — the single execution entry point every operation funnels
        through.

        The named operations (``select``, ``aggregate``, ``histogram``,
        ...) all lower through :mod:`repro.plan.compiler` and call this
        method; SQL statements and the query service reach the device
        the same way.  That makes this the one choke point where the
        static verifier and the execution check (debug mode), the
        tracer span, the resilient fault retry (:func:`run_resilient`,
        attributed to ``schedule.op``), and deadline cancellation all
        attach.

        Raises :class:`~repro.errors.QueryError` for a schedule whose op
        has no driver (:data:`repro.plan.executor.DRIVERS`; e.g. a
        whole-statement explain lowering) or that carries no payload.
        The schedule then runs on this device
        (:class:`~repro.plan.ScheduleExecutor`) or, on a sharded engine,
        fans out (:class:`~repro.shard.ShardedExecutor`).

        ``jit`` overrides the fragment-program backend of every device
        that runs the schedule, for this call only (``None`` keeps the
        engine default), which is how the differential tests pin the
        JIT against the interpreter on identical schedules.
        """
        # Runtime import: repro.plan.executor reaches back into
        # repro.core at import time.
        from ..plan.executor import DRIVERS

        if schedule.op not in DRIVERS:
            raise QueryError(
                f"no execution driver for schedule op {schedule.op!r}; "
                "execute_schedule() runs the op-level schedules the "
                "repro.plan lowerings produce"
            )
        if schedule.payload is None:
            raise QueryError(
                f"schedule for {schedule.op!r} carries no execution "
                "payload; recompile it with repro.plan.compiler"
            )
        return run_resilient(
            self,
            lambda: self._execute(schedule, jit),
            op=schedule.op,
            tracer=self.tracer,
        )

    def _execute(self, schedule, jit: bool | None):
        """One attempt of :meth:`execute_schedule`."""
        from ..plan.executor import ScheduleExecutor

        # Debug mode: statically verify before any pass executes.
        self._verify_schedule(schedule)
        if self.sharded is None:
            executor = ScheduleExecutor(self)
            devices = [self.device]
        else:
            from ..shard.sharded import ShardedExecutor

            executor = ShardedExecutor(self)
            devices = [shard.engine.device for shard in self.sharded.shards]
        if jit is None:
            result = executor.execute(schedule)
        else:
            saved = [device.jit for device in devices]
            for device in devices:
                device.jit = bool(jit)
            try:
                result = executor.execute(schedule)
            finally:
                for device, old in zip(devices, saved):
                    device.jit = old
        if self.debug and self.sharded is None:
            self._check_execution(schedule, result)
        return result

    def _check_execution(self, schedule, result: GpuOpResult) -> None:
        """Debug mode: the op issued exactly its schedule's rendering
        passes, synchronous occlusion reads and stencil clears, less
        what the depth and stencil caches elided.  Raises
        :class:`~repro.errors.PlanVerificationError` naming the op."""
        expected = tuple(
            count - elided
            for count, elided in zip(
                pass_counts(schedule.nodes), self._elided
            )
        )
        stats = result.stats
        executed = (
            stats.num_passes, stats.occlusion_results, stats.clears
        )
        if executed != expected:
            raise PlanVerificationError(
                f"{schedule.op} executed (passes, synchronous occlusion "
                f"reads, clears) = {executed}, but its schedule less "
                f"the cache elisions {tuple(self._elided)} allows "
                f"{expected}"
            )

    def select(self, predicate: Predicate) -> Selection:
        """Evaluate a WHERE clause; leaves the selection mask in the
        stencil buffer and returns count + statistics."""
        from ..plan import compiler

        schedule = compiler.lower_select(
            self.relation, predicate, fuse=self.fusion
        )
        return self.execute_schedule(schedule)

    def count(self, predicate: Predicate | None = None) -> GpuOpResult:
        """COUNT(*) [WHERE predicate]."""
        return self.aggregate("count", predicate=predicate)

    def selectivity(self, predicate: Predicate) -> float:
        return self.select(predicate).selectivity

    # -- aggregates -----------------------------------------------------------------------

    def _integer_column(self, name: str):
        column = self.relation.column(name)
        if not column.supports_bit_slicing:
            raise QueryError(
                f"bit-slicing aggregates need an integer or fixed-point "
                f"column; {name!r} is floating-point"
            )
        return column

    def _selection_stencil(self, schedule) -> tuple[int | None, int]:
        """Run the selection that opens ``schedule`` (if any); return
        ``(valid_stencil, valid_count)``.

        The selection's passes land in the current stats window, so the
        caller's result includes the selection cost — matching the
        paper's figure 9 protocol.  When the plan cache proves the
        predicate's mask is still live in the stencil buffer (same
        stencil generation, same source textures), the selection prefix
        is skipped outright and its cached count reused.
        """
        predicate = schedule.payload.get("predicate")
        if predicate is None:
            return None, self.relation.num_records
        if self.fusion:
            cached = self.plan.stencil.lookup(
                self.device,
                predicate_key(predicate),
                self._predicate_fingerprint(predicate),
            )
            if cached is not None:
                count, valid_stencil = cached
                self.plan.stencil_hit(predicate, count)
                length, _valid = schedule.selection
                self._elided = [
                    elided + skipped
                    for elided, skipped in zip(
                        self._elided, pass_counts(schedule.nodes[:length])
                    )
                ]
                return valid_stencil, count
            self.plan.stencil_miss(predicate)
        return self._walk_selection(schedule)

    def _walk_selection(self, schedule) -> tuple[int, int]:
        """Run ``schedule``'s selection prefix node by node and note the
        mask it leaves in the stencil cache; return ``(valid_stencil,
        count)``."""
        length, valid_stencil = schedule.selection
        count = sum(run_passes(self, schedule.nodes[:length]))
        if self.fusion:
            predicate = schedule.payload["predicate"]
            self.plan.stencil.note(
                self.device,
                predicate_key(predicate),
                self._predicate_fingerprint(predicate),
                count,
                valid_stencil,
            )
        return valid_stencil, count

    def prepare_search(
        self, schedule, valid_stencil: int | None
    ) -> tuple[int | None, Texture]:
        """Arm the device for ``schedule``'s order-statistic search
        after its selection left ``valid_stencil``: the attribute in
        the depth buffer and the valid-stencil test set.

        The copy runs unless the depth cache proves the attribute is
        there — also when the lowering elided it: that elision assumed
        the selection prefix ran, and a stencil-cache hit skips it.
        Top-k writes an all-valid mask when there is no WHERE, because
        its mark pass needs one.  Returns the ``(valid_stencil,
        texture)`` the search and mark passes use.  Single-device and
        per-shard drivers share this.
        """
        device = self.device
        column_name = schedule.payload["column"]
        if schedule.op == "top_k" and valid_stencil is None:
            # Drivers run this under the engine's active context (the
            # sharded layer on each shard's private device).
            # repro-lint: disable=unscheduled-stencil-write
            device.clear_stencil(1)
            valid_stencil = 1
        texture, scale, channel = self.column_texture(column_name)
        skip = self._depth_ready(column_name, texture)
        length = schedule.selection[0] if schedule.selection else 0
        scheduled = any(
            isinstance(node, CopyDepthPass)
            for node in schedule.nodes[length:]
        )
        if skip and scheduled:
            self._elided[0] += 1
        elif not skip and not scheduled:
            # The lowering elided this copy, but the prefix it relied
            # on was skipped: the copy runs beyond the schedule.
            self._elided[0] -= 1
        aggregates.prepare_search(
            device, texture, scale,
            channel=channel, valid_stencil=valid_stencil, skip_copy=skip,
        )
        if not skip:
            self.plan.depth.note(device, column_name, texture)
        return valid_stencil, texture

    #: Ops :meth:`aggregate` accepts; the named methods are thin
    #: wrappers over :meth:`aggregate`.
    AGGREGATE_OPS = aggregates.AGGREGATE_OPS

    def aggregate(
        self,
        op: str,
        column_name: str | None = None,
        predicate: Predicate | None = None,
        *,
        k: int | None = None,
        fractions: list[float] | None = None,
    ) -> GpuOpResult:
        """Single entry point for every aggregate operation.

        ``op`` is one of :data:`AGGREGATE_OPS`.  ``k`` applies to
        ``kth_largest`` / ``kth_smallest`` / ``top_k``; ``fractions``
        to ``quantiles``.  ``maximum`` is canonicalized to
        ``kth_largest`` with ``k=1`` (section 4.3.2), matching the span
        name the trace always used.

        Validation (op names, column types, ``k`` ranges, fractions)
        happens here; the execution itself compiles to a
        :class:`~repro.plan.PassSchedule` and runs through
        :meth:`execute_schedule`, whose driver owns selection reuse
        through the stencil cache, copy-to-depth elision through the
        depth cache, and the stats window / trace span.
        """
        from ..plan import compiler

        if op == "maximum":
            op, k = "kth_largest", (1 if k is None else k)
        if op not in self.AGGREGATE_OPS:
            raise QueryError(
                f"unknown aggregate op {op!r}; expected one of "
                f"{', '.join(self.AGGREGATE_OPS)}"
            )

        if op == "count":
            # A counted WHERE is exactly a selection (its driver returns
            # the Selection).
            return self.execute_schedule(compiler.lower_aggregate(
                self.relation, "count", None, predicate=predicate,
                fuse=self.fusion,
            ))

        if column_name is None:
            raise QueryError(f"aggregate {op!r} needs a column")
        self._integer_column(column_name)
        if op in ("kth_largest", "kth_smallest", "top_k"):
            if k is None:
                raise QueryError(f"aggregate {op!r} needs k")
            # Rejects k outside [1, num_records] before lowering.
            aggregates.order_targets(op, self.relation.num_records, k=k)
        if op == "quantiles":
            if not fractions:
                raise QueryError(
                    "quantiles() needs at least one fraction"
                )
            if any(not 0.0 <= q <= 1.0 for q in fractions):
                raise QueryError(
                    f"fractions must lie in [0, 1], got {fractions}"
                )
        schedule = compiler.lower_aggregate(
            self.relation, op, column_name,
            predicate=predicate, fractions=fractions,
            fuse=self.fusion, k=k,
        )
        return self.execute_schedule(schedule)

    def kth_largest(
        self,
        column_name: str,
        k: int,
        predicate: Predicate | None = None,
    ) -> GpuOpResult:
        """Routine 4.5 over the whole column or a selection."""
        return self.aggregate(
            "kth_largest", column_name, predicate, k=k
        )

    def kth_smallest(
        self,
        column_name: str,
        k: int,
        predicate: Predicate | None = None,
    ) -> GpuOpResult:
        return self.aggregate(
            "kth_smallest", column_name, predicate, k=k
        )

    def maximum(self, column_name, predicate=None) -> GpuOpResult:
        return self.aggregate("kth_largest", column_name, predicate, k=1)

    def minimum(self, column_name, predicate=None) -> GpuOpResult:
        return self.aggregate("minimum", column_name, predicate)

    def median(self, column_name, predicate=None) -> GpuOpResult:
        """The ceil(n/2)-th largest value (figures 8 and 9)."""
        return self.aggregate("median", column_name, predicate)

    def sum(self, column_name, predicate=None) -> GpuOpResult:
        """Routine 4.6 (exact integer / fixed-point SUM)."""
        return self.aggregate("sum", column_name, predicate)

    def average(self, column_name, predicate=None) -> GpuOpResult:
        return self.aggregate("average", column_name, predicate)

    def top_k(
        self,
        column_name: str,
        k: int,
        predicate: Predicate | None = None,
    ) -> GpuOpResult:
        """Record ids of the k largest values (ties included).

        Runs ``KthLargest`` for the threshold, then one more comparison
        pass that bumps matching records' stencil values, and reads the
        mask back.  With duplicate values at the threshold the result
        may contain more than ``k`` ids — the standard top-k-with-ties
        semantics.  ``value`` is a ``TopK`` with ``threshold`` and
        ``record_ids``.
        """
        return self.aggregate("top_k", column_name, predicate, k=k)

    def quantiles(
        self,
        column_name: str,
        fractions: list[float],
        predicate: Predicate | None = None,
    ) -> GpuOpResult:
        """A quantile ladder (e.g. p50/p90/p99) from one depth copy.

        Each fraction ``q`` maps to the ``ceil((1 - q) * n)``-th largest
        value (``q = 0.5`` matches the engine's median convention).
        All quantiles share a single copy-to-depth pass; each costs its
        ``bits`` comparison passes.  ``value`` is the list of quantile
        values aligned with ``fractions``.
        """
        return self.aggregate(
            "quantiles", column_name, predicate, fractions=fractions
        )

    def selectivities(
        self, predicates: list[Predicate]
    ) -> GpuOpResult:
        """Batched selectivity analysis: counts for many predicates in
        one sweep, sharing depth copies between consecutive predicates
        on the same attribute.

        This is the section 5.11 workload — a join optimizer probing
        many candidate predicates — where the per-attribute copy would
        otherwise dominate.  Returns ``value`` as a list of counts
        aligned with ``predicates``.

        Execution is schedule-driven: the plan compiler lowers the
        sweep (sharing one copy-to-depth per attribute run and — with
        fusion — harvesting all occlusion counts with a single batched
        stall) and :meth:`execute_schedule` drives it.
        """
        # Runtime import: repro.plan.compiler reaches back into
        # repro.core at import time.
        from ..plan import compiler

        if not predicates:
            raise QueryError(
                "selectivities() needs at least one predicate"
            )
        schedule = compiler.lower_selectivities(
            self.relation, predicates, fuse=self.fusion
        )
        return self.execute_schedule(schedule)

    def histogram(
        self, column_name: str, buckets: int = 32
    ) -> GpuOpResult:
        """Bucketed value counts via one depth copy plus one counted
        depth-bounds range pass per bucket — GPU-side selectivity
        estimation (the primitive behind the paper's section 5.11 and
        the join extension).  ``value`` is ``(edges, counts)``.

        With fusion the buckets share the single copy and all counts
        are harvested with one batched stall; the stencil buffer is
        left untouched (an earlier selection's mask survives).
        ``fusion=False`` re-runs the full range selection per bucket.
        """
        from ..plan import compiler

        self._integer_column(column_name)
        if buckets < 1:
            raise QueryError(f"need at least one bucket, got {buckets}")
        schedule = compiler.lower_histogram(
            self.relation, column_name, buckets, fuse=self.fusion
        )
        return self.execute_schedule(schedule)

    # -- cost shortcuts ------------------------------------------------------------------

    def time_ms(self, result: GpuOpResult) -> float:
        """Total simulated GPU milliseconds for an operation."""
        return result.total_time(self.cost_model).total_ms
