"""The simulated GPU device: rendering passes and per-fragment tests.

:class:`Device` is the top of the substrate — the software stand-in for
the GeForce FX 5900 Ultra plus its OpenGL driver.  It owns the frame
buffer, the render state, the bound textures and fragment program, video
memory, and the statistics the cost model consumes.

A rendering pass (``render_quad`` / ``render_textured_quad``) runs the
per-fragment stages in the fixed-function order the paper relies on
(sections 3.1, 3.4):

1. fragment program (or fixed-function passthrough), including ``KIL``
2. alpha test
3. stencil test (failing fragments run the ``sfail`` stencil op)
4. depth-bounds test on the *stored* depth (failing fragments are
   discarded with no buffer updates — EXT_depth_bounds_test)
5. depth test (``zfail``/``zpass`` stencil ops; depth write on pass)
6. occlusion-query counting and color write

There are deliberately **no random-access writes**: every buffer update
flows through this pipeline, which is the architectural constraint that
shapes all of the paper's algorithms (section 6.1).
"""

from __future__ import annotations

import mmap
import time

import numpy as np

from .. import sanitize
from ..errors import (
    GpuError,
    OcclusionQueryError,
    RenderStateError,
    StaleMemoError,
)
from ..faults import SITE_PASS, SITE_READBACK, check_deadline, maybe_inject
from .assembler import FragmentProgram
from .counters import PassStats, PipelineStats
from .framebuffer import (
    FrameBuffer,
    Region,
    depth_to_code,
    quad_depth_code,
    scalar_depth_code,
)
from .interpreter import (
    FragmentAttrib,
    FragmentBatch,
    ProgramInterpreter,
    ProgramResult,
    color_columns,
)
from .jit import BoundKernel, KernelCache, live_color
from .isa import NUM_PARAMETERS, NUM_TEXTURE_UNITS
from .memory import VideoMemory
from .occlusion import OcclusionQuery
from .raster import Rect, Span, rasterize_rect, rects_for_count
from .state import RenderState
from .texture import Texture
from .types import CompareFunc, StencilOp


#: The unsigned integer type each buffer element is blended as.
_BITS = {1: np.uint8, 4: np.uint32}


def masked_write(buffer: np.ndarray, value, mask: np.ndarray | None) -> None:
    """Write ``value`` into the ``buffer`` view where ``mask`` is set;
    a None ``mask`` writes every element.

    The masked case is a branch-free bit blend on the buffer's
    same-width unsigned view, ``bits ^= (bits ^ new) * mask``: it moves
    every element's bits whatever the mask's pattern (a scattered mask
    costs no mispredicted branch per fragment) and keeps NaN payloads
    and -0.0 exactly.  ``value`` is a scalar or broadcasts to
    ``buffer``.
    """
    if mask is None:
        buffer[...] = value
        return
    uint = _BITS[buffer.dtype.itemsize]
    bits = buffer.view(uint)
    diff = np.bitwise_xor(
        bits, np.asarray(value, dtype=buffer.dtype).view(uint)
    )
    diff *= mask
    bits ^= diff


def _survivors(
    alive: np.ndarray | None, passing: np.ndarray, total: int
) -> tuple[np.ndarray | None, int]:
    """AND a test's ``passing`` mask into the survivors ``alive`` (None:
    all ``total`` fragments).  Returns the new mask, None again when
    every fragment survives, and its count."""
    alive = passing if alive is None else alive & passing
    live = int(np.count_nonzero(alive))
    return (None if live == total else alive), live


def _depth_passing(
    func: CompareFunc, survivors: int, codes: np.ndarray | None, depth
) -> int:
    """How many of ``survivors`` stored codes pass the depth test
    ``quad func stored`` against the quad at ``depth``: ``ALWAYS`` and
    ``NEVER`` need no codes, every other function one or two binary
    searches in the sorted ``codes`` with the quad's ``uint32`` code
    (so the search casts nothing)."""
    if func is CompareFunc.ALWAYS:
        return survivors
    if func is CompareFunc.NEVER:
        return 0
    code = np.uint32(quad_depth_code(depth))
    if func is CompareFunc.LESS:
        return survivors - int(codes.searchsorted(code, "right"))
    if func is CompareFunc.LEQUAL:
        return survivors - int(codes.searchsorted(code, "left"))
    if func is CompareFunc.GREATER:
        return int(codes.searchsorted(code, "left"))
    if func is CompareFunc.GEQUAL:
        return int(codes.searchsorted(code, "right"))
    equal = int(codes.searchsorted(code, "right")) - int(
        codes.searchsorted(code, "left")
    )
    return equal if func is CompareFunc.EQUAL else survivors - equal


def _mapped_codes(size: int) -> np.ndarray:
    """A ``uint32`` array of ``size`` elements in its own anonymous
    memory map.  It lives outside the malloc heap: freeing it returns
    its pages, and it leaves no hole between longer-lived allocations
    (a 4 MB index freed inside a single-arena heap would)."""
    return np.frombuffer(
        mmap.mmap(-1, 4 * max(size, 1)), dtype=np.uint32
    )[:size]


#: Fragments an index rebuild gathers per ``np.compress`` call.  The
#: call builds an ``int64`` index of what it selects; over a whole
#: 2^20-pixel span that is up to 8 MB, numpy asks the kernel for huge
#: pages for it, and peak RSS at a fixed 2000 ``paper_olap`` ops then
#: varied from run to run by 20 MB.  A block bounds it at 512 KB.
_GATHER_BLOCK = 1 << 16

#: How many quad geometries (spans, or explicit rects) keep a count
#: index.
COUNT_INDEX_RECTS = 4

#: A quad's coverage: the :class:`Span` of a ``count=`` or full-screen
#: quad, or an explicit :class:`Rect`.
Geometry = Rect | Span


class _CountIndex:
    """One quad geometry's answer to count-only passes: the number of
    fragments that pass the stencil test and, once a pass compares
    depth, their stored depth codes in sorted order.

    ``key`` names the buffers and stencil test the answer holds for;
    ``seen`` is the key of the last pass that did not find it (the
    index is built on the second pass with one key).  ``buffer`` holds
    ``uint32`` codes for every pixel of the geometry; it is mapped once
    (:func:`_mapped_codes`) and every rebuild sorts in place in a prefix
    of it.
    """

    __slots__ = ("key", "seen", "survivors", "codes", "buffer")

    def __init__(self) -> None:
        self.key = None
        self.seen = None
        self.survivors: int | None = None
        self.codes: np.ndarray | None = None
        self.buffer: np.ndarray | None = None


class _FragmentOutputs:
    """Stage 1's outputs over one quad, for the stages that read them.

    ``result`` is the program's :class:`ProgramResult`.  A kernel that
    memoizes (:meth:`~repro.gpu.jit.BoundKernel.memoizes`) runs only
    when a stage reads it: :meth:`derive` serves the depth codes and
    the alpha-test outcome from the kernel's stage memo, so a pass over
    unchanged texels whose stages read nothing else — a repeated
    copy-to-depth or ``TestBit`` pass — runs no program at all.
    """

    __slots__ = ("_kernel", "_batch", "_result")

    def __init__(
        self,
        result: ProgramResult | None,
        kernel: BoundKernel | None = None,
        batch: FragmentBatch | None = None,
    ):
        self._result = result
        self._kernel = kernel
        self._batch = batch

    @property
    def memoized(self) -> bool:
        return self._kernel is not None

    @property
    def result(self) -> ProgramResult:
        if self._result is None:
            self._result = self._kernel.run(self._batch)
        return self._result

    def derive(self, kind, derive):
        """``derive(result)``: through the kernel's stage memo under
        ``kind`` when it memoizes, else computed."""
        if self._kernel is None:
            return derive(self.result)
        return self._kernel.derived(
            self._batch, kind, lambda: derive(self.result)
        )


class Device:
    """A simulated programmable GPU with a ``width x height`` framebuffer."""

    def __init__(
        self,
        height: int,
        width: int,
        video_memory: VideoMemory | None = None,
        tracer=None,
        jit: bool = False,
    ):
        self.framebuffer = FrameBuffer(height, width)
        self.state = RenderState()
        self.memory = video_memory if video_memory is not None else VideoMemory()
        self.stats = PipelineStats()
        #: Optional :class:`repro.trace.Tracer`; None disables tracing
        #: (the only cost is one attribute check per pass).
        self.tracer = tracer
        #: Monotonic counter bumped on every stencil-buffer mutation
        #: (clears and stencil-op writes).  Consumers holding a stencil
        #: mask — e.g. :class:`repro.core.engine.Selection` — snapshot it
        #: to detect that a later pass overwrote their mask.
        self.stencil_generation = 0
        #: Monotonic counter bumped on every depth-buffer mutation (clears
        #: and depth writes landed by a pass).  The depth-contents cache in
        #: :mod:`repro.plan` snapshots it to know whether the depth buffer
        #: still holds a previously copied column.
        self.depth_generation = 0
        #: Execute fragment programs through compiled
        #: :class:`~repro.gpu.jit.BoundKernel`\ s instead of the
        #: per-instruction interpreter.  Both backends are
        #: bit-identical; the JIT is the fast path.
        self.jit = jit
        #: Bound-kernel LRU (generation-keyed; see :mod:`repro.gpu.jit`).
        self.kernels = KernelCache()
        self._textures: dict[int, Texture] = {}
        self._program: FragmentProgram | None = None
        self._parameters = np.zeros((NUM_PARAMETERS, 4), dtype=np.float32)
        self._active_query: OcclusionQuery | None = None
        self._pass_counter = 0
        #: Count-only passes' indexes, one per quad geometry, least
        #: recently used first (see :meth:`_indexed_count`).
        self._count_indexes: dict[Geometry, _CountIndex] = {}

    # -- resource binding ----------------------------------------------------

    def bind_texture(self, unit: int, texture: Texture | None) -> None:
        """Bind ``texture`` to a texture unit, uploading it to video memory
        if it is not already resident (AGP traffic is recorded)."""
        if not 0 <= unit < NUM_TEXTURE_UNITS:
            raise GpuError(
                f"texture unit {unit} out of range (0..{NUM_TEXTURE_UNITS - 1})"
            )
        previous = self._textures.get(unit)
        if previous is not None:
            self.memory.unpin(previous)
        if texture is None:
            self._textures.pop(unit, None)
            return
        uploaded = self.memory.ensure_resident(texture)
        self.stats.bytes_uploaded += uploaded
        self.memory.pin(texture)
        self._textures[unit] = texture

    def set_program(self, program: FragmentProgram | None) -> None:
        self._program = program

    @property
    def program(self) -> FragmentProgram | None:
        return self._program

    def set_program_parameter(self, index: int, value) -> None:
        """Set program parameter ``p[index]``; scalars are splatted."""
        if not 0 <= index < NUM_PARAMETERS:
            raise GpuError(
                f"parameter index {index} out of range "
                f"(0..{NUM_PARAMETERS - 1})"
            )
        value = np.asarray(value, dtype=np.float32).ravel()
        if value.size == 1:
            value = np.repeat(value, 4)
        if value.size != 4:
            raise GpuError(
                f"parameter must have 1 or 4 components, got {value.size}"
            )
        self._parameters[index] = value

    # -- framebuffer operations ----------------------------------------------

    def clear(self, color=(0, 0, 0, 0), depth: float = 1.0, stencil: int = 0):
        if sanitize.enabled():
            sanitize.note(self, "stencil", sanitize.WRITE)
            sanitize.note(self, "depth", sanitize.WRITE)
            sanitize.note(self, "color", sanitize.WRITE)
        self.framebuffer.clear(color=color, depth=depth, stencil=stencil)
        self.stencil_generation += 1
        self.depth_generation += 1
        self.stats.clears += 1

    def clear_stencil(self, value: int) -> None:
        sanitize.note(self, "stencil", sanitize.WRITE)
        self.framebuffer.stencil.clear(value)
        self.stencil_generation += 1
        self.stats.clears += 1

    def clear_depth(self, depth: float = 1.0) -> None:
        sanitize.note(self, "depth", sanitize.WRITE)
        self.framebuffer.depth.clear(depth)
        self.depth_generation += 1
        self.stats.clears += 1

    # -- readbacks (bus traffic back to the CPU) -------------------------------

    def read_stencil(self) -> np.ndarray:
        sanitize.note(self, "stencil", sanitize.READ)
        check_deadline(SITE_READBACK, tracer=self.tracer)
        maybe_inject(SITE_READBACK, tracer=self.tracer)
        self.stats.bytes_read_back += self.framebuffer.stencil.values.nbytes
        return self.framebuffer.stencil.values.copy()

    def read_depth(self) -> np.ndarray:
        sanitize.note(self, "depth", sanitize.READ)
        self.stats.bytes_read_back += self.framebuffer.depth.codes.nbytes
        return self.framebuffer.depth.as_depths()

    def read_color(self) -> np.ndarray:
        sanitize.note(self, "color", sanitize.READ)
        self.stats.bytes_read_back += self.framebuffer.color.data.nbytes
        return self.framebuffer.color.data.copy()

    def upload_texels(
        self, texture: Texture, start: int, values
    ) -> None:
        """glTexSubImage2D: update a contiguous texel range of a
        resident texture, paying AGP traffic for just those bytes.

        This is the streaming-update path: appending a batch of records
        to a window costs bandwidth proportional to the batch, not the
        window (paper section 7's continuous-query direction).
        """
        sanitize.note(texture, "texels", sanitize.WRITE)
        uploaded = self.memory.ensure_resident(texture)
        self.stats.bytes_uploaded += uploaded
        self.stats.bytes_uploaded += texture.write_texels(start, values)

    def copy_color_to_texture(self, texture: Texture) -> None:
        """glCopyTexSubImage2D: copy the color buffer into a texture.

        This is the render-to-texture path of 2004-era multi-pass GPGPU
        algorithms (each bitonic-sort stage reads the previous stage's
        output this way).  A GPU-internal transfer: costed as one
        fixed-function pass over the copied texels, no bus traffic.
        """
        fb = self.framebuffer
        if texture.shape != (fb.height, fb.width):
            raise GpuError(
                f"texture {texture.shape} does not match the framebuffer "
                f"{(fb.height, fb.width)} for a color copy"
            )
        if sanitize.enabled():
            sanitize.note(self, "color", sanitize.READ)
            sanitize.note(texture, "texels", sanitize.WRITE)
        channels = texture.channels
        texture.data[:] = fb.color.data[:, :channels].reshape(
            fb.height, fb.width, channels
        )
        # New texels: a kernel or fetch memo keyed on the old
        # generation must not replay them.
        texture.generation += 1
        stats = PassStats(
            index=self._pass_counter,
            fragments=fb.num_pixels,
            program="framebuffer-copy",
            program_length=1,
            instructions_executed=fb.num_pixels,
            instructions_after_early_z=fb.num_pixels,
            color_writes=fb.num_pixels * channels,
        )
        self.stats.record_pass(stats)
        self._pass_counter += 1
        if self.tracer is not None:
            self.tracer.record_pass(
                stats, rects=((fb.width, fb.height),)
            )

    # -- occlusion queries -----------------------------------------------------

    def begin_query(self) -> OcclusionQuery:
        sanitize.note(self, "query", sanitize.WRITE)
        if self._active_query is not None and self._active_query.active:
            raise OcclusionQueryError(
                "an occlusion query is already active (queries do not nest)"
            )
        query = OcclusionQuery(self)
        self._active_query = query
        return query

    def end_query(self) -> OcclusionQuery:
        sanitize.note(self, "query", sanitize.WRITE)
        if self._active_query is None or not self._active_query.active:
            raise OcclusionQueryError("end_query() without an active query")
        query = self._active_query
        query._end()
        return query

    def abort_query(self) -> None:
        """Discard any in-flight occlusion query without reading it.

        The recovery path after a mid-pass fault: the host gives up on
        the interrupted query so the retried operation can begin a
        fresh one (a lost query's count is meaningless anyway)."""
        sanitize.note(self, "query", sanitize.WRITE)
        if self._active_query is not None and self._active_query.active:
            self._active_query._end()
        self._active_query = None

    # -- drawing ----------------------------------------------------------------

    def render_quad(
        self,
        depth: float,
        color=(1.0, 1.0, 1.0, 1.0),
        rect: Rect | None = None,
        count: int | None = None,
    ) -> None:
        """Render a screen-aligned quad at the given depth.

        ``rect`` restricts the quad to a pixel rectangle; ``count``
        restricts it to the first *count* pixels in row-major order
        (realized as at most two rects — hardware cannot rasterize
        arbitrary pixel sets).  The pass records those rects, and shades
        them as the one :class:`~repro.gpu.raster.Span` they cover: the
        same fragments in the same order, so the same buffers and
        ``PassStats``, from one batch.
        """
        # Cooperative cancellation: the installed per-query deadline is
        # enforced at pass boundaries, never mid-pass, so an expired
        # query always leaves consistent buffers behind.
        check_deadline(SITE_PASS, tracer=self.tracer)
        maybe_inject(SITE_PASS, tracer=self.tracer)
        if rect is not None and count is not None:
            raise GpuError("pass either rect or count, not both")
        if not 0.0 <= depth <= 1.0:
            raise RenderStateError(
                f"quad depth {depth} outside the valid range [0, 1]"
            )
        fb = self.framebuffer
        if rect is not None:
            geometry: Geometry = rect
            rects = [rect]
        else:
            if count is None:
                count = fb.num_pixels
            rects = rects_for_count(count, fb.width, fb.height)
            geometry = Span(count)
        # The (up to two) rects covering a record range are drawn in one
        # pass: same state, back-to-back draw calls, one pipeline drain.
        if sanitize.enabled():
            self._note_pass_accesses()
        stats = PassStats(index=self._pass_counter, fragments=0)
        self._pass_counter += 1
        stats.query_active = (
            self._active_query is not None and self._active_query.active
        )
        tracer = self.tracer
        started = time.perf_counter() if tracer is not None else 0.0
        if rects:
            self._draw(geometry, depth, color, stats)
        self.stats.record_pass(stats)
        if tracer is not None:
            tracer.record_pass(
                stats,
                wall_s=time.perf_counter() - started,
                rects=tuple((r.width, r.height) for r in rects),
                query_active=stats.query_active,
            )

    def render_textured_quad(
        self,
        texture: Texture | None = None,
        depth: float = 0.0,
        color=(1.0, 1.0, 1.0, 1.0),
        cover_valid_only: bool = True,
    ) -> None:
        """Render a quad with ``texture`` bound to unit 0, sized so texels
        align one-to-one with pixels (the paper's section 3.3 setup).

        With ``cover_valid_only`` the quad covers only the texture's valid
        texels (its ``count``), so padding never reaches the pipeline.
        """
        if texture is not None:
            self.bind_texture(0, texture)
        bound = self._textures.get(0)
        if bound is None:
            raise GpuError("render_textured_quad requires a bound texture")
        if bound.shape != (self.framebuffer.height, self.framebuffer.width):
            raise GpuError(
                f"texture {bound.shape} does not match the framebuffer "
                f"{(self.framebuffer.height, self.framebuffer.width)}; "
                "texels must align with pixels"
            )
        count = bound.count if cover_valid_only else bound.num_texels
        self.render_quad(depth, color=color, count=count)

    def _note_pass_accesses(self) -> None:
        """Report this pass's buffer traffic to the armed sanitizer.

        One note per buffer per *pass* (not per fragment): the event
        granularity a race needs — two unsynchronized passes, or a
        pass against a concurrent readback, collide on the buffer
        regardless of which fragments touched it.  Only reached when
        :func:`repro.sanitize.enabled` is true.
        """
        state = self.state
        if state.stencil.enabled:
            # The test reads; sfail/zfail/zpass ops may write.
            sanitize.note(self, "stencil", sanitize.WRITE)
        if state.depth.enabled or state.depth_bounds.enabled:
            kind = (
                sanitize.WRITE
                if state.depth.enabled and state.depth.write
                else sanitize.READ
            )
            sanitize.note(self, "depth", kind)
        if any(state.color_mask):
            sanitize.note(self, "color", sanitize.WRITE)
        if self._active_query is not None and self._active_query.active:
            sanitize.note(self, "query", sanitize.WRITE)
        sanitize.note(self, "stats", sanitize.WRITE)

    # -- the per-fragment pipeline ------------------------------------------------

    def _draw(
        self, geometry: Geometry, depth: float, color, stats: PassStats
    ) -> None:
        self.state.validate()
        live = self._indexed_count(geometry, depth, color, stats)
        if live is None:
            live = self._shade(geometry, depth, color, stats)
        if self._active_query is not None and self._active_query.active:
            self._active_query._add(live)

    def _count_only(self) -> bool:
        """True when a pass changes nothing but its ``PassStats`` and
        the occlusion count: no program, no color or depth write, no
        alpha or depth-bounds test, and no stencil op but ``KEEP``."""
        state = self.state
        stencil = state.stencil
        return (
            self._program is None
            and not any(state.color_mask)
            and not (state.depth.enabled and state.depth.write)
            and not state.alpha.enabled
            and not state.depth_bounds.enabled
            and (
                not stencil.enabled
                or (
                    stencil.sfail is StencilOp.KEEP
                    and stencil.zfail is StencilOp.KEEP
                    and stencil.zpass is StencilOp.KEEP
                )
            )
        )

    def _region(self, geometry: Geometry) -> Region:
        """The buffer views a pass over ``geometry`` reads and writes;
        their row-major ravel order is its fragment order."""
        if isinstance(geometry, Span):
            return self.framebuffer.prefix(geometry.count)
        return self.framebuffer.region(geometry)

    def _indexed_count(
        self, geometry: Geometry, depth: float, color, stats: PassStats
    ) -> int | None:
        """A count-only pass over ``geometry`` answered from its
        :class:`_CountIndex`: the fragments that pass, with ``stats``
        updated as the stages would.  None when the pass is not
        count-only or the index does not hold its key yet; the caller
        then runs the stages.

        The key is the depth and stencil generations and the stencil
        test (func, reference, mask), so any buffer write or state
        change misses.  The first pass with a key only records it; the
        second builds the survivor count, and the sorted codes once a
        pass compares depth.  After that a pass is at most two binary
        searches with the quad's code.
        """
        if not self._count_only():
            return None
        state = self.state
        stencil = state.stencil
        tested = stencil.enabled and stencil.func is not CompareFunc.ALWAYS
        key = (
            self.depth_generation,
            self.stencil_generation,
            (stencil.func, stencil.reference, stencil.mask)
            if tested
            else None,
        )
        indexes = self._count_indexes
        index = indexes.pop(geometry, None)
        if index is None:
            index = _CountIndex()
            if len(indexes) >= COUNT_INDEX_RECTS:
                del indexes[next(iter(indexes))]
        indexes[geometry] = index
        if index.key != key:
            if index.seen != key:
                index.seen = key
                return None
            index.key = key
            index.survivors = None
            index.codes = None
        func = CompareFunc.ALWAYS
        if state.depth.enabled:
            func = state.depth.func
        sort = func is not CompareFunc.ALWAYS and func is not CompareFunc.NEVER
        if index.survivors is None or (sort and index.codes is None):
            self._build_count_index(index, geometry, tested, sort)
        fragments = geometry.num_pixels
        survivors = index.survivors
        passed = _depth_passing(func, survivors, index.codes, depth)
        if sanitize.enabled():
            self._audit_count(
                geometry, depth, color, key, survivors, passed
            )
        stats.fragments += fragments
        stats.stencil_failed += fragments - survivors
        stats.depth_failed += survivors - passed
        stats.passed += passed
        return passed

    def _build_count_index(
        self, index: _CountIndex, geometry: Geometry, tested: bool,
        sort: bool,
    ) -> None:
        """Count ``geometry``'s stencil survivors into ``index`` and,
        with ``sort``, gather their stored codes into a prefix of its
        buffer and sort them there."""
        region = self._region(geometry)
        fragments = geometry.num_pixels
        keep = self._stencil_pass(region.stencil) if tested else None
        index.survivors = (
            fragments if keep is None else int(np.count_nonzero(keep))
        )
        if not sort:
            return
        if index.buffer is None:
            index.buffer = _mapped_codes(fragments)
        codes = index.buffer[: index.survivors]
        if keep is None:
            codes.reshape(region.depth.shape)[...] = region.depth
        else:
            keep = keep.ravel()
            stored = region.depth.reshape(-1)
            start = 0
            for block in range(0, keep.size, _GATHER_BLOCK):
                part = keep[block : block + _GATHER_BLOCK]
                stop = start + int(np.count_nonzero(part))
                np.compress(
                    part,
                    stored[block : block + _GATHER_BLOCK],
                    out=codes[start:stop],
                )
                start = stop
        codes.sort()
        index.codes = codes

    def _audit_count(
        self, geometry: Geometry, depth: float, color, key,
        survivors: int, passed: int,
    ) -> None:
        """The armed sanitizer's check of an indexed count: run the
        stages on ``geometry`` and compare.  A difference means a buffer
        changed without its generation moving, or the key misses an
        input: hazard H111."""
        shaded = PassStats(index=-1, fragments=0)
        self._shade(geometry, depth, color, shaded)
        fragments = geometry.num_pixels
        served = (fragments - survivors, survivors - passed, passed)
        truth = (shaded.stencil_failed, shaded.depth_failed, shaded.passed)
        if served != truth:
            raise StaleMemoError(
                "count-index",
                (geometry, *key),
                f"(stencil_failed, depth_failed, passed) = {served}, "
                f"but the stages give {truth}",
            )

    def _stencil_pass(self, stored: np.ndarray) -> np.ndarray:
        """The stencil test over the ``stored`` stencil view.  GL
        convention: the test passes when ``(ref & mask) func (stencil &
        mask)``; the scalar reference is on the left, hence the swapped
        comparison."""
        stencil = self.state.stencil
        mask = np.uint8(stencil.mask)
        if mask != 0xFF:
            stored = stored & mask
        return stencil.func.swap().apply(
            stored, np.uint8(stencil.reference) & mask
        )

    def _shade(
        self, geometry: Geometry, depth: float, color, stats: PassStats
    ) -> int:
        """Run every stage of the pass on ``geometry``; returns the
        fragments that passed (the occlusion count)."""
        fb = self.framebuffer
        batch = rasterize_rect(
            geometry, fb.width, fb.height, depth, tuple(color)
        )
        stats.fragments += batch.count
        # Every stage reads and writes the buffers through the
        # geometry's views (a span's is one (1, count) row); fragment
        # order is their row-major ravel order.
        shape = geometry.shape
        region = self._region(geometry)

        state = self.state

        # Stage 1: fragment program (or fixed-function passthrough).
        # ``alive`` is the survivor mask, None while every fragment
        # survives, and ``live`` counts the survivors.  A test's
        # failures are the survivors it removed: ``before - live`` of
        # them, masked by ``before ^ alive`` (``~passing`` when
        # ``before`` was None).
        total = batch.count
        alive = None
        live = total
        program = self._program
        if program is None:
            outputs = _FragmentOutputs(
                ProgramResult(
                    color=color_columns(batch.attribute(FragmentAttrib.COL0)),
                    depth=None,
                    killed=None,
                    instructions_executed=0,
                )
            )
        elif self.jit:
            # The color components a later stage observes pick the
            # compiled variant (everything else is dead code).
            kernel = self.kernels.get_or_bind(
                program,
                live_color(state),
                self._textures,
                self._parameters,
            )
            if kernel.memoizes(batch):
                outputs = _FragmentOutputs(None, kernel, batch)
            else:
                outputs = _FragmentOutputs(kernel.run(batch))
        else:
            interpreter = ProgramInterpreter(
                self._textures, self._parameters
            )
            outputs = _FragmentOutputs(interpreter.run(program, batch))
        if program is not None:
            # A memoizing kernel has no KIL.
            killed_mask = None if outputs.memoized else outputs.result.killed
            if killed_mask is not None:
                killed = int(np.count_nonzero(killed_mask))
                if killed:
                    alive = ~killed_mask.reshape(shape)
                    live = total - killed
                stats.killed += killed
            stats.program = program.name
            stats.program_length = program.num_instructions
            stats.instructions_executed += program.num_instructions * total
            stats.writes_depth_from_program = program.writes_depth

        # Stage 2: alpha test.
        alpha = state.alpha
        if alpha.enabled and alpha.func is not CompareFunc.ALWAYS:
            reference = np.float32(alpha.reference)
            alpha_pass = outputs.derive(
                (alpha.func, reference),
                lambda result: alpha.func.apply(
                    result.color[3].reshape(shape), reference
                ),
            )
            before = live
            alive, live = _survivors(alive, alpha_pass, total)
            stats.alpha_failed += before - live

        # Stage 3: stencil test.
        stencil = state.stencil
        if stencil.enabled and stencil.func is not CompareFunc.ALWAYS:
            stencil_pass = self._stencil_pass(region.stencil)
            before, count = alive, live
            alive, live = _survivors(alive, stencil_pass, total)
            count -= live
            stats.stencil_failed += count
            if count and stencil.sfail is not StencilOp.KEEP:
                self._apply_stencil_op(
                    stencil.sfail,
                    region.stencil,
                    ~stencil_pass if before is None else before ^ alive,
                    count,
                    stats,
                )

        # Stage 4: depth-bounds test against the *stored* depth
        # (EXT_depth_bounds_test).  Failures are discarded outright.
        if state.depth_bounds.enabled:
            low = np.uint32(scalar_depth_code(state.depth_bounds.zmin))
            high = np.uint32(scalar_depth_code(state.depth_bounds.zmax))
            bounds_pass = (region.depth >= low) & (region.depth <= high)
            before = live
            alive, live = _survivors(alive, bounds_pass, total)
            stats.depth_bounds_failed += before - live

        # Stage 5: depth test.  Without a program-written depth every
        # fragment carries the quad depth (the float32 WPOS.z), so it
        # is quantized once, in Python.  A program-written depth is
        # quantized only when something reads the codes: the
        # comparison, a write that lands on some fragments only, or a
        # memoizing kernel's stage memo.  Any other write that lands on
        # every fragment quantizes straight into the buffer.
        early_z_survivors: int | None = None
        if state.depth.enabled:
            compare = state.depth.func is not CompareFunc.ALWAYS
            frag_codes = None
            if program is None or not program.writes_depth:
                frag_codes = np.uint32(quad_depth_code(depth))
            elif compare or (
                state.depth.write
                and (alive is not None or outputs.memoized)
            ):
                frag_codes = outputs.derive(
                    "depth",
                    lambda result: depth_to_code(
                        result.depth.reshape(shape)
                    ),
                )
            if compare:
                depth_pass = state.depth.func.swap().apply(
                    region.depth, frag_codes
                )
                if self._program is not None:
                    # Early-z hardware would evaluate this same
                    # comparison before shading; capture it pre-write
                    # for the cost model.
                    early_z_survivors = int(np.count_nonzero(depth_pass))
                before, count = alive, live
                alive, live = _survivors(alive, depth_pass, total)
                count -= live
                stats.depth_failed += count
                if (
                    count
                    and stencil.enabled
                    and stencil.zfail is not StencilOp.KEEP
                ):
                    self._apply_stencil_op(
                        stencil.zfail,
                        region.stencil,
                        ~depth_pass if before is None else before ^ alive,
                        count,
                        stats,
                    )
            else:
                early_z_survivors = total
            if state.depth.write:
                if live:
                    if frag_codes is None:
                        depth_to_code(
                            outputs.result.depth.reshape(shape),
                            out=region.depth,
                        )
                    else:
                        masked_write(region.depth, frag_codes, alive)
                    self.depth_generation += 1
                stats.depth_writes += live
        if live and stencil.enabled and stencil.zpass is not StencilOp.KEEP:
            self._apply_stencil_op(
                stencil.zpass, region.stencil, alive, live, stats
            )

        # Stage 6: occlusion counting (the caller feeds the query) and
        # color write.
        stats.passed += live
        if live and any(state.color_mask):
            frag_color = outputs.result.color
            for channel, enabled in enumerate(state.color_mask):
                if enabled:
                    masked_write(
                        region.color[..., channel],
                        frag_color[channel].reshape(shape),
                        alive,
                    )
        stats.color_writes += live * sum(state.color_mask)

        self._accumulate_early_z(stats, early_z_survivors, total)
        return live

    def _apply_stencil_op(
        self,
        op: StencilOp,
        stencil: np.ndarray,
        mask: np.ndarray | None,
        count: int,
        stats: PassStats,
    ) -> None:
        """Run ``op`` on the ``count`` fragments of the ``stencil`` view
        that ``mask`` selects (every fragment when None).

        The op and the write mask run over the whole view; the blend
        lands the result on the selected fragments only.
        """
        updated = op.apply(stencil, self.state.stencil.reference)
        write_mask = self.state.stencil.write_mask
        if write_mask != 0xFF:
            # glStencilMask: only the masked bits change.
            keep_bits = np.uint8(0xFF & ~write_mask)
            updated = (stencil & keep_bits) | (
                updated & np.uint8(write_mask)
            )
        masked_write(stencil, updated, mask)
        self.stencil_generation += 1
        stats.stencil_writes += count

    def _accumulate_early_z(
        self,
        stats: PassStats,
        early_z_survivors: int | None,
        fragments: int,
    ) -> None:
        """Record whether early depth culling could have skipped program
        execution, and how many instructions survive it (cost model input).

        Hardware disables early-z when the program writes depth or uses
        KIL, or when the alpha test is enabled (any of these makes the
        depth outcome depend on the program's output).
        """
        program = self._program
        state = self.state
        eligible = (
            program is not None
            and state.depth.enabled
            and early_z_survivors is not None
            and not program.writes_depth
            and not program.uses_kil
            and not state.alpha.enabled
        )
        stats.early_z_eligible = eligible
        if not eligible:
            stats.instructions_after_early_z = stats.instructions_executed
            return
        stats.instructions_after_early_z += (
            stats.program_length * early_z_survivors
        )
