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

import time

import numpy as np

from .. import sanitize
from ..errors import GpuError, OcclusionQueryError, RenderStateError
from ..faults import SITE_PASS, SITE_READBACK, check_deadline, maybe_inject
from .assembler import FragmentProgram
from .counters import PassStats, PipelineStats
from .framebuffer import FrameBuffer, depth_to_code
from .interpreter import FragmentAttrib, ProgramInterpreter, color_columns
from .jit import KernelCache, live_color
from .isa import NUM_PARAMETERS, NUM_TEXTURE_UNITS
from .memory import VideoMemory
from .occlusion import OcclusionQuery
from .raster import Rect, full_screen, rasterize_rect, rects_for_count
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
        arbitrary pixel sets).
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
        if count is not None:
            rects = rects_for_count(count, fb.width, fb.height)
        elif rect is not None:
            rects = [rect]
        else:
            rects = [full_screen(fb.height, fb.width)]
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
        for r in rects:
            self._draw(r, depth, color, stats)
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
        self, rect: Rect, depth: float, color, stats: PassStats
    ) -> None:
        self.state.validate()
        fb = self.framebuffer
        batch = rasterize_rect(
            rect, fb.width, fb.height, depth, tuple(color)
        )
        stats.fragments += batch.count
        # Every stage reads and writes the buffers through the rect's
        # (h, w) views; fragment order is their row-major ravel order.
        shape = (rect.height, rect.width)
        region = fb.region(rect)

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
        frag_depth = None
        if self._program is not None:
            if self.jit:
                # The color components a later stage observes pick the
                # compiled variant (everything else is dead code).
                kernel = self.kernels.get_or_bind(
                    self._program,
                    live_color(state),
                    self._textures,
                    self._parameters,
                )
                result = kernel.run(batch)
            else:
                interpreter = ProgramInterpreter(
                    self._textures, self._parameters
                )
                result = interpreter.run(self._program, batch)
            frag_color = result.color
            frag_depth = result.depth
            if result.killed is not None:
                killed = int(np.count_nonzero(result.killed))
                if killed:
                    alive = ~result.killed.reshape(shape)
                    live = total - killed
                stats.killed += killed
            stats.program = self._program.name
            stats.program_length = self._program.num_instructions
            stats.instructions_executed += result.instructions_executed
            stats.writes_depth_from_program = self._program.writes_depth
        else:
            frag_color = color_columns(batch.attribute(FragmentAttrib.COL0))

        # Stage 2: alpha test.
        alpha = state.alpha
        if alpha.enabled and alpha.func is not CompareFunc.ALWAYS:
            alpha_pass = alpha.func.apply(
                frag_color[3].reshape(shape), np.float32(alpha.reference)
            )
            before = live
            alive, live = _survivors(alive, alpha_pass, total)
            stats.alpha_failed += before - live

        # Stage 3: stencil test.  GL convention: the test passes when
        # ``(ref & mask) func (stencil & mask)``; the scalar reference
        # is on the left, hence the swapped comparison.
        stencil = state.stencil
        if stencil.enabled and stencil.func is not CompareFunc.ALWAYS:
            mask = np.uint8(stencil.mask)
            stored = region.stencil
            if mask != 0xFF:
                stored = stored & mask
            stencil_pass = stencil.func.swap().apply(
                stored, np.uint8(stencil.reference) & mask
            )
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
            low = depth_to_code(state.depth_bounds.zmin)
            high = depth_to_code(state.depth_bounds.zmax)
            bounds_pass = (region.depth >= low) & (region.depth <= high)
            before = live
            alive, live = _survivors(alive, bounds_pass, total)
            stats.depth_bounds_failed += before - live

        # Stage 5: depth test.  Without a program-written depth every
        # fragment carries the quad depth (the float32 WPOS.z), so it
        # is quantized once.  A program-written depth is quantized only
        # when something reads the codes: the comparison, or a write
        # that lands on some fragments only.  A write that lands on
        # every fragment quantizes straight into the buffer.
        early_z_survivors: int | None = None
        if state.depth.enabled:
            compare = state.depth.func is not CompareFunc.ALWAYS
            frag_codes = None
            if frag_depth is None:
                frag_codes = depth_to_code(np.float32(depth))
            else:
                frag_depth = frag_depth.reshape(shape)
                if compare or (state.depth.write and alive is not None):
                    frag_codes = depth_to_code(frag_depth)
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
                        depth_to_code(frag_depth, out=region.depth)
                    else:
                        masked_write(region.depth, frag_codes, alive)
                    self.depth_generation += 1
                stats.depth_writes += live
        if live and stencil.enabled and stencil.zpass is not StencilOp.KEEP:
            self._apply_stencil_op(
                stencil.zpass, region.stencil, alive, live, stats
            )

        # Stage 6: occlusion counting and color write.
        stats.passed += live
        if self._active_query is not None and self._active_query.active:
            self._active_query._add(live)
        if live and any(state.color_mask):
            for channel, enabled in enumerate(state.color_mask):
                if enabled:
                    masked_write(
                        region.color[..., channel],
                        frag_color[channel].reshape(shape),
                        alive,
                    )
        stats.color_writes += live * sum(state.color_mask)

        self._accumulate_early_z(stats, early_z_survivors, total)

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
