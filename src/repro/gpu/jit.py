"""Fragment-program JIT: fused, vectorized numpy kernels.

The interpreter (:mod:`repro.gpu.interpreter`) walks ``!!FP1.0``
instructions per pass from Python — per-instruction dispatch, operand
decoding and swizzle copies on every draw.  This module compiles each
program **once** into a :class:`BoundKernel`: a closure chain of
precompiled per-instruction numpy ops with operand readers resolved at
bind time (swizzles baked in, parameter rows pre-swizzled and
broadcast, identity reads elided) and dead instructions removed by a
backward liveness pass.

Two cache layers:

* a module-level **program cache** keyed by ``(program text, color
  needed)`` holds the DCE'd instruction list — the part of compilation
  independent of bound resources;
* a per-device :class:`KernelCache` (LRU) holds bound kernels keyed by
  program text, color need, the ``(id, generation)`` of every texture
  the program samples, and the bytes of every parameter row it reads.
  The key mirrors the plan-cache invalidation rules: a retried fault,
  a context switch, a texel upload or a parameter change can never
  replay a stale compiled kernel — the changed generation or bytes
  miss the cache and force a fresh bind.

**Cost-model fidelity:** DCE changes wall-clock work only.
``instructions_executed`` still charges the *full* program length for
every fragment, exactly like the interpreter (the simulated hardware
has no dead-code eliminator), so modeled timings are backend-invariant
and the differential matrix can pin JIT == interpreter bit-for-bit.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from .. import sanitize
from ..errors import ProgramExecutionError
from .assembler import FragmentProgram
from .interpreter import FragmentBatch, ProgramResult
from .isa import (
    NUM_TEMPORARIES,
    FragmentAttrib,
    Instruction,
    Opcode,
    OutputRegister,
    RegisterFile,
    SourceOperand,
)
from .texture import Texture

#: Fragment attributes that are pure functions of quad geometry (texture
#: coordinates are identical for every pass over the same rect, unlike
#: WPOS, whose .z carries the per-pass quad depth, or COL0).
_GEOMETRY_ATTRIBS = frozenset(
    {
        FragmentAttrib.TEX0,
        FragmentAttrib.TEX1,
        FragmentAttrib.TEX2,
        FragmentAttrib.TEX3,
    }
)

_IDENTITY = (0, 1, 2, 3)

#: Cap on the shared TEX-fetch memo (see :func:`_make_compute`).
_TEX_MEMO_CAP = 64


def _dce(
    instructions: tuple[Instruction, ...], need_color: bool
) -> tuple[Instruction, ...]:
    """Backward liveness: drop instructions whose results are never
    observed.  ``KIL`` and ``o[DEPR]`` writes are always live (side
    effects); ``o[COLR]`` writes are live only when the pipeline will
    look at the color (alpha test or color write enabled); a full-mask
    temporary write kills the liveness of earlier writes to that temp.
    """
    live: set[int] = set()
    kept: list[Instruction] = []
    for instruction in reversed(instructions):
        if instruction.opcode is Opcode.KIL:
            keep = True
        else:
            dest = instruction.dest
            if dest.file is RegisterFile.TEMPORARY:
                keep = dest.index in live
            elif dest.output is OutputRegister.COLR:
                keep = need_color
            else:  # o[DEPR]
                keep = True
        if not keep:
            continue
        if instruction.opcode is not Opcode.KIL:
            dest = instruction.dest
            if dest.file is RegisterFile.TEMPORARY and all(
                dest.mask.flags
            ):
                live.discard(dest.index)
        for src in instruction.sources:
            if src.file is RegisterFile.TEMPORARY:
                live.add(src.index)
        kept.append(instruction)
    kept.reverse()
    return tuple(kept)


class CompiledProgram:
    """The resource-independent half of compilation: the DCE'd
    instruction list plus static facts every binding shares."""

    __slots__ = (
        "name",
        "source",
        "need_color",
        "num_instructions",
        "all_instructions",
        "instructions",
        "texture_units",
        "param_indices",
    )

    def __init__(self, program: FragmentProgram, need_color: bool):
        self.name = program.name
        self.source = program.source
        self.need_color = need_color
        #: Pre-DCE length — what the cost model charges per fragment.
        self.num_instructions = program.num_instructions
        #: Full instruction list (bind-time validation walks it so
        #: error ordering matches the interpreter exactly).
        self.all_instructions = tuple(program.instructions)
        self.instructions = _dce(self.all_instructions, need_color)
        self.texture_units = tuple(sorted(program.texture_units))
        params: set[int] = set()
        for instruction in self.all_instructions:
            for src in instruction.sources:
                if src.file is RegisterFile.PARAMETER:
                    params.add(src.index)
        self.param_indices = tuple(sorted(params))

    def describe(self) -> str:
        """One-line kernel summary for explain output."""
        return (
            f"{self.name}: {len(self.instructions)}/"
            f"{self.num_instructions} ops after DCE, "
            + ("color" if self.need_color else "depth-only")
        )


#: Program-level compile cache (resource-independent, process-wide).
#: Shared by every device — shard pool workers compile concurrently —
#: so all access goes through ``_PROGRAM_LOCK``.
_PROGRAM_CACHE: dict[tuple[str, bool], CompiledProgram] = {}
_PROGRAM_CACHE_CAP = 128
_PROGRAM_LOCK = sanitize.TrackedLock()


def program_cached(
    program: FragmentProgram, need_color: bool
) -> bool:
    """True when ``compile_program`` would hit the process-wide cache."""
    with _PROGRAM_LOCK:
        sanitize.note(_PROGRAM_CACHE, "entries", sanitize.READ)
        return (program.source, need_color) in _PROGRAM_CACHE


def compile_program(
    program: FragmentProgram, need_color: bool
) -> CompiledProgram:
    """Compile (or fetch the cached compilation of) one program."""
    key = (program.source, need_color)
    with _PROGRAM_LOCK:
        sanitize.note(_PROGRAM_CACHE, "entries", sanitize.READ)
        compiled = _PROGRAM_CACHE.get(key)
        if compiled is None:
            sanitize.note(_PROGRAM_CACHE, "entries", sanitize.WRITE)
            if len(_PROGRAM_CACHE) >= _PROGRAM_CACHE_CAP:
                _PROGRAM_CACHE.clear()
            compiled = CompiledProgram(program, need_color)
            _PROGRAM_CACHE[key] = compiled
    return compiled


def kernel_summary(
    program: FragmentProgram, need_color: bool = False
) -> str:
    """Explain helper: the compiled-kernel one-liner for a program."""
    return compile_program(program, need_color).describe()


def _validate(
    compiled: CompiledProgram, textures: dict[int, Texture]
) -> None:
    """Bind-time checks over the *full* instruction list, in execution
    order, so the raised errors match the interpreter's exactly."""
    defined: set[int] = set()
    for instruction in compiled.all_instructions:
        for src in instruction.sources:
            if (
                src.file is RegisterFile.TEMPORARY
                and src.index not in defined
            ):
                raise ProgramExecutionError(
                    f"{compiled.name}: read of uninitialized "
                    f"R{src.index}"
                )
        if instruction.opcode is Opcode.TEX:
            unit = instruction.texture_unit
            if textures.get(unit) is None:
                raise ProgramExecutionError(
                    f"TEX references unit {unit} but no texture is "
                    "bound"
                )
        if (
            instruction.opcode is not Opcode.KIL
            and instruction.dest.file is RegisterFile.TEMPORARY
        ):
            defined.add(instruction.dest.index)


class _Env:
    """Mutable per-run register state threaded through the steps."""

    __slots__ = (
        "batch",
        "count",
        "temps",
        "killed",
        "out_color",
        "out_depth",
    )

    def __init__(self, batch: FragmentBatch):
        self.batch = batch
        self.count = batch.count
        self.temps: list = [None] * NUM_TEMPORARIES
        self.killed = np.zeros(batch.count, dtype=bool)
        self.out_color = None
        self.out_depth = None


def _make_reader(src: SourceOperand, parameters: np.ndarray):
    """An operand reader resolved at bind time.

    Identity-swizzle, non-negated temporary/fragment reads return the
    backing array directly (every op allocates fresh output, so the
    interpreter's defensive swizzle copy is unobservable); parameter
    and literal rows are pre-swizzled, pre-negated and broadcast.
    """
    comps = list(src.swizzle.components)
    identity = tuple(src.swizzle.components) == _IDENTITY
    if src.file is RegisterFile.TEMPORARY:
        index = src.index
        if identity and not src.negate:
            return lambda env: env.temps[index]
        negate = src.negate

        def read_temp(env):
            value = env.temps[index][:, comps]
            return -value if negate else value

        return read_temp
    if src.file is RegisterFile.FRAGMENT:
        attrib = src.attrib
        if identity and not src.negate:
            return lambda env: env.batch.attribute(attrib)
        negate = src.negate

        def read_attrib(env):
            value = env.batch.attribute(attrib)[:, comps]
            return -value if negate else value

        return read_attrib
    if src.file is RegisterFile.PARAMETER:
        row = parameters[src.index][comps].astype(np.float32)
    else:  # LITERAL
        row = np.asarray(src.literal, dtype=np.float32)[comps]
    if src.negate:
        row = -row
    row.setflags(write=False)
    return lambda env: np.broadcast_to(row, (env.count, 4))


def _make_compute(
    kernel: "BoundKernel",
    step_index: int,
    instruction: Instruction,
    textures: dict[int, Texture],
    parameters: np.ndarray,
):
    """The value-producing closure for one instruction (dest handling
    lives in :func:`_make_step`).  Numpy-op choices replicate the
    interpreter's exactly — dtype promotions included — so results are
    bit-identical."""
    op = instruction.opcode
    srcs = instruction.sources

    if op is Opcode.TEX:
        read = _make_reader(srcs[0], parameters)
        texture = textures[instruction.texture_unit]
        width, height = texture.width, texture.height
        src = srcs[0]
        # Texture coordinates are a pure function of quad geometry, so
        # the fetch can be memoized per (program, instruction, texture
        # generation, geometry).  The memo lives on the KernelCache —
        # shared across bindings, so a parameter change (which rotates
        # the kernel key every bit-search pass) still reuses fetches —
        # and the texture generation in the key makes a stale texel
        # replay impossible.
        memoizable = (
            src.file is RegisterFile.FRAGMENT
            and src.attrib in _GEOMETRY_ATTRIBS
        )
        memo = kernel.tex_memo
        prefix = (
            kernel.compiled.source,
            step_index,
            texture.id,
            texture.generation,
        )

        def compute_tex(env):
            token = env.batch.geometry_token if memoizable else None
            if token is not None:
                key = prefix + (token,)
                cached = memo.get(key)
                if cached is not None:
                    return cached
            coords = read(env)
            s = coords[:, 0].astype(np.float64)
            t = coords[:, 1].astype(np.float64)
            u = np.clip(np.floor(s * width), 0, width - 1).astype(
                np.int64
            )
            v = np.clip(np.floor(t * height), 0, height - 1).astype(
                np.int64
            )
            value = texture.fetch(v * width + u)
            if token is not None:
                if len(memo) >= _TEX_MEMO_CAP:
                    memo.clear()
                value.setflags(write=False)
                memo[key] = value
            return value

        return compute_tex

    if op.num_sources == 1:
        read = _make_reader(srcs[0], parameters)
        if op is Opcode.MOV:
            return lambda env: read(env).astype(np.float32, copy=True)
        if op is Opcode.ABS:
            return lambda env: np.abs(read(env))
        if op is Opcode.FLR:
            return lambda env: np.floor(read(env))
        if op is Opcode.FRC:

            def compute_frc(env):
                a = read(env)
                return (a - np.floor(a)).astype(np.float32)

            return compute_frc
        if op is Opcode.RCP:

            def compute_rcp(env):
                a = read(env)
                with np.errstate(divide="ignore"):
                    scalar = np.float32(1.0) / a[:, 0]
                return np.repeat(scalar[:, None], 4, axis=1)

            return compute_rcp
        if op is Opcode.EX2:

            def compute_ex2(env):
                scalar = np.exp2(read(env)[:, 0]).astype(np.float32)
                return np.repeat(scalar[:, None], 4, axis=1)

            return compute_ex2
        if op is Opcode.LG2:

            def compute_lg2(env):
                with np.errstate(divide="ignore", invalid="ignore"):
                    scalar = np.log2(read(env)[:, 0]).astype(
                        np.float32
                    )
                return np.repeat(scalar[:, None], 4, axis=1)

            return compute_lg2

    if op.num_sources == 2:
        read_a = _make_reader(srcs[0], parameters)
        read_b = _make_reader(srcs[1], parameters)
        if op is Opcode.ADD:
            return lambda env: read_a(env) + read_b(env)
        if op is Opcode.SUB:
            return lambda env: read_a(env) - read_b(env)
        if op is Opcode.MUL:
            return lambda env: read_a(env) * read_b(env)
        if op is Opcode.MIN:
            return lambda env: np.minimum(read_a(env), read_b(env))
        if op is Opcode.MAX:
            return lambda env: np.maximum(read_a(env), read_b(env))
        if op is Opcode.SLT:
            return lambda env: (
                read_a(env) < read_b(env)
            ).astype(np.float32)
        if op is Opcode.SGE:
            return lambda env: (
                read_a(env) >= read_b(env)
            ).astype(np.float32)
        if op is Opcode.DP3:

            def compute_dp3(env):
                # The interpreter's swizzle reads are fancy-indexed
                # copies, which numpy lays out in Fortran order; einsum
                # accumulates in a layout-dependent order, so the
                # operands must match that layout for bit-identity.
                a = np.asfortranarray(read_a(env))
                b = np.asfortranarray(read_b(env))
                scalar = np.einsum(
                    "ij,ij->i", a[:, :3], b[:, :3]
                ).astype(np.float32)
                return np.repeat(scalar[:, None], 4, axis=1)

            return compute_dp3
        if op is Opcode.DP4:

            def compute_dp4(env):
                a = np.asfortranarray(read_a(env))
                b = np.asfortranarray(read_b(env))
                scalar = np.einsum("ij,ij->i", a, b).astype(np.float32)
                return np.repeat(scalar[:, None], 4, axis=1)

            return compute_dp4

    if op.num_sources == 3:
        read_a = _make_reader(srcs[0], parameters)
        read_b = _make_reader(srcs[1], parameters)
        read_c = _make_reader(srcs[2], parameters)
        if op is Opcode.MAD:
            return lambda env: read_a(env) * read_b(env) + read_c(env)
        if op is Opcode.CMP:
            return lambda env: np.where(
                read_a(env) < 0.0, read_b(env), read_c(env)
            ).astype(np.float32)
        if op is Opcode.LRP:

            def compute_lrp(env):
                a = read_a(env)
                return (
                    a * read_b(env)
                    + (np.float32(1.0) - a) * read_c(env)
                ).astype(np.float32)

            return compute_lrp

    raise ProgramExecutionError(
        f"unhandled opcode {op.mnemonic}"
    )  # pragma: no cover - defensive


def _make_step(
    kernel: "BoundKernel",
    step_index: int,
    instruction: Instruction,
    textures: dict[int, Texture],
    parameters: np.ndarray,
):
    """Compute + destination write fused into one closure."""
    op = instruction.opcode
    if op is Opcode.KIL:
        read = _make_reader(instruction.sources[0], parameters)

        def step_kil(env):
            env.killed |= np.any(read(env) < 0.0, axis=1)

        return step_kil

    compute = _make_compute(
        kernel, step_index, instruction, textures, parameters
    )
    dest = instruction.dest
    flags = dest.mask.flags

    if dest.file is RegisterFile.TEMPORARY:
        index = dest.index
        if all(flags):

            def step_temp(env):
                env.temps[index] = compute(env).astype(
                    np.float32, copy=False
                )

            return step_temp
        channels = [c for c in range(4) if flags[c]]

        def step_temp_masked(env):
            value = compute(env)
            current = env.temps[index]
            if current is None:
                current = np.zeros((env.count, 4), dtype=np.float32)
            elif not current.flags.writeable:
                # The register may alias a memoized fetch or broadcast
                # row; a partial write needs a private copy.
                current = current.astype(np.float32, copy=True)
            for channel in channels:
                current[:, channel] = value[:, channel]
            env.temps[index] = current

        return step_temp_masked

    if dest.output is OutputRegister.COLR:
        if all(flags):

            def step_color(env):
                env.out_color = compute(env).astype(
                    np.float32, copy=False
                )

            return step_color
        channels = [c for c in range(4) if flags[c]]

        def step_color_masked(env):
            value = compute(env)
            current = env.out_color
            if current is None:
                current = np.zeros((env.count, 4), dtype=np.float32)
            elif not current.flags.writeable:
                current = current.astype(np.float32, copy=True)
            for channel in channels:
                current[:, channel] = value[:, channel]
            env.out_color = current

        return step_color_masked

    # o[DEPR] — the .z component carries the depth.
    def step_depth(env):
        env.out_depth = compute(env)[:, 2].astype(
            np.float32, copy=True
        )

    return step_depth


class BoundKernel:
    """One program fused into step closures over concrete resources.

    Drop-in for :meth:`ProgramInterpreter.run`: identical results,
    identical errors, identical ``instructions_executed``.
    """

    def __init__(
        self,
        compiled: CompiledProgram,
        textures: dict[int, Texture],
        parameters: np.ndarray,
        tex_memo: dict | None = None,
    ):
        _validate(compiled, textures)
        self.compiled = compiled
        self.name = compiled.name
        #: Memoized TEX fetches (usually the owning KernelCache's
        #: shared dict) keyed ``(program, step, texture id, texture
        #: generation, geometry token)``.
        self.tex_memo: dict = tex_memo if tex_memo is not None else {}
        self._need_color = compiled.need_color
        self._num_instructions = compiled.num_instructions
        self._steps = [
            _make_step(self, index, instruction, textures, parameters)
            for index, instruction in enumerate(compiled.instructions)
        ]

    def run(self, batch: FragmentBatch) -> ProgramResult:
        env = _Env(batch)
        for step in self._steps:
            step(env)
        out_color = env.out_color
        if out_color is None:
            col0 = batch.attribute(FragmentAttrib.COL0)
            # COL0 is a read-only broadcast of the quad color.  When
            # the pipeline will not look at the color (no alpha test,
            # no color write) the copy is unobservable — skip it.
            out_color = col0.copy() if self._need_color else col0
        return ProgramResult(
            color=out_color,
            depth=env.out_depth,
            killed=env.killed,
            instructions_executed=self._num_instructions * batch.count,
        )


class KernelCache:
    """Per-device LRU of bound kernels.

    The key — program text, color need, every sampled texture's
    ``(id, generation)``, the bytes of every parameter row read —
    mirrors the plan-cache invalidation rules: content changes rotate
    the key, so a retried fault or context switch can never replay a
    stale kernel.
    """

    def __init__(self, capacity: int = 64):
        self.capacity = capacity
        self._kernels: OrderedDict = OrderedDict()
        #: Shared geometry-keyed TEX-fetch memo (see ``_make_compute``).
        self.tex_memo: dict = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.program_compiles = 0

    def __len__(self) -> int:
        return len(self._kernels)

    def key_for(
        self,
        program: FragmentProgram,
        need_color: bool,
        textures: dict[int, Texture],
        parameters: np.ndarray,
    ) -> tuple:
        compiled = compile_program(program, need_color)
        tex_key = tuple(
            (unit, textures[unit].id, textures[unit].generation)
            for unit in compiled.texture_units
            if textures.get(unit) is not None
        )
        if compiled.param_indices:
            param_key = parameters[
                list(compiled.param_indices)
            ].tobytes()
        else:
            param_key = b""
        return (program.source, need_color, tex_key, param_key)

    def get_or_bind(
        self,
        program: FragmentProgram,
        need_color: bool,
        textures: dict[int, Texture],
        parameters: np.ndarray,
    ) -> BoundKernel:
        if not program_cached(program, need_color):
            self.program_compiles += 1
        key = self.key_for(program, need_color, textures, parameters)
        kernel = self._kernels.get(key)
        if kernel is not None:
            self.hits += 1
            self._kernels.move_to_end(key)
            return kernel
        self.misses += 1
        if len(self.tex_memo) >= _TEX_MEMO_CAP:
            self.tex_memo.clear()
        kernel = BoundKernel(
            compile_program(program, need_color),
            dict(textures),
            parameters,
            tex_memo=self.tex_memo,
        )
        self._kernels[key] = kernel
        if len(self._kernels) > self.capacity:
            self._kernels.popitem(last=False)
            self.evictions += 1
        return kernel

    def clear(self) -> None:
        self._kernels.clear()
