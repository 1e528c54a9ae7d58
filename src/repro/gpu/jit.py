"""Fragment-program JIT: per-component, vectorized numpy kernels.

The interpreter (:mod:`repro.gpu.interpreter`) walks ``!!FP1.0``
instructions per pass from Python — per-instruction dispatch, operand
decoding and swizzle copies on every draw, every vector op on all four
RGBA channels.  This module compiles each program **once** into a
:class:`BoundKernel`: a closure chain of precompiled numpy ops with
operand readers resolved at bind time (swizzles baked in, parameter
components pre-negated and broadcast).

Compilation is specialized by the **live mask**: the ``o[COLR]``
components some pipeline stage observes (:func:`live_color`).  A
backward liveness pass over components seeds from that mask, from
``o[DEPR].z`` and from every component a ``KIL`` names, propagates
through swizzles, and keeps only the instructions — and within them
only the destination components — whose values reach an observer.
Registers are held as four optional columns, and each kept
instruction runs one 1-D numpy op per live column.  A ``TestBit``
pass whose alpha feeds the alpha test therefore computes one channel,
not four.

Two cache layers:

* a module-level **program cache** keyed by ``(program text, live
  mask)`` holds the liveness-pruned instruction list — the part of
  compilation independent of bound resources;
* a per-device :class:`KernelCache` (LRU) holds bound kernels keyed by
  program text, live mask, the ``(id, generation)`` of every texture
  the program samples, and the bytes of every parameter row it reads.
  The key mirrors the plan-cache invalidation rules: a retried fault,
  a context switch, a texel upload or a parameter change can never
  replay a stale compiled kernel — the changed generation or bytes
  miss the cache and force a fresh bind.

**Cost-model fidelity:** liveness changes wall-clock work only.
``instructions_executed`` still charges the *full* program length for
every fragment, exactly like the interpreter (the simulated hardware
has no dead-code eliminator), so modeled timings are backend-invariant
and the differential matrix can pin JIT == interpreter bit-for-bit on
every component a stage observes.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from .. import sanitize
from ..errors import ProgramExecutionError
from .assembler import FragmentProgram
from .interpreter import FragmentBatch, ProgramResult, color_columns
from .isa import (
    NUM_TEMPORARIES,
    FragmentAttrib,
    Instruction,
    Opcode,
    OutputRegister,
    RegisterFile,
    SourceOperand,
)
from .state import RenderState
from .texture import Texture

#: Which ``o[COLR]`` components (x, y, z, w) some stage observes.
LiveMask = tuple[bool, bool, bool, bool]

#: The live mask of a pass that observes no color at all.
NO_COLOR: LiveMask = (False, False, False, False)

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

_COMPONENTS = "xyzw"

#: Ops whose result is one scalar of source component ``swizzle[0]``,
#: replicated into every destination component.
_SCALAR_OPS = frozenset({Opcode.RCP, Opcode.EX2, Opcode.LG2})

#: Register slot of ``o[COLR]`` in the per-run register list (after the
#: temporaries).
_COLOR_SLOT = NUM_TEMPORARIES

#: The depth the pipeline reads from ``o[DEPR]`` (NV_fragment_program).
_DEPTH_COMPONENT = 2

#: Cap on the shared TEX-fetch memo (see :func:`_make_tex`).
_TEX_MEMO_CAP = 64

_ZERO = np.zeros((), dtype=np.float32)
_ZERO.setflags(write=False)


def live_color(state: RenderState) -> LiveMask:
    """The ``o[COLR]`` components a pass under ``state`` observes: the
    color-mask channels, plus alpha when the alpha test is on."""
    mask = state.color_mask
    return (
        bool(mask[0]),
        bool(mask[1]),
        bool(mask[2]),
        bool(mask[3]) or state.alpha.enabled,
    )


def _source_components(
    instruction: Instruction, needed: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """For each source operand, the register components the instruction
    reads when only its ``needed`` destination components are used."""
    op = instruction.opcode
    reads = []
    for src in instruction.sources:
        swizzle = src.swizzle.components
        if op is Opcode.KIL:
            comps = swizzle
        elif op is Opcode.TEX:
            comps = swizzle[:2]
        elif op is Opcode.DP3:
            comps = swizzle[:3]
        elif op is Opcode.DP4:
            comps = swizzle
        elif op in _SCALAR_OPS:
            comps = swizzle[:1]
        else:
            comps = tuple(swizzle[d] for d in needed)
        reads.append(tuple(sorted(set(comps))))
    return reads


def _liveness(
    instructions: tuple[Instruction, ...], live: LiveMask
) -> tuple[tuple[Instruction, ...], tuple[tuple[int, ...], ...]]:
    """Backward per-component liveness.

    Returns the kept instructions and, for each, the destination
    components it must compute (for ``KIL``: the components it tests).
    Seeds: the ``live`` color components, ``o[DEPR].z`` and every
    component a ``KIL`` names.  A write kills the liveness of earlier
    writes to the components it covers — temporaries and ``o[COLR]``
    alike — and only the last ``o[DEPR]`` write reaches the pipeline.
    """
    slots: list[set[int]] = [set() for _ in range(NUM_TEMPORARIES + 1)]
    slots[_COLOR_SLOT] = {c for c in range(4) if live[c]}
    depth_live = True
    kept: list[Instruction] = []
    needs: list[tuple[int, ...]] = []
    for instruction in reversed(instructions):
        dest = instruction.dest
        if instruction.opcode is Opcode.KIL:
            needed: tuple[int, ...] = ()
        elif dest.file is RegisterFile.OUTPUT and (
            dest.output is OutputRegister.DEPR
        ):
            # The pipeline reads .z whatever the write mask says.
            if not depth_live:
                continue
            depth_live = False
            needed = (_DEPTH_COMPONENT,)
        else:
            slot = slots[
                _COLOR_SLOT
                if dest.file is RegisterFile.OUTPUT
                else dest.index
            ]
            written = {c for c in range(4) if dest.mask.flags[c]}
            needed = tuple(sorted(written & slot))
            if not needed:
                continue
            slot -= written
        for src, comps in zip(
            instruction.sources, _source_components(instruction, needed)
        ):
            if src.file is RegisterFile.TEMPORARY:
                slots[src.index].update(comps)
        kept.append(instruction)
        needs.append(needed)
    kept.reverse()
    needs.reverse()
    return tuple(kept), tuple(needs)


class CompiledProgram:
    """The resource-independent half of compilation: the liveness-
    pruned instruction list plus static facts every binding shares."""

    __slots__ = (
        "name",
        "source",
        "live",
        "num_instructions",
        "all_instructions",
        "instructions",
        "needed",
        "writes_color",
        "writes_depth",
        "uses_kil",
        "texture_units",
        "param_indices",
    )

    def __init__(self, program: FragmentProgram, live: LiveMask):
        self.name = program.name
        self.source = program.source
        self.live = live
        #: Pre-DCE length — what the cost model charges per fragment.
        self.num_instructions = program.num_instructions
        #: Full instruction list (bind-time validation walks it so
        #: error ordering matches the interpreter exactly).
        self.all_instructions = tuple(program.instructions)
        self.instructions, self.needed = _liveness(
            self.all_instructions, live
        )
        self.writes_color = program.writes_color
        self.writes_depth = program.writes_depth
        self.uses_kil = program.uses_kil
        self.texture_units = tuple(sorted(program.texture_units))
        params: set[int] = set()
        for instruction in self.all_instructions:
            for src in instruction.sources:
                if src.file is RegisterFile.PARAMETER:
                    params.add(src.index)
        self.param_indices = tuple(sorted(params))

    def describe(self) -> str:
        """One-line kernel summary for explain output, naming the
        outputs a stage observes."""
        observed = []
        if any(self.live):
            observed.append(
                "o[COLR]."
                + "".join(
                    _COMPONENTS[c] for c in range(4) if self.live[c]
                )
            )
        if self.writes_depth:
            observed.append("o[DEPR].z")
        if self.uses_kil:
            observed.append("KIL")
        return (
            f"{self.name}: {len(self.instructions)}/"
            f"{self.num_instructions} ops after DCE, live "
            + (", ".join(observed) or "nothing")
        )


#: Program-level compile cache (resource-independent, process-wide).
#: Shared by every device — shard pool workers compile concurrently —
#: so all access goes through ``_PROGRAM_LOCK``.
_PROGRAM_CACHE: dict[tuple[str, LiveMask], CompiledProgram] = {}
_PROGRAM_CACHE_CAP = 128
_PROGRAM_LOCK = sanitize.TrackedLock()


def program_cached(program: FragmentProgram, live: LiveMask) -> bool:
    """True when ``compile_program`` would hit the process-wide cache."""
    with _PROGRAM_LOCK:
        sanitize.note(_PROGRAM_CACHE, "entries", sanitize.READ)
        return (program.source, live) in _PROGRAM_CACHE


def compile_program(
    program: FragmentProgram, live: LiveMask
) -> CompiledProgram:
    """Compile (or fetch the cached compilation of) one program for
    one live mask."""
    key = (program.source, live)
    with _PROGRAM_LOCK:
        sanitize.note(_PROGRAM_CACHE, "entries", sanitize.READ)
        compiled = _PROGRAM_CACHE.get(key)
        if compiled is None:
            sanitize.note(_PROGRAM_CACHE, "entries", sanitize.WRITE)
            if len(_PROGRAM_CACHE) >= _PROGRAM_CACHE_CAP:
                _PROGRAM_CACHE.clear()
            compiled = CompiledProgram(program, live)
            _PROGRAM_CACHE[key] = compiled
    return compiled


def kernel_summary(
    program: FragmentProgram, live: LiveMask = NO_COLOR
) -> str:
    """Explain helper: the compiled-kernel one-liner for a program."""
    return compile_program(program, live).describe()


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
    """Mutable per-run register state threaded through the steps.

    ``regs`` holds one entry per temporary plus ``o[COLR]``: ``None``
    until first written, then a list of four optional ``(count,)``
    columns.  Columns are never written in place, so a write replaces
    references and registers may share arrays freely.
    """

    __slots__ = ("batch", "count", "regs", "killed", "out_depth")

    def __init__(self, batch: FragmentBatch, uses_kil: bool):
        self.batch = batch
        self.count = batch.count
        self.regs: list = [None] * (NUM_TEMPORARIES + 1)
        self.killed = (
            np.zeros(batch.count, dtype=bool) if uses_kil else None
        )
        self.out_depth = None


def _make_reader(
    src: SourceOperand, component: int, parameters: np.ndarray
):
    """A reader of register component ``component`` of ``src`` (the
    swizzle already applied by the caller), negated if the operand is.

    A temporary component no write defined reads as zeros, as in the
    interpreter.  Parameter and literal components are baked in at bind
    time and broadcast to the batch length.
    """
    negate = src.negate
    if src.file is RegisterFile.TEMPORARY:
        index = src.index

        def read_temp(env):
            columns = env.regs[index]
            column = None if columns is None else columns[component]
            if column is None:
                column = np.broadcast_to(_ZERO, (env.count,))
            return -column if negate else column

        return read_temp
    if src.file is RegisterFile.FRAGMENT:
        attrib = src.attrib

        def read_attrib(env):
            column = env.batch.attribute(attrib)[:, component]
            return -column if negate else column

        return read_attrib
    if src.file is RegisterFile.PARAMETER:
        value = np.float32(parameters[src.index][component])
    else:  # LITERAL
        value = np.float32(src.literal[component])
    value = np.array(-value if negate else value)
    value.setflags(write=False)
    return lambda env: np.broadcast_to(value, (env.count,))


def _frc(a):
    out = np.floor(a)
    return np.subtract(a, out, out=out)


def _rcp(a):
    with np.errstate(divide="ignore"):
        return np.float32(1.0) / a


def _lg2(a):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log2(a).astype(np.float32, copy=False)


def _mad(a, b, c):
    out = a * b
    return np.add(out, c, out=out)


def _lrp(a, b, c):
    return (a * b + (np.float32(1.0) - a) * c).astype(
        np.float32, copy=False
    )


#: One numpy function per component-wise (or scalar) opcode, each the
#: interpreter's op applied to one column — bit-identical per element.
_COLUMN_OPS = {
    Opcode.MOV: lambda a: a,
    Opcode.ABS: np.abs,
    Opcode.FLR: np.floor,
    Opcode.FRC: _frc,
    Opcode.RCP: _rcp,
    Opcode.EX2: lambda a: np.exp2(a).astype(np.float32, copy=False),
    Opcode.LG2: _lg2,
    Opcode.ADD: np.add,
    Opcode.SUB: np.subtract,
    Opcode.MUL: np.multiply,
    Opcode.MIN: np.minimum,
    Opcode.MAX: np.maximum,
    Opcode.SLT: lambda a, b: (a < b).astype(np.float32),
    Opcode.SGE: lambda a, b: (a >= b).astype(np.float32),
    Opcode.MAD: _mad,
    Opcode.CMP: lambda a, b, c: np.where(a < 0.0, b, c).astype(
        np.float32, copy=False
    ),
    Opcode.LRP: _lrp,
}


def _make_column_lanes(instruction, needed, parameters):
    """Compute closure for component-wise and scalar ops: one numpy op
    per live destination component, reading ``swizzle[d]`` of each
    source.  A scalar op computes once from ``swizzle[0]`` and its
    result feeds every live component."""
    fn = _COLUMN_OPS[instruction.opcode]

    def readers(lane):
        return tuple(
            _make_reader(src, src.swizzle.components[lane], parameters)
            for src in instruction.sources
        )

    if instruction.opcode in _SCALAR_OPS:
        lanes = [(tuple(needed), readers(0))]
    else:
        lanes = [((d,), readers(d)) for d in needed]

    def compute(env):
        return [
            (dests, fn(*[read(env) for read in reads]))
            for dests, reads in lanes
        ]

    return compute


def _make_dot(instruction, needed, parameters):
    """``DP3``/``DP4``: one einsum over Fortran-ordered ``(count, k)``
    operand stacks.  The interpreter's swizzle reads are fancy-indexed
    copies, which numpy lays out in Fortran order, and einsum
    accumulates in a layout-dependent order, so the stacks must match
    that layout for bit-identity."""
    width = 3 if instruction.opcode is Opcode.DP3 else 4
    stacks = [
        [
            _make_reader(src, src.swizzle.components[i], parameters)
            for i in range(width)
        ]
        for src in instruction.sources
    ]
    dests = tuple(needed)

    def compute(env):
        operands = []
        for reads in stacks:
            stack = np.empty((width, env.count), dtype=np.float32)
            for row, read in enumerate(reads):
                stack[row] = read(env)
            operands.append(stack.T)
        value = np.einsum("ij,ij->i", *operands).astype(
            np.float32, copy=False
        )
        return [(dests, value)]

    return compute


def _make_tex(kernel, instruction, needed, textures, parameters):
    """``TEX``: nearest-neighbour fetch of the live texel components.

    Texture coordinates are a pure function of quad geometry, so each
    fetched component is memoized per (texture id, texture generation,
    coordinate operand, geometry, component).  The memo lives on the
    KernelCache — shared across bindings and programs, so a parameter
    change (which rotates the kernel key every bit-search pass) and a
    copy-to-depth of the texture a TestBit pass reads reuse one
    gather — and the texture generation in the key makes a stale texel
    replay impossible.
    """
    src = instruction.sources[0]
    swizzle = src.swizzle.components
    read_s = _make_reader(src, swizzle[0], parameters)
    read_t = _make_reader(src, swizzle[1], parameters)
    texture = textures[instruction.texture_unit]
    memoizable = (
        src.file is RegisterFile.FRAGMENT
        and src.attrib in _GEOMETRY_ATTRIBS
    )
    memo = kernel.tex_memo
    prefix = (texture.id, texture.generation, src)

    def texel_indices(env):
        return texture.nearest_indices(read_s(env), read_t(env))

    def compute(env):
        token = env.batch.geometry_token if memoizable else None
        lanes = []
        indices = None
        for d in needed:
            key = prefix + (token, d)
            value = memo.get(key) if token is not None else None
            if value is None:
                if indices is None:
                    indices = texel_indices(env)
                value = texture.fetch_component(indices, d)
                if token is not None:
                    if len(memo) >= _TEX_MEMO_CAP:
                        memo.clear()
                    value.setflags(write=False)
                    memo[key] = value
            lanes.append(((d,), value))
        return lanes

    return compute


def _make_step(
    kernel: "BoundKernel",
    instruction: Instruction,
    needed: tuple[int, ...],
    textures: dict[int, Texture],
    parameters: np.ndarray,
):
    """Compute the live columns of one instruction, then write them."""
    op = instruction.opcode
    if op is Opcode.KIL:
        src = instruction.sources[0]
        (comps,) = _source_components(instruction, needed)
        reads = [_make_reader(src, c, parameters) for c in comps]

        def step_kil(env):
            for read in reads:
                env.killed |= read(env) < 0.0

        return step_kil

    if op is Opcode.TEX:
        compute = _make_tex(
            kernel, instruction, needed, textures, parameters
        )
    elif op in (Opcode.DP3, Opcode.DP4):
        compute = _make_dot(instruction, needed, parameters)
    else:
        compute = _make_column_lanes(instruction, needed, parameters)

    dest = instruction.dest
    if dest.file is RegisterFile.OUTPUT and (
        dest.output is OutputRegister.DEPR
    ):

        def step_depth(env):
            ((_dests, value),) = compute(env)
            env.out_depth = value

        return step_depth

    slot = _COLOR_SLOT if dest.file is RegisterFile.OUTPUT else dest.index
    full = all(dest.mask.flags)

    def step_write(env):
        lanes = compute(env)
        columns = env.regs[slot]
        if full or columns is None:
            # A full write replaces the register; components it leaves
            # unset are dead.  A first partial write leaves the others
            # undefined, which reads as zeros.
            columns = env.regs[slot] = [None, None, None, None]
        for dests, value in lanes:
            for d in dests:
                columns[d] = value

    return step_write


class BoundKernel:
    """One program fused into step closures over concrete resources.

    Drop-in for :meth:`ProgramInterpreter.run` on everything a stage
    observes: identical live color components, depth, kill mask, errors
    and ``instructions_executed``.
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
        #: Memoized TEX fetch columns (usually the owning KernelCache's
        #: shared dict) keyed ``(texture id, texture generation,
        #: coordinate operand, geometry token, component)``.
        self.tex_memo: dict = tex_memo if tex_memo is not None else {}
        self._writes_color = compiled.writes_color
        self._uses_kil = compiled.uses_kil
        self._num_instructions = compiled.num_instructions
        self._steps = [
            _make_step(self, instruction, needed, textures, parameters)
            for instruction, needed in zip(
                compiled.instructions, compiled.needed
            )
        ]

    def run(self, batch: FragmentBatch) -> ProgramResult:
        env = _Env(batch, self._uses_kil)
        for step in self._steps:
            step(env)
        live = self.compiled.live
        if self._writes_color:
            columns = env.regs[_COLOR_SLOT] or (None, None, None, None)
        else:
            # A program that never writes o[COLR] passes the quad
            # color (a read-only broadcast) through.
            columns = color_columns(batch.attribute(FragmentAttrib.COL0))
        # A live component no write defined reads as zeros, as in the
        # interpreter; a dead one is None.
        zeros = np.broadcast_to(_ZERO, (batch.count,))
        color = tuple(
            (zeros if columns[c] is None else columns[c]) if live[c] else None
            for c in range(4)
        )
        return ProgramResult(
            color=color,
            depth=env.out_depth,
            killed=env.killed,
            instructions_executed=self._num_instructions * batch.count,
        )


class KernelCache:
    """Per-device LRU of bound kernels.

    The key — program text, live mask, every sampled texture's
    ``(id, generation)``, the bytes of every parameter row read —
    mirrors the plan-cache invalidation rules: content changes rotate
    the key, so a retried fault or context switch can never replay a
    stale kernel.
    """

    def __init__(self, capacity: int = 64):
        self.capacity = capacity
        self._kernels: OrderedDict = OrderedDict()
        #: Shared geometry-keyed TEX-fetch memo (see ``_make_tex``).
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
        live: LiveMask,
        textures: dict[int, Texture],
        parameters: np.ndarray,
    ) -> tuple:
        compiled = compile_program(program, live)
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
        return (program.source, compiled.live, tex_key, param_key)

    def get_or_bind(
        self,
        program: FragmentProgram,
        live: LiveMask,
        textures: dict[int, Texture],
        parameters: np.ndarray,
    ) -> BoundKernel:
        if not program_cached(program, live):
            self.program_compiles += 1
        key = self.key_for(program, live, textures, parameters)
        kernel = self._kernels.get(key)
        if kernel is not None:
            self.hits += 1
            self._kernels.move_to_end(key)
            return kernel
        self.misses += 1
        if len(self.tex_memo) >= _TEX_MEMO_CAP:
            self.tex_memo.clear()
        kernel = BoundKernel(
            compile_program(program, live),
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
