"""Vectorized executor for fragment programs.

Executes an assembled :class:`~repro.gpu.assembler.FragmentProgram` over a
whole batch of fragments at once — the software analogue of the GPU's
SIMD pixel engines, which "perform simple operations in parallel"
(paper section 1.1).  All arithmetic is float32, matching the
single-precision fragment pipeline of the GeForce FX (section 5).

Faithfulness notes:

* ``KIL`` marks fragments as discarded but the remaining instructions
  still execute for them — exactly like hardware, which has no
  data-dependent branching (section 6.1, "No Branching").  The cost
  model therefore charges every instruction for every fragment.
* Texture sampling is nearest-neighbour on explicit coordinates, so a
  mis-aligned quad really does fetch the wrong texels (a classic GPGPU
  bug this simulator can reproduce).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping

import numpy as np

from ..errors import ProgramExecutionError
from .assembler import FragmentProgram
from .isa import (
    NUM_PARAMETERS,
    NUM_TEMPORARIES,
    FragmentAttrib,
    Instruction,
    Opcode,
    OutputRegister,
    RegisterFile,
    SourceOperand,
)
from .texture import Texture


@dataclasses.dataclass
class FragmentBatch:
    """Per-fragment interpolated inputs for one rendering pass.

    All arrays have leading dimension ``count``.
    """

    #: Number of fragments in the batch.
    count: int
    #: Interpolated attributes, keyed by :class:`FragmentAttrib`;
    #: each value is ``(count, 4)`` float32.  A read-only mapping: the
    #: rasterizer's values may be shared or broadcast (see
    #: :class:`repro.gpu.raster.QuadAttributes`).
    attributes: Mapping
    #: Hashable identity of the quad geometry that produced this batch
    #: (rect + screen + texture dims), or ``None`` for hand-built
    #: batches.  The JIT memoizes geometry-determined texture fetches
    #: under it; the interpreter ignores it.
    geometry_token: tuple | None = None

    def attribute(self, attrib: FragmentAttrib) -> np.ndarray:
        try:
            return self.attributes[attrib]
        except KeyError:
            raise ProgramExecutionError(
                f"fragment attribute f[{attrib.value}] not provided "
                "by the rasterizer"
            ) from None


#: The four ``(count,)`` float32 color columns (r, g, b, a) of a
#: fragment batch; None for a component no stage observes.
ColorColumns = tuple[np.ndarray | None, ...]


def color_columns(rgba: np.ndarray) -> ColorColumns:
    """The column views of a ``(count, 4)`` color array."""
    return rgba[:, 0], rgba[:, 1], rgba[:, 2], rgba[:, 3]


@dataclasses.dataclass
class ProgramResult:
    """Outputs of executing a program over a fragment batch.

    Every array may be a view or a read-only broadcast: consumers only
    read them.
    """

    #: Final fragment colors, one column per component.
    color: ColorColumns
    #: ``(count,)`` fragment depth values, or None when the program did
    #: not write ``o[DEPR]`` (the rasterized depth is used instead).
    depth: np.ndarray | None
    #: ``(count,)`` True where ``KIL`` discarded the fragment, or None
    #: when the program has no ``KIL``.
    killed: np.ndarray | None
    #: Total instructions executed (count * program length) — feeds the
    #: cost model.
    instructions_executed: int


class ProgramInterpreter:
    """Executes fragment programs against bound textures and parameters."""

    def __init__(
        self,
        textures: dict[int, Texture],
        parameters: np.ndarray | None = None,
    ):
        """
        Parameters
        ----------
        textures:
            Texture bound to each texture unit, keyed by unit index.
        parameters:
            ``(NUM_PARAMETERS, 4)`` float32 program-parameter bank.
        """
        self.textures = textures
        if parameters is None:
            parameters = np.zeros((NUM_PARAMETERS, 4), dtype=np.float32)
        parameters = np.asarray(parameters, dtype=np.float32)
        if parameters.shape != (NUM_PARAMETERS, 4):
            raise ProgramExecutionError(
                f"parameter bank must be ({NUM_PARAMETERS}, 4), "
                f"got {parameters.shape}"
            )
        self.parameters = parameters

    def run(
        self, program: FragmentProgram, batch: FragmentBatch
    ) -> ProgramResult:
        count = batch.count
        temporaries = [None] * NUM_TEMPORARIES
        killed = np.zeros(count, dtype=bool) if program.uses_kil else None
        out_color: np.ndarray | None = None
        out_depth: np.ndarray | None = None

        def read(src: SourceOperand) -> np.ndarray:
            if src.file is RegisterFile.TEMPORARY:
                value = temporaries[src.index]
                if value is None:
                    raise ProgramExecutionError(
                        f"{program.name}: read of uninitialized R{src.index}"
                    )
            elif src.file is RegisterFile.PARAMETER:
                value = np.broadcast_to(
                    self.parameters[src.index], (count, 4)
                )
            elif src.file is RegisterFile.FRAGMENT:
                value = batch.attribute(src.attrib)
            else:  # LITERAL
                value = np.broadcast_to(
                    np.asarray(src.literal, dtype=np.float32), (count, 4)
                )
            value = value[:, list(src.swizzle.components)]
            if src.negate:
                value = -value
            return value

        for instruction in program.instructions:
            result = self._execute(instruction, read, killed, count)
            if instruction.opcode is Opcode.KIL:
                continue
            dest = instruction.dest
            if dest.file is RegisterFile.TEMPORARY:
                current = temporaries[dest.index]
                if current is None:
                    current = np.zeros((count, 4), dtype=np.float32)
                temporaries[dest.index] = _masked_write(
                    current, result, dest.mask.flags
                )
            elif dest.output is OutputRegister.COLR:
                if out_color is None:
                    out_color = np.zeros((count, 4), dtype=np.float32)
                out_color = _masked_write(out_color, result, dest.mask.flags)
            else:  # o[DEPR] — the .z component carries the depth
                out_depth = result[:, 2].astype(np.float32, copy=True)

        if out_color is None:
            # A program that never writes o[COLR] passes the interpolated
            # primary color through (needed so the alpha test still has a
            # defined alpha for depth-only programs).
            out_color = batch.attribute(FragmentAttrib.COL0)
        return ProgramResult(
            color=color_columns(out_color),
            depth=out_depth,
            killed=killed,
            instructions_executed=program.num_instructions * count,
        )

    def _execute(
        self,
        instruction: Instruction,
        read,
        killed: np.ndarray,
        count: int,
    ) -> np.ndarray | None:
        op = instruction.opcode
        srcs = instruction.sources

        if op is Opcode.KIL:
            value = read(srcs[0])
            killed |= np.any(value < 0.0, axis=1)
            return None
        if op is Opcode.TEX:
            return self._sample(
                instruction.texture_unit, read(srcs[0]), count
            )

        if op.num_sources == 1:
            a = read(srcs[0])
            if op is Opcode.MOV:
                return a.astype(np.float32, copy=True)
            if op is Opcode.ABS:
                return np.abs(a)
            if op is Opcode.FLR:
                return np.floor(a)
            if op is Opcode.FRC:
                return (a - np.floor(a)).astype(np.float32)
            if op is Opcode.RCP:
                with np.errstate(divide="ignore"):
                    scalar = np.float32(1.0) / a[:, 0]
                return np.repeat(scalar[:, None], 4, axis=1)
            if op is Opcode.EX2:
                scalar = np.exp2(a[:, 0]).astype(np.float32)
                return np.repeat(scalar[:, None], 4, axis=1)
            if op is Opcode.LG2:
                with np.errstate(divide="ignore", invalid="ignore"):
                    scalar = np.log2(a[:, 0]).astype(np.float32)
                return np.repeat(scalar[:, None], 4, axis=1)

        if op.num_sources == 2:
            a, b = read(srcs[0]), read(srcs[1])
            if op is Opcode.ADD:
                return a + b
            if op is Opcode.SUB:
                return a - b
            if op is Opcode.MUL:
                return a * b
            if op is Opcode.MIN:
                return np.minimum(a, b)
            if op is Opcode.MAX:
                return np.maximum(a, b)
            if op is Opcode.SLT:
                return (a < b).astype(np.float32)
            if op is Opcode.SGE:
                return (a >= b).astype(np.float32)
            if op is Opcode.DP3:
                scalar = np.einsum(
                    "ij,ij->i", a[:, :3], b[:, :3]
                ).astype(np.float32)
                return np.repeat(scalar[:, None], 4, axis=1)
            if op is Opcode.DP4:
                scalar = np.einsum("ij,ij->i", a, b).astype(np.float32)
                return np.repeat(scalar[:, None], 4, axis=1)

        if op.num_sources == 3:
            a, b, c = (read(s) for s in srcs)
            if op is Opcode.MAD:
                return a * b + c
            if op is Opcode.CMP:
                return np.where(a < 0.0, b, c).astype(np.float32)
            if op is Opcode.LRP:
                return (a * b + (np.float32(1.0) - a) * c).astype(np.float32)

        raise ProgramExecutionError(
            f"unhandled opcode {op.mnemonic}"
        )  # pragma: no cover - defensive

    def _sample(
        self, unit: int, coords: np.ndarray, count: int
    ) -> np.ndarray:
        texture = self.textures.get(unit)
        if texture is None:
            raise ProgramExecutionError(
                f"TEX references unit {unit} but no texture is bound"
            )
        indices = texture.nearest_indices(coords[:, 0], coords[:, 1])
        return texture.fetch(indices)


def _masked_write(
    current: np.ndarray, value: np.ndarray, flags
) -> np.ndarray:
    if all(flags):
        return value.astype(np.float32, copy=False)
    out = current
    for channel in range(4):
        if flags[channel]:
            out[:, channel] = value[:, channel]
    return out
