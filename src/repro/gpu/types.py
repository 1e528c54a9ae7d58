"""Core enumerations and constants for the GPU simulator.

These mirror the OpenGL-1.5-era fixed-function state the paper relies on:
comparison functions shared by the alpha, stencil, depth, and depth-bounds
tests; stencil operations; and texture formats.  The numeric depth-buffer
parameters (24-bit integer depth codes) follow the GeForce FX 5900 the
paper evaluated on.
"""

from __future__ import annotations

import enum

import numpy as np

#: Number of bits of depth-buffer precision (paper section 6.1: "Current
#: GPUs have depth buffers with a maximum of 24 bits").
DEPTH_BITS = 24

#: Largest representable depth code: depths are stored as integers in
#: ``[0, DEPTH_MAX_CODE]``.
DEPTH_MAX_CODE = (1 << DEPTH_BITS) - 1

#: Number of bits in a stencil-buffer entry.
STENCIL_BITS = 8

#: Largest storable stencil value.
STENCIL_MAX = (1 << STENCIL_BITS) - 1

#: Largest integer exactly representable in a float32 texture channel
#: (paper section 3.3: "This format can precisely represent integers up
#: to 24 bits").
MAX_EXACT_INT = 1 << DEPTH_BITS


class CompareFunc(enum.Enum):
    """Relational operator used by the alpha, stencil, and depth tests.

    The paper (section 3.1) lists ``=, <, >, <=, >=, !=`` plus the
    reference-free ``never`` and ``always``.
    """

    NEVER = "never"
    ALWAYS = "always"
    LESS = "<"
    LEQUAL = "<="
    GREATER = ">"
    GEQUAL = ">="
    EQUAL = "=="
    NOTEQUAL = "!="

    def apply(self, value: np.ndarray, reference) -> np.ndarray:
        """Evaluate ``value <op> reference`` elementwise.

        ``value`` is the incoming (fragment) side and ``reference`` the
        user-specified reference, matching the OpenGL convention for the
        alpha and depth tests (``fragment op reference`` passes).
        """
        if self is CompareFunc.NEVER:
            return np.zeros(np.shape(value), dtype=bool)
        if self is CompareFunc.ALWAYS:
            return np.ones(np.shape(value), dtype=bool)
        if self is CompareFunc.LESS:
            return value < reference
        if self is CompareFunc.LEQUAL:
            return value <= reference
        if self is CompareFunc.GREATER:
            return value > reference
        if self is CompareFunc.GEQUAL:
            return value >= reference
        if self is CompareFunc.EQUAL:
            return value == reference
        return value != reference

    def negate(self) -> "CompareFunc":
        """Return the complementary comparison (used to fold NOT into
        simple predicates, paper section 4.2)."""
        return _NEGATED[self]

    def swap(self) -> "CompareFunc":
        """Return the comparison with its operands exchanged
        (``a < b``  ⇔  ``b > a``)."""
        return _SWAPPED[self]


_NEGATED = {
    CompareFunc.NEVER: CompareFunc.ALWAYS,
    CompareFunc.ALWAYS: CompareFunc.NEVER,
    CompareFunc.LESS: CompareFunc.GEQUAL,
    CompareFunc.LEQUAL: CompareFunc.GREATER,
    CompareFunc.GREATER: CompareFunc.LEQUAL,
    CompareFunc.GEQUAL: CompareFunc.LESS,
    CompareFunc.EQUAL: CompareFunc.NOTEQUAL,
    CompareFunc.NOTEQUAL: CompareFunc.EQUAL,
}

_SWAPPED = {
    CompareFunc.NEVER: CompareFunc.NEVER,
    CompareFunc.ALWAYS: CompareFunc.ALWAYS,
    CompareFunc.LESS: CompareFunc.GREATER,
    CompareFunc.LEQUAL: CompareFunc.GEQUAL,
    CompareFunc.GREATER: CompareFunc.LESS,
    CompareFunc.GEQUAL: CompareFunc.LEQUAL,
    CompareFunc.EQUAL: CompareFunc.EQUAL,
    CompareFunc.NOTEQUAL: CompareFunc.NOTEQUAL,
}


class StencilOp(enum.Enum):
    """Update applied to a pixel's stencil value after the stencil/depth
    tests (paper section 3.4)."""

    KEEP = "keep"
    ZERO = "zero"
    REPLACE = "replace"
    INCR = "incr"
    DECR = "decr"
    INVERT = "invert"

    def apply(self, stencil: np.ndarray, reference: int) -> np.ndarray:
        """Return the updated stencil values (uint dtype preserved).

        ``INCR``/``DECR`` saturate at the representable range, matching
        ``GL_INCR``/``GL_DECR`` (not the wrapping variants): they add or
        subtract the boolean "not at the bound", which keeps the uint8
        dtype and costs no per-element branch.
        """
        if self is StencilOp.KEEP:
            return stencil
        if self is StencilOp.ZERO:
            return np.zeros_like(stencil)
        if self is StencilOp.REPLACE:
            return np.full_like(stencil, reference & STENCIL_MAX)
        if self is StencilOp.INCR:
            return stencil + (stencil != STENCIL_MAX)
        if self is StencilOp.DECR:
            return stencil - (stencil != 0)
        # INVERT: bitwise complement within the stencil width.
        return (~stencil) & np.array(STENCIL_MAX, dtype=stencil.dtype)


class TextureFormat(enum.Enum):
    """Texel layout: number of float32 channels per texel."""

    LUMINANCE = 1
    LUMINANCE_ALPHA = 2
    RGB = 3
    RGBA = 4

    @property
    def channels(self) -> int:
        return self.value


class Channel(enum.IntEnum):
    """Color-channel indices used for swizzles and channel selection."""

    R = 0
    G = 1
    B = 2
    A = 3
