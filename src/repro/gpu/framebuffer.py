"""Frame buffer: color, depth, and stencil buffers.

The paper (section 3.1) divides the frame buffer into three per-pixel
stores:

* the **color buffer** (RGBA float),
* the **depth buffer** — 24 bits on the GeForce FX (section 6.1), modeled
  here as integer *depth codes* in ``[0, 2**24 - 1]`` so quantization
  behaves exactly like the hardware, and
* the **stencil buffer** — 8-bit unsigned values used as a screen mask.

Depth quantization is the precision contract behind ``Compare``: a
``b``-bit integer attribute normalized by ``2**b`` maps to the code
``value << (24 - b)`` exactly, so integer comparisons performed via the
depth test are exact for attributes of up to 24 bits.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

import numpy as np

from ..errors import FramebufferError
from .types import DEPTH_BITS, DEPTH_MAX_CODE, STENCIL_MAX

_DEPTH_SCALE = float(1 << DEPTH_BITS)
_FLOAT32 = struct.Struct("f")


def depth_to_code(
    depth: np.ndarray | float, out: np.ndarray | None = None
) -> np.ndarray:
    """Quantize normalized depths in ``[0, 1]`` to integer depth codes.

    Clamps ``d * 2**24`` to ``[0, DEPTH_MAX_CODE]`` and truncates in the
    cast: on the clamped range truncation is ``floor``, so this
    round-trips ``value / 2**b`` exactly for integers of up to 24 bits.
    The clamp ignores NaN, so a NaN depth is code 0, +inf the largest
    code and -inf code 0.  Scaling by a power of two is exact in any
    binary precision, so float32 fragment depths stay float32; other
    inputs are promoted to float64 first.

    With ``out`` (a ``uint32`` array or view ``depth`` broadcasts to)
    the codes are cast straight into it, and ``out`` is returned.
    """
    d = np.asarray(depth)
    if d.dtype != np.float32:
        d = d.astype(np.float64)
    with np.errstate(over="ignore"):  # clamped below either way
        scaled = np.asarray(d * d.dtype.type(_DEPTH_SCALE))
    np.fmax(scaled, 0, out=scaled)
    np.fmin(scaled, DEPTH_MAX_CODE, out=scaled)
    if out is None:
        return scaled.astype(np.uint32)
    np.copyto(out, scaled, casting="unsafe")
    return out


def scalar_depth_code(depth: float) -> int:
    """:func:`depth_to_code` of one depth, in plain Python: bit-exact
    with ``depth_to_code(depth)`` for a float, which quantizes through
    float64.

    The depth is scaled by ``2**24`` (exact in double precision, and
    +inf past its range), clamped and truncated, with no numpy call: a
    pass quantizes its depth bounds this way.  NaN is code 0, as in
    :func:`depth_to_code`.
    """
    scaled = float(depth) * _DEPTH_SCALE
    if not scaled > 0.0:
        return 0
    if scaled >= DEPTH_MAX_CODE:
        return DEPTH_MAX_CODE
    return int(scaled)


def quad_depth_code(depth: float) -> int:
    """:func:`depth_to_code` of one quad depth in ``[0, 1]``, in plain
    Python: bit-exact with ``depth_to_code(np.float32(depth))``.

    The depth is rounded to float32 (a ``struct`` round trip rounds to
    nearest), then quantized by :func:`scalar_depth_code` (scaling a
    float32 by ``2**24`` is exact in either precision): a pass
    quantizes its single quad depth this way.
    """
    return scalar_depth_code(_FLOAT32.unpack(_FLOAT32.pack(depth))[0])


def code_to_depth(code: np.ndarray) -> np.ndarray:
    """Inverse of :func:`depth_to_code` (returns the low edge of the
    quantization bucket)."""
    return np.asarray(code, dtype=np.float64) / _DEPTH_SCALE


class ColorBuffer:
    """RGBA float32 color store for a ``height x width`` framebuffer."""

    def __init__(self, height: int, width: int):
        _validate_dims(height, width)
        self.data = np.zeros((height * width, 4), dtype=np.float32)

    def clear(self, rgba=(0.0, 0.0, 0.0, 0.0)) -> None:
        self.data[:] = np.asarray(rgba, dtype=np.float32)


class DepthBuffer:
    """24-bit depth store, kept as integer codes for exact comparisons."""

    def __init__(self, height: int, width: int):
        _validate_dims(height, width)
        self.codes = np.zeros(height * width, dtype=np.uint32)

    def clear(self, depth: float = 1.0) -> None:
        self.codes[:] = depth_to_code(depth)

    def as_depths(self) -> np.ndarray:
        """The whole buffer as normalized float depths (for readback)."""
        return code_to_depth(self.codes)


class StencilBuffer:
    """8-bit stencil store."""

    def __init__(self, height: int, width: int):
        _validate_dims(height, width)
        self.values = np.zeros(height * width, dtype=np.uint8)

    def clear(self, value: int = 0) -> None:
        if not 0 <= value <= STENCIL_MAX:
            raise FramebufferError(
                f"stencil clear value {value} outside [0, {STENCIL_MAX}]"
            )
        self.values[:] = value


class Region(NamedTuple):
    """Writable views of one pixel rect of every buffer.

    Each is a basic ``[y0:y1, x0:x1]`` slice of the buffer seen as a
    ``(height, width)`` image, so reads, tests and masked writes touch
    the buffer in place, and the view's row-major ravel order is the
    rect's fragment order.
    """

    #: ``(h, w, 4)`` float32 colors.
    color: np.ndarray
    #: ``(h, w)`` uint32 depth codes.
    depth: np.ndarray
    #: ``(h, w)`` uint8 stencil values.
    stencil: np.ndarray


class FrameBuffer:
    """The complete per-pixel store: color + depth + stencil.

    Pixels are stored in row-major order, matching the fragment order
    generated by a screen-filling quad; passes reach them through
    :meth:`region`.
    """

    def __init__(self, height: int, width: int):
        _validate_dims(height, width)
        self.height = height
        self.width = width
        self.color = ColorBuffer(height, width)
        self.depth = DepthBuffer(height, width)
        self.stencil = StencilBuffer(height, width)

    @property
    def num_pixels(self) -> int:
        return self.height * self.width

    def region(self, rect) -> Region:
        """The views of every buffer over ``rect`` (a half-open
        ``[x0, x1) x [y0, y1)`` pixel rectangle)."""
        rows = slice(rect.y0, rect.y1)
        cols = slice(rect.x0, rect.x1)
        shape = (self.height, self.width)
        return Region(
            color=self.color.data.reshape(shape + (4,))[rows, cols],
            depth=self.depth.codes.reshape(shape)[rows, cols],
            stencil=self.stencil.values.reshape(shape)[rows, cols],
        )

    def prefix(self, count: int) -> Region:
        """The views of every buffer over its first ``count`` pixels in
        row-major order, as one ``(1, count)`` row: a contiguous run
        whose ravel order is the order a screen quad generates them
        (see :class:`repro.gpu.raster.Span`)."""
        return Region(
            color=self.color.data[:count].reshape(1, count, 4),
            depth=self.depth.codes[:count].reshape(1, count),
            stencil=self.stencil.values[:count].reshape(1, count),
        )

    def clear(
        self,
        color=(0.0, 0.0, 0.0, 0.0),
        depth: float = 1.0,
        stencil: int = 0,
    ) -> None:
        """Clear all three buffers (glClear with all bits set)."""
        self.color.clear(color)
        self.depth.clear(depth)
        self.stencil.clear(stencil)


def _validate_dims(height: int, width: int) -> None:
    if height <= 0 or width <= 0:
        raise FramebufferError(
            f"framebuffer dimensions must be positive, got {width}x{height}"
        )
