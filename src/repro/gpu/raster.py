"""Rasterization of screen-aligned quadrilaterals.

The paper's computation model renders a "single quadrilateral that covers
the window" so that texels line up one-to-one with pixels (section 3.3).
This module turns such a quad into a :class:`FragmentBatch` of
interpolated attributes (window position, texture coordinates at texel
centers, primary color), materialized only as far as a stage reads them.

Hardware rasterizes rectangles, not arbitrary index sets, so a relation
whose record count does not fill its texture exactly is covered by *two*
rects (the full rows plus the partial last row) — see
:func:`rects_for_count`.  This keeps the simulator honest about the
"no random access" constraint (section 6.1): a pass records those rects.
The two rects are exactly the first *count* pixels in row-major order,
which is one contiguous run of every buffer, so the simulator shades
them as one :class:`Span` — the same fragments in the same order, from
one batch.
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Iterator, Mapping

import numpy as np

from ..errors import GpuError
from .interpreter import FragmentBatch
from .isa import FragmentAttrib


@dataclasses.dataclass(frozen=True)
class Rect:
    """A half-open pixel rectangle ``[x0, x1) x [y0, y1)``."""

    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self):
        if self.x0 < 0 or self.y0 < 0 or self.x1 < self.x0 or self.y1 < self.y0:
            raise GpuError(f"invalid rect {self}")

    @property
    def width(self) -> int:
        return self.x1 - self.x0

    @property
    def height(self) -> int:
        return self.y1 - self.y0

    @property
    def num_pixels(self) -> int:
        return self.width * self.height

    @property
    def shape(self) -> tuple[int, int]:
        """The ``(height, width)`` of the rect's buffer views."""
        return (self.height, self.width)


@dataclasses.dataclass(frozen=True)
class Span:
    """The first ``count`` pixels of the screen in row-major order.

    Every quad the library draws covers such a prefix (a ``count=``
    quad or the whole screen).  Hardware draws it as the rects of
    :func:`rects_for_count`; their fragments, in order, are the span's,
    and a span is one contiguous run of every buffer, seen as a
    ``(1, count)`` view (:meth:`repro.gpu.framebuffer.FrameBuffer.prefix`).
    """

    count: int

    def __post_init__(self):
        if self.count < 0:
            raise GpuError(f"invalid span {self}")

    @property
    def num_pixels(self) -> int:
        return self.count

    @property
    def shape(self) -> tuple[int, int]:
        return (1, self.count)


def full_screen(height: int, width: int) -> Rect:
    return Rect(0, 0, width, height)


def rects_for_count(count: int, width: int, height: int) -> list[Rect]:
    """Rectangles covering exactly the first ``count`` pixels in row-major
    order of a ``height x width`` screen.

    At most two rects: the block of complete rows, then the partial row.
    """
    if count < 0 or count > width * height:
        raise GpuError(
            f"count {count} outside [0, {width * height}] for "
            f"{width}x{height} screen"
        )
    full_rows, remainder = divmod(count, width)
    rects = []
    if full_rows:
        rects.append(Rect(0, 0, width, full_rows))
    if remainder:
        rects.append(Rect(0, full_rows, remainder, full_rows + 1))
    return rects


def _pixel_centers(start: int, stop: int) -> np.ndarray:
    """Window coordinates of the pixel centers ``start + 0.5 ..``."""
    return np.arange(start, stop).astype(np.float32) + np.float32(0.5)


@functools.lru_cache(maxsize=8)
def _texcoords(rect: Rect, tex_height: int, tex_width: int) -> np.ndarray:
    """Texel-center texture coordinates of every fragment of ``rect``,
    in row-major order.  They repeat identically for every pass over
    the same rect, so they are cached (read-only) and shared."""
    texcoord = np.empty((rect.height, rect.width, 4), dtype=np.float32)
    texcoord[..., 0] = _pixel_centers(rect.x0, rect.x1) / np.float32(
        tex_width
    )
    texcoord[..., 1] = (
        _pixel_centers(rect.y0, rect.y1) / np.float32(tex_height)
    )[:, None]
    texcoord[..., 2] = 0.0
    texcoord[..., 3] = 1.0
    texcoord = texcoord.reshape(-1, 4)
    texcoord.setflags(write=False)
    return texcoord


def _window_positions(rect: Rect, depth: float) -> np.ndarray:
    """``f[WPOS]``: pixel centers, the quad depth and ``w = 1``."""
    wpos = np.empty((rect.height, rect.width, 4), dtype=np.float32)
    wpos[..., 0] = _pixel_centers(rect.x0, rect.x1)
    wpos[..., 1] = _pixel_centers(rect.y0, rect.y1)[:, None]
    wpos[..., 2] = np.float32(depth)
    wpos[..., 3] = 1.0
    wpos = wpos.reshape(-1, 4)
    wpos.setflags(write=False)
    return wpos


class QuadAttributes(Mapping):
    """The interpolated attributes of the first ``count`` fragments of
    a quad over ``rect``, built only when read.

    Texture coordinates are (a prefix of) the cached per-rect array and
    ``COL0`` is the quad color broadcast to every fragment, so neither
    costs a per-pass allocation; ``WPOS`` is built on first read (few
    programs use it) and kept for the rest of the pass.  Every value is
    read-only.
    """

    def __init__(self, rect: Rect, count: int, depth: float, color, texcoord):
        self._rect = rect
        self._count = count
        self._depth = depth
        col0 = np.broadcast_to(
            np.asarray(color, dtype=np.float32), (count, 4)
        )
        self._values = {
            FragmentAttrib.TEX0: texcoord,
            FragmentAttrib.TEX1: texcoord,
            FragmentAttrib.TEX2: texcoord,
            FragmentAttrib.TEX3: texcoord,
            FragmentAttrib.COL0: col0,
        }

    def __getitem__(self, attrib: FragmentAttrib) -> np.ndarray:
        value = self._values.get(attrib)
        if value is None:
            if attrib is not FragmentAttrib.WPOS:
                raise KeyError(attrib)
            value = _window_positions(self._rect, self._depth)[
                : self._count
            ]
            self._values[attrib] = value
        return value

    def __iter__(self) -> Iterator[FragmentAttrib]:
        return iter(FragmentAttrib)

    def __len__(self) -> int:
        return len(FragmentAttrib)


def rasterize_rect(
    rect: Rect | Span,
    screen_width: int,
    screen_height: int,
    depth: float,
    color: tuple[float, float, float, float],
    tex_size: tuple[int, int] | None = None,
) -> FragmentBatch:
    """Generate fragments for a screen-aligned quad over ``rect``.

    Fragments are in row-major order over the rect, which is the ravel
    order of the ``[y0:y1, x0:x1]`` view of a ``(height, width)``
    buffer (see :meth:`repro.gpu.framebuffer.FrameBuffer.region`).  A
    :class:`Span` is the first ``count`` fragments of the full-screen
    quad, whose attributes it shares as prefix views.

    Texture coordinates are generated at *texel centers* assuming the
    textured quad maps the screen rect one-to-one onto the same rect of a
    texture sized like the screen (the paper's alignment contract).  All
    four texcoord sets (TEX0..TEX3) receive identical coordinates, which
    is how multi-texture passes address the same record in several
    attribute textures.
    """
    geometry = rect
    if isinstance(geometry, Span):
        rect = full_screen(screen_height, screen_width)
        exceeds = geometry.count > rect.num_pixels
    else:
        exceeds = rect.x1 > screen_width or rect.y1 > screen_height
    if exceeds:
        raise GpuError(
            f"{geometry} exceeds the {screen_width}x{screen_height} screen"
        )
    # Texcoords normalized against the texture (defaults to screen) size.
    if tex_size is None:
        tex_height, tex_width = screen_height, screen_width
    else:
        tex_height, tex_width = tex_size
    count = geometry.num_pixels
    texcoord = _texcoords(rect, tex_height, tex_width)[:count]
    return FragmentBatch(
        count=count,
        attributes=QuadAttributes(rect, count, depth, color, texcoord),
        geometry_token=(
            geometry, screen_width, screen_height, tex_height, tex_width
        ),
    )
