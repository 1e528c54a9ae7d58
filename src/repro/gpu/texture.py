"""Textures: the GPU-resident data representation.

The paper (section 3.3) stores each attribute of a relation in a 2D
floating-point texture; a record's attributes live either in the channels
of a single RGBA texel or at the same texel location across multiple
textures.  Texels line up one-to-one with pixels when a screen-filling
quadrilateral is rendered, so a texture of ``width x height`` texels
yields exactly ``width * height`` fragments per pass.

Float32 texels represent integers exactly up to 24 bits
(:data:`repro.gpu.types.MAX_EXACT_INT`), which is the precision contract
all the paper's bit-slicing algorithms (``KthLargest``, ``Accumulator``)
rely on.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..errors import TextureError
from .types import MAX_EXACT_INT, TextureFormat

#: Largest texture side supported by the simulated GPU (GeForce-FX era
#: limit was 4096; the paper uses 1000x1000 textures).
MAX_TEXTURE_SIZE = 4096

#: Bytes per float32 channel, used for video-memory accounting.
_BYTES_PER_CHANNEL = 4

_next_texture_id = 0


def _allocate_texture_id() -> int:
    global _next_texture_id
    _next_texture_id += 1
    return _next_texture_id


def _nearest(coord: np.ndarray, size: int) -> np.ndarray:
    """Clamp-to-edge nearest texel of normalized ``coord`` along an axis
    of ``size`` texels (``fmax`` maps NaN to 0)."""
    texel = np.floor(np.asarray(coord, dtype=np.float64) * size)
    return np.minimum(np.fmax(texel, 0), size - 1).astype(np.int64)


def texel_run(texel_indices: np.ndarray) -> slice | None:
    """The slice of linear texel indices ``texel_indices`` when they
    form one ascending contiguous run, else None.

    A quad aligned one-to-one with its texture (the paper's section 3.3
    setup) covering whole texture rows, or one partial row, samples
    such a run; :meth:`Texture.fetch_component` then returns a view of
    the texels instead of a gather.
    """
    count = texel_indices.shape[0]
    if count == 0:
        return None
    start = int(texel_indices[0])
    if int(texel_indices[-1]) != start + count - 1 or not np.array_equal(
        texel_indices, np.arange(start, start + count)
    ):
        return None
    return slice(start, start + count)


def texture_shape_for(count: int) -> tuple[int, int]:
    """Pick a (height, width) able to hold ``count`` texels.

    Returns the smallest near-square shape, mirroring the paper's use of
    1000x1000 textures for one million records.  A zero count yields a
    1x1 texture so that downstream passes remain well-formed.
    """
    if count < 0:
        raise TextureError(f"texel count must be non-negative, got {count}")
    if count == 0:
        return (1, 1)
    side = math.isqrt(count)
    if side * side < count:
        side += 1
    height = math.ceil(count / side)
    if side > MAX_TEXTURE_SIZE or height > MAX_TEXTURE_SIZE:
        raise TextureError(
            f"{count} texels exceed the maximum texture size "
            f"({MAX_TEXTURE_SIZE}x{MAX_TEXTURE_SIZE})"
        )
    return (height, side)


class Texture:
    """A 2D texture of float32 texels with 1-4 channels.

    Parameters
    ----------
    data:
        Array of shape ``(height, width)`` (single channel) or
        ``(height, width, channels)``.  Converted to float32.
    fmt:
        Explicit :class:`TextureFormat`; inferred from ``data`` when
        omitted.
    count:
        Number of *valid* texels (row-major from the top-left).  Texels
        past ``count`` are padding introduced to fill the rectangle and
        are masked out of every rendering pass.  Defaults to all texels.
    """

    def __init__(
        self,
        data: np.ndarray,
        fmt: TextureFormat | None = None,
        count: int | None = None,
    ):
        data = np.asarray(data, dtype=np.float32)
        if data.ndim == 2:
            data = data[:, :, np.newaxis]
        if data.ndim != 3:
            raise TextureError(
                f"texture data must be 2D or 3D, got shape {data.shape}"
            )
        height, width, channels = data.shape
        if not 1 <= channels <= 4:
            raise TextureError(f"textures support 1-4 channels, got {channels}")
        if height > MAX_TEXTURE_SIZE or width > MAX_TEXTURE_SIZE:
            raise TextureError(
                f"texture {width}x{height} exceeds the maximum size "
                f"{MAX_TEXTURE_SIZE}"
            )
        if fmt is None:
            fmt = TextureFormat(channels)
        elif fmt.channels != channels:
            raise TextureError(
                f"format {fmt.name} expects {fmt.channels} channels, "
                f"data has {channels}"
            )
        if count is None:
            count = height * width
        if not 0 <= count <= height * width:
            raise TextureError(
                f"valid texel count {count} outside [0, {height * width}]"
            )
        self.id = _allocate_texture_id()
        self.data = data
        self.format = fmt
        self.count = count
        #: Monotonic counter bumped on every texel mutation
        #: (:meth:`write_texels`).  Consumers that cache results derived
        #: from this texture's contents — e.g. the depth/stencil caches in
        #: :mod:`repro.plan` — snapshot it to detect streaming updates.
        self.generation = 0
        #: The ``(generation, count)`` :meth:`assert_integer_exact` last
        #: passed at.
        self._integer_exact: tuple[int, int] | None = None

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_values(
        cls,
        values: np.ndarray | Sequence[float],
        shape: tuple[int, int] | None = None,
    ) -> "Texture":
        """Pack a 1-D value array into a single-channel texture.

        This is how a relation's attribute column becomes GPU-resident.
        Padding texels are filled with zero and excluded via ``count``.
        """
        values = np.asarray(values, dtype=np.float32).ravel()
        if shape is None:
            shape = texture_shape_for(values.size)
        height, width = shape
        if height * width < values.size:
            raise TextureError(
                f"shape {shape} holds {height * width} texels, "
                f"need {values.size}"
            )
        data = np.zeros(height * width, dtype=np.float32)
        data[: values.size] = values
        return cls(data.reshape(height, width), count=values.size)

    @classmethod
    def from_columns(
        cls,
        columns: Sequence[np.ndarray],
        shape: tuple[int, int] | None = None,
    ) -> "Texture":
        """Pack up to four equal-length 1-D arrays into the channels of one
        texture (one record per texel, one attribute per channel).

        This is the layout the paper's semi-linear query uses: the four
        TCP/IP attributes live in the RGBA channels of a single texel.
        """
        if not 1 <= len(columns) <= 4:
            raise TextureError(
                f"a texture packs 1-4 columns, got {len(columns)}"
            )
        arrays = [np.asarray(c, dtype=np.float32).ravel() for c in columns]
        size = arrays[0].size
        if any(a.size != size for a in arrays):
            raise TextureError("all packed columns must have equal length")
        if shape is None:
            shape = texture_shape_for(size)
        height, width = shape
        if height * width < size:
            raise TextureError(
                f"shape {shape} holds {height * width} texels, need {size}"
            )
        data = np.zeros((height * width, len(arrays)), dtype=np.float32)
        for channel, array in enumerate(arrays):
            data[:size, channel] = array
        return cls(
            data.reshape(height, width, len(arrays)), count=size
        )

    # -- geometry ------------------------------------------------------------

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.height, self.width)

    @property
    def num_texels(self) -> int:
        return self.height * self.width

    @property
    def nbytes(self) -> int:
        """Video-memory footprint in bytes."""
        return self.num_texels * self.channels * _BYTES_PER_CHANNEL

    # -- access --------------------------------------------------------------

    def linear_view(self) -> np.ndarray:
        """Texels as a ``(num_texels, channels)`` array in row-major pixel
        order — the order in which a screen quad generates fragments."""
        return self.data.reshape(self.num_texels, self.channels)

    def valid_values(self, channel: int = 0) -> np.ndarray:
        """The ``count`` valid data values of one channel, in record order."""
        if not 0 <= channel < self.channels:
            raise TextureError(
                f"channel {channel} out of range for "
                f"{self.channels}-channel texture"
            )
        return self.linear_view()[: self.count, channel].copy()

    def nearest_indices(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Linear texel indices of nearest-neighbour samples at the
        normalized coordinates ``(s, t)``.

        Coordinates clamp to the edge: ``-inf`` samples the first
        texel of its axis, ``+inf`` the last, and NaN texel 0.
        """
        u = _nearest(s, self.width)
        v = _nearest(t, self.height)
        return v * self.width + u

    def fetch(self, texel_indices: np.ndarray) -> np.ndarray:
        """Texel fetch: gather RGBA values for linear texel indices.

        Missing channels are filled per the OpenGL convention (0 for
        colors, 1 for alpha) so the interpreter always sees vec4 texels.
        """
        flat = self.linear_view()[texel_indices]
        if self.channels == 4:
            return flat.astype(np.float32, copy=True)
        out = np.zeros((flat.shape[0], 4), dtype=np.float32)
        out[:, : self.channels] = flat
        if self.channels < 4:
            out[:, 3] = 1.0 if self.channels != 2 else flat[:, 1]
        if self.channels == 2:
            out[:, 1] = 0.0
            out[:, 0] = flat[:, 0]
        if self.channels == 1:
            # LUMINANCE replicates into RGB.
            out[:, 1] = flat[:, 0]
            out[:, 2] = flat[:, 0]
        if self.channels == 3:
            out[:, 3] = 1.0
        return out

    def fetch_component(
        self, texel_indices: np.ndarray | slice, component: int
    ) -> np.ndarray:
        """Component ``component`` (0-3) of :meth:`fetch`: one read-only
        ``(n,)`` column, with the same fill convention for channels the
        texture lacks.

        ``texel_indices`` is an index array (a gather) or a
        :func:`texel_run` slice, which returns a view of the texels
        instead of a copy.
        """
        channels = self.channels
        if channels == 1:
            source = 0 if component < 3 else None
        elif channels == 2:
            source = {0: 0, 3: 1}.get(component)
        else:
            source = component if component < channels else None
        if source is None:
            fill = 0.0 if channels == 2 else 1.0
            if isinstance(texel_indices, slice):
                count = texel_indices.stop - texel_indices.start
            else:
                count = texel_indices.shape[0]
            column = np.full(count, fill, dtype=np.float32)
        else:
            column = self.linear_view()[texel_indices, source]
        column.setflags(write=False)
        return column

    def write_texels(self, start: int, values: np.ndarray) -> int:
        """Overwrite a contiguous texel range (row-major from ``start``).

        The in-memory half of ``glTexSubImage2D``; use
        :meth:`repro.gpu.pipeline.Device.upload_texels` so the transfer
        is charged as bus traffic.  Returns the bytes written.
        """
        values = np.asarray(values, dtype=np.float32)
        if values.ndim == 1:
            values = values[:, np.newaxis]
        if values.ndim != 2 or values.shape[1] != self.channels:
            raise TextureError(
                f"update must be (n, {self.channels}), "
                f"got shape {values.shape}"
            )
        end = start + values.shape[0]
        if start < 0 or end > self.num_texels:
            raise TextureError(
                f"texel range [{start}, {end}) outside "
                f"[0, {self.num_texels})"
            )
        flat = self.data.reshape(self.num_texels, self.channels)
        flat[start:end] = values
        self.generation += 1
        return values.shape[0] * self.channels * _BYTES_PER_CHANNEL

    # -- validation ----------------------------------------------------------

    def assert_integer_exact(self) -> None:
        """Raise unless every valid texel holds a non-negative integer that
        float32 represents exactly (< 2**24).

        The bit-slicing aggregation algorithms require this contract.
        A pass is remembered until the texels or ``count`` change.
        """
        checked = (self.generation, self.count)
        if checked == self._integer_exact:
            return
        values = self.linear_view()[: self.count]
        if values.size == 0:
            self._integer_exact = checked
            return
        if np.any(values < 0):
            raise TextureError("integer-exact textures must be non-negative")
        if np.any(values >= MAX_EXACT_INT):
            raise TextureError(
                f"values must be < 2**24 ({MAX_EXACT_INT}) for exact "
                "float32 representation"
            )
        if np.any(values != np.floor(values)):
            raise TextureError("texture holds non-integer values")
        self._integer_exact = checked

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Texture(id={self.id}, {self.width}x{self.height}, "
            f"{self.format.name}, count={self.count})"
        )
