"""The pipeline's one masked-write path: a bit blend on the buffer's
unsigned view.

``masked_write`` must land exactly the selected elements, bit for bit
(NaN payloads and -0.0 included), leave every other element of the
buffer untouched, and accept any view a pass hands it: the flat
stencil and depth stores, a strided color channel and a sub-rect.
"""

import numpy as np
import pytest

from repro.gpu import CompareFunc, Device, StencilOp
from repro.gpu.framebuffer import FrameBuffer
from repro.gpu.pipeline import masked_write
from repro.gpu.raster import Rect

H, W = 6, 8

#: Quiet NaNs with payloads, both zeros and both infinities.
_SPECIALS = np.array(
    [0x7FC01234, 0xFFC0ABCD, 0x80000000, 0x00000000, 0x7F800000,
     0xFF800000],
    dtype=np.uint32,
).view(np.float32)


def _framebuffer(seed):
    rng = np.random.default_rng(seed)
    fb = FrameBuffer(H, W)
    fb.stencil.values[:] = rng.integers(0, 256, fb.num_pixels)
    fb.depth.codes[:] = rng.integers(0, 1 << 24, fb.num_pixels)
    fb.color.data[:] = rng.choice(_SPECIALS, (fb.num_pixels, 4))
    return fb


def _views(fb):
    """name -> (the view a pass writes, the whole buffer behind it)."""
    region = fb.region(Rect(1, 2, 6, 5))
    whole = fb.region(Rect(0, 0, W, H))
    return {
        "uint8": (whole.stencil, fb.stencil.values),
        "uint32": (whole.depth, fb.depth.codes),
        "float32-channel": (whole.color[..., 2], fb.color.data),
        "sub-rect-stencil": (region.stencil, fb.stencil.values),
        "sub-rect-channel": (region.color[..., 1], fb.color.data),
    }


def _source(view, kind, rng):
    if view.dtype == np.float32:
        values = rng.choice(_SPECIALS, view.shape).astype(np.float32)
    else:
        values = rng.integers(0, 256, view.shape).astype(view.dtype)
    return values[0, 0] if kind == "scalar" else values


def _mask(shape, kind, rng):
    if kind == "none":
        return None
    if kind == "all-false":
        return np.zeros(shape, dtype=bool)
    if kind == "all-true":
        return np.ones(shape, dtype=bool)
    return rng.random(shape) < 0.5


def _bits(array):
    uint = np.uint8 if array.dtype.itemsize == 1 else np.uint32
    return np.ascontiguousarray(array).view(uint)


@pytest.mark.parametrize(
    "mask_kind", ["none", "all-false", "all-true", "scattered"]
)
@pytest.mark.parametrize("source_kind", ["scalar", "array"])
@pytest.mark.parametrize(
    "view_name",
    ["uint8", "uint32", "float32-channel", "sub-rect-stencil",
     "sub-rect-channel"],
)
def test_blend_lands_exactly_the_masked_elements(
    view_name, source_kind, mask_kind
):
    rng = np.random.default_rng(17)
    fb = _framebuffer(3)
    view, whole = _views(fb)[view_name]
    value = _source(view, source_kind, rng)
    mask = _mask(view.shape, mask_kind, rng)

    # The expectation through fancy indexing, on a copy of the whole
    # buffer so writes outside the view would show.
    expected_fb = _framebuffer(3)
    expected_view, expected_whole = _views(expected_fb)[view_name]
    selected = np.ones(view.shape, dtype=bool) if mask is None else mask
    expected_view[selected] = np.broadcast_to(value, view.shape)[selected]

    masked_write(view, value, mask)
    assert np.array_equal(_bits(whole), _bits(expected_whole))


def _device():
    device = Device(4, 4)
    device.framebuffer.stencil.values[:] = np.arange(16) % 2
    device.framebuffer.depth.codes[:] = np.arange(16) << 20
    device.state.color_mask = (False, False, False, False)
    return device


@pytest.mark.parametrize(
    "func, moves",
    [(CompareFunc.NEVER, False), (CompareFunc.LESS, True),
     (CompareFunc.ALWAYS, True)],
)
def test_depth_generation_moves_only_on_a_nonempty_write(func, moves):
    device = _device()
    device.state.depth.enabled = True
    device.state.depth.func = func
    device.state.depth.write = True
    before = device.depth_generation
    device.render_quad(0.5)
    assert device.depth_generation == before + moves
    assert (device.stats.passes[-1].depth_writes > 0) == moves


@pytest.mark.parametrize(
    "func, sfail, zpass, moves",
    [
        # No fragment fails, so the sfail op has nothing to write.
        (CompareFunc.ALWAYS, StencilOp.REPLACE, StencilOp.KEEP, False),
        # No fragment survives, so the zpass op has nothing to write.
        (CompareFunc.NEVER, StencilOp.KEEP, StencilOp.INCR, False),
        (CompareFunc.NEVER, StencilOp.REPLACE, StencilOp.KEEP, True),
        (CompareFunc.EQUAL, StencilOp.KEEP, StencilOp.INCR, True),
        (CompareFunc.EQUAL, StencilOp.ZERO, StencilOp.KEEP, True),
    ],
)
def test_stencil_generation_moves_only_on_a_nonempty_write(
    func, sfail, zpass, moves
):
    device = _device()
    stencil = device.state.stencil
    stencil.enabled = True
    stencil.func = func
    stencil.reference = 1
    stencil.sfail = sfail
    stencil.zpass = zpass
    before = device.stencil_generation
    device.render_quad(0.5)
    assert device.stencil_generation == before + moves
    assert (device.stats.passes[-1].stencil_writes > 0) == moves
