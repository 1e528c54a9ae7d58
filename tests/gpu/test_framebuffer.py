"""Depth quantization exactness and buffer behavior."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import FramebufferError
from repro.gpu.framebuffer import (
    FrameBuffer,
    code_to_depth,
    depth_to_code,
    quad_depth_code,
    scalar_depth_code,
)
from repro.gpu.pipeline import Device
from repro.gpu.programs import copy_to_depth_program
from repro.gpu.raster import Rect
from repro.gpu.texture import Texture
from repro.gpu.types import DEPTH_MAX_CODE, CompareFunc


def _floor_then_clip(depth: np.ndarray) -> np.ndarray:
    """The quantizer's earlier formula, the oracle for non-NaN input:
    ``floor(d * 2**24)`` clipped to the code range."""
    with np.errstate(over="ignore"):
        codes = np.floor(depth * depth.dtype.type(2**24))
    return np.clip(codes, 0, DEPTH_MAX_CODE).astype(np.uint32)


def _depths(dtype):
    """Depths of ``dtype`` around every edge of the quantizer: any
    non-NaN float (subnormals, negatives, above 1, infinities), and
    ``k / 2**24`` exactly and one ulp either side."""
    width = np.dtype(dtype).itemsize * 8
    grid = st.integers(-4, (1 << 24) + 4).map(
        lambda k: dtype(k) / dtype(1 << 24)
    )
    ulp = st.sampled_from([-np.inf, None, np.inf])
    near = st.tuples(grid, ulp).map(
        lambda pair: pair[0]
        if pair[1] is None
        else np.nextafter(pair[0], dtype(pair[1]))
    )
    return st.one_of(
        st.floats(allow_nan=False, width=width),
        st.floats(0.0, 1.0, width=width),
        near,
    )


class TestDepthQuantization:
    def test_endpoints(self):
        assert depth_to_code(0.0) == 0
        assert depth_to_code(1.0) == DEPTH_MAX_CODE

    def test_clamping(self):
        assert depth_to_code(-0.5) == 0
        assert depth_to_code(2.0) == DEPTH_MAX_CODE

    @given(
        value=st.integers(0, 2**19 - 1),
        bits=st.integers(19, 24),
    )
    def test_integer_normalization_is_exact(self, value, bits):
        """The contract behind Compare: v / 2**bits quantizes to the code
        v << (24 - bits), so integer comparisons via the depth test are
        exact."""
        code = depth_to_code(value / float(1 << bits))
        assert code == value << (24 - bits)

    @given(
        a=st.integers(0, 2**19 - 1),
        b=st.integers(0, 2**19 - 1),
    )
    def test_quantization_preserves_integer_order(self, a, b):
        scale = float(1 << 19)
        code_a = depth_to_code(a / scale)
        code_b = depth_to_code(b / scale)
        assert (a < b) == (code_a < code_b)
        assert (a == b) == (code_a == code_b)

    def test_float32_values_survive_float64_promotion(self):
        values = np.array([0.25, 0.5], dtype=np.float32)
        codes = depth_to_code(values)
        assert codes[0] == (1 << 24) // 4
        assert codes[1] == (1 << 24) // 2

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @given(data=st.data())
    def test_clamp_then_truncate_equals_floor_then_clip(self, dtype, data):
        depths = data.draw(
            arrays(dtype, st.integers(1, 64), elements=_depths(dtype))
        )
        expected = _floor_then_clip(depths)
        codes = depth_to_code(depths)
        assert codes.dtype == np.uint32
        assert np.array_equal(codes, expected)
        # Cast straight into a sub-rect view of an (h, w) buffer: the
        # same codes land in the rect and nothing outside it moves.
        buffer = np.full((3, depths.size + 2), 7, dtype=np.uint32)
        view = buffer[1:2, 1:-1]
        assert depth_to_code(depths.reshape(1, -1), out=view) is view
        assert np.array_equal(view[0], expected)
        view[...] = 7
        assert np.all(buffer == 7)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_non_finite_depths_are_defined(self, dtype):
        depths = np.array([np.nan, np.inf, -np.inf, -np.nan], dtype=dtype)
        expected = [0, DEPTH_MAX_CODE, 0, 0]
        assert depth_to_code(depths).tolist() == expected
        out = np.zeros(4, dtype=np.uint32)
        assert depth_to_code(depths, out=out).tolist() == expected

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("jit", [False, True])
    @pytest.mark.parametrize(
        "func", [CompareFunc.ALWAYS, CompareFunc.LEQUAL]
    )
    def test_program_written_non_finite_depths(self, jit, func):
        """A program writing NaN, +inf and -inf to ``o[DEPR]`` lands
        codes 0, the largest code and 0, with no warning, whether the
        write lands on every fragment or the codes feed a comparison."""
        device = Device(1, 4, jit=jit)
        device.clear()  # every code passes LEQUAL against the far plane
        device.state.color_mask = (False, False, False, False)
        device.state.depth.enabled = True
        device.state.depth.func = func
        texture = Texture(
            np.array([[np.nan, np.inf, -np.inf, 0.5]], dtype=np.float32)
        )
        device.set_program(copy_to_depth_program())
        device.set_program_parameter(0, 1.0)
        device.render_textured_quad(texture)
        assert device.framebuffer.depth.codes.tolist() == [
            0, DEPTH_MAX_CODE, 0, 1 << 23,
        ]
        assert device.stats.passes[-1].depth_writes == 4

    @given(
        depth=st.one_of(
            st.sampled_from([0.0, 1.0, -0.0]),
            st.floats(0.0, 1.0, width=32),
            st.floats(0.0, 1.0),
            _depths(np.float32).filter(lambda d: 0.0 <= d <= 1.0),
        )
    )
    def test_quad_depth_code_matches_depth_to_code(self, depth):
        """The scalar quantizer of a quad depth is bit-exact with
        ``depth_to_code(np.float32(depth))``: float32 depths in
        ``[0, 1]`` with 0, 1 and ``k / 2**24`` one ulp either side, and
        the double depths ``render_quad`` takes, rounded to float32."""
        code = quad_depth_code(float(depth))
        assert type(code) is int
        assert code == int(depth_to_code(np.float32(depth)))

    def test_quad_depth_code_of_nan_is_zero(self):
        assert quad_depth_code(float("nan")) == 0

    @pytest.mark.parametrize(
        "depth",
        [
            0.0, -0.0, 1.0, float("nan"), float("inf"), float("-inf"),
            5e-324, -5e-324, 2.2250738585072009e-308, 1e300, -1e300,
        ]
        + [
            np.nextafter(k / 2**24, toward)
            for k in (1, 2**23, DEPTH_MAX_CODE, 2**24)
            for toward in (-np.inf, np.inf)
        ]
        + [k / 2**24 for k in (1, 2**23, DEPTH_MAX_CODE, 2**24)],
    )
    def test_scalar_depth_code_edges(self, depth):
        """The depth-bounds quantizer at 0, 1, NaN, the infinities,
        subnormals, huge values, and each code boundary ``k / 2**24``
        exactly and one ulp either side: bit-exact with
        ``depth_to_code``, which quantizes a float through float64."""
        code = scalar_depth_code(depth)
        assert type(code) is int
        assert code == int(depth_to_code(depth))

    @given(depth=_depths(np.float64))
    def test_scalar_depth_code_matches_depth_to_code(self, depth):
        assert scalar_depth_code(float(depth)) == int(depth_to_code(depth))

    def test_code_to_depth_inverts_bucket_floor(self):
        codes = np.array([0, 1, DEPTH_MAX_CODE], dtype=np.uint32)
        depths = code_to_depth(codes)
        assert np.array_equal(depth_to_code(depths), codes)


class TestFrameBuffer:
    def test_invalid_dims_rejected(self):
        with pytest.raises(FramebufferError):
            FrameBuffer(0, 5)
        with pytest.raises(FramebufferError):
            FrameBuffer(5, -1)

    def test_clear_sets_all_three_buffers(self):
        fb = FrameBuffer(2, 2)
        fb.color.data[:] = 9
        fb.depth.codes[:] = 5
        fb.stencil.values[:] = 7
        fb.clear(color=(1, 2, 3, 4), depth=0.0, stencil=2)
        assert np.all(fb.color.data == [1, 2, 3, 4])
        assert np.all(fb.depth.codes == 0)
        assert np.all(fb.stencil.values == 2)

    def test_default_depth_clear_is_far_plane(self):
        fb = FrameBuffer(1, 1)
        fb.clear()
        assert fb.depth.codes[0] == DEPTH_MAX_CODE

    def test_stencil_clear_range_validated(self):
        fb = FrameBuffer(1, 1)
        with pytest.raises(FramebufferError):
            fb.stencil.clear(256)
        with pytest.raises(FramebufferError):
            fb.stencil.clear(-1)

    def test_color_write_honors_mask(self):
        # The per-channel color mask is applied by the pass's masked
        # writes through the region view.
        device = Device(1, 2)
        device.state.color_mask = (True, False, True, False)
        device.render_quad(0.5, color=(1, 2, 3, 4), rect=Rect(1, 0, 2, 1))
        color = device.framebuffer.color.data
        assert np.array_equal(color[1], [1.0, 0.0, 3.0, 0.0])
        assert np.array_equal(color[0], [0.0, 0.0, 0.0, 0.0])

    def test_depth_write_and_read_codes(self):
        fb = FrameBuffer(2, 4)
        region = fb.region(Rect(1, 1, 3, 2))
        assert region.depth.shape == (1, 2)
        region.depth[:] = [[10, 20]]
        assert np.array_equal(fb.depth.codes[[5, 6]], [10, 20])
        assert np.count_nonzero(fb.depth.codes) == 2
        fb.depth.codes[6] = 7
        assert region.depth[0, 1] == 7

    def test_region_views_every_buffer_in_place(self):
        fb = FrameBuffer(3, 4)
        region = fb.region(Rect(0, 1, 4, 3))
        assert region.color.shape == (2, 4, 4)
        assert region.stencil.shape == (2, 4)
        for view, buffer in (
            (region.color, fb.color.data),
            (region.depth, fb.depth.codes),
            (region.stencil, fb.stencil.values),
        ):
            assert np.shares_memory(view, buffer)
        region.stencil[region.stencil == 0] = 9
        assert np.array_equal(
            fb.stencil.values, [0] * 4 + [9] * 8
        )

    def test_num_pixels(self):
        assert FrameBuffer(3, 7).num_pixels == 21
