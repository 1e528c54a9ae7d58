"""Depth quantization exactness and buffer behavior."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import FramebufferError
from repro.gpu.framebuffer import (
    FrameBuffer,
    code_to_depth,
    depth_to_code,
)
from repro.gpu.pipeline import Device
from repro.gpu.raster import Rect
from repro.gpu.types import DEPTH_MAX_CODE


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
