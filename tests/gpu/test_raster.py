"""Quad rasterization: pixel coverage and attribute interpolation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import GpuError
from repro.gpu.isa import FragmentAttrib
from repro.gpu.raster import (
    Rect,
    Span,
    full_screen,
    rasterize_rect,
    rects_for_count,
)


class TestRect:
    def test_geometry(self):
        rect = Rect(1, 2, 4, 7)
        assert rect.width == 3
        assert rect.height == 5
        assert rect.num_pixels == 15

    def test_invalid_rejected(self):
        with pytest.raises(GpuError):
            Rect(-1, 0, 2, 2)
        with pytest.raises(GpuError):
            Rect(3, 0, 2, 2)

    def test_full_screen(self):
        rect = full_screen(10, 20)
        assert rect.num_pixels == 200


class TestRectsForCount:
    @given(
        count=st.integers(0, 500),
        width=st.integers(1, 25),
    )
    def test_covers_exactly_first_count_pixels(self, count, width):
        height = 30
        if count > width * height:
            count = width * height
        rects = rects_for_count(count, width, height)
        covered = set()
        for rect in rects:
            for y in range(rect.y0, rect.y1):
                for x in range(rect.x0, rect.x1):
                    index = y * width + x
                    assert index not in covered, "overlap"
                    covered.add(index)
        assert covered == set(range(count))

    def test_at_most_two_rects(self):
        for count in (0, 1, 7, 10, 15, 100):
            assert len(rects_for_count(count, 10, 10)) <= 2

    def test_out_of_range_rejected(self):
        with pytest.raises(GpuError):
            rects_for_count(101, 10, 10)
        with pytest.raises(GpuError):
            rects_for_count(-1, 10, 10)


class TestRasterize:
    def test_linear_indices_row_major(self):
        # Fragments are in the row-major ravel order of the rect's
        # buffer view: fragment i covers linear pixel y * W + x.
        screen = np.arange(4 * 5).reshape(4, 5)
        rect = Rect(1, 1, 4, 3)
        batch = rasterize_rect(rect, 5, 4, 0.5, (1, 1, 1, 1))
        assert batch.count == 6
        wpos = batch.attributes[FragmentAttrib.WPOS]
        pixels = (
            wpos[:, 1].astype(int) * 5 + wpos[:, 0].astype(int)
        )
        view = screen[rect.y0:rect.y1, rect.x0:rect.x1]
        assert np.array_equal(pixels, view.ravel())
        assert np.array_equal(pixels, [6, 7, 8, 11, 12, 13])

    def test_wpos_at_pixel_centers(self):
        batch = rasterize_rect(
            Rect(1, 1, 2, 2), 4, 4, 0.25, (1, 1, 1, 1)
        )
        wpos = batch.attributes[FragmentAttrib.WPOS]
        assert np.allclose(wpos[0], [1.5, 1.5, 0.25, 1.0])

    def test_texcoords_align_texels_with_pixels(self):
        batch = rasterize_rect(
            Rect(0, 0, 2, 2), 2, 2, 0.0, (1, 1, 1, 1)
        )
        texcoord = batch.attributes[FragmentAttrib.TEX0]
        # Texel centers of a 2x2 texture: 0.25 and 0.75.
        assert np.allclose(
            texcoord[:, :2],
            [[0.25, 0.25], [0.75, 0.25], [0.25, 0.75], [0.75, 0.75]],
        )

    def test_all_texcoord_units_identical(self):
        batch = rasterize_rect(
            Rect(0, 0, 2, 1), 2, 1, 0.0, (1, 1, 1, 1)
        )
        t0 = batch.attributes[FragmentAttrib.TEX0]
        for attrib in (
            FragmentAttrib.TEX1,
            FragmentAttrib.TEX2,
            FragmentAttrib.TEX3,
        ):
            assert np.array_equal(batch.attributes[attrib], t0)

    def test_color_constant(self):
        batch = rasterize_rect(
            Rect(0, 0, 2, 1), 2, 1, 0.0, (0.1, 0.2, 0.3, 0.4)
        )
        col0 = batch.attributes[FragmentAttrib.COL0]
        assert np.allclose(col0, [0.1, 0.2, 0.3, 0.4])

    def test_rect_outside_screen_rejected(self):
        with pytest.raises(GpuError):
            rasterize_rect(Rect(0, 0, 5, 1), 4, 4, 0.0, (1, 1, 1, 1))

    def test_custom_texture_size(self):
        batch = rasterize_rect(
            Rect(0, 0, 1, 1), 4, 4, 0.0, (1, 1, 1, 1), tex_size=(8, 8)
        )
        texcoord = batch.attributes[FragmentAttrib.TEX0]
        assert np.allclose(texcoord[0, :2], [0.5 / 8, 0.5 / 8])

    def test_attribute_arrays_are_read_only(self):
        batch = rasterize_rect(
            Rect(0, 0, 2, 2), 2, 2, 0.5, (0.1, 0.2, 0.3, 0.4)
        )
        for attrib in FragmentAttrib:
            with pytest.raises(ValueError):
                batch.attributes[attrib][0, 0] = 9.0

    def test_col0_is_a_broadcast_of_the_quad_color(self):
        batch = rasterize_rect(
            Rect(0, 0, 4, 4), 4, 4, 0.5, (0.1, 0.2, 0.3, 0.4)
        )
        col0 = batch.attributes[FragmentAttrib.COL0]
        assert col0.shape == (16, 4)
        assert col0.strides[0] == 0

    def test_wpos_carries_the_float32_quad_depth(self):
        batch = rasterize_rect(Rect(0, 0, 2, 1), 2, 1, 0.1, (1, 1, 1, 1))
        wpos = batch.attributes[FragmentAttrib.WPOS]
        assert np.all(wpos[:, 2] == np.float32(0.1))
        assert batch.attributes[FragmentAttrib.WPOS] is wpos
        assert set(batch.attributes) == set(FragmentAttrib)


class TestSpan:
    @given(
        height=st.integers(1, 6),
        width=st.integers(1, 7),
        fraction=st.floats(0.0, 1.0),
    )
    def test_span_batch_is_its_rects_batches_in_order(
        self, height, width, fraction
    ):
        """A span's fragments are those of the rects covering the same
        count, in order, with bit-identical attributes."""
        count = round(fraction * height * width)
        span = rasterize_rect(Span(count), width, height, 0.3, (1, 2, 3, 4))
        rects = [
            rasterize_rect(rect, width, height, 0.3, (1, 2, 3, 4))
            for rect in rects_for_count(count, width, height)
        ]
        assert span.count == count == sum(batch.count for batch in rects)
        for attrib in FragmentAttrib:
            expected = [batch.attributes[attrib] for batch in rects]
            joined = (
                np.concatenate(expected)
                if expected
                else np.empty((0, 4), np.float32)
            )
            assert np.array_equal(
                span.attributes[attrib].view(np.uint32),
                joined.view(np.uint32),
            )

    def test_span_past_the_screen_rejected(self):
        with pytest.raises(GpuError):
            rasterize_rect(Span(17), 4, 4, 0.0, (1, 1, 1, 1))
        with pytest.raises(GpuError):
            Span(-1)
