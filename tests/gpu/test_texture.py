"""Texture construction, layout, and fetch conventions."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TextureError
from repro.gpu.texture import (
    MAX_TEXTURE_SIZE,
    Texture,
    texture_shape_for,
)


class TestShapeFor:
    def test_zero_gives_unit_texture(self):
        assert texture_shape_for(0) == (1, 1)

    def test_perfect_square(self):
        assert texture_shape_for(1_000_000) == (1000, 1000)

    def test_negative_rejected(self):
        with pytest.raises(TextureError):
            texture_shape_for(-1)

    @given(st.integers(1, 3_000_000))
    def test_shape_holds_count(self, count):
        height, width = texture_shape_for(count)
        assert height * width >= count
        # Near-square: no degenerate strips.
        assert width - height <= 1 or height <= width

    def test_too_large_rejected(self):
        with pytest.raises(TextureError):
            texture_shape_for(MAX_TEXTURE_SIZE * MAX_TEXTURE_SIZE + 1)


class TestConstruction:
    def test_2d_data_becomes_single_channel(self):
        texture = Texture(np.zeros((4, 5)))
        assert texture.channels == 1
        assert texture.shape == (4, 5)
        assert texture.num_texels == 20

    def test_wrong_dims_rejected(self):
        with pytest.raises(TextureError):
            Texture(np.zeros(7))
        with pytest.raises(TextureError):
            Texture(np.zeros((2, 2, 2, 2)))

    def test_too_many_channels_rejected(self):
        with pytest.raises(TextureError):
            Texture(np.zeros((2, 2, 5)))

    def test_format_mismatch_rejected(self):
        from repro.gpu.types import TextureFormat

        with pytest.raises(TextureError):
            Texture(np.zeros((2, 2, 3)), fmt=TextureFormat.RGBA)

    def test_count_bounds(self):
        with pytest.raises(TextureError):
            Texture(np.zeros((2, 2)), count=5)
        with pytest.raises(TextureError):
            Texture(np.zeros((2, 2)), count=-1)

    def test_ids_are_unique(self):
        a = Texture(np.zeros((1, 1)))
        b = Texture(np.zeros((1, 1)))
        assert a.id != b.id

    def test_nbytes(self):
        texture = Texture(np.zeros((10, 10, 4)))
        assert texture.nbytes == 10 * 10 * 4 * 4


class TestFromValues:
    def test_round_trip(self):
        values = np.arange(10, dtype=np.float32)
        texture = Texture.from_values(values)
        assert texture.count == 10
        assert np.array_equal(texture.valid_values(), values)

    def test_padding_is_zero(self):
        texture = Texture.from_values([5.0, 6.0], shape=(2, 2))
        flat = texture.linear_view()[:, 0]
        assert np.array_equal(flat, [5.0, 6.0, 0.0, 0.0])

    def test_shape_too_small_rejected(self):
        with pytest.raises(TextureError):
            Texture.from_values(np.arange(10), shape=(3, 3))

    @given(st.lists(st.integers(0, 2**24 - 1), min_size=1, max_size=300))
    def test_any_count_round_trips(self, values):
        texture = Texture.from_values(values)
        assert np.array_equal(
            texture.valid_values(), np.asarray(values, dtype=np.float32)
        )


class TestFromColumns:
    def test_channels_map_to_columns(self):
        texture = Texture.from_columns(
            [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
        )
        assert texture.channels == 2
        assert np.array_equal(texture.valid_values(0), [1.0, 2.0])
        assert np.array_equal(texture.valid_values(1), [3.0, 4.0])

    def test_unequal_lengths_rejected(self):
        with pytest.raises(TextureError):
            Texture.from_columns([np.zeros(2), np.zeros(3)])

    def test_too_many_columns_rejected(self):
        with pytest.raises(TextureError):
            Texture.from_columns([np.zeros(2)] * 5)

    def test_valid_values_bad_channel(self):
        texture = Texture.from_columns([np.zeros(2)])
        with pytest.raises(TextureError):
            texture.valid_values(3)


class TestFetch:
    def test_rgba_fetch_passthrough(self):
        data = np.arange(16, dtype=np.float32).reshape(2, 2, 4)
        texture = Texture(data)
        fetched = texture.fetch(np.array([0, 3]))
        assert np.array_equal(fetched[0], [0, 1, 2, 3])
        assert np.array_equal(fetched[1], [12, 13, 14, 15])

    def test_luminance_fetch_replicates_rgb_alpha_one(self):
        texture = Texture(np.array([[2.0]], dtype=np.float32))
        fetched = texture.fetch(np.array([0]))
        assert np.array_equal(fetched[0], [2.0, 2.0, 2.0, 1.0])

    def test_luminance_alpha_fetch(self):
        texture = Texture(
            np.array([[[3.0, 0.25]]], dtype=np.float32)
        )
        fetched = texture.fetch(np.array([0]))
        assert fetched[0][0] == 3.0
        assert fetched[0][3] == 0.25

    def test_rgb_fetch_alpha_one(self):
        texture = Texture(np.ones((1, 1, 3), dtype=np.float32) * 9)
        fetched = texture.fetch(np.array([0]))
        assert np.array_equal(fetched[0], [9, 9, 9, 1])


class TestIntegerExact:
    def test_accepts_24_bit_integers(self):
        Texture.from_values([0, 1, 2**24 - 1]).assert_integer_exact()

    def test_rejects_negative(self):
        with pytest.raises(TextureError):
            Texture.from_values([-1.0]).assert_integer_exact()

    def test_rejects_fractional(self):
        with pytest.raises(TextureError):
            Texture.from_values([1.5]).assert_integer_exact()

    def test_rejects_25_bit(self):
        with pytest.raises(TextureError):
            Texture.from_values([float(2**24)]).assert_integer_exact()

    def test_padding_not_checked(self):
        # Only valid texels matter; padding is engine-controlled zeros.
        texture = Texture.from_values([3.0], shape=(2, 2))
        texture.assert_integer_exact()

    def test_empty_texture_passes(self):
        Texture(np.zeros((1, 1)), count=0).assert_integer_exact()

    @pytest.mark.parametrize(
        "bad", [-1.0, 2.5, float(2**24)], ids=["negative", "fraction", "2^24"]
    )
    def test_rechecks_after_write_texels(self, bad):
        """A pass is remembered, but a texel write moves the generation
        and the next call checks the new texels."""
        texture = Texture.from_values([1.0, 2.0, 3.0], shape=(2, 2))
        texture.assert_integer_exact()
        texture.assert_integer_exact()
        texture.write_texels(1, np.array([bad], dtype=np.float32))
        with pytest.raises(TextureError):
            texture.assert_integer_exact()
        with pytest.raises(TextureError):
            texture.assert_integer_exact()

    @pytest.mark.parametrize(
        "bad", [-1.0, 2.5, float(2**24)], ids=["negative", "fraction", "2^24"]
    )
    def test_rechecks_when_count_grows_over_bad_texels(self, bad):
        """Padding is not checked, so a bad texel past ``count`` passes;
        once ``count`` covers it the check must see it."""
        texture = Texture.from_values([1.0, 2.0], shape=(2, 2))
        texture.write_texels(3, np.array([bad], dtype=np.float32))
        texture.assert_integer_exact()
        texture.count = 4
        with pytest.raises(TextureError):
            texture.assert_integer_exact()
