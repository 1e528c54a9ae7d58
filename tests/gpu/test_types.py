"""CompareFunc and StencilOp semantics."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.gpu.types import (
    STENCIL_MAX,
    CompareFunc,
    StencilOp,
    TextureFormat,
)

VALUE_OPS = [
    CompareFunc.LESS,
    CompareFunc.LEQUAL,
    CompareFunc.GREATER,
    CompareFunc.GEQUAL,
    CompareFunc.EQUAL,
    CompareFunc.NOTEQUAL,
]

_PYTHON_OPS = {
    CompareFunc.LESS: lambda a, b: a < b,
    CompareFunc.LEQUAL: lambda a, b: a <= b,
    CompareFunc.GREATER: lambda a, b: a > b,
    CompareFunc.GEQUAL: lambda a, b: a >= b,
    CompareFunc.EQUAL: lambda a, b: a == b,
    CompareFunc.NOTEQUAL: lambda a, b: a != b,
}


class TestCompareFunc:
    @pytest.mark.parametrize("op", VALUE_OPS)
    def test_apply_matches_python_semantics(self, op):
        values = np.array([-3, 0, 5, 7, 7, 100])
        got = op.apply(values, 7)
        expected = np.array([_PYTHON_OPS[op](v, 7) for v in values])
        assert np.array_equal(got, expected)

    def test_never_and_always(self):
        values = np.arange(5)
        assert not CompareFunc.NEVER.apply(values, 2).any()
        assert CompareFunc.ALWAYS.apply(values, 2).all()

    def test_never_always_preserve_shape(self):
        values = np.arange(6).reshape(2, 3)
        assert CompareFunc.NEVER.apply(values, 0).shape == (2, 3)
        assert CompareFunc.ALWAYS.apply(values, 0).shape == (2, 3)

    @pytest.mark.parametrize("op", list(CompareFunc))
    def test_negate_is_involution(self, op):
        assert op.negate().negate() is op

    @pytest.mark.parametrize("op", VALUE_OPS)
    def test_negate_complements(self, op):
        values = np.array([1, 4, 4, 9])
        direct = op.apply(values, 4)
        negated = op.negate().apply(values, 4)
        assert np.array_equal(direct, ~negated)

    @pytest.mark.parametrize("op", list(CompareFunc))
    def test_swap_is_involution(self, op):
        assert op.swap().swap() is op

    @given(
        a=st.integers(-100, 100),
        b=st.integers(-100, 100),
        op=st.sampled_from(VALUE_OPS),
    )
    def test_swap_exchanges_operands(self, a, b, op):
        direct = bool(op.apply(np.asarray(a), b))
        swapped = bool(op.swap().apply(np.asarray(b), a))
        assert direct == swapped


class TestStencilOp:
    def _stencil(self, *values):
        return np.array(values, dtype=np.uint8)

    def test_keep_returns_input(self):
        stencil = self._stencil(0, 1, 200)
        assert StencilOp.KEEP.apply(stencil, 5) is stencil

    def test_zero(self):
        got = StencilOp.ZERO.apply(self._stencil(3, 200), 5)
        assert np.array_equal(got, [0, 0])

    def test_replace_masks_reference(self):
        got = StencilOp.REPLACE.apply(self._stencil(3, 7), 0x1FF)
        assert np.array_equal(got, [0xFF, 0xFF])

    def test_incr_saturates(self):
        got = StencilOp.INCR.apply(
            self._stencil(0, 10, STENCIL_MAX), 0
        )
        assert np.array_equal(got, [1, 11, STENCIL_MAX])

    def test_decr_saturates_at_zero(self):
        got = StencilOp.DECR.apply(self._stencil(0, 10, 255), 0)
        assert np.array_equal(got, [0, 9, 254])

    def test_invert(self):
        got = StencilOp.INVERT.apply(self._stencil(0, 0xF0), 0)
        assert np.array_equal(got, [0xFF, 0x0F])

    @pytest.mark.parametrize("op", list(StencilOp))
    @pytest.mark.parametrize("reference", [0, 0x5A, 0x1FF])
    def test_every_op_over_every_stored_value(self, op, reference):
        """Each op over all 256 uint8 values (through a strided view)
        equals the select-based reference, keeps uint8 and leaves its
        input alone."""
        buffer = np.zeros((256, 2), dtype=np.uint8)
        buffer[:, 1] = np.arange(256)
        stencil = buffer[:, 1]
        expected = {
            StencilOp.KEEP: stencil,
            StencilOp.ZERO: np.zeros(256),
            StencilOp.REPLACE: np.full(256, reference & STENCIL_MAX),
            StencilOp.INCR: np.where(
                stencil == STENCIL_MAX, stencil, stencil + 1
            ),
            StencilOp.DECR: np.where(stencil == 0, stencil, stencil - 1),
            StencilOp.INVERT: STENCIL_MAX - stencil,
        }[op]
        got = op.apply(stencil, reference)
        assert got.dtype == np.uint8
        assert np.array_equal(got, expected)
        assert np.array_equal(buffer[:, 1], np.arange(256))
        assert not buffer[:, 0].any()

    @given(st.integers(0, 255))
    def test_incr_then_decr_round_trips_below_max(self, value):
        stencil = np.array([value], dtype=np.uint8)
        up = StencilOp.INCR.apply(stencil, 0)
        down = StencilOp.DECR.apply(up, 0)
        if value < STENCIL_MAX:
            assert down[0] == value
        else:
            assert down[0] == STENCIL_MAX - 1


class TestTextureFormat:
    def test_channel_counts(self):
        assert TextureFormat.LUMINANCE.channels == 1
        assert TextureFormat.LUMINANCE_ALPHA.channels == 2
        assert TextureFormat.RGB.channels == 3
        assert TextureFormat.RGBA.channels == 4
