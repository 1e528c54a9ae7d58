"""Numeric edge cases of the float32 fragment pipeline.

The paper's exactness arguments rest on specific float32 facts
(power-of-two scaling is exact, frac of scaled 24-bit integers is
exact).  These tests pin those facts — and the defined behavior at the
genuinely lossy edges (RCP of zero, LG2 of non-positives).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import Device, Texture, assemble
from repro.gpu.interpreter import FragmentBatch, ProgramInterpreter
from repro.gpu.isa import NUM_PARAMETERS, FragmentAttrib


def _run_scalar(lines, x, params=None):
    batch = FragmentBatch(
        count=1,
        attributes={
            FragmentAttrib.COL0: np.array(
                [[x, 0, 0, 0]], dtype=np.float32
            ),
            FragmentAttrib.WPOS: np.zeros((1, 4), dtype=np.float32),
            FragmentAttrib.TEX0: np.zeros((1, 4), dtype=np.float32),
        },
    )
    bank = np.zeros((NUM_PARAMETERS, 4), dtype=np.float32)
    if params:
        for index, value in params.items():
            bank[index] = value
    program = assemble(
        "\n".join(["!!FP1.0"] + lines + ["END"])
    )
    result = ProgramInterpreter({}, bank).run(program, batch)
    return np.array([column[0] for column in result.color])


class TestExactnessContracts:
    @given(
        value=st.integers(0, 2**24 - 1),
        bit=st.integers(0, 23),
    )
    @settings(max_examples=200, deadline=None)
    def test_testbit_arithmetic_is_exact(self, value, bit):
        """The Accumulator's core trick: frac(v / 2^(i+1)) >= 0.5 iff
        bit i of v is set — exactly, for every 24-bit integer."""
        out = _run_scalar(
            [
                "MUL R0, f[COL0], p[0];",
                "FRC R0, R0;",
                "MOV o[COLR], R0;",
            ],
            float(value),
            params={0: (1.0 / (1 << (bit + 1)),) * 4},
        )
        expected_set = bool((value >> bit) & 1)
        assert (out[0] >= 0.5) == expected_set

    @given(
        value=st.integers(0, 2**24 - 1),
        bits=st.integers(1, 24),
    )
    @settings(max_examples=200, deadline=None)
    def test_power_of_two_scaling_is_exact(self, value, bits):
        """CopyToDepth's normalization: v * 2^-b is exact in float32."""
        if value >= (1 << bits):
            value %= 1 << bits
        out = _run_scalar(
            ["MUL o[COLR], f[COL0], p[0];"],
            float(value),
            params={0: (1.0 / (1 << bits),) * 4},
        )
        assert out[0] == np.float32(value) / np.float32(1 << bits)
        # And it round-trips through the depth quantizer.
        from repro.gpu.framebuffer import depth_to_code

        assert int(depth_to_code(float(out[0]))) == value << (24 - bits)


class TestLossyEdges:
    def test_rcp_of_zero_is_infinity(self):
        out = _run_scalar(
            ["RCP o[COLR], f[COL0];"], 0.0
        )
        assert np.isinf(out[0])

    def test_lg2_of_zero_and_negative(self):
        out = _run_scalar(["LG2 o[COLR], f[COL0];"], 0.0)
        assert np.isneginf(out[0])
        out = _run_scalar(["LG2 o[COLR], f[COL0];"], -4.0)
        assert np.isnan(out[0])

    def test_frc_of_negative_follows_floor(self):
        # FRC(x) = x - floor(x): FRC(-2.25) = 0.75.
        out = _run_scalar(["FRC o[COLR], f[COL0];"], -2.25)
        assert out[0] == pytest.approx(0.75)

    def test_large_float_addition_rounds(self):
        # Past 2**24, float32 addition quantizes: the documented reason
        # Column.integer caps at 24 bits.
        out = _run_scalar(
            ["ADD o[COLR], f[COL0], {1};"], float(1 << 24)
        )
        assert out[0] == float(1 << 24)  # 2**24 + 1 is not representable


class TestDepthBufferEdges:
    def test_comparison_constant_at_domain_edges(self):
        values = np.array([0, 1, (1 << 10) - 1])
        device = Device(2, 2)
        texture = Texture.from_values(values, shape=(2, 2))
        from repro.core.compare import compare_pass, copy_to_depth
        from repro.gpu.types import CompareFunc

        copy_to_depth(device, texture, 1.0 / (1 << 10))
        # Everything >= 0; nothing > max value.
        query = device.begin_query()
        compare_pass(device, CompareFunc.GEQUAL, 0.0, texture.count)
        device.end_query()
        assert query.result() == 3
        query = device.begin_query()
        compare_pass(
            device,
            CompareFunc.GREATER,
            ((1 << 10) - 1) / (1 << 10),
            texture.count,
        )
        device.end_query()
        assert query.result() == 0

    def test_adjacent_integers_distinct_at_full_precision(self):
        # 24-bit attributes: consecutive values map to consecutive
        # depth codes — no aliasing even at the finest scale.
        values = np.array([2**24 - 2, 2**24 - 1])
        device = Device(1, 2)
        texture = Texture.from_values(values, shape=(1, 2))
        from repro.core.compare import compare_pass, copy_to_depth
        from repro.gpu.types import CompareFunc

        copy_to_depth(device, texture, 1.0 / (1 << 24))
        query = device.begin_query()
        compare_pass(
            device,
            CompareFunc.GEQUAL,
            (2**24 - 1) / (1 << 24),
            texture.count,
        )
        device.end_query()
        assert query.result() == 1
