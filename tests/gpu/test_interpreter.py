"""Fragment-program interpreter: opcode semantics, SIMD batches, TEX."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ProgramExecutionError
from repro.gpu.assembler import assemble
from repro.gpu.interpreter import (
    FragmentBatch,
    ProgramInterpreter,
)
from repro.gpu.isa import NUM_PARAMETERS, FragmentAttrib
from repro.gpu.texture import Texture


def _batch(col0, wpos=None, texcoord=None):
    col0 = np.asarray(col0, dtype=np.float32)
    count = col0.shape[0]
    if wpos is None:
        wpos = np.zeros((count, 4), dtype=np.float32)
    if texcoord is None:
        texcoord = np.zeros((count, 4), dtype=np.float32)
    return FragmentBatch(
        count=count,
        attributes={
            FragmentAttrib.COL0: col0,
            FragmentAttrib.WPOS: np.asarray(wpos, dtype=np.float32),
            FragmentAttrib.TEX0: np.asarray(texcoord, dtype=np.float32),
        },
    )


def _run(source_lines, batch, textures=None, params=None):
    program = assemble(
        "\n".join(["!!FP1.0"] + list(source_lines) + ["END"])
    )
    bank = np.zeros((NUM_PARAMETERS, 4), dtype=np.float32)
    if params:
        for index, value in params.items():
            bank[index] = value
    interpreter = ProgramInterpreter(textures or {}, bank)
    result = interpreter.run(program, batch)
    # The assertions read the color as (count, 4) rows.
    return dataclasses.replace(result, color=np.stack(result.color, axis=1))


class TestArithmetic:
    def test_mov_and_color_output(self):
        result = _run(
            ["MOV o[COLR], f[COL0];"], _batch([[1, 2, 3, 4]])
        )
        assert np.array_equal(result.color[0], [1, 2, 3, 4])

    def test_add_sub_mul(self):
        batch = _batch([[1, 2, 3, 4]])
        out = _run(
            [
                "ADD R0, f[COL0], f[COL0];",
                "SUB R1, R0, f[COL0];",
                "MUL o[COLR], R1, {2};",
            ],
            batch,
        )
        assert np.array_equal(out.color[0], [2, 4, 6, 8])

    def test_mad_lrp_cmp(self):
        batch = _batch([[0.5, -1.0, 2.0, 0.0]])
        out = _run(
            ["MAD o[COLR], f[COL0], {2}, {1};"], batch
        )
        assert np.array_equal(out.color[0], [2.0, -1.0, 5.0, 1.0])
        out = _run(
            ["CMP o[COLR], f[COL0], {1}, {0};"], batch
        )
        # CMP: a < 0 ? b : c
        assert np.array_equal(out.color[0], [0, 1, 0, 0])
        out = _run(
            ["LRP o[COLR], {0.25}, {8}, {0};"], batch
        )
        assert np.allclose(out.color[0], [2, 2, 2, 2])

    def test_min_max_abs_flr_frc(self):
        batch = _batch([[1.5, -2.5, 0.0, 3.25]])
        out = _run(["FLR o[COLR], f[COL0];"], batch)
        assert np.array_equal(out.color[0], [1, -3, 0, 3])
        out = _run(["FRC o[COLR], f[COL0];"], batch)
        assert np.allclose(out.color[0], [0.5, 0.5, 0.0, 0.25])
        out = _run(["ABS o[COLR], f[COL0];"], batch)
        assert np.array_equal(out.color[0], [1.5, 2.5, 0.0, 3.25])
        out = _run(["MIN o[COLR], f[COL0], {0};"], batch)
        assert np.array_equal(out.color[0], [0, -2.5, 0, 0])
        out = _run(["MAX o[COLR], f[COL0], {0};"], batch)
        assert np.array_equal(out.color[0], [1.5, 0, 0, 3.25])

    def test_slt_sge(self):
        batch = _batch([[1.0, 2.0, 2.0, 3.0]])
        out = _run(["SLT o[COLR], f[COL0], {2};"], batch)
        assert np.array_equal(out.color[0], [1, 0, 0, 0])
        out = _run(["SGE o[COLR], f[COL0], {2};"], batch)
        assert np.array_equal(out.color[0], [0, 1, 1, 1])

    def test_rcp_ex2_lg2_replicate_scalar(self):
        batch = _batch([[4.0, 9.0, 9.0, 9.0]])
        out = _run(["RCP o[COLR], f[COL0];"], batch)
        assert np.allclose(out.color[0], 0.25)
        batch = _batch([[3.0, 0, 0, 0]])
        out = _run(["EX2 o[COLR], f[COL0];"], batch)
        assert np.allclose(out.color[0], 8.0)
        batch = _batch([[8.0, 0, 0, 0]])
        out = _run(["LG2 o[COLR], f[COL0];"], batch)
        assert np.allclose(out.color[0], 3.0)

    def test_dp3_dp4(self):
        batch = _batch([[1, 2, 3, 4]])
        out = _run(["DP4 o[COLR], f[COL0], {1};"], batch)
        assert np.allclose(out.color[0], 10.0)
        out = _run(["DP3 o[COLR], f[COL0], {1};"], batch)
        assert np.allclose(out.color[0], 6.0)

    @given(
        st.lists(
            st.tuples(
                st.floats(-100, 100),
                st.floats(-100, 100),
                st.floats(-100, 100),
                st.floats(-100, 100),
            ),
            min_size=1,
            max_size=64,
        )
    )
    def test_dp4_matches_numpy_on_batches(self, rows):
        batch = _batch(rows)
        coefficients = (0.5, -1.5, 2.0, 0.25)
        out = _run(
            ["DP4 o[COLR], f[COL0], p[0];"],
            batch,
            params={0: coefficients},
        )
        data = np.asarray(rows, dtype=np.float32)
        expected = np.einsum(
            "ij,j->i",
            data,
            np.asarray(coefficients, dtype=np.float32),
        )
        # atol floor: cancellation (terms up to ~200 summing near 0)
        # makes a pure relative bound unattainable in float32.
        assert np.allclose(
            out.color[:, 0], expected, rtol=1e-5, atol=1e-3
        )


class TestOperandBehavior:
    def test_swizzle_and_negate(self):
        batch = _batch([[1, 2, 3, 4]])
        out = _run(["MOV o[COLR], -f[COL0].wzyx;"], batch)
        assert np.array_equal(out.color[0], [-4, -3, -2, -1])

    def test_write_mask_preserves_other_components(self):
        batch = _batch([[1, 2, 3, 4]])
        out = _run(
            [
                "MOV R0, {0};",
                "MOV R0.yw, f[COL0];",
                "MOV o[COLR], R0;",
            ],
            batch,
        )
        assert np.array_equal(out.color[0], [0, 2, 0, 4])

    def test_uninitialized_temporary_rejected(self):
        with pytest.raises(ProgramExecutionError, match="uninitialized"):
            _run(["MOV o[COLR], R3;"], _batch([[0, 0, 0, 0]]))

    def test_default_color_is_col0_passthrough(self):
        out = _run(["MOV R0, f[COL0];"], _batch([[9, 8, 7, 6]]))
        assert np.array_equal(out.color[0], [9, 8, 7, 6])

    def test_depth_output_takes_z_component(self):
        batch = _batch([[0.5, 0, 0, 0]])
        out = _run(["MOV o[DEPR].z, f[COL0].x;"], batch)
        assert out.depth is not None
        assert np.allclose(out.depth, [0.5])

    def test_instruction_count(self):
        out = _run(
            ["MOV R0, f[COL0];", "MOV o[COLR], R0;"],
            _batch([[0, 0, 0, 0]] * 5),
        )
        assert out.instructions_executed == 2 * 5

    def test_bad_parameter_bank_shape(self):
        with pytest.raises(ProgramExecutionError, match="parameter bank"):
            ProgramInterpreter({}, np.zeros((4, 4), dtype=np.float32))

    def test_missing_attribute(self):
        batch = FragmentBatch(
            count=1,
            attributes={
                FragmentAttrib.COL0: np.zeros((1, 4), dtype=np.float32)
            },
        )
        with pytest.raises(ProgramExecutionError, match="WPOS"):
            _run(["MOV o[COLR], f[WPOS];"], batch)


class TestKil:
    def test_kil_discards_negative_components(self):
        batch = _batch(
            [[-1, 0, 0, 0], [0, 0, 0, 0], [1, -0.001, 0, 0]]
        )
        out = _run(["KIL f[COL0];"], batch)
        assert np.array_equal(out.killed, [True, False, True])

    def test_negative_zero_does_not_kill(self):
        batch = _batch([[-0.0, 0, 0, 0]])
        out = _run(["KIL f[COL0];"], batch)
        assert not out.killed[0]

    def test_killed_fragments_still_execute_rest(self):
        # No branching in 2004: instruction count is unconditional.
        batch = _batch([[-1, 0, 0, 0], [1, 0, 0, 0]])
        out = _run(
            ["KIL f[COL0];", "MOV o[COLR], f[COL0];"], batch
        )
        assert out.instructions_executed == 4


class TestTex:
    def test_nearest_sampling_at_texel_centers(self):
        texture = Texture(
            np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        )
        coords = np.array(
            [
                [0.25, 0.25, 0, 0],
                [0.75, 0.25, 0, 0],
                [0.25, 0.75, 0, 0],
                [0.75, 0.75, 0, 0],
            ],
            dtype=np.float32,
        )
        batch = _batch(np.zeros((4, 4)), texcoord=coords)
        out = _run(
            ["TEX R0, f[TEX0], TEX0, 2D;", "MOV o[COLR], R0;"],
            batch,
            textures={0: texture},
        )
        assert np.array_equal(out.color[:, 0], [1, 2, 3, 4])

    def test_coordinates_clamp_to_edge(self):
        texture = Texture(np.array([[5.0, 6.0]], dtype=np.float32))
        coords = np.array(
            [[-0.5, 0.5, 0, 0], [1.5, 0.5, 0, 0]], dtype=np.float32
        )
        batch = _batch(np.zeros((2, 4)), texcoord=coords)
        out = _run(
            ["TEX R0, f[TEX0], TEX0, 2D;", "MOV o[COLR], R0;"],
            batch,
            textures={0: texture},
        )
        assert np.array_equal(out.color[:, 0], [5, 6])

    def test_unbound_unit_rejected(self):
        batch = _batch(np.zeros((1, 4)))
        with pytest.raises(ProgramExecutionError, match="unit 1"):
            _run(
                ["TEX R0, f[TEX0], TEX1, 2D;", "MOV o[COLR], R0;"],
                batch,
            )
