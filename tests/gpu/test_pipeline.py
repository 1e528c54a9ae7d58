"""The per-fragment pipeline: test ordering, stencil ops, occlusion."""

from collections.abc import Mapping

import numpy as np
import pytest

from repro.errors import (
    GpuError,
    OcclusionQueryError,
    RenderStateError,
)
from repro.gpu import (
    CompareFunc,
    Device,
    StencilOp,
    Texture,
    copy_to_depth_program,
)
from repro.ext.bitonic_sort import sort_values
from repro.gpu import pipeline
from repro.gpu.assembler import assemble
from repro.gpu.isa import FragmentAttrib
from repro.gpu.jit import BoundKernel
from repro.gpu.raster import Rect


@pytest.fixture()
def device():
    return Device(4, 4)


def _stencil(device):
    return device.framebuffer.stencil.values.copy()


class TestRenderQuad:
    def test_full_screen_touches_all_pixels(self, device):
        device.state.stencil.enabled = True
        device.state.stencil.zpass = StencilOp.REPLACE
        device.state.stencil.reference = 3
        device.render_quad(0.5)
        assert np.all(_stencil(device) == 3)

    def test_count_limits_coverage(self, device):
        device.state.stencil.enabled = True
        device.state.stencil.zpass = StencilOp.REPLACE
        device.state.stencil.reference = 1
        device.render_quad(0.5, count=6)
        stencil = _stencil(device)
        assert np.all(stencil[:6] == 1)
        assert np.all(stencil[6:] == 0)

    def test_rect_limits_coverage(self, device):
        device.state.stencil.enabled = True
        device.state.stencil.zpass = StencilOp.REPLACE
        device.state.stencil.reference = 1
        device.render_quad(0.5, rect=Rect(1, 1, 3, 3))
        stencil = _stencil(device).reshape(4, 4)
        assert stencil[1:3, 1:3].sum() == 4
        assert stencil.sum() == 4

    def test_rect_and_count_mutually_exclusive(self, device):
        with pytest.raises(GpuError):
            device.render_quad(0.5, rect=Rect(0, 0, 1, 1), count=3)

    def test_depth_out_of_range_rejected(self, device):
        with pytest.raises(RenderStateError):
            device.render_quad(1.5)

    def test_partial_count_is_single_pass(self, device):
        device.render_quad(0.5, count=6)  # 1 full row + partial row
        assert device.stats.num_passes == 1
        assert device.stats.passes[0].fragments == 6


class TestDepthTest:
    def test_less_func_culls(self, device):
        device.clear(depth=0.5)
        device.state.depth.enabled = True
        device.state.depth.func = CompareFunc.LESS
        query = device.begin_query()
        device.render_quad(0.25)
        device.end_query()
        assert query.result() == 16
        query = device.begin_query()
        device.render_quad(0.75)
        device.end_query()
        assert query.result() == 0

    def test_depth_write_mask(self, device):
        device.clear(depth=1.0)
        device.state.depth.enabled = True
        device.state.depth.func = CompareFunc.ALWAYS
        device.state.depth.write = False
        device.render_quad(0.25)
        assert np.all(
            device.framebuffer.depth.as_depths() > 0.9
        )
        device.state.depth.write = True
        device.render_quad(0.25)
        assert np.allclose(
            device.framebuffer.depth.as_depths(), 0.25, atol=1e-6
        )

    def test_depth_disabled_never_writes(self, device):
        device.clear(depth=1.0)
        device.state.depth.enabled = False
        device.render_quad(0.25)
        assert device.framebuffer.depth.codes[0] == (1 << 24) - 1


class TestAlphaTest:
    def test_alpha_test_filters_by_quad_alpha(self, device):
        device.state.alpha.enabled = True
        device.state.alpha.func = CompareFunc.GEQUAL
        device.state.alpha.reference = 0.5
        query = device.begin_query()
        device.render_quad(0.0, color=(1, 1, 1, 0.4))
        device.end_query()
        assert query.result() == 0
        query = device.begin_query()
        device.render_quad(0.0, color=(1, 1, 1, 0.6))
        device.end_query()
        assert query.result() == 16


class TestStencil:
    def test_reference_masked_comparison(self, device):
        device.clear_stencil(0b0101)
        stencil = device.state.stencil
        stencil.enabled = True
        stencil.func = CompareFunc.EQUAL
        stencil.reference = 0b1101
        stencil.mask = 0b0111  # masks to 0b0101 == stored
        query = device.begin_query()
        device.render_quad(0.0)
        device.end_query()
        assert query.result() == 16

    def test_sfail_op_runs_on_failures(self, device):
        device.clear_stencil(2)
        stencil = device.state.stencil
        stencil.enabled = True
        stencil.func = CompareFunc.EQUAL
        stencil.reference = 1
        stencil.sfail = StencilOp.INCR
        device.render_quad(0.0)
        assert np.all(_stencil(device) == 3)

    def test_zfail_op(self, device):
        device.clear(depth=0.5, stencil=1)
        stencil = device.state.stencil
        stencil.enabled = True
        stencil.func = CompareFunc.ALWAYS
        stencil.zfail = StencilOp.REPLACE
        stencil.reference = 9
        device.state.depth.enabled = True
        device.state.depth.func = CompareFunc.LESS
        device.render_quad(0.75)  # fails depth (0.75 > 0.5)
        assert np.all(_stencil(device) == 9)

    def test_zpass_applies_when_depth_disabled(self, device):
        stencil = device.state.stencil
        stencil.enabled = True
        stencil.func = CompareFunc.ALWAYS
        stencil.zpass = StencilOp.INCR
        device.state.depth.enabled = False
        device.render_quad(0.0)
        assert np.all(_stencil(device) == 1)

    def test_invalid_reference_rejected(self, device):
        device.state.stencil.enabled = True
        device.state.stencil.reference = 300
        with pytest.raises(RenderStateError):
            device.render_quad(0.0)


class TestDepthBounds:
    def _load_depths(self, device, depths):
        device.state.depth.enabled = True
        device.state.depth.func = CompareFunc.ALWAYS
        device.state.depth.write = True
        for index, depth in enumerate(depths):
            device.render_quad(
                depth, rect=Rect(index % 4, index // 4,
                                 index % 4 + 1, index // 4 + 1)
            )
        device.state.depth.write = False
        device.state.depth.enabled = False

    def test_bounds_test_uses_stored_depth(self, device):
        self._load_depths(device, [i / 16 for i in range(16)])
        bounds = device.state.depth_bounds
        bounds.enabled = True
        bounds.zmin = 0.25
        bounds.zmax = 0.5
        query = device.begin_query()
        device.render_quad(0.9)  # fragment depth irrelevant
        device.end_query()
        stored = device.framebuffer.depth.as_depths()
        expected = np.count_nonzero(
            (stored >= 0.25) & (stored <= 0.5 + 1e-9)
        )
        assert query.result() == expected

    def test_bounds_failures_skip_stencil_ops(self, device):
        self._load_depths(device, [0.1] * 16)
        stencil = device.state.stencil
        stencil.enabled = True
        stencil.func = CompareFunc.ALWAYS
        stencil.zpass = StencilOp.REPLACE
        stencil.reference = 5
        bounds = device.state.depth_bounds
        bounds.enabled = True
        bounds.zmin = 0.5
        bounds.zmax = 1.0
        device.render_quad(0.7)
        assert np.all(_stencil(device) == 0)

    def test_invalid_bounds_rejected(self, device):
        device.state.depth_bounds.enabled = True
        device.state.depth_bounds.zmin = 0.8
        device.state.depth_bounds.zmax = 0.2
        with pytest.raises(RenderStateError):
            device.render_quad(0.0)


class TestOcclusionQueries:
    def test_nesting_rejected(self, device):
        device.begin_query()
        with pytest.raises(OcclusionQueryError):
            device.begin_query()

    def test_end_without_begin_rejected(self, device):
        with pytest.raises(OcclusionQueryError):
            device.end_query()

    def test_result_before_end_rejected(self, device):
        query = device.begin_query()
        with pytest.raises(OcclusionQueryError):
            query.result()
        device.end_query()
        assert query.result() == 0

    def test_synchronous_results_counted_once(self, device):
        query = device.begin_query()
        device.render_quad(0.0)
        device.end_query()
        query.result()
        query.result()
        assert device.stats.occlusion_results == 1

    def test_async_results_not_counted(self, device):
        query = device.begin_query()
        device.render_quad(0.0)
        device.end_query()
        query.result(synchronous=False)
        assert device.stats.occlusion_results == 0


class TestTexturedQuad:
    def test_requires_bound_texture(self, device):
        with pytest.raises(GpuError, match="bound texture"):
            device.render_textured_quad()

    def test_rejects_mismatched_texture(self, device):
        texture = Texture(np.zeros((2, 2)))
        with pytest.raises(GpuError, match="align"):
            device.render_textured_quad(texture)

    def test_covers_valid_texels_only(self, device):
        texture = Texture.from_values(np.arange(10), shape=(4, 4))
        device.state.stencil.enabled = True
        device.state.stencil.zpass = StencilOp.REPLACE
        device.state.stencil.reference = 1
        device.render_textured_quad(texture)
        assert _stencil(device).sum() == 10


class TestCopyProgramIntegration:
    def test_copy_to_depth_round_trips_values(self, device):
        values = np.array(
            [3, 7, 100, 2**19 - 1] * 4, dtype=np.float64
        )
        texture = Texture.from_values(values, shape=(4, 4))
        device.set_program(copy_to_depth_program())
        device.set_program_parameter(0, 1.0 / (1 << 19))
        device.state.depth.enabled = True
        device.state.depth.func = CompareFunc.ALWAYS
        device.state.depth.write = True
        device.render_textured_quad(texture)
        codes = device.framebuffer.depth.codes
        expected = (values.astype(np.int64) << (24 - 19))
        assert np.array_equal(codes.astype(np.int64), expected)

    @pytest.mark.parametrize("jit", [False, True])
    def test_copy_behind_a_stencil_test_lands_on_survivors_only(self, jit):
        # No depth comparison, but the stencil test removed fragments:
        # the program's depths must land on the survivors alone.
        device = Device(4, 4, jit=jit)
        device.clear(depth=1.0)
        device.framebuffer.stencil.values[::2] = 1
        device.state.stencil.enabled = True
        device.state.stencil.func = CompareFunc.EQUAL
        device.state.stencil.reference = 1
        device.state.depth.enabled = True
        device.state.depth.func = CompareFunc.ALWAYS
        device.state.depth.write = True
        device.set_program(copy_to_depth_program())
        device.set_program_parameter(0, 1.0 / 16)
        values = np.arange(16, dtype=np.float32).reshape(4, 4)
        device.render_textured_quad(Texture(values))
        expected = np.full(16, (1 << 24) - 1)
        expected[::2] = values.ravel()[::2].astype(np.int64) << 20
        assert device.framebuffer.depth.codes.tolist() == expected.tolist()
        assert device.stats.passes[-1].depth_writes == 8

    def test_depth_program_pass_flagged_for_cost(self, device):
        texture = Texture.from_values(np.zeros(16), shape=(4, 4))
        device.set_program(copy_to_depth_program())
        device.set_program_parameter(0, 1.0)
        device.state.depth.enabled = True
        device.state.depth.func = CompareFunc.ALWAYS
        device.state.depth.write = True
        device.render_textured_quad(texture)
        last = device.stats.passes[-1]
        assert last.writes_depth_from_program
        assert last.program_length == 3
        assert last.instructions_executed == 48


class TestCopyColorToTexture:
    def test_round_trip(self, device):
        texture = Texture(np.zeros((4, 4), dtype=np.float32))
        device.render_quad(0.0, color=(0.5, 0, 0, 1))
        device.copy_color_to_texture(texture)
        assert np.allclose(texture.data[:, :, 0], 0.5)

    def test_size_mismatch_rejected(self, device):
        with pytest.raises(GpuError):
            device.copy_color_to_texture(Texture(np.zeros((2, 2))))

    @pytest.mark.parametrize("jit", [False, True])
    def test_copied_texels_are_sampled_by_the_next_pass(self, jit):
        # Each pass reads the texels the previous copy wrote; a kernel
        # or fetch memo keyed on the texture's old generation would
        # replay the first pass's texels instead.
        device = Device(2, 4, jit=jit)
        texture = Texture(np.zeros((2, 4, 4), dtype=np.float32))
        device.bind_texture(0, texture)
        device.set_program(
            assemble(
                "!!FP1.0\nTEX R0, f[TEX0], TEX0, 2D;\n"
                "ADD o[COLR], R0, {1.0};\nEND\n"
            )
        )
        seen = []
        for _ in range(3):
            device.render_quad(0.0)
            device.copy_color_to_texture(texture)
            seen.append(float(texture.data[0, 0, 0]))
        assert seen == [1.0, 2.0, 3.0]

    def test_bitonic_sort_on_the_jit(self):
        values = np.random.default_rng(5).integers(0, 1000, 50)
        device = Device(8, 8, jit=True)
        result, _ = sort_values(values, device=device)
        assert np.array_equal(result, np.sort(values))


class _RecordingAttributes(Mapping):
    """Wraps a batch's attributes and records every value read."""

    def __init__(self, inner):
        self.inner = inner
        self.reads = []

    def __getitem__(self, attrib):
        value = self.inner[attrib]
        self.reads.append((attrib, value))
        return value

    def __iter__(self):
        return iter(self.inner)

    def __len__(self):
        return len(self.inner)


@pytest.fixture()
def recorded_batches(monkeypatch):
    """The attributes of every batch rasterized by a pass."""
    recorded = []
    rasterize = pipeline.rasterize_rect

    def recording_rasterize(*args, **kwargs):
        batch = rasterize(*args, **kwargs)
        batch.attributes = _RecordingAttributes(batch.attributes)
        recorded.append(batch.attributes)
        return batch

    monkeypatch.setattr(pipeline, "rasterize_rect", recording_rasterize)
    return recorded


def _is_broadcast(array):
    return not array.flags.owndata and array.strides[0] == 0


class TestLazyAttributes:
    def test_fixed_function_pass_builds_no_wpos_or_col0(
        self, device, recorded_batches
    ):
        device.state.depth.enabled = True
        device.state.stencil.enabled = True
        device.state.stencil.zpass = StencilOp.INCR
        device.render_quad(0.5, count=6)
        assert len(recorded_batches) == 2
        for attributes in recorded_batches:
            read = dict(attributes.reads)
            assert FragmentAttrib.WPOS not in read
            assert _is_broadcast(read[FragmentAttrib.COL0])

    @pytest.mark.parametrize("jit", [False, True])
    def test_tex_only_program_reads_no_wpos(self, jit, recorded_batches):
        device = Device(4, 4, jit=jit)
        device.state.color_mask = (False, False, False, False)
        device.state.depth.enabled = True
        device.state.depth.func = CompareFunc.ALWAYS
        texture = Texture(np.arange(16, dtype=np.float32).reshape(4, 4))
        device.set_program(copy_to_depth_program())
        device.set_program_parameter(0, 1.0 / 16)
        device.render_textured_quad(texture)
        (attributes,) = recorded_batches
        assert FragmentAttrib.WPOS not in dict(attributes.reads)

    def test_jit_passes_col0_through_as_a_broadcast(
        self, monkeypatch
    ):
        # The JIT hands COL0's observed columns on uncopied, and no
        # column for a component no stage observes.
        colors = []
        run = BoundKernel.run

        def recording_run(kernel, batch):
            result = run(kernel, batch)
            colors.append(result.color)
            return result

        monkeypatch.setattr(BoundKernel, "run", recording_run)
        device = Device(4, 4, jit=True)
        device.state.color_mask = (True, False, False, False)
        texture = Texture(np.arange(16, dtype=np.float32).reshape(4, 4))
        device.set_program(copy_to_depth_program())
        device.render_textured_quad(texture)
        (color,) = colors
        assert _is_broadcast(color[0])
        assert color[1:] == (None, None, None)

    @pytest.mark.parametrize("jit", [False, True])
    def test_wpos_program_gets_pixel_centers_and_quad_depth(self, jit):
        device = Device(2, 3, jit=jit)
        device.set_program(
            assemble("!!FP1.0\nMOV o[COLR], f[WPOS];\nEND\n")
        )
        device.render_quad(0.25, rect=Rect(1, 0, 3, 2))
        color = device.read_color().reshape(2, 3, 4)
        assert np.array_equal(
            color[:, 1:],
            [
                [[1.5, 0.5, 0.25, 1.0], [2.5, 0.5, 0.25, 1.0]],
                [[1.5, 1.5, 0.25, 1.0], [2.5, 1.5, 0.25, 1.0]],
            ],
        )
        assert not color[:, 0].any()


class TestStats:
    def test_pass_counters(self, device):
        device.render_quad(0.5)
        device.render_quad(0.5)
        stats = device.stats
        assert stats.num_passes == 2
        assert stats.total_fragments == 32
        assert stats.clears == 0

    def test_reset_window(self, device):
        device.render_quad(0.5)
        device.clear()
        device.stats.reset()
        assert device.stats.num_passes == 0
        assert device.stats.clears == 0

    def test_readback_traffic_recorded(self, device):
        device.read_stencil()
        device.read_depth()
        device.read_color()
        assert device.stats.bytes_read_back == 16 + 64 + 256

    def test_program_parameter_validation(self, device):
        with pytest.raises(GpuError):
            device.set_program_parameter(16, 0.0)
        with pytest.raises(GpuError):
            device.set_program_parameter(0, (1.0, 2.0))

    def test_texture_unit_validation(self, device):
        with pytest.raises(GpuError):
            device.bind_texture(7, None)
