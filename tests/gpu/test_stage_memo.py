"""The stage memo of pure kernels and the texel-run fetch views.

A bound kernel whose pruned program reads only texture coordinates
(``CompiledProgram.pure``) and has no ``KIL`` memoizes, per quad
geometry, what the fixed-function stages derive from its outputs: the
``uint32`` depth codes and the ``bool`` alpha-test outcome.  A memo hit
must be bit-identical to running the program — same buffers, same
``PassStats``, same occlusion count — and every input the outputs
depend on (texels, parameters, the alpha function and reference, the
quad geometry) must invalidate it.  Aligned TEX fetches are read-only
views of the texture, so the shared texel-run memo owns no texel bytes.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import GpuEngine
from repro.core.aggregates import accumulator_state
from repro.core.compare import compare_pass, copy_to_depth
from repro.data.tcpip import make_tcpip
from repro.gpu import CompareFunc, Device, StencilOp, Texture
from repro.gpu.assembler import assemble
from repro.gpu.isa import NUM_PARAMETERS
from repro.gpu.jit import BoundKernel, KernelCache, compile_program
from repro.gpu.programs import (
    copy_to_depth_program,
    passthrough_program,
    semilinear_program,
)
from repro.gpu.programs import test_bit_kil_program as bit_kil_program
from repro.gpu.programs import test_bit_program as bit_program
from repro.gpu.raster import Rect, rasterize_rect
from repro.gpu.texture import texel_run
from repro.gpu.types import DEPTH_MAX_CODE
from repro.streams import ContinuousQuery, StreamEngine

HEIGHT, WIDTH = 24, 32
#: Valid texels: 23 full rows and a partial one, so a textured quad
#: records two rects, shaded as one span (one geometry token).
COUNT = HEIGHT * WIDTH - 13
BITS = 10
SCALE = 1.0 / (1 << BITS)

_FETCH = assemble(
    "!!FP1.0\nTEX R0, f[TEX0], TEX0, 2D;\nMOV o[COLR], R0;\nEND\n",
    name="fetch",
)


def _texture(seed=0, count=COUNT):
    rng = np.random.default_rng(seed)
    columns = [
        rng.integers(0, 1 << BITS, HEIGHT * WIDTH).astype(np.float32)
        for _ in range(4)
    ]
    texture = Texture.from_columns(columns, shape=(HEIGHT, WIDTH))
    texture.count = count
    return texture


def _device(jit, seed=1):
    device = Device(HEIGHT, WIDTH, jit=jit)
    rng = np.random.default_rng(seed)
    fb = device.framebuffer
    fb.stencil.values[:] = rng.integers(0, 3, fb.num_pixels)
    fb.depth.codes[:] = rng.integers(0, DEPTH_MAX_CODE + 1, fb.num_pixels)
    fb.color.data[:] = rng.random((fb.num_pixels, 4), dtype=np.float32)
    return device


def _valid_stencil(device):
    stencil = device.state.stencil
    stencil.enabled = True
    stencil.func = CompareFunc.EQUAL
    stencil.reference = 1
    stencil.sfail = stencil.zfail = stencil.zpass = StencilOp.KEEP


def _copy(device, texture):
    copy_to_depth(device, texture, SCALE, channel=1)


def _test_bit(device, texture):
    accumulator_state(device.state)
    _valid_stencil(device)
    device.set_program(bit_program(3))
    device.set_program_parameter(0, 1.0 / (1 << 5))
    device.render_textured_quad(texture)


def _test_bit_kil(device, texture):
    accumulator_state(device.state, use_alpha_test=False)
    _valid_stencil(device)
    device.set_program(bit_kil_program(0))
    device.set_program_parameter(0, 1.0 / (1 << 3))
    device.render_textured_quad(texture)


def _semilinear(device, texture):
    accumulator_state(device.state, use_alpha_test=False)
    device.set_program(semilinear_program(CompareFunc.GEQUAL))
    device.set_program_parameter(0, [1.0, -2.0, 0.5, 0.0])
    device.set_program_parameter(1, 100.0)
    device.render_textured_quad(texture)


def _compare(device, texture):
    device.set_program(None)
    device.state.depth.enabled = True
    device.state.depth.write = False
    compare_pass(device, CompareFunc.GEQUAL, 0.5, texture.count)


def _depth_write_compare(device, texture):
    """A program-written depth through a ``LESS`` test that writes:
    the codes feed the comparison and a masked write."""
    state = device.state
    state.depth.enabled = True
    state.depth.func = CompareFunc.LESS
    state.depth.write = True
    _valid_stencil(device)
    state.stencil.zpass = StencilOp.INCR
    device.set_program(copy_to_depth_program(0))
    device.set_program_parameter(0, SCALE)
    device.render_textured_quad(texture)


def _fetch_with_color(device, texture):
    """A pure program whose color a stage writes: the memo serves the
    alpha outcome, the color write runs the program."""
    state = device.state
    state.color_mask = (True, False, True, True)
    state.alpha.enabled = True
    state.alpha.func = CompareFunc.GREATER
    state.alpha.reference = 512.0
    device.set_program(_FETCH)
    device.render_textured_quad(texture)


def _passthrough(device, texture):
    """Impure: the program reads ``f[COL0]``."""
    state = device.state
    state.color_mask = (True, True, True, True)
    state.alpha.enabled = True
    state.alpha.func = CompareFunc.LESS
    state.alpha.reference = 0.5
    device.set_program(passthrough_program())
    device.bind_texture(0, texture)
    device.render_quad(
        0.25, color=(0.1, 0.2, 0.3, 0.4), count=texture.count
    )


#: name -> (pass, valid texels of its texture).  A texture of
#: ``COUNT`` texels records two rects, a full one one; either is
#: shaded as one span.
PASSES = {
    "copy-to-depth": (_copy, COUNT),
    "copy-to-depth-full-screen": (_copy, HEIGHT * WIDTH),
    "test-bit": (_test_bit, COUNT),
    "test-bit-kil": (_test_bit_kil, COUNT),
    "semilinear": (_semilinear, COUNT),
    "compare": (_compare, COUNT),
    "depth-write-compare": (_depth_write_compare, COUNT),
    "fetch-with-color": (_fetch_with_color, COUNT),
    "passthrough": (_passthrough, COUNT),
}

#: The pass kinds whose second run is served from the stage memo
#: without running the program.
MEMO_ONLY = ("copy-to-depth", "copy-to-depth-full-screen", "test-bit")


def _snapshot(device, occlusion):
    fb = device.framebuffer
    return (
        fb.color.data.view(np.uint32).copy(),
        fb.depth.codes.copy(),
        fb.stencil.values.copy(),
        dataclasses.asdict(device.stats.passes[-1]),
        occlusion,
    )


def _run_twice(kind, jit):
    device = _device(jit)
    draw, count = PASSES[kind]
    texture = _texture(count=count)
    snapshots = []
    for _ in range(2):
        query = device.begin_query()
        draw(device, texture)
        device.end_query()
        snapshots.append(_snapshot(device, query.result()))
    return device, snapshots


def _assert_same(a, b):
    for ours, theirs in zip(a, b):
        if isinstance(ours, np.ndarray):
            assert np.array_equal(ours, theirs)
        else:
            assert ours == theirs


@pytest.fixture
def program_runs(monkeypatch):
    """Counts ``BoundKernel.run`` calls."""
    calls = []
    run = BoundKernel.run

    def counted(self, batch):
        calls.append(self.name)
        return run(self, batch)

    monkeypatch.setattr(BoundKernel, "run", counted)
    return calls


class TestMemoHitsAreBitExact:
    @pytest.mark.parametrize("kind", sorted(PASSES))
    def test_repeated_pass_matches_interpreter(self, kind):
        """Each pass kind twice on one JIT device (the second pass hits
        whatever the first memoized) and twice on the interpreter:
        framebuffer bits, PassStats and occlusion counts agree after
        every pass."""
        _, jit = _run_twice(kind, jit=True)
        _, interp = _run_twice(kind, jit=False)
        for ours, theirs in zip(jit, interp):
            _assert_same(ours, theirs)

    @pytest.mark.parametrize("kind", MEMO_ONLY)
    def test_second_pass_runs_no_program(self, kind, program_runs):
        device, _ = _run_twice(kind, jit=True)
        # One span per pass, two rects or one: the first pass runs the
        # program once.
        assert len(program_runs) == 1
        # Bound once per pass, as without the memo.
        assert device.kernels.misses == 1
        assert device.kernels.hits == 1
        assert device.kernels.memo_bytes > 0

    @pytest.mark.parametrize(
        "kind", ["test-bit-kil", "semilinear", "passthrough"]
    )
    def test_impure_or_kil_kernels_memoize_nothing(self, kind, program_runs):
        device, _ = _run_twice(kind, jit=True)
        assert len(program_runs) == 2
        assert device.kernels.memo_bytes == 0

    def test_purity_rule(self):
        alpha = (False, False, False, True)
        assert compile_program(bit_program(0), alpha).pure
        assert compile_program(copy_to_depth_program(), (False,) * 4).pure
        # The color passthrough reads f[COL0] on a live component.
        assert not compile_program(passthrough_program(), alpha).pure
        # Depth-only: nothing reads the passed-through color.
        depth_only = assemble(
            "!!FP1.0\nTEX R0, f[TEX0], TEX0, 2D;\n"
            "MOV o[DEPR].z, R0.x;\nEND\n"
        )
        assert compile_program(depth_only, (False,) * 4).pure
        assert not compile_program(depth_only, alpha).pure
        wpos = assemble(
            "!!FP1.0\nMOV o[DEPR].z, f[WPOS].z;\nEND\n"
        )
        assert not compile_program(wpos, (False,) * 4).pure


def _bit_counts(device, texture, bit, func=CompareFunc.GEQUAL, ref=0.5):
    """One TestBit pass: the occlusion count of the records whose
    ``frac(v / 2^(bit+1)) func ref``."""
    accumulator_state(device.state)
    device.state.stencil.enabled = False
    device.state.alpha.func = func
    device.state.alpha.reference = ref
    device.set_program(bit_program(0))
    device.set_program_parameter(0, 1.0 / (1 << (bit + 1)))
    query = device.begin_query()
    device.render_textured_quad(texture)
    device.end_query()
    return query.result()


def _expected_bits(texture, bit, func=CompareFunc.GEQUAL, ref=0.5):
    values = texture.valid_values(0)
    fraction = np.modf(values * np.float32(1.0 / (1 << (bit + 1))))[0]
    return int(np.count_nonzero(func.apply(fraction, np.float32(ref))))


def _copied_codes(texture, channel=1):
    values = texture.valid_values(channel).astype(np.uint32)
    return values << (24 - BITS)


class TestInvalidation:
    """Each input the memoized arrays depend on changes between two
    otherwise identical passes; the second pass must see it."""

    def test_texel_upload_between_identical_passes(self):
        device = _device(jit=True)
        texture = _texture()
        _copy(device, texture)
        _copy(device, texture)
        rng = np.random.default_rng(5)
        update = rng.integers(0, 1 << BITS, (50, 4)).astype(np.float32)
        device.upload_texels(texture, 100, update)
        _copy(device, texture)
        codes = device.framebuffer.depth.codes[:COUNT]
        assert np.array_equal(codes, _copied_codes(texture))
        before = _bit_counts(device, texture, 2)
        device.upload_texels(texture, 0, update[::-1])
        after = _bit_counts(device, texture, 2)
        assert before != after
        assert after == _expected_bits(texture, 2)

    def test_upload_refreshes_kernels_in_place(self, monkeypatch):
        """After ``upload_texels`` a ``TestBit`` pass and a copy-to-depth
        pass equal the interpreter's; each looks up its kernel, misses,
        and refreshes it in place with an empty stage memo, so the cache
        still holds one kernel per program."""
        refreshed = []
        refresh = BoundKernel.refresh

        def recording(kernel):
            refresh(kernel)
            refreshed.append((kernel, kernel.memo_bytes, kernel.stale))

        monkeypatch.setattr(BoundKernel, "refresh", recording)
        update = np.random.default_rng(9).integers(
            0, 1 << BITS, (50, 4)
        ).astype(np.float32)
        snapshots = {}
        for jit in (True, False):
            device = _device(jit)
            texture = _texture()
            for draw in (_copy, _test_bit) * 2:
                draw(device, texture)
            kernels = len(device.kernels)
            device.upload_texels(texture, 100, update)
            snapshots[jit] = []
            for draw in (_copy, _test_bit):
                query = device.begin_query()
                draw(device, texture)
                device.end_query()
                snapshots[jit].append(_snapshot(device, query.result()))
            if jit:
                cache = device.kernels
                assert kernels == len(cache) == 2
                assert cache.refreshes == 2
                assert cache.misses == 2 + cache.refreshes
                assert [(memo, stale) for _, memo, stale in refreshed] == [
                    (0, False), (0, False)
                ]
                assert len({id(kernel) for kernel, _, _ in refreshed}) == 2
        for ours, theirs in zip(snapshots[True], snapshots[False]):
            _assert_same(ours, theirs)

    def test_write_records_between_identical_queries(self):
        relation = make_tcpip(3000, seed=4)
        engine = GpuEngine(relation, jit=True)
        for _ in range(2):
            assert engine.sum("retransmissions").value == int(
                relation.column("retransmissions").values.sum()
            )
        rng = np.random.default_rng(8)
        values = relation.column("retransmissions").values
        values[:1000] = rng.permutation(values[:1000])[::-1] // 2
        engine.write_records(relation, [(0, 1000)])
        assert engine.sum("retransmissions").value == int(values.sum())

    def test_parameter_change(self):
        device = _device(jit=True)
        texture = _texture()
        counts = [_bit_counts(device, texture, bit) for bit in (1, 1, 4)]
        assert counts[0] == counts[1] == _expected_bits(texture, 1)
        assert counts[2] == _expected_bits(texture, 4) != counts[0]

    def test_alpha_func_and_reference_change(self):
        device = _device(jit=True)
        texture = _texture()
        for func, ref in [
            (CompareFunc.GEQUAL, 0.5),
            (CompareFunc.LESS, 0.5),
            (CompareFunc.GEQUAL, 0.25),
            (CompareFunc.GEQUAL, 0.5),
        ]:
            count = _bit_counts(device, texture, 3, func, ref)
            assert count == _expected_bits(texture, 3, func, ref)

    def test_different_rect_or_count_quad(self):
        texture = _texture()
        devices = (_device(jit=True), _device(jit=False))
        for target in devices:
            copy_to_depth(target, texture, SCALE)  # binds and sets state
            target.set_program(copy_to_depth_program(0))
            target.set_program_parameter(0, SCALE)
            target.state.depth.write = True
        for cover in (
            {"count": 300},
            {"count": 301},
            {"rect": Rect(3, 2, 20, 9)},
            {"rect": Rect(4, 2, 21, 9)},
            {"rect": Rect(3, 2, 20, 10)},
            {"count": 300},
        ):
            for target in devices:
                target.framebuffer.depth.codes[:] = 7
                target.render_quad(0.0, **cover)
            jit, oracle = devices
            assert np.array_equal(
                jit.framebuffer.depth.codes, oracle.framebuffer.depth.codes
            ), cover

    def test_memo_arrays_and_view_fetches_are_read_only(self):
        texture = _texture(count=HEIGHT * WIDTH)
        params = np.zeros((NUM_PARAMETERS, 4), dtype=np.float32)
        kernel = KernelCache().get_or_bind(
            _FETCH, (True, True, True, True), {0: texture}, params
        )
        batch = rasterize_rect(
            Rect(0, 0, WIDTH, HEIGHT), WIDTH, HEIGHT, 0.0, (1, 1, 1, 1)
        )
        column = kernel.run(batch).color[2]
        assert np.shares_memory(column, texture.data)
        with pytest.raises(ValueError):
            column[0] = 1.0
        view = texture.fetch_component(slice(0, 10), 1)
        assert np.shares_memory(view, texture.data)
        with pytest.raises(ValueError):
            view[0] = 1.0
        assert kernel.memoizes(batch)
        codes = kernel.derived(
            batch, "depth", lambda: np.zeros(batch.count, np.uint32)
        )
        with pytest.raises(ValueError):
            codes[0] = 1
        # A hit hands back the same read-only array.
        assert kernel.derived(batch, "depth", lambda: None) is codes


class TestTexelRuns:
    def test_contiguous_runs_become_slices(self):
        assert texel_run(np.arange(5, 12)) == slice(5, 12)
        assert texel_run(np.array([3])) == slice(3, 4)
        assert texel_run(np.array([], dtype=np.int64)) is None
        assert texel_run(np.array([0, 1, 3])) is None
        assert texel_run(np.array([2, 1, 0, 1, 2])) is None
        assert texel_run(np.array([0, 2, 1, 3])) is None

    def test_sub_rect_gathers_per_pass(self):
        """A rect narrower than its texture samples no single run: it
        is gathered, and nothing is memoized for it."""
        texture = _texture(count=HEIGHT * WIDTH)
        params = np.zeros((NUM_PARAMETERS, 4), dtype=np.float32)
        cache = KernelCache()
        kernel = cache.get_or_bind(
            _FETCH, (True, False, False, False), {0: texture}, params
        )
        batch = rasterize_rect(
            Rect(2, 1, 9, 5), WIDTH, HEIGHT, 0.0, (1, 1, 1, 1)
        )
        column = kernel.run(batch).color[0]
        assert not np.shares_memory(column, texture.data)
        expected = texture.data[1:5, 2:9, 0].ravel()
        assert np.array_equal(column, expected)
        assert cache.tex_memo == {}


class TestMemoryGuard:
    RECORDS = 1 << 16

    def test_memo_bytes_per_fragment(self):
        relation = make_tcpip(self.RECORDS, seed=6)
        engine = GpuEngine(relation, jit=True)
        for _ in range(2):
            engine.sum("retransmissions")
            engine.median("data_count")
        cache = engine.device.kernels
        _, scale, _ = engine.column_texture("retransmissions")
        alpha_outcomes = round(-np.log2(scale))
        depth_kernels = 1
        bound = self.RECORDS * (4 * depth_kernels + 1 * alpha_outcomes)
        assert 0 < cache.memo_bytes <= bound
        # The texel-run memo holds slices: no texel bytes.
        assert cache.tex_memo
        assert all(
            isinstance(run, slice) for run in cache.tex_memo.values()
        )

    def test_append_loop_does_not_grow_memo_bytes(self):
        """Every tick uploads texels (new generations) and re-runs the
        queries; kernels bound over old texels are dropped, so the memo
        holds one tick's worth at most."""
        bits = 8
        capacity = self.RECORDS
        stream = StreamEngine([("v", bits)], capacity=capacity)
        stream.device.jit = True  # whatever REPRO_JIT says
        stream.register(ContinuousQuery("sum", "sum", column="v"))
        stream.register(ContinuousQuery("med", "median", column="v"))
        rng = np.random.default_rng(3)
        cache = stream.engine.device.kernels
        sizes = []
        for _ in range(24):
            stream.append({"v": rng.integers(0, 1 << bits, 4096)})
            sizes.append(cache.memo_bytes)
        assert max(sizes) <= capacity * (4 + bits)
        assert sizes[-1] == sizes[-2] > 0
        assert len(cache) <= 2 * (1 + bits)
