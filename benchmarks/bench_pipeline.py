"""Per-pass wall clock of the fixed-function pipeline at 2^20 fragments.

Each benchmark renders one full-screen quad over a 1024x1024 device
whose stored stencil and depth are random, so every test's survivor
mask is scattered.  A regression in one fixed-function stage shows
here without the end-to-end harness::

    pytest benchmarks/bench_pipeline.py --benchmark-only

The copy-to-depth and ``TestBit`` passes come warm (the same pass over
unchanged texels, which the kernel's stage memo serves) and cold (one
texel uploaded before every round, so every round binds a new kernel
and runs its program: the miss path a stream tick takes).  The
bit-search pass likewise comes warm (answered from the device's sorted
index of surviving depth codes) and cold (the stencil generation moved
before every round, so every round runs the stages), and a whole
Routine 4.5 search — one copy and 20 counts over fresh codes — shows
what the index saves per order statistic.

The ``fixed-cost`` group prices what a pass costs beyond its fragments:
a warm ``TestBit`` pass, a warm copy-to-depth pass, a selection's mark
pass and a depth-bounds range pass, each over 2^16 fragments plus a
partial row (a ``count=`` quad of two rects) and over one fragment.
"""

import numpy as np
import pytest

from repro.core.aggregates import accumulator_state, kth_largest
from repro.core.compare import compare_pass, copy_to_depth
from repro.core.range_query import range_pass
from repro.gpu import CompareFunc, Device, StencilOp, Texture
from repro.gpu.programs import test_bit_program as bit_program
from repro.gpu.types import DEPTH_MAX_CODE

SIDE = 1024


@pytest.fixture
def device():
    device = Device(SIDE, SIDE, jit=True)
    rng = np.random.default_rng(2004)
    fb = device.framebuffer
    fb.stencil.values[:] = rng.integers(0, 2, fb.num_pixels)
    fb.depth.codes[:] = rng.integers(0, DEPTH_MAX_CODE + 1, fb.num_pixels)
    device.state.color_mask = (False, False, False, False)
    return device


def _pass_stats(benchmark, device, run):
    benchmark(run)
    stats = device.stats.passes[-1]
    benchmark.extra_info["fragments"] = stats.fragments
    benchmark.extra_info["passed"] = stats.passed


@pytest.mark.benchmark(group="pipeline")
def test_stencil_replace_scattered(benchmark, device):
    """A selection's mark pass: ``zpass REPLACE`` on the half of the
    fragments whose stencil low bit is set (the written value keeps
    that bit, so every round sees the same scattered mask)."""
    stencil = device.state.stencil
    stencil.enabled = True
    stencil.func = CompareFunc.EQUAL
    stencil.reference = 3
    stencil.mask = 0x01
    stencil.zpass = StencilOp.REPLACE
    _pass_stats(benchmark, device, lambda: device.render_quad(0.0))


def _bit_search_state(device):
    state = device.state
    state.stencil.enabled = True
    state.stencil.func = CompareFunc.EQUAL
    state.stencil.reference = 1
    state.depth.enabled = True
    state.depth.func = CompareFunc.LEQUAL
    state.depth.write = False

    def run():
        device.begin_query()
        device.render_quad(0.5)
        device.end_query()

    return run


@pytest.mark.benchmark(group="pipeline")
def test_bit_search_pass(benchmark, device):
    """One bit of routine 4.5: stencil ``EQUAL`` with every op
    ``KEEP``, depth ``LEQUAL`` against the stored attribute, and an
    occlusion query counting the survivors.  Warm: from the second
    round on the device answers it from its sorted index of the
    surviving depth codes (two binary searches), so this measures the
    indexed path."""
    _pass_stats(benchmark, device, _bit_search_state(device))


@pytest.mark.benchmark(group="pipeline")
def test_bit_search_pass_cold(benchmark, device):
    """The bit-search pass with the stencil generation moved before
    every round: the index never holds the key, and every round runs
    the stencil and depth tests over every fragment."""

    def move():
        device.stencil_generation += 1

    benchmark.pedantic(_bit_search_state(device), setup=move, rounds=30)
    stats = device.stats.passes[-1]
    benchmark.extra_info["fragments"] = stats.fragments
    benchmark.extra_info["passed"] = stats.passed


@pytest.mark.benchmark(group="pipeline")
def test_routine_4_5_search(benchmark, device):
    """A whole k-th largest search (routine 4.5) over fresh codes each
    round: new texels are uploaded before the round, then the round
    copies the 20-bit attribute to depth and runs the 20 counting
    passes against the valid stencil."""
    rng = np.random.default_rng(17)
    texture = _texture(17)
    fresh = [
        rng.integers(0, 1 << 20, (texture.num_texels, 1)).astype(np.float32)
        for _ in range(3)
    ]
    rounds = iter(range(1 << 30))

    def upload():
        device.upload_texels(texture, 0, fresh[next(rounds) % len(fresh)])

    def search():
        return kth_largest(
            device, texture, 20, SIDE * SIDE // 4, 1.0 / (1 << 20),
            valid_stencil=1,
        )

    benchmark.pedantic(search, setup=upload, rounds=15)
    benchmark.extra_info["passes"] = len(device.stats.passes)


def _texture(seed):
    rng = np.random.default_rng(seed)
    return Texture(rng.integers(0, 1 << 20, (SIDE, SIDE)).astype(np.float32))


def _cold(benchmark, device, texture, run):
    """Time ``run`` with one texel re-uploaded before every round: the
    texture's generation moves, so no kernel or memo carries over."""
    first = texture.data[:1, :1, 0].ravel().copy()

    def upload():
        device.upload_texels(texture, 0, first)

    benchmark.pedantic(run, setup=upload, rounds=30)
    stats = device.stats.passes[-1]
    benchmark.extra_info["fragments"] = stats.fragments
    benchmark.extra_info["passed"] = stats.passed


def _copy_pass(device, texture):
    return lambda: copy_to_depth(device, texture, 1.0 / (1 << 20))


@pytest.mark.benchmark(group="pipeline")
def test_copy_to_depth_pass(benchmark, device):
    """Section 3.3's copy: a fragment program writes each texel's
    value as the depth, every fragment passes and lands."""
    _pass_stats(benchmark, device, _copy_pass(device, _texture(7)))


@pytest.mark.benchmark(group="pipeline")
def test_copy_to_depth_pass_cold(benchmark, device):
    """The copy after a texel upload."""
    texture = _texture(7)
    _cold(benchmark, device, texture, _copy_pass(device, texture))


def _test_bit_pass(device, texture):
    """One bit of routine 4.6's Accumulator: the ``TestBit`` program
    moves bit 3 of each texel into alpha, the alpha test passes the
    bit-set fragments, stencil ``EQUAL`` keeps the valid records and
    an occlusion query counts the survivors."""
    accumulator_state(device.state)
    stencil = device.state.stencil
    stencil.enabled = True
    stencil.func = CompareFunc.EQUAL
    stencil.reference = 1
    device.set_program(bit_program(0))
    device.set_program_parameter(0, 1.0 / (1 << 4))

    def run():
        device.begin_query()
        device.render_textured_quad(texture)
        device.end_query()

    return run


@pytest.mark.benchmark(group="pipeline")
def test_test_bit_pass(benchmark, device):
    _pass_stats(benchmark, device, _test_bit_pass(device, _texture(11)))


@pytest.mark.benchmark(group="pipeline")
def test_test_bit_pass_cold(benchmark, device):
    """The ``TestBit`` pass after a texel upload."""
    texture = _texture(11)
    _cold(benchmark, device, texture, _test_bit_pass(device, texture))


@pytest.mark.benchmark(group="pipeline")
def test_eval_cnf_incr_pass(benchmark, device):
    """A predicate pass of an odd ``EvalCNF`` clause (routine 4.3):
    stencil ``EQUAL 1`` with ``zpass INCR`` behind a depth ``LEQUAL``
    against the stored attribute, over stored stencils in {0, 1, 2}.
    The stencil is restored before every round, so each round sees the
    same scattered masks."""
    fb = device.framebuffer
    stored = np.random.default_rng(5).integers(0, 3, fb.num_pixels)
    stored = stored.astype(np.uint8)
    state = device.state
    state.stencil.enabled = True
    state.stencil.func = CompareFunc.EQUAL
    state.stencil.reference = 1
    state.stencil.zpass = StencilOp.INCR
    state.depth.enabled = True
    state.depth.func = CompareFunc.LEQUAL
    state.depth.write = False

    def restore():
        fb.stencil.values[:] = stored

    benchmark.pedantic(
        lambda: device.render_quad(0.5), setup=restore, rounds=50
    )
    stats = device.stats.passes[-1]
    benchmark.extra_info["fragments"] = stats.fragments
    benchmark.extra_info["passed"] = stats.passed


#: The fixed-cost cases' screen: 256 rows of 256 pixels and a 257th
#: that a count quad of 2^16 fragments plus a 100-pixel tail covers in
#: part, and one fragment.
FIXED_SHAPE = (257, 256)
FIXED_COUNTS = {"2^16+tail": (1 << 16) + 100, "one": 1}


@pytest.fixture
def fixed_device():
    device = Device(*FIXED_SHAPE, jit=True)
    rng = np.random.default_rng(2004)
    fb = device.framebuffer
    fb.stencil.values[:] = rng.integers(0, 2, fb.num_pixels)
    fb.depth.codes[:] = rng.integers(0, DEPTH_MAX_CODE + 1, fb.num_pixels)
    device.state.color_mask = (False, False, False, False)
    return device


def _fixed_texture(count):
    rng = np.random.default_rng(13)
    texture = Texture(
        rng.integers(0, 1 << 20, FIXED_SHAPE).astype(np.float32)
    )
    texture.count = count
    return texture


def _mark_state(device):
    """A selection's stencil rule: ``zpass REPLACE 1`` on the passing
    fragments."""
    stencil = device.state.stencil
    stencil.enabled = True
    stencil.func = CompareFunc.ALWAYS
    stencil.reference = 1
    stencil.zpass = StencilOp.REPLACE


_fixed_counts = pytest.mark.parametrize(
    "count", list(FIXED_COUNTS.values()), ids=list(FIXED_COUNTS)
)


@pytest.mark.benchmark(group="fixed-cost")
@_fixed_counts
def test_fixed_cost_test_bit(benchmark, fixed_device, count):
    """A warm ``TestBit`` pass: the stage memo serves the alpha test."""
    texture = _fixed_texture(count)
    _pass_stats(
        benchmark, fixed_device, _test_bit_pass(fixed_device, texture)
    )


@pytest.mark.benchmark(group="fixed-cost")
@_fixed_counts
def test_fixed_cost_copy_to_depth(benchmark, fixed_device, count):
    """A warm copy-to-depth pass: the stage memo serves the codes."""
    texture = _fixed_texture(count)
    _pass_stats(benchmark, fixed_device, _copy_pass(fixed_device, texture))


@pytest.mark.benchmark(group="fixed-cost")
@_fixed_counts
def test_fixed_cost_mark(benchmark, fixed_device, count):
    """A selection's comparison quad (routine 4.1): depth ``GEQUAL``
    against the stored attribute, ``zpass REPLACE``."""
    _mark_state(fixed_device)
    _pass_stats(
        benchmark,
        fixed_device,
        lambda: compare_pass(fixed_device, CompareFunc.GEQUAL, 0.5, count),
    )


@pytest.mark.benchmark(group="fixed-cost")
@_fixed_counts
def test_fixed_cost_range(benchmark, fixed_device, count):
    """A range selection's depth-bounds quad (routine 4.4),
    ``zpass REPLACE``."""
    _mark_state(fixed_device)
    _pass_stats(
        benchmark,
        fixed_device,
        lambda: range_pass(fixed_device, 0.25, 0.75, count),
    )
