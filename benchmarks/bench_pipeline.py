"""Per-pass wall clock of the fixed-function pipeline at 2^20 fragments.

Each benchmark renders one full-screen quad over a 1024x1024 device
whose stored stencil and depth are random, so every test's survivor
mask is scattered.  A regression in one fixed-function stage shows
here without the end-to-end harness::

    pytest benchmarks/bench_pipeline.py --benchmark-only
"""

import numpy as np
import pytest

from repro.core.compare import copy_to_depth
from repro.gpu import CompareFunc, Device, StencilOp, Texture
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


@pytest.mark.benchmark(group="pipeline")
def test_bit_search_pass(benchmark, device):
    """One bit of routine 4.5: stencil ``EQUAL`` with every op
    ``KEEP``, depth ``LEQUAL`` against the stored attribute, and an
    occlusion query counting the survivors."""
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

    _pass_stats(benchmark, device, run)


@pytest.mark.benchmark(group="pipeline")
def test_copy_to_depth_pass(benchmark, device):
    """Section 3.3's copy: a fragment program writes each texel's
    value as the depth, every fragment passes and lands."""
    rng = np.random.default_rng(7)
    texture = Texture(
        rng.integers(0, 1 << 20, (SIDE, SIDE)).astype(np.float32)
    )
    _pass_stats(
        benchmark,
        device,
        lambda: copy_to_depth(device, texture, 1.0 / (1 << 20)),
    )
