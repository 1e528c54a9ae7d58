"""The count-only passes' index: invalidation, memory and the audit.

A count-only pass (no program, no color or depth write, no alpha or
depth-bounds test, every stencil op ``KEEP``) changes nothing but its
``PassStats`` and the occlusion count, so ``Device`` answers the second
and later such passes over one rect from a sorted index of the stored
depth codes that pass the stencil test.  The index is keyed on the
depth and stencil generations and the stencil func/reference/mask.

Each invalidation test below counts twice (the index is built), changes
one input, and counts again against a numpy oracle of the live buffers.
Each fails when the input it names is dropped from the key.
"""

import contextlib
import dataclasses
import tracemalloc

import numpy as np
import pytest

from repro import sanitize
from repro.analysis.race import use_sanitizer
from repro.analysis.rules import HAZARD_RULES
from repro.core import Column, GpuEngine, Relation
from repro.errors import DeviceLostError, StaleMemoError
from repro.faults import (
    FaultKind,
    FaultPlan,
    FaultRule,
    ResilientExecutor,
    use_faults,
)
from repro.gpu import CompareFunc, Device, StencilOp
from repro.gpu.context import ContextScheduler
from repro.gpu.framebuffer import depth_to_code
from repro.gpu.pipeline import COUNT_INDEX_RECTS
from repro.gpu.raster import Rect
from repro.gpu.types import DEPTH_MAX_CODE

HEIGHT, WIDTH = 16, 24


@contextlib.contextmanager
def _disarmed():
    """No recorder for the block, even on the ``REPRO_SAN=1`` leg."""
    previous = sanitize.install(None)
    try:
        yield
    finally:
        sanitize.uninstall(previous)


def _device(seed=5):
    device = Device(HEIGHT, WIDTH, jit=True)
    rng = np.random.default_rng(seed)
    fb = device.framebuffer
    fb.stencil.values[:] = rng.integers(0, 3, fb.num_pixels)
    fb.depth.codes[:] = rng.integers(0, DEPTH_MAX_CODE + 1, fb.num_pixels)
    _count_state(device)
    return device


def _count_state(device, reference=1, mask=0xFF, func=CompareFunc.GEQUAL):
    """Routine 4.5's comparison quad: stencil ``EQUAL reference`` with
    every op ``KEEP``, the depth test ``func`` with the write off."""
    state = device.state
    state.reset()
    state.color_mask = (False, False, False, False)
    state.stencil.enabled = True
    state.stencil.func = CompareFunc.EQUAL
    state.stencil.reference = reference
    state.stencil.mask = mask
    state.depth.enabled = True
    state.depth.func = func
    state.depth.write = False


def _count(device, depth=0.5, **cover):
    query = device.begin_query()
    device.render_quad(depth, **cover)
    device.end_query()
    return query.result()


def _oracle(device, depth=0.5, rect=None):
    """The count from the live buffers: stencil ``(ref & mask) ==
    (stored & mask)`` and ``quad func stored``."""
    fb = device.framebuffer
    state = device.state
    stencil = fb.stencil.values.reshape(fb.height, fb.width)
    codes = fb.depth.codes.reshape(fb.height, fb.width)
    if rect is not None:
        stencil = stencil[rect.y0:rect.y1, rect.x0:rect.x1]
        codes = codes[rect.y0:rect.y1, rect.x0:rect.x1]
    mask = state.stencil.mask
    keep = (stencil & mask) == (state.stencil.reference & mask)
    quad = depth_to_code(np.float32(depth))
    return int(np.count_nonzero(keep & state.depth.func.apply(quad, codes)))


def _indexed(device, depth=0.5):
    """Count twice, so the next count with the same key is indexed."""
    _count(device, depth)
    _count(device, depth)
    assert len(device._count_indexes) == 1


def _write_state(device):
    state = device.state
    state.reset()
    state.color_mask = (False, False, False, False)
    return state


def _depth_write(device, depth=0.25):
    """A pass that writes the quad depth everywhere."""
    state = _write_state(device)
    state.depth.enabled = True
    state.depth.func = CompareFunc.ALWAYS
    device.render_quad(depth)


def _stencil_write(device, count=None):
    """A pass that sets the stencil to 1 on the first ``count``
    pixels (all of them when None)."""
    state = _write_state(device)
    state.stencil.enabled = True
    state.stencil.func = CompareFunc.ALWAYS
    state.stencil.reference = 1
    state.stencil.zpass = StencilOp.REPLACE
    device.render_quad(0.0, count=count)


# -- invalidation -------------------------------------------------------------


def test_depth_write_invalidates():
    """Fails with ``depth_generation`` dropped from the key."""
    device = _device()
    _indexed(device)
    _depth_write(device)
    _count_state(device)
    assert _count(device) == _oracle(device)
    assert _count(device) == _oracle(device)


def test_stencil_write_invalidates():
    """Fails with ``stencil_generation`` dropped from the key."""
    device = _device()
    _indexed(device)
    _stencil_write(device)
    _count_state(device)
    assert _count(device) == _oracle(device)
    assert _count(device) == _oracle(device)


@pytest.mark.parametrize(
    "clear",
    [
        lambda device: device.clear(stencil=1, depth=0.5),
        lambda device: device.clear_depth(0.75),
        lambda device: device.clear_stencil(1),
    ],
    ids=["clear", "clear_depth", "clear_stencil"],
)
def test_clears_invalidate(clear):
    """Fails when the clear does not move the generation of the buffer
    it clears (the bumps in ``Device.clear``, ``clear_depth`` and
    ``clear_stencil``)."""
    device = _device()
    _indexed(device, depth=0.6)
    clear(device)
    assert _count(device, 0.6) == _oracle(device, 0.6)
    assert _count(device, 0.6) == _oracle(device, 0.6)


@pytest.mark.parametrize(
    "change", [{"reference": 2}, {"mask": 0x02}, {"reference": 0, "mask": 0}]
)
def test_stencil_reference_or_mask_change_invalidates(change):
    """Fails with the stencil reference and mask dropped from the key."""
    device = _device()
    _indexed(device)
    _count_state(device, **change)
    assert _count(device) == _oracle(device)
    assert _count(device) == _oracle(device)


@pytest.mark.parametrize("func", list(CompareFunc))
def test_depth_func_change_is_a_search_not_a_rebuild(func):
    """The depth func is not in the key: the sorted codes answer every
    function (the per-function search mapping of ``_depth_passing``),
    with stored codes equal to each quad's code.  Fails with the depth
    func added to the key."""
    device = _device()
    codes = device.framebuffer.depth.codes
    codes[::7] = depth_to_code(np.float32(0.3))
    codes[1::7] = 0
    codes[2::7] = DEPTH_MAX_CODE
    _indexed(device)
    index = device._count_indexes[next(iter(device._count_indexes))]
    key = index.key
    _count_state(device, func=func)
    for depth in (0.0, 0.3, 1.0):
        assert _count(device, depth) == _oracle(device, depth)
    assert index.key == key


def test_different_rect_invalidates():
    """Fails with one index shared by every rect."""
    device = _device()
    top = Rect(0, 0, WIDTH, HEIGHT // 2)
    bottom = Rect(0, HEIGHT // 2, WIDTH, HEIGHT)
    for rect in (top, top, bottom, bottom, top, bottom):
        assert _count(device, rect=rect) == _oracle(device, rect=rect)
    assert set(device._count_indexes) == {top, bottom}


def test_two_rect_count_quad():
    """A ``count=`` quad with a partial last row is two rects, each
    with its own index."""
    device = _device()
    count = WIDTH * 5 + 7
    rects = [Rect(0, 0, WIDTH, 5), Rect(0, 5, 7, 6)]
    expected = sum(_oracle(device, rect=rect) for rect in rects)
    assert [_count(device, count=count) for _ in range(4)] == [expected] * 4
    assert set(device._count_indexes) == set(rects)


def test_context_switch_between_sessions_with_different_masks():
    """Two sessions on one device make one stencil write and one depth
    write each, with different masks and depths: equal generations
    within each band, different buffers.  Fails when every context's
    generations start at 0 instead of its own band
    (``VirtualContext.__init__``)."""
    device = Device(HEIGHT, WIDTH, jit=True)
    scheduler = ContextScheduler(device)
    sessions = [scheduler.default, scheduler.create("b")]
    counts = []
    for number, session in enumerate(sessions):
        scheduler.activate(session)
        _stencil_write(device, count=(number + 1) * WIDTH * 3)
        _depth_write(device, 0.2 + 0.5 * number)
        _count_state(device, func=CompareFunc.LEQUAL)
        counts.append([_count(device, 0.4) for _ in range(3)])
        assert counts[-1] == [_oracle(device, 0.4)] * 3
    assert counts[0] != counts[1]
    scheduler.activate(sessions[0])
    _count_state(device, func=CompareFunc.LEQUAL)
    assert _count(device, 0.4) == counts[0][0]


def test_fault_between_passes():
    """An injected fault on an indexed pass still fires, leaves no
    ``PassStats`` and no occlusion count, and the counts after it are
    right.  Fails when an indexed count is answered ahead of
    ``render_quad``'s deadline and fault checks."""
    device = _device()
    _indexed(device)
    passes = len(device.stats.passes)
    plan = FaultPlan([FaultRule(FaultKind.DEVICE_LOST, max_fires=1)])
    query = device.begin_query()
    with use_faults(plan), pytest.raises(DeviceLostError):
        device.render_quad(0.5)
    device.abort_query()
    assert query.result() == 0
    assert len(device.stats.passes) == passes
    assert _count(device) == _oracle(device)
    assert _count(device, 0.9) == _oracle(device, 0.9)


def test_engine_retry_after_fault_mid_search():
    """A median whose search loses the device mid-way retries from
    scratch and returns the fault-free answer with the fault-free
    passes."""
    rng = np.random.default_rng(3)
    relation = Relation("r", [
        Column.integer("a", rng.integers(0, 1 << 12, 3000), bits=12),
    ])
    clean = GpuEngine(relation, jit=True)
    expected = clean.median("a")
    passes = clean.device.stats.passes
    plan = FaultPlan(
        [FaultRule(FaultKind.DEVICE_LOST, start_after=6, max_fires=1)]
    )
    engine = GpuEngine(
        relation, jit=True, executor=ResilientExecutor(stats=plan.stats)
    )
    with use_faults(plan):
        result = engine.median("a")
    assert plan.fired(FaultKind.DEVICE_LOST) == 1
    assert result.value == expected.value
    retried = engine.device.stats.passes[-len(passes):]
    strip = ("index",)
    assert [
        {k: v for k, v in dataclasses.asdict(p).items() if k not in strip}
        for p in retried
    ] == [
        {k: v for k, v in dataclasses.asdict(p).items() if k not in strip}
        for p in passes
    ]


def test_one_off_count_builds_nothing():
    """The first pass with a key only records it: a one-off COUNT
    allocates no index."""
    device = _device()
    _count(device)
    (index,) = device._count_indexes.values()
    assert index.buffer is None and index.key is None


def test_depth_test_off_sorts_nothing():
    """A count with the depth test off needs only the survivor
    count."""
    device = _device()
    device.state.depth.enabled = False
    for _ in range(3):
        assert _count(device) == int(
            np.count_nonzero(device.framebuffer.stencil.values == 1)
        )
    (index,) = device._count_indexes.values()
    assert index.buffer is None and index.codes is None


# -- memory -------------------------------------------------------------------


def test_index_memory_is_bounded_and_reused():
    """Index bytes are at most 4 B per pixel of the cached rects, at
    most ``COUNT_INDEX_RECTS`` rects are cached, and rebuilds under new
    keys sort in the same buffer with no growth."""
    device = _device()
    rects = [Rect(0, y, WIDTH, y + 2) for y in range(0, HEIGHT, 2)]
    for rect in rects:
        for _ in range(3):
            _count(device, rect=rect)
    indexes = device._count_indexes
    assert len(indexes) == COUNT_INDEX_RECTS
    assert set(indexes) == set(rects[-COUNT_INDEX_RECTS:])
    for rect, index in indexes.items():
        assert index.buffer.nbytes <= 4 * rect.num_pixels
        assert np.shares_memory(index.codes, index.buffer)

    rect = rects[-1]
    buffer = indexes[rect].buffer

    def rebuild():
        # A stencil write that changes no value still moves the
        # generation: the next key is new and the index is rebuilt.
        device.state.stencil.zpass = StencilOp.KEEP
        device.clear_stencil(1)
        _count_state(device)
        _count(device, rect=rect)
        _count(device, rect=rect)
        assert indexes[rect].buffer is buffer

    with _disarmed():
        rebuild()
        tracemalloc.start()
        try:
            rebuild()
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(20):
                rebuild()
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
    assert after - before < 16 * 1024


# -- the sanitizer's audit ----------------------------------------------------


def _stale(device):
    """Change stored codes behind the device's back: no generation
    moves, so the index still holds its key."""
    device.framebuffer.depth.codes[:] = DEPTH_MAX_CODE


def test_audit_raises_h111_on_a_stale_index():
    device = _device()
    _indexed(device)
    _stale(device)
    with use_sanitizer(), pytest.raises(StaleMemoError) as excinfo:
        _count(device)
    assert excinfo.value.memo == "count-index"
    assert "H111 stale-memo" in str(excinfo.value)
    assert excinfo.value.key[1:3] == (
        device.depth_generation, device.stencil_generation
    )
    assert "H111" in [rule.code for rule in HAZARD_RULES]


def test_audit_off_serves_the_index():
    """Without the sanitizer the same stale write goes unnoticed: the
    audit is what catches a buffer written without its generation."""
    device = _device()
    with _disarmed():
        _indexed(device)
        served = _count(device)
        _stale(device)
        assert _count(device) == served != _oracle(device)


def test_audit_passes_on_fresh_indexes():
    device = _device()
    with use_sanitizer():
        for depth in (0.1, 0.5, 0.9, 0.5):
            assert _count(device, depth) == _oracle(device, depth)
