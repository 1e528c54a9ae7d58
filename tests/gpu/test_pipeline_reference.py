"""Differential test: the rect-view pipeline against a fancy-indexed
reference.

:class:`ReferenceDevice` runs every pass through the earlier
implementation of ``Device._draw``: linear pixel indices, per-fragment
gathers and scatters into the flat buffers, an int64 stencil reference
array and a depth code quantized per fragment.  Hypothesis draws small
screens, quad shapes, the whole fixed-function state space and a set of
the library's programs on both backends, with quad and stored colors
that include NaN payloads, signed zeros and infinities.  The two
devices must agree bit for bit on every buffer, every ``PassStats``
field, the occlusion count and the generation counters.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.gpu import CompareFunc, Device, StencilOp, Texture
from repro.gpu.counters import PassStats
from repro.gpu.framebuffer import depth_to_code
from repro.gpu.interpreter import FragmentAttrib, ProgramInterpreter
from repro.gpu.jit import live_color
from repro.gpu.programs import (
    copy_to_depth_program,
    passthrough_program,
)
from repro.gpu.programs import test_bit_kil_program as bit_kil_program
from repro.gpu.programs import test_bit_program as bit_program
from repro.gpu.raster import Rect, rasterize_rect
from repro.gpu.types import DEPTH_MAX_CODE


def _linear_indices(rect: Rect, screen_width: int) -> np.ndarray:
    xs = np.arange(rect.x0, rect.x1, dtype=np.int64)
    ys = np.arange(rect.y0, rect.y1, dtype=np.int64)
    grid_y, grid_x = np.meshgrid(ys, xs, indexing="ij")
    return (grid_y * screen_width + grid_x).ravel()


class ReferenceDevice(Device):
    """A device whose passes gather and scatter through linear pixel
    indices (the oracle for the rect-view pipeline)."""

    def _draw(
        self, rect: Rect, depth: float, color, stats: PassStats
    ) -> None:
        self.state.validate()
        fb = self.framebuffer
        indices = _linear_indices(rect, fb.width)
        batch = rasterize_rect(
            rect, fb.width, fb.height, depth, tuple(color)
        )
        stats.fragments += batch.count

        state = self.state

        # Stage 1: fragment program (or fixed-function passthrough).
        if self._program is not None:
            if self.jit:
                kernel = self.kernels.get_or_bind(
                    self._program,
                    live_color(state),
                    self._textures,
                    self._parameters,
                )
                result = kernel.run(batch)
            else:
                interpreter = ProgramInterpreter(
                    self._textures, self._parameters
                )
                result = interpreter.run(self._program, batch)
            # The result's columns as (count, 4) rows (a component no
            # stage observes is None; it reads as zeros here) and its
            # kill mask (None without KIL: nothing killed).
            zeros = np.zeros(batch.count, dtype=np.float32)
            frag_color = np.stack(
                [zeros if c is None else c for c in result.color], axis=1
            )
            killed = (
                np.zeros(batch.count, dtype=bool)
                if result.killed is None
                else result.killed
            )
            if result.depth is not None:
                frag_depth = result.depth
            else:
                frag_depth = batch.attributes[FragmentAttrib.WPOS][:, 2]
            alive = ~killed
            stats.program = self._program.name
            stats.program_length = self._program.num_instructions
            stats.instructions_executed += result.instructions_executed
            stats.writes_depth_from_program = self._program.writes_depth
            stats.killed += int(np.count_nonzero(killed))
        else:
            frag_color = batch.attributes[FragmentAttrib.COL0]
            frag_depth = batch.attributes[FragmentAttrib.WPOS][:, 2]
            alive = np.ones(batch.count, dtype=bool)

        # Stage 2: alpha test.
        if state.alpha.enabled:
            alpha_pass = state.alpha.func.apply(
                frag_color[:, 3], np.float32(state.alpha.reference)
            )
            stats.alpha_failed += int(np.count_nonzero(alive & ~alpha_pass))
            alive = alive & alpha_pass

        # Stage 3: stencil test.
        stencil_values = fb.stencil.values[indices]
        if state.stencil.enabled:
            masked_ref = np.full(
                batch.count,
                state.stencil.reference & state.stencil.mask,
                dtype=np.int64,
            )
            masked_stored = (
                stencil_values.astype(np.int64) & state.stencil.mask
            )
            stencil_pass = state.stencil.func.apply(masked_ref, masked_stored)
            sfail = alive & ~stencil_pass
            stats.stencil_failed += int(np.count_nonzero(sfail))
            self._apply_stencil_op(
                state.stencil.sfail, indices, sfail, stats
            )
            alive = alive & stencil_pass

        # Stage 4: depth-bounds test against the stored depth.
        if state.depth_bounds.enabled:
            stored = fb.depth.codes[indices]
            low = depth_to_code(state.depth_bounds.zmin)
            high = depth_to_code(state.depth_bounds.zmax)
            bounds_pass = (stored >= low) & (stored <= high)
            stats.depth_bounds_failed += int(
                np.count_nonzero(alive & ~bounds_pass)
            )
            alive = alive & bounds_pass

        # Stage 5: depth test.
        frag_codes = depth_to_code(frag_depth)
        early_z_survivors = None
        if state.depth.enabled:
            stored = fb.depth.codes[indices]
            depth_pass = state.depth.func.apply(frag_codes, stored)
            early_z_survivors = int(np.count_nonzero(depth_pass))
            zfail = alive & ~depth_pass
            stats.depth_failed += int(np.count_nonzero(zfail))
            if state.stencil.enabled:
                self._apply_stencil_op(
                    state.stencil.zfail, indices, zfail, stats
                )
            alive = alive & depth_pass
            if state.depth.write:
                writers = np.flatnonzero(alive)
                fb.depth.codes[indices[writers]] = frag_codes[writers]
                stats.depth_writes += writers.size
                if writers.size:
                    self.depth_generation += 1
        if state.stencil.enabled:
            self._apply_stencil_op(state.stencil.zpass, indices, alive, stats)

        # Stage 6: occlusion counting and color write.
        passed = int(np.count_nonzero(alive))
        stats.passed += passed
        if self._active_query is not None and self._active_query.active:
            self._active_query._add(passed)
        if any(state.color_mask):
            writers = np.flatnonzero(alive)
            for channel in range(4):
                if state.color_mask[channel]:
                    fb.color.data[indices[writers], channel] = frag_color[
                        writers, channel
                    ]
            stats.color_writes += writers.size * sum(state.color_mask)

        self._accumulate_early_z(stats, early_z_survivors, batch.count)

    def _apply_stencil_op(self, op, indices, mask, stats) -> None:
        if op is StencilOp.KEEP:
            return
        targets = np.flatnonzero(mask)
        if targets.size == 0:
            return
        fb = self.framebuffer
        current = fb.stencil.values[indices[targets]]
        updated = op.apply(current, self.state.stencil.reference)
        write_mask = self.state.stencil.write_mask
        if write_mask != 0xFF:
            keep_bits = np.uint8(0xFF & ~write_mask)
            updated = (current & keep_bits) | (
                updated & np.uint8(write_mask)
            )
        fb.stencil.values[indices[targets]] = updated.astype(np.uint8)
        self.stencil_generation += 1
        stats.stencil_writes += targets.size


#: name -> (program factory, parameter p[0] for values of ``_BITS`` bits)
_BITS = 6
_PROGRAMS = {
    "none": None,
    "copy-to-depth": (copy_to_depth_program, 1.0 / (1 << _BITS)),
    "test-bit": (bit_program, 1.0 / 8),
    "test-bit-kil": (bit_kil_program, 1.0 / 4),
    "passthrough": (passthrough_program, 0.0),
}

#: Colors whose bits a masked write must move exactly: quiet NaNs of
#: both signs with a payload, both zeros and both infinities.
_SPECIAL_FLOATS = np.array(
    [0x7FC01234, 0xFFC0ABCD, 0x80000000, 0x00000000, 0x7F800000,
     0xFF800000],
    dtype=np.uint32,
).view(np.float32)
_channels = st.one_of(
    st.sampled_from(list(_SPECIAL_FLOATS)),
    st.floats(0.0, 1.0, width=32),
)

_funcs = st.sampled_from(list(CompareFunc))
_ops = st.sampled_from(list(StencilOp))
_bytes = st.integers(0, 255)


@st.composite
def _scenarios(draw):
    height = draw(st.integers(1, 5))
    width = draw(st.integers(1, 6))
    shape = draw(st.sampled_from(["full", "count", "rect"]))
    if shape == "count":
        cover = {"count": draw(st.integers(0, height * width))}
    elif shape == "rect":
        x0 = draw(st.integers(0, width))
        y0 = draw(st.integers(0, height))
        cover = {
            "rect": Rect(
                x0,
                y0,
                draw(st.integers(x0, width)),
                draw(st.integers(y0, height)),
            )
        }
    else:
        cover = {}
    zmin = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    return {
        "height": height,
        "width": width,
        "cover": cover,
        "quad_depths": draw(
            st.lists(st.floats(0.0, 1.0), min_size=1, max_size=2)
        ),
        "color": tuple(draw(st.lists(_channels, min_size=4, max_size=4))),
        "alpha": (draw(st.booleans()), draw(_funcs),
                  draw(st.floats(0.0, 1.0))),
        "stencil": (draw(st.booleans()), draw(_funcs), draw(_bytes),
                    draw(_bytes), draw(_bytes), draw(_ops), draw(_ops),
                    draw(_ops)),
        "bounds": (draw(st.booleans()), zmin,
                   draw(st.floats(zmin, 1.0))),
        "depth": (draw(st.booleans()), draw(_funcs), draw(st.booleans())),
        "color_mask": tuple(
            draw(st.lists(st.booleans(), min_size=4, max_size=4))
        ),
        "program": draw(st.sampled_from(sorted(_PROGRAMS))),
        "jit": draw(st.booleans()),
        "query": draw(st.booleans()),
        "seed": seed,
    }


#: What changes before a pass is repeated: nothing, the alpha test,
#: the program parameter, or the texels (a ``glTexSubImage2D``).
_changes = st.lists(
    st.one_of(
        st.just(("same",)),
        st.tuples(st.just("alpha"), _funcs, st.floats(0.0, 1.0)),
        st.tuples(
            st.just("param"), st.sampled_from([1 / 2, 1 / 8, 1 / 64])
        ),
        st.tuples(st.just("upload"), st.integers(0, 2**32 - 1)),
    ),
    min_size=1,
    max_size=3,
)


def _run(device_class, scenario, changes=()):
    height, width = scenario["height"], scenario["width"]
    device = device_class(height, width, jit=scenario["jit"])
    rng = np.random.default_rng(scenario["seed"])
    fb = device.framebuffer
    # Any stored stencil, half of them at or next to a saturation
    # bound, so INCR meets 255 and DECR meets 0.
    stored = rng.integers(0, 256, fb.num_pixels)
    edge = rng.random(fb.num_pixels) < 0.5
    stored[edge] = rng.choice([0, 1, 254, 255], np.count_nonzero(edge))
    fb.stencil.values[:] = stored
    # Stored depths on the grid the copy program writes, so equality
    # and bounds comparisons are exercised, plus arbitrary codes.
    grid = rng.integers(0, 1 << _BITS, fb.num_pixels).astype(np.uint32)
    fb.depth.codes[:] = np.where(
        rng.random(fb.num_pixels) < 0.5,
        grid << (24 - _BITS),
        rng.integers(0, 1 << 24, fb.num_pixels),
    )
    fb.color.data[:] = rng.random((fb.num_pixels, 4), dtype=np.float32)
    special = rng.random((fb.num_pixels, 4)) < 0.5
    fb.color.data[special] = rng.choice(
        _SPECIAL_FLOATS, np.count_nonzero(special)
    )

    state = device.state
    state.alpha.enabled, state.alpha.func, state.alpha.reference = (
        scenario["alpha"]
    )
    (
        state.stencil.enabled,
        state.stencil.func,
        state.stencil.reference,
        state.stencil.mask,
        state.stencil.write_mask,
        state.stencil.sfail,
        state.stencil.zfail,
        state.stencil.zpass,
    ) = scenario["stencil"]
    (
        state.depth_bounds.enabled,
        state.depth_bounds.zmin,
        state.depth_bounds.zmax,
    ) = scenario["bounds"]
    state.depth.enabled, state.depth.func, state.depth.write = (
        scenario["depth"]
    )
    state.color_mask = scenario["color_mask"]

    program = _PROGRAMS[scenario["program"]]
    texture = None
    if program is not None:
        factory, scale = program
        values = rng.integers(0, 1 << _BITS, (height, width))
        texture = Texture(values.astype(np.float32))
        device.bind_texture(0, texture)
        device.set_program(factory())
        device.set_program_parameter(0, scale)

    query = device.begin_query() if scenario["query"] else None
    for change in (("same",),) + tuple(changes):
        if change[0] == "alpha":
            state.alpha.func, state.alpha.reference = change[1:]
        elif change[0] == "param":
            device.set_program_parameter(0, change[1])
        elif change[0] == "upload" and texture is not None:
            texels = np.random.default_rng(change[1]).integers(
                0, 1 << _BITS, (texture.num_texels, 1)
            )
            device.upload_texels(texture, 0, texels.astype(np.float32))
        for quad_depth in scenario["quad_depths"]:
            device.render_quad(
                quad_depth, color=scenario["color"], **scenario["cover"]
            )
    occlusion = None
    if query is not None:
        device.end_query()
        occlusion = query.result()
    return device, occlusion


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenario=_scenarios())
def test_rect_views_match_fancy_indexed_reference(scenario):
    _assert_matches_reference(scenario)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenario=_scenarios(), changes=_changes)
def test_repeated_passes_match_reference(scenario, changes):
    """The scenario's passes again after each change — none, the alpha
    test, the parameter or the texels — on the JIT: a repeat may be
    served from the kernel's stage memo and a change must invalidate
    it, while the reference runs every program."""
    _assert_matches_reference(dict(scenario, jit=True), changes)


def _assert_matches_reference(scenario, changes=()):
    device, occlusion = _run(Device, scenario, changes)
    reference, expected_occlusion = _run(ReferenceDevice, scenario, changes)
    fb, ref_fb = device.framebuffer, reference.framebuffer
    assert np.array_equal(
        fb.color.data.view(np.uint32), ref_fb.color.data.view(np.uint32)
    )
    assert np.array_equal(fb.depth.codes, ref_fb.depth.codes)
    assert np.array_equal(fb.stencil.values, ref_fb.stencil.values)
    assert [dataclasses.asdict(p) for p in device.stats.passes] == [
        dataclasses.asdict(p) for p in reference.stats.passes
    ]
    assert occlusion == expected_occlusion
    assert device.stencil_generation == reference.stencil_generation
    assert device.depth_generation == reference.depth_generation


# -- count-only passes: the device's sorted index of survivor codes ----------

#: Stored codes a count pass meets at both ends of the depth range.
_EDGE_CODES = np.array([0, 1, 1 << 23, DEPTH_MAX_CODE - 1, DEPTH_MAX_CODE])
#: Quad depths whose codes are 0, DEPTH_MAX_CODE and one in between.
_EDGE_DEPTHS = (0.0, 1.0, 0.5)


def _count_device(device_class, height, width, jit, seed):
    """A device with scattered stencil values in {0, 1, 2} and stored
    codes drawn from the ends of the range and the whole of it."""
    device = device_class(height, width, jit=jit)
    rng = np.random.default_rng(seed)
    fb = device.framebuffer
    fb.stencil.values[:] = rng.integers(0, 3, fb.num_pixels)
    fb.depth.codes[:] = np.where(
        rng.random(fb.num_pixels) < 0.5,
        rng.choice(_EDGE_CODES, fb.num_pixels),
        rng.integers(0, DEPTH_MAX_CODE + 1, fb.num_pixels),
    )
    return device


def _count_state(state, func, stencil=(True, CompareFunc.EQUAL, 1, 0xFF)):
    """A count-only pass: Routine 4.5's comparison quad."""
    state.reset()
    state.color_mask = (False, False, False, False)
    (
        state.stencil.enabled,
        state.stencil.func,
        state.stencil.reference,
        state.stencil.mask,
    ) = stencil
    state.depth.enabled = func is not None
    state.depth.func = func if func is not None else CompareFunc.LESS
    state.depth.write = False


def _counted(device, depth, cover):
    query = device.begin_query()
    device.render_quad(depth, **cover)
    device.end_query()
    return query.result()


#: One step of a count sequence: a count pass (repeated), or something
#: that changes what the next count must see.
_count_steps = st.one_of(
    st.tuples(
        st.just("count"),
        st.one_of(st.none(), _funcs),
        st.one_of(st.sampled_from(_EDGE_DEPTHS), st.floats(0.0, 1.0)),
        st.integers(1, 3),
    ),
    st.tuples(st.just("stencil-test"), _funcs, st.integers(0, 3),
              st.sampled_from([0xFF, 0x01, 0x02, 0x00])),
    st.tuples(st.just("depth-write"), st.floats(0.0, 1.0)),
    st.tuples(st.just("copy"), st.integers(0, 2**32 - 1)),
    st.tuples(st.just("stencil-write"), _ops, st.integers(0, 3)),
    st.sampled_from(
        [("clear",), ("clear-depth",), ("clear-stencil",)]
    ),
)


def _run_counts(device_class, scenario):
    height, width = scenario["height"], scenario["width"]
    device = _count_device(
        device_class, height, width, scenario["jit"], scenario["seed"]
    )
    cover = scenario["cover"]
    stencil = (True, CompareFunc.EQUAL, 1, 0xFF)
    func = CompareFunc.GEQUAL
    counts = []
    for step in scenario["steps"]:
        kind = step[0]
        if kind == "count":
            _, func, depth, repeats = step
            _count_state(device.state, func, stencil)
            counts += [_counted(device, depth, cover) for _ in range(repeats)]
        elif kind == "stencil-test":
            stencil = (True,) + step[1:]
        elif kind == "depth-write":
            # Depth test ALWAYS with the write on: the quad depth lands
            # on the stencil-passing fragments.
            _count_state(device.state, CompareFunc.ALWAYS, stencil)
            device.state.depth.write = True
            device.render_quad(step[1], **cover)
        elif kind == "copy":
            values = np.random.default_rng(step[1]).integers(
                0, 1 << _BITS, (height, width)
            )
            device.state.reset()
            device.state.color_mask = (False, False, False, False)
            device.state.depth.enabled = True
            device.state.depth.func = CompareFunc.ALWAYS
            device.bind_texture(0, Texture(values.astype(np.float32)))
            device.set_program(copy_to_depth_program())
            device.set_program_parameter(0, 1.0 / (1 << _BITS))
            device.render_quad(0.0, **cover)
            device.set_program(None)
        elif kind == "stencil-write":
            _count_state(device.state, None, (True, CompareFunc.ALWAYS,
                                              step[2], 0xFF))
            device.state.stencil.zpass = step[1]
            device.render_quad(0.0, **cover)
        elif kind == "clear":
            device.clear(stencil=1)
        elif kind == "clear-depth":
            device.clear_depth(0.5)
        else:
            device.clear_stencil(1)
    return device, counts


@st.composite
def _count_scenarios(draw):
    height = draw(st.integers(1, 5))
    width = draw(st.integers(1, 6))
    # Two rects when the count leaves a partial row.
    cover = draw(st.sampled_from(["full", "count"]))
    return {
        "height": height,
        "width": width,
        "cover": (
            {"count": draw(st.integers(0, height * width))}
            if cover == "count"
            else {}
        ),
        "steps": draw(st.lists(_count_steps, min_size=1, max_size=8)),
        "jit": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def _assert_same_device(device, counts, reference, expected):
    fb, ref_fb = device.framebuffer, reference.framebuffer
    assert counts == expected
    assert np.array_equal(fb.depth.codes, ref_fb.depth.codes)
    assert np.array_equal(fb.stencil.values, ref_fb.stencil.values)
    assert [dataclasses.asdict(p) for p in device.stats.passes] == [
        dataclasses.asdict(p) for p in reference.stats.passes
    ]
    assert device.stencil_generation == reference.stencil_generation
    assert device.depth_generation == reference.depth_generation


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenario=_count_scenarios())
def test_repeated_counts_match_reference(scenario):
    """Repeated count-only passes, which the device answers from its
    index from the second pass on, interleaved with depth writes,
    program copies, stencil writes, stencil-test changes, clears and
    depth-func changes: every count, buffer and ``PassStats`` equals
    the reference's, and JIT and interpreter devices agree."""
    device, counts = _run_counts(Device, scenario)
    reference, expected = _run_counts(ReferenceDevice, scenario)
    _assert_same_device(device, counts, reference, expected)
    other, other_counts = _run_counts(
        Device, dict(scenario, jit=not scenario["jit"])
    )
    _assert_same_device(other, other_counts, device, counts)


@pytest.mark.parametrize("func", list(CompareFunc))
@pytest.mark.parametrize("depth", _EDGE_DEPTHS)
@pytest.mark.parametrize(
    "cover", [{}, {"count": 4 * 7 + 3}], ids=["full", "two-rects"]
)
def test_every_depth_func_at_the_code_range_ends(func, depth, cover):
    """Each ``CompareFunc`` against stored codes at 0 and
    ``DEPTH_MAX_CODE``, with the quad at code 0, the largest code and
    one between, on one rect and on a two-rect ``count=`` quad: the
    first pass runs the stages, the second builds the index, the rest
    search it."""
    scenario = {
        "height": 5,
        "width": 7,
        "cover": cover,
        "steps": [("count", func, depth, 4)],
        "jit": True,
        "seed": 23,
    }
    device, counts = _run_counts(Device, scenario)
    reference, expected = _run_counts(ReferenceDevice, scenario)
    _assert_same_device(device, counts, reference, expected)
    assert len(set(counts)) == 1


@pytest.mark.parametrize(
    "change",
    [
        ("depth-write", 0.3),
        ("copy", 17),
        ("stencil-write", StencilOp.REPLACE, 1),
        ("stencil-write", StencilOp.INCR, 0),
        ("stencil-test", CompareFunc.EQUAL, 2, 0xFF),
        ("stencil-test", CompareFunc.EQUAL, 1, 0x02),
        ("count", CompareFunc.LESS, 0.5, 2),
        ("clear",),
        ("clear-depth",),
        ("clear-stencil",),
    ],
    ids=lambda change: "-".join(str(part) for part in change),
)
@pytest.mark.parametrize(
    "cover", [{}, {"count": 4 * 7 + 3}], ids=["full", "two-rects"]
)
def test_counts_around_each_change_match_reference(change, cover):
    """Indexed counts, one change, then counts again: the change must
    reach the counts after it.  On this seed every buffer or stencil
    change moves the count; the depth-func change is searched in the
    same index."""
    count = ("count", CompareFunc.GEQUAL, 0.5, 3)
    scenario = {
        "height": 5,
        "width": 7,
        "cover": cover,
        "steps": [count, change, count],
        "jit": False,
        "seed": 2,
    }
    device, counts = _run_counts(Device, scenario)
    reference, expected = _run_counts(ReferenceDevice, scenario)
    _assert_same_device(device, counts, reference, expected)
    if change[0] != "count":
        assert expected[0] != expected[-1]
