"""Routine 4.4 (Range via the depth-bounds test)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Between, Column, GpuEngine, Relation
from repro.core.range_query import range_pass
from repro.core.select import run_passes
from repro.errors import QueryError
from repro.gpu import Device, Texture
from repro.plan.compiler import lower_select

BITS = 10


def _engine(values):
    relation = Relation(
        "r", [Column.integer("v", np.asarray(values), bits=BITS)]
    )
    return GpuEngine(relation)


def _setup(values):
    values = np.asarray(values)
    side = int(np.ceil(np.sqrt(values.size)))
    device = Device(side, side)
    texture = Texture.from_values(values, shape=(side, side))
    return device, texture


class TestRangeSelect:
    """A ``Between`` selection: stencil clear, copy-to-depth and one
    depth-bounds quad."""

    def test_count_matches_numpy(self):
        values = np.random.default_rng(4).integers(0, 1 << BITS, 300)
        count = _engine(values).select(Between("v", 200, 700)).count
        assert count == int(
            np.count_nonzero((values >= 200) & (values <= 700))
        )

    def test_stencil_mask_set_for_matches(self):
        values = np.array([10, 300, 600, 1000])
        engine = _engine(values)
        engine.select(Between("v", 200, 700))
        stencil = engine.device.framebuffer.stencil.values[:4]
        assert np.array_equal(stencil, [0, 1, 1, 0])

    @given(
        values=st.lists(
            st.integers(0, (1 << BITS) - 1), min_size=1, max_size=80
        ),
        low=st.integers(0, (1 << BITS) - 1),
        span=st.integers(0, (1 << BITS) - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_inclusive_bounds(self, values, low, span):
        high = min(low + span, (1 << BITS) - 1)
        array = np.array(values)
        count = _engine(array).select(Between("v", low, high)).count
        assert count == int(
            np.count_nonzero((array >= low) & (array <= high))
        )

    def test_degenerate_range_is_equality(self):
        values = np.array([5, 7, 7, 9])
        assert _engine(values).select(Between("v", 7, 7)).count == 2

    def test_single_pass_after_copy(self):
        result = _engine(np.arange(16)).select(Between("v", 0, 512))
        # copy pass + exactly one range pass, regardless of the two
        # predicates in the range (the paper's headline for Routine 4.4).
        non_copy = [
            p
            for p in result.stats.passes
            if not (p.program or "").startswith("copy-to-depth")
        ]
        assert len(non_copy) == 1

    def test_inverted_bounds_rejected(self):
        with pytest.raises(QueryError):
            Between("v", 700, 300)
        device, _texture = _setup(np.zeros(4))
        with pytest.raises(QueryError):
            range_pass(device, 0.7, 0.3, 4)


class TestSetupStencil:
    def test_clears_and_configures(self):
        engine = _engine(np.arange(4))
        engine.device.framebuffer.stencil.values[:] = 9
        nodes = lower_select(engine.relation, Between("v", 1, 2)).nodes
        run_passes(engine, nodes[:1])  # SetupStencil's clear
        assert np.all(engine.device.framebuffer.stencil.values == 0)
        run_passes(engine, nodes[1:])
        assert engine.device.state.stencil.enabled
        assert engine.device.state.stencil.reference == 1
