"""Routine 4.4: ``Range`` — single-pass range queries via the
depth-bounds test.

A range predicate ``low <= x <= high`` could be evaluated as a two-clause
CNF, but ``GL_EXT_depth_bounds_test`` tests the *stored* depth value
against an interval in one pass, so "the computational time ... is
comparable to the time required in evaluating a single predicate"
(section 4.2).  The depth-bounds path is the paper's headline 40x
compute-only win (figure 4); the EvalCNF fallback is kept for the
ablation benchmark.  A range selection lowers to a stencil clear, the
copy-to-depth and this one quad (:mod:`repro.plan.compiler`).
"""

from __future__ import annotations

from ..errors import QueryError
from ..gpu.pipeline import Device


def range_pass(
    device: Device,
    low_depth: float,
    high_depth: float,
    count: int,
) -> None:
    """Lines 3-6 of routine 4.4: enable the depth-bounds test over
    ``[low, high]`` and render one quad.  Fragments whose *stored* depth
    (the attribute value) falls inside the bounds survive; the rest are
    discarded before any buffer update."""
    if low_depth > high_depth:
        raise QueryError(
            f"range bounds inverted: [{low_depth}, {high_depth}]"
        )
    state = device.state
    state.depth.enabled = False
    state.depth_bounds.enabled = True
    state.depth_bounds.zmin = low_depth
    state.depth_bounds.zmax = high_depth
    device.render_quad(low_depth, count=count)
    state.depth_bounds.enabled = False

