"""The pass walker: run a lowered :class:`~repro.plan.passes.PassSchedule`
node by node.

Selections, selectivity sweeps, histograms, COUNT(*) and the WHERE
prefix of every aggregate execute here, from the nodes
:mod:`repro.plan.compiler` lowers and the verifier checks — the EvalCNF
{0, 1, 2} ping-pong and the EvalDNF bit planes exist only as those
nodes' stencil rules.  Per node:

* :class:`~repro.plan.passes.ClearStencilPass` — clear the stencil;
* :class:`~repro.plan.passes.CopyDepthPass` — ``engine.ensure_depth``,
  which the depth cache can still elide across operations;
* :class:`~repro.plan.passes.CompareQuadPass` — routine 4.1's
  comparison, 4.4's depth-bounds range, 4.2's semi-linear program or
  the polynomial extension, under the node's stencil rule with colour
  writes off (a predicate-less quad renders stencil-only);
* :class:`~repro.plan.passes.StencilCNFPass` — one stencil-only quad;
* :class:`~repro.plan.passes.OcclusionCountPass` — the harvest,
  pipelined when ``batched``.

Counted quads render inside an occlusion query; the walker returns the
harvested counts in order.
"""

from __future__ import annotations

import dataclasses

from ..plan.passes import (
    ClearStencilPass,
    CopyDepthPass,
    OcclusionCountPass,
    StencilRule,
)
from .compare import compare_pass
from .polynomial import Polynomial, polynomial_pass
from .predicates import Between, Comparison
from .range_query import range_pass
from .semilinear import semilinear_pass

_RULE_FIELDS = tuple(field.name for field in dataclasses.fields(StencilRule))
_NO_COLOR = (False, False, False, False)


def run_passes(engine, nodes) -> list[int]:
    """Run ``nodes`` on ``engine``'s device; return the occlusion counts
    their harvests read, in harvest order."""
    device = engine.device
    state = device.state
    records = engine.relation.num_records
    pending: list = []
    counts: list[int] = []
    for node in nodes:
        if isinstance(node, ClearStencilPass):
            device.clear_stencil(node.value)
            continue
        if isinstance(node, CopyDepthPass):
            engine.ensure_depth(node.column)
            continue
        if isinstance(node, OcclusionCountPass):
            batch = pending[:node.queries]
            del pending[:node.queries]
            for index, query in enumerate(batch):
                synchronous = not node.batched or index == len(batch) - 1
                counts.append(query.result(synchronous=synchronous))
            continue
        render = _quad(engine, getattr(node, "predicate", None), records)
        state.color_mask = _NO_COLOR
        stencil = state.stencil
        for name in _RULE_FIELDS:
            setattr(stencil, name, getattr(node.stencil, name))
        if not node.counted:
            render()
            continue
        query = device.begin_query()
        render()
        device.end_query()
        pending.append(query)
    return counts


def _quad(engine, predicate, records: int):
    """The render call for one quad, its inputs resolved up front."""
    device = engine.device
    if predicate is None:
        state = device.state

        def stencil_only() -> None:
            state.alpha.enabled = False
            state.depth.enabled = False
            state.depth_bounds.enabled = False
            device.render_quad(0.0, count=records)

        return stencil_only
    if isinstance(predicate, (Comparison, Between)):
        column = engine.relation.column(predicate.column)

        def depth_of(value: float) -> float:
            return column.normalize(column.clamp_to_domain(value))

        if isinstance(predicate, Comparison):
            depth = depth_of(predicate.value)
            return lambda: compare_pass(device, predicate.op, depth, records)
        low, high = depth_of(predicate.low), depth_of(predicate.high)
        return lambda: range_pass(device, low, high, records)
    texture = engine.packed_texture(predicate.columns)
    if isinstance(predicate, Polynomial):
        return lambda: polynomial_pass(device, texture, predicate)
    return lambda: semilinear_pass(
        device, texture, predicate.coefficients, predicate.op,
        predicate.constant,
    )
