"""Routine 4.1: ``Compare`` / ``CopyToDepth``.

A predicate ``attribute op constant`` is evaluated by (1) copying the
attribute values into the depth buffer with a three-instruction fragment
program and (2) rendering a screen-filling quad at the constant's
normalized depth with the depth test configured appropriately.

Operator orientation: the OpenGL depth test passes when
``fragment_depth func stored_depth``.  The fragment depth carries the
*constant* and the stored depth carries the *attribute*, so a predicate
``attribute op constant`` renders with ``func = op.swap()``
(e.g. ``attribute >= c``  ⇔  ``c <= attribute``  ⇒  ``LEQUAL``).
"""

from __future__ import annotations


from functools import lru_cache

from ..errors import QueryError
from ..faults import SITE_DEPTH_COPY, maybe_inject
from ..gpu.pipeline import Device
from ..gpu.programs import copy_to_depth_program
from ..gpu.state import RenderState
from ..gpu.texture import Texture
from ..gpu.types import CompareFunc


@lru_cache(maxsize=8)
def _copy_program(channel: int):
    return copy_to_depth_program(channel)


def copy_to_depth_state(state: RenderState) -> None:
    """The fixed-function state of a ``CopyToDepth`` pass (stencil
    aside): color writes and the alpha and depth-bounds tests off, an
    always-passing depth test that writes."""
    state.alpha.enabled = False
    state.depth_bounds.enabled = False
    state.color_mask = (False, False, False, False)
    state.depth.enabled = True
    state.depth.func = CompareFunc.ALWAYS
    state.depth.write = True


def copy_to_depth(
    device: Device,
    texture: Texture,
    scale: float,
    channel: int = 0,
) -> None:
    """``CopyToDepth``: route attribute values into the depth buffer.

    Disables every test so all valid texels are written; leaves the
    device with no program bound, depth writes off, and the depth test
    enabled (ready for comparison quads).
    """
    maybe_inject(SITE_DEPTH_COPY, tracer=device.tracer)
    state = device.state
    # Restore in place: callers (e.g. EvalCNF's clause loop) hold live
    # references to the stencil-state object, so it must not be replaced.
    stencil_was_enabled = state.stencil.enabled
    state.stencil.enabled = False
    copy_to_depth_state(state)

    device.set_program(_copy_program(channel))
    try:
        device.set_program_parameter(0, scale)
        device.render_textured_quad(texture)
    finally:
        # Also on a fault: a program left bound would run under the
        # next fixed-function quad, e.g. another context's comparison
        # whose depth cache skips this copy.
        device.set_program(None)
        state.depth.write = False
        state.stencil.enabled = stencil_was_enabled


def compare_pass(
    device: Device,
    op: CompareFunc,
    constant_depth: float,
    count: int,
) -> None:
    """Render the comparison quad of ``Compare`` (line 3 of routine 4.1).

    Assumes the attribute already sits in the depth buffer.  Fragments
    for which ``attribute op constant`` holds pass the depth test; the
    caller decides what passing means (stencil op, occlusion count).
    """
    if op in (CompareFunc.NEVER, CompareFunc.ALWAYS):
        raise QueryError("comparison passes need a value operator")
    state = device.state
    state.depth.enabled = True
    state.depth.func = op.swap()
    state.depth.write = False
    state.depth_bounds.enabled = False
    device.render_quad(constant_depth, count=count)


def compare(
    device: Device,
    texture: Texture,
    op: CompareFunc,
    constant_depth: float,
    scale: float,
    channel: int = 0,
) -> None:
    """Full routine 4.1: copy then compare.  Stencil/occlusion recording
    is configured by the caller before invoking."""
    copy_to_depth(device, texture, scale, channel=channel)
    compare_pass(device, op, constant_depth, texture.count)
