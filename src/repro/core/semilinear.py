"""Routine 4.2: ``Semilinear`` — semi-linear queries on the fragment
processors.

``dot(s, a) op b`` is evaluated entirely inside a fragment program: the
attributes of a record live in the channels of one RGBA texel, the
program computes the dot product with the coefficient vector in a single
``DP4``, and ``KIL`` discards fragments that fail the comparison.  No
depth copy is needed, which is why this is the paper's best case
(~one order of magnitude, figure 6) — it exercises both the parallel
pixel engines *and* their vector units.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..errors import QueryError
from ..gpu.pipeline import Device
from ..gpu.programs import semilinear_program
from ..gpu.texture import Texture
from ..gpu.types import CompareFunc


@lru_cache(maxsize=16)
def _program(op: CompareFunc):
    return semilinear_program(op)


def semilinear_pass(
    device: Device,
    texture: Texture,
    coefficients,
    op: CompareFunc,
    constant: float,
) -> None:
    """Render one quad running ``SemilinearFP``.

    Fragments satisfying ``dot(coefficients, texel) op constant`` survive
    the program's ``KIL`` and reach the stencil stage; the caller
    configures what happens to them (stencil stamp, occlusion count).
    Coefficients beyond the texture's channel count must be zero.
    """
    coefficients = np.asarray(coefficients, dtype=np.float32).ravel()
    if coefficients.size > 4:
        raise QueryError(
            f"semi-linear queries take at most 4 coefficients, "
            f"got {coefficients.size}"
        )
    padded = np.zeros(4, dtype=np.float32)
    padded[: coefficients.size] = coefficients
    if texture.channels < 4:
        # Missing channels read as 0/1 per the texture fetch convention;
        # a non-zero alpha coefficient would silently pick up the 1.0
        # fill value, so reject it.
        if texture.channels < coefficients.size:
            raise QueryError(
                f"texture has {texture.channels} channels but "
                f"{coefficients.size} coefficients were given"
            )
        # Exact-zero sentinel on a user-supplied coefficient, not an
        # encoded value.  # repro-lint: disable=float-eq
        if padded[3] != 0.0 and texture.channels < 4:
            raise QueryError(
                "alpha-channel coefficient requires a 4-channel texture"
            )

    state = device.state
    state.depth.enabled = False
    state.depth_bounds.enabled = False
    state.alpha.enabled = False
    device.set_program(_program(op))
    try:
        device.set_program_parameter(0, padded)
        device.set_program_parameter(1, float(constant))
        device.render_textured_quad(texture)
    finally:
        device.set_program(None)


def semilinear_count(
    device: Device,
    texture: Texture,
    coefficients,
    op: CompareFunc,
    constant: float,
) -> int:
    """Count the records satisfying the semi-linear query (occlusion
    query around a single ``SemilinearFP`` pass)."""
    state = device.state
    state.stencil.enabled = False
    state.color_mask = (False, False, False, False)
    query = device.begin_query()
    semilinear_pass(device, texture, coefficients, op, constant)
    device.end_query()
    return query.result(synchronous=True)
