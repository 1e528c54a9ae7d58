"""Section 4.3: aggregations — COUNT, MIN, MAX, k-th largest, SUM, AVG.

All of these reduce to *counting with occlusion queries*:

* ``COUNT`` is one occlusion-counted selection pass.
* ``KthLargest`` (routine 4.5) binary-searches the value bit by bit:
  pass ``i`` counts the records ``>= x + 2**i`` and Lemma 1 decides the
  bit.  ``b_max`` passes, no data rearrangement, constant in ``k``.
  :func:`bit_search` is that loop over any count function; MIN, MAX,
  the median, the k-th smallest, quantiles and the top-k threshold are
  the same search at the rank :func:`order_targets` picks.
* ``Accumulator`` (routine 4.6) sums by bit-slicing:
  ``sum = Σ_i 2**i · #{records with bit i set}``, where the per-bit count
  comes from the ``TestBit`` fragment program + alpha test + occlusion
  query.  Exact for any integer data — unlike float mipmap reduction
  (:func:`mipmap_sum`), which is kept as the paper's inexact strawman.
  AVG is the Accumulator's sum over the COUNT.

Each routine accepts an optional ``valid_stencil`` so it aggregates only
records selected by an earlier query: the stencil test rejects
non-selected fragments and, with all stencil ops ``KEEP``, the selection
mask survives unchanged (paper sections 4.3.3 and 5.9 test 3).
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from ..errors import QueryError
from ..gpu.pipeline import Device
from ..gpu.programs import test_bit_kil_program, test_bit_program
from ..gpu.state import RenderState
from ..gpu.texture import Texture
from ..gpu.types import STENCIL_MAX, CompareFunc, StencilOp
from .compare import compare_pass, copy_to_depth


def _configure_valid_stencil(device: Device, valid_stencil: int | None):
    """Restrict all subsequent passes to records whose stencil equals
    ``valid_stencil``, without modifying the mask."""
    stencil = device.state.stencil
    if valid_stencil is None:
        stencil.enabled = False
        return
    stencil.enabled = True
    stencil.func = CompareFunc.EQUAL
    stencil.reference = valid_stencil
    stencil.mask = STENCIL_MAX
    stencil.write_mask = STENCIL_MAX
    stencil.sfail = StencilOp.KEEP
    stencil.zfail = StencilOp.KEEP
    stencil.zpass = StencilOp.KEEP


def count_valid(
    device: Device, count: int, valid_stencil: int | None = None
) -> int:
    """COUNT: one occlusion-counted full-screen pass over the selection
    (section 4.3.1)."""
    device.state.color_mask = (False, False, False, False)
    _configure_valid_stencil(device, valid_stencil)
    device.state.depth.enabled = False
    device.state.depth_bounds.enabled = False
    device.state.alpha.enabled = False
    query = device.begin_query()
    device.render_quad(0.0, count=count)
    device.end_query()
    return query.result(synchronous=True)


def bit_search(
    count_at_least: Callable[[int], int], bits: int, k: int
) -> int:
    """Routine 4.5's bit-wise binary search for the k-th largest of a
    ``bits``-bit integer attribute, MSB first.

    ``count_at_least(x)`` returns how many valid records hold a value
    ``>= x`` — one occlusion-counted comparison quad on a single device
    (:func:`count_at_least`), or one such quad per shard with the counts
    summed for the sharded engine.  Every order statistic is this loop
    at the rank :func:`order_targets` picks.
    """
    x = 0
    for i in range(bits - 1, -1, -1):
        tentative = x + (1 << i)
        # Lemma 1: count > k-1  =>  tentative <= v_k, keep the bit.
        if count_at_least(tentative) > k - 1:
            x = tentative
    return x


def count_at_least(
    device: Device, texture: Texture, bits: int, value: int
) -> int:
    """One occlusion-counted quad: the valid records whose attribute
    (already in the depth buffer) is ``>= value``.  Retrieved
    synchronously — the search's next bit depends on it."""
    query = device.begin_query()
    # attribute >= value  <=>  value <= attribute
    compare_pass(
        device, CompareFunc.GEQUAL, value / float(1 << bits),
        texture.count,
    )
    device.end_query()
    return query.result(synchronous=True)


def prepare_search(
    device: Device,
    texture: Texture,
    scale: float,
    channel: int = 0,
    valid_stencil: int | None = None,
    skip_copy: bool = False,
) -> None:
    """Arm the device for :func:`count_at_least` quads: color writes
    off, the attribute copied to the depth buffer (unless ``skip_copy``
    asserts it is already there) and the valid-stencil test set."""
    device.state.color_mask = (False, False, False, False)
    if not skip_copy:
        copy_to_depth(device, texture, scale, channel=channel)
    _configure_valid_stencil(device, valid_stencil)


def kth_largest(
    device: Device,
    texture: Texture,
    bits: int,
    k: int,
    scale: float,
    channel: int = 0,
    valid_stencil: int | None = None,
    skip_copy: bool = False,
) -> int:
    """Routine 4.5 on one device: the k-th largest value of a
    ``bits``-bit integer attribute, via one depth copy and ``bits``
    counting passes.

    Returns the integer value.  ``k`` counts from 1 (the maximum).
    ``skip_copy=True`` asserts the attribute already sits in the depth
    buffer (the engine's plan cache proved it) and elides the copy.
    """
    if k < 1:
        raise QueryError(f"k must be >= 1, got {k}")
    return kth_largest_multi(
        device, texture, bits, [k], scale,
        channel=channel, valid_stencil=valid_stencil, skip_copy=skip_copy,
    )[0]


def kth_largest_multi(
    device: Device,
    texture: Texture,
    bits: int,
    ks: list[int],
    scale: float,
    channel: int = 0,
    valid_stencil: int | None = None,
    skip_copy: bool = False,
) -> list[int]:
    """Routine 4.5 for several k at once, sharing one depth copy.

    The attribute is copied to the depth buffer once; each k then costs
    only its ``bits`` comparison passes.  This is how quantile ladders
    (p50/p90/p99...) amortize the paper's dominant copy cost.
    """
    if not ks:
        raise QueryError("kth_largest_multi() needs at least one k")
    if any(k < 1 for k in ks):
        raise QueryError(f"every k must be >= 1, got {ks}")
    prepare_search(
        device, texture, scale,
        channel=channel, valid_stencil=valid_stencil, skip_copy=skip_copy,
    )
    count = partial(count_at_least, device, texture, bits)
    return [bit_search(count, bits, k) for k in ks]


#: Ops both engines' ``aggregate`` accepts; their named methods are
#: thin wrappers over it.
AGGREGATE_OPS = (
    "count",
    "sum",
    "average",
    "minimum",
    "maximum",
    "median",
    "kth_largest",
    "kth_smallest",
    "quantiles",
    "top_k",
)


#: Empty-selection error label of the ops whose rank depends only on
#: the valid-record count.
_EMPTY_LABELS = {
    "maximum": "MAX",
    "minimum": "MIN",
    "median": "median",
    "quantiles": "quantiles",
}


def order_targets(
    op: str,
    valid_count: int,
    k: int | None = None,
    fractions: list[float] | None = None,
) -> list[int]:
    """The k-th-largest rank(s) an order-statistic op asks for over
    ``valid_count`` records (section 4.3.2): MAX is rank 1, MIN rank
    n, the k-th smallest rank n - k + 1, the median rank ceil(n/2)
    (the paper's convention for figures 8 and 9), and quantile ``q``
    rank ceil((1 - q) * n), clamped to [1, n].  ``top_k`` searches its
    threshold at rank k.

    Raises :class:`QueryError` when ``k`` falls outside ``[1, n]`` or a
    rank-only op sees an empty selection.
    """
    n = valid_count
    if op in ("kth_largest", "kth_smallest", "top_k"):
        if k is None or not 1 <= k <= n:
            raise QueryError(f"k={k} outside [1, {n}] valid records")
        return [n - k + 1 if op == "kth_smallest" else k]
    if op not in _EMPTY_LABELS:
        raise QueryError(f"{op!r} is not an order statistic")
    if n < 1:
        raise QueryError(f"{_EMPTY_LABELS[op]} of an empty selection")
    if op == "maximum":
        return [1]
    if op == "minimum":
        return [n]
    if op == "median":
        return [(n + 1) // 2]
    return [min(max(math.ceil((1.0 - q) * n), 1), n) for q in fractions]


def histogram_edges(column, buckets: int) -> np.ndarray:
    """The integer bucket edges both engines share, spanning the value
    range ``[lo, lo + 2**bits)`` (lo = -bias for signed columns).

    Raises :class:`QueryError` for a non-integer column — a
    fixed-point column's stored width is not its value range — or
    fewer than one bucket.
    """
    if not column.is_integer:
        raise QueryError("histogram requires an integer column")
    if buckets < 1:
        raise QueryError(f"need at least one bucket, got {buckets}")
    lo = int(column.lo)
    top = lo + (1 << column.bits)
    edges = np.unique(
        np.floor(np.linspace(lo, top, buckets + 1)).astype(np.int64)
    )
    if edges[-1] != top:
        edges[-1] = top
    return edges


def mark_top_k(
    device: Device,
    texture: Texture,
    valid_stencil: int,
    threshold_depth: float,
    num_records: int,
) -> np.ndarray:
    """The top-k epilogue: one comparison quad bumps the stencil of
    every valid record whose value is ``>= threshold_depth``
    (``valid -> valid + 1``), then the mask is read back.  Returns the
    marked record ids below ``num_records``.

    The attribute must already sit in the depth buffer; the pass
    consumes the ``valid_stencil`` mask, so a retry has to rebuild it.
    """
    stencil = device.state.stencil
    stencil.enabled = True
    stencil.func = CompareFunc.EQUAL
    stencil.reference = valid_stencil
    stencil.sfail = StencilOp.KEEP
    stencil.zfail = StencilOp.KEEP
    stencil.zpass = StencilOp.INCR
    compare_pass(device, CompareFunc.GEQUAL, threshold_depth, texture.count)
    # The mask was written by compare_pass above in this same
    # operation — it cannot be stale.  # repro-lint: disable=unchecked-stencil-read
    mask = device.read_stencil()
    ids = np.flatnonzero(mask == valid_stencil + 1)
    return ids[ids < num_records]


@lru_cache(maxsize=8)
def _test_bit(channel: int):
    return test_bit_program(channel)


@lru_cache(maxsize=8)
def _test_bit_kil(channel: int):
    return test_bit_kil_program(channel)


def accumulator_state(
    state: RenderState, use_alpha_test: bool = True
) -> None:
    """The fixed-function state of the Accumulator's bit passes (stencil
    aside): color writes and the depth tests off, and the alpha test
    passing ``alpha >= 0.5`` unless the ``KIL`` variant rejects in the
    program instead."""
    state.color_mask = (False, False, False, False)
    state.depth.enabled = False
    state.depth_bounds.enabled = False
    state.alpha.enabled = use_alpha_test
    if use_alpha_test:
        state.alpha.func = CompareFunc.GEQUAL
        state.alpha.reference = 0.5


def accumulate(
    device: Device,
    texture: Texture,
    bits: int,
    channel: int = 0,
    valid_stencil: int | None = None,
    use_alpha_test: bool = True,
) -> int:
    """Routine 4.6: ``Accumulator`` — exact integer SUM by bit slicing.

    One pass per bit: the ``TestBit`` program moves
    ``frac(value / 2**(i+1))`` into alpha and the alpha test
    (``>= 0.5``) lets exactly the bit-set fragments through to the
    occlusion counter.  Queries are issued back to back and only the
    final result synchronizes, matching the paper's observation that
    occlusion queries pipeline (section 5.3).

    ``use_alpha_test=False`` switches to the ``KIL``-based rejection the
    paper found slower (ablation).
    """
    texture.assert_integer_exact()
    state = device.state
    accumulator_state(state, use_alpha_test)
    _configure_valid_stencil(device, valid_stencil)
    device.set_program(
        _test_bit(channel) if use_alpha_test else _test_bit_kil(channel)
    )

    queries = []
    try:
        for i in range(bits):
            device.set_program_parameter(0, 1.0 / float(1 << (i + 1)))
            query = device.begin_query()
            device.render_textured_quad(texture)
            device.end_query()
            queries.append(query)
    finally:
        # Also on a fault (see copy_to_depth).
        device.set_program(None)
        state.alpha.enabled = False

    total = 0
    for i, query in enumerate(queries):
        # Only the last retrieval waits on the pipeline; earlier results
        # are already available by then (asynchronous queries).
        synchronous = i == len(queries) - 1
        total += query.result(synchronous=synchronous) << i
    return total


def mipmap_sum(texture: Texture, channel: int = 0) -> tuple[float, int]:
    """The float-mipmap SUM the paper argues against (section 4.3.3):
    repeated 2x2 float32 averaging down to one texel, then
    ``average * texel_count``.

    Returns ``(approximate_sum, levels)``.  Unlike :func:`accumulate`
    this loses precision once partial averages exceed float32's 24-bit
    significand; tests and the ablation benchmark quantify the error.
    """
    if not 0 <= channel < texture.channels:
        raise QueryError(
            f"channel {channel} out of range for "
            f"{texture.channels}-channel texture"
        )
    level = texture.data[:, :, channel].astype(np.float32)
    levels = 0
    while level.size > 1:
        height, width = level.shape
        padded_h = height + (height % 2)
        padded_w = width + (width % 2)
        if (padded_h, padded_w) != (height, width):
            padded = np.zeros((padded_h, padded_w), dtype=np.float32)
            padded[:height, :width] = level
            level = padded
        # One mipmap level: average each 2x2 block in float32.
        blocks = level.reshape(
            padded_h // 2, 2, padded_w // 2, 2
        )
        level = blocks.mean(axis=(1, 3), dtype=np.float32).astype(np.float32)
        levels += 1
    # Each 2x2 average divides the running sum by 4 (zero padding adds
    # nothing), so the root holds total_sum / 4**levels.
    return float(level[0, 0]) * float(4 ** levels), levels
