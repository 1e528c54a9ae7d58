"""Section 4.3 aggregations: KthLargest, Accumulator, COUNT, AVG."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import aggregates
from repro.errors import QueryError
from repro.gpu import CompareFunc, Device, StencilOp, Texture

BITS = 10
SCALE = 1.0 / (1 << BITS)


def _setup(values):
    values = np.asarray(values)
    side = max(1, int(np.ceil(np.sqrt(values.size))))
    device = Device(side, side)
    texture = Texture.from_values(values, shape=(side, side))
    return device, texture


def _mask_stencil(device, texture, mask):
    """Stamp a selection mask (stencil=1 where mask) via real passes."""
    device.clear_stencil(0)
    stencil = device.state.stencil
    stencil.enabled = True
    stencil.func = CompareFunc.ALWAYS
    stencil.reference = 1
    stencil.zpass = StencilOp.REPLACE
    values = np.where(mask, 1.0, 0.0)
    masked = Texture.from_values(values, shape=texture.shape)
    from repro.core.compare import compare

    compare(device, masked, CompareFunc.GEQUAL, 0.5, 1.0)
    device.state.stencil.zpass = StencilOp.KEEP


class TestKthLargest:
    @given(
        values=st.lists(
            st.integers(0, (1 << BITS) - 1), min_size=1, max_size=120
        ),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_lemma_1_property(self, values, data):
        """Routine 4.5 returns sorted(values, desc)[k-1] for every k."""
        k = data.draw(st.integers(1, len(values)))
        device, texture = _setup(np.array(values))
        got = aggregates.kth_largest(device, texture, BITS, k, SCALE)
        assert got == sorted(values, reverse=True)[k - 1]

    def test_pass_count_is_bit_width(self):
        device, texture = _setup(np.arange(50))
        device.stats.reset()
        aggregates.kth_largest(device, texture, BITS, 5, SCALE)
        compare_passes = [
            p
            for p in device.stats.passes
            if not (p.program or "").startswith("copy-to-depth")
        ]
        assert len(compare_passes) == BITS

    def test_duplicates(self):
        device, texture = _setup(np.array([7, 7, 7, 3, 3]))
        assert aggregates.kth_largest(device, texture, 3, 1, 1 / 8) == 7
        assert aggregates.kth_largest(device, texture, 3, 3, 1 / 8) == 7
        assert aggregates.kth_largest(device, texture, 3, 4, 1 / 8) == 3

    def test_k_validation(self):
        device, texture = _setup(np.arange(10))
        with pytest.raises(QueryError):
            aggregates.kth_largest(device, texture, BITS, 0, SCALE)

    def test_masked_kth_ignores_unselected(self):
        values = np.array([900, 800, 700, 10, 20, 30])
        mask = np.array([False, False, False, True, True, True])
        device, texture = _setup(values)
        _mask_stencil(device, texture, mask)
        got = aggregates.kth_largest(
            device, texture, BITS, 1, SCALE, valid_stencil=1
        )
        assert got == 30

    def test_masked_kth_preserves_mask(self):
        values = np.array([900, 800, 10, 20])
        mask = np.array([True, False, True, False])
        device, texture = _setup(values)
        _mask_stencil(device, texture, mask)
        before = device.framebuffer.stencil.values.copy()
        aggregates.kth_largest(
            device, texture, BITS, 1, SCALE, valid_stencil=1
        )
        assert np.array_equal(
            device.framebuffer.stencil.values, before
        )


def _order_statistic(device, texture, bits, op, valid_count, **kwargs):
    """An order statistic the way every engine computes it: the rank
    from ``order_targets``, then routine 4.5 at that rank."""
    (rank,) = aggregates.order_targets(op, valid_count, **kwargs)
    return aggregates.kth_largest(device, texture, bits, rank, 1 / (1 << bits))


class TestOrderStatisticWrappers:
    """MIN, MAX, median and k-th smallest are k-th largest searches at
    the rank ``order_targets`` picks."""

    def test_min_max_median(self):
        values = np.array([4, 9, 1, 6, 6])
        device, texture = _setup(values)
        assert _order_statistic(device, texture, 4, "maximum", 5) == 9
        assert _order_statistic(device, texture, 4, "minimum", 5) == 1
        assert _order_statistic(device, texture, 4, "median", 5) == 6

    def test_kth_smallest_complement(self):
        values = np.array([10, 20, 30, 40])
        device, texture = _setup(values)
        got = _order_statistic(device, texture, 6, "kth_smallest", 4, k=2)
        assert got == 20

    def test_kth_smallest_validation(self):
        with pytest.raises(QueryError, match=r"k=5 outside \[1, 4\]"):
            aggregates.order_targets("kth_smallest", 4, k=5)

    def test_median_empty_rejected(self):
        with pytest.raises(QueryError, match="median of an empty"):
            aggregates.order_targets("median", 0)


class TestOrderTargets:
    """Every op's rank (1 = the maximum) over ``n`` valid records."""

    @pytest.mark.parametrize(
        "op, n, kwargs, ranks",
        [
            ("maximum", 7, {}, [1]),
            ("minimum", 7, {}, [7]),
            ("median", 7, {}, [4]),
            ("median", 8, {}, [4]),
            ("kth_largest", 7, {"k": 3}, [3]),
            ("kth_smallest", 7, {"k": 3}, [5]),
            ("kth_smallest", 7, {"k": 1}, [7]),
            ("top_k", 7, {"k": 2}, [2]),
            ("quantiles", 10, {"fractions": [0.5, 0.9, 0.99]}, [5, 1, 1]),
            ("quantiles", 10, {"fractions": [0.0, 1.0]}, [10, 1]),
            ("quantiles", 10, {"fractions": [0.25]}, [8]),
        ],
    )
    def test_ranks(self, op, n, kwargs, ranks):
        assert aggregates.order_targets(op, n, **kwargs) == ranks

    @pytest.mark.parametrize(
        "op, kwargs",
        [
            ("maximum", {}),
            ("minimum", {}),
            ("median", {}),
            ("kth_largest", {"k": 1}),
            ("kth_smallest", {"k": 1}),
            ("top_k", {"k": 1}),
            ("quantiles", {"fractions": [0.0, 0.5, 1.0]}),
        ],
    )
    def test_single_record_is_rank_one(self, op, kwargs):
        expected = [1] * len(kwargs.get("fractions", [None]))
        assert aggregates.order_targets(op, 1, **kwargs) == expected

    @pytest.mark.parametrize(
        "op, message",
        [
            ("maximum", "MAX of an empty selection"),
            ("minimum", "MIN of an empty selection"),
            ("median", "median of an empty selection"),
            ("quantiles", "quantiles of an empty selection"),
        ],
    )
    def test_empty_selection_rejected(self, op, message):
        with pytest.raises(QueryError, match=message):
            aggregates.order_targets(op, 0, fractions=[0.5])

    @pytest.mark.parametrize("op", ["kth_largest", "kth_smallest", "top_k"])
    @pytest.mark.parametrize("k", [0, 6, None])
    def test_k_outside_valid_records_rejected(self, op, k):
        with pytest.raises(QueryError, match="outside"):
            aggregates.order_targets(op, 5, k=k)

    def test_unknown_op_rejected(self):
        with pytest.raises(QueryError, match="not an order statistic"):
            aggregates.order_targets("sum", 5)

    @given(
        values=st.lists(
            st.integers(0, (1 << BITS) - 1), min_size=1, max_size=60
        ),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_ranks_match_sorted_order(self, values, data):
        """Searching at each rank reproduces the sorted-order answer."""
        n = len(values)
        k = data.draw(st.integers(1, n))
        descending = sorted(values, reverse=True)
        device, texture = _setup(np.array(values))
        expected = {
            ("maximum", None): max(values),
            ("minimum", None): min(values),
            ("median", None): descending[(n + 1) // 2 - 1],
            ("kth_largest", k): descending[k - 1],
            ("kth_smallest", k): sorted(values)[k - 1],
        }
        for (op, k_arg), value in expected.items():
            kwargs = {} if k_arg is None else {"k": k_arg}
            assert _order_statistic(
                device, texture, BITS, op, n, **kwargs
            ) == value


class TestBitSearch:
    def test_search_over_a_host_count_function(self):
        """``bit_search`` needs only a count function: here a host
        count over a list stands in for the occlusion queries."""
        values = [5, 3, 9, 9, 1]

        def count_at_least(x):
            return sum(1 for v in values if v >= x)

        descending = sorted(values, reverse=True)
        for k in range(1, len(values) + 1):
            assert aggregates.bit_search(count_at_least, 4, k) == \
                descending[k - 1]

    def test_one_count_per_bit(self):
        calls = []

        def count_at_least(x):
            calls.append(x)
            return 0

        assert aggregates.bit_search(count_at_least, 6, 1) == 0
        assert calls == [32, 16, 8, 4, 2, 1]


class TestAccumulator:
    @given(
        st.lists(st.integers(0, (1 << BITS) - 1), min_size=1, max_size=150)
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_sum_property(self, values):
        device, texture = _setup(np.array(values))
        got = aggregates.accumulate(device, texture, BITS)
        assert got == sum(values)

    def test_kil_variant_identical(self):
        values = np.random.default_rng(8).integers(0, 1 << BITS, 90)
        device, texture = _setup(values)
        alpha = aggregates.accumulate(device, texture, BITS)
        kil = aggregates.accumulate(
            device, texture, BITS, use_alpha_test=False
        )
        assert alpha == kil == int(values.sum())

    def test_pass_count_is_bit_width(self):
        device, texture = _setup(np.arange(20))
        device.stats.reset()
        aggregates.accumulate(device, texture, BITS)
        assert device.stats.num_passes == BITS

    def test_only_final_readback_is_synchronous(self):
        device, texture = _setup(np.arange(20))
        device.stats.reset()
        aggregates.accumulate(device, texture, BITS)
        assert device.stats.occlusion_results == 1

    def test_masked_sum(self):
        values = np.array([100, 200, 300, 400])
        mask = np.array([True, False, True, False])
        device, texture = _setup(values)
        _mask_stencil(device, texture, mask)
        got = aggregates.accumulate(
            device, texture, BITS, valid_stencil=1
        )
        assert got == 400

    def test_rejects_fractional_values(self):
        device, texture = _setup(np.array([1.5]))
        with pytest.raises(Exception):
            aggregates.accumulate(device, texture, BITS)

    def test_max_24_bit_values(self):
        values = np.array([(1 << 24) - 1, (1 << 24) - 1])
        device, texture = _setup(values)
        got = aggregates.accumulate(device, texture, 24)
        assert got == 2 * ((1 << 24) - 1)


class TestCountAndAverage:
    def test_count_valid_full(self):
        device, texture = _setup(np.arange(30))
        assert aggregates.count_valid(device, 30) == 30

    def test_count_valid_masked(self):
        values = np.arange(10)
        mask = values % 2 == 0
        device, texture = _setup(values)
        _mask_stencil(device, texture, mask)
        assert (
            aggregates.count_valid(device, 10, valid_stencil=1) == 5
        )

    def test_average(self):
        """AVG = Accumulator SUM / COUNT (section 4.3.3)."""
        values = np.array([2, 4, 6, 8])
        device, texture = _setup(values)
        total = aggregates.accumulate(device, texture, BITS)
        assert total / aggregates.count_valid(device, values.size) == 5.0

    def test_average_empty_rejected(self):
        from repro.core import GpuEngine, Relation, col
        from repro.core.column import Column

        relation = Relation(
            "r", [Column.integer("v", np.array([5]), bits=BITS)]
        )
        engine = GpuEngine(relation, shards=1)
        with pytest.raises(QueryError, match="AVG of an empty selection"):
            engine.average("v", col("v") > 5)


class TestMipmapSum:
    def test_small_data_exact(self):
        device, texture = _setup(np.array([1, 2, 3, 4]))
        approx, levels = aggregates.mipmap_sum(texture)
        assert approx == 10.0
        assert levels >= 1

    def test_large_values_lose_precision(self):
        # Pairwise float32 averages of varying 24-bit values round (the
        # intermediate a+b needs 25 bits), so the mipmap sum drifts.
        rng = np.random.default_rng(13)
        values = rng.integers(1 << 23, 1 << 24, 4096)
        device, texture = _setup(values)
        exact = aggregates.accumulate(device, texture, 24)
        approx, _levels = aggregates.mipmap_sum(texture)
        assert exact == int(values.sum())
        assert approx != exact

    def test_bad_channel_rejected(self):
        _device, texture = _setup(np.array([1.0]))
        with pytest.raises(QueryError):
            aggregates.mipmap_sum(texture, channel=2)

    def test_non_square_padding_handled(self):
        texture = Texture.from_values(
            np.array([5.0, 6.0, 7.0]), shape=(1, 3)
        )
        approx, _levels = aggregates.mipmap_sum(texture)
        assert approx == 18.0
