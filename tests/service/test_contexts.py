"""Virtual stencil/depth contexts: checkpoint/restore isolation,
generation banding, and per-context plan caches."""

import numpy as np
import pytest

from repro.core import CpuEngine, GpuEngine
from repro.core.predicates import Comparison
from repro.errors import QueryError, StaleSelectionError, VideoMemoryError
from repro.gpu.context import GENERATION_STRIDE
from repro.gpu.types import CompareFunc


@pytest.fixture()
def engines(small_relation):
    return GpuEngine(small_relation), CpuEngine(small_relation)


def _pred(column, value, op=CompareFunc.GREATER):
    return Comparison(column, op, value)


class TestIsolation:
    def test_interleaved_selections_both_stay_readable(self, engines):
        """The tentpole invariant: another context's selection cannot
        invalidate mine — no StaleSelectionError, exact ids."""
        gpu, cpu = engines
        ctx_a = gpu.create_context("a")
        ctx_b = gpu.create_context("b")

        gpu.activate_context(ctx_a)
        sel_a = gpu.select(_pred("data_loss", 100))
        gpu.activate_context(ctx_b)
        sel_b = gpu.select(_pred("data_loss", 100, CompareFunc.LEQUAL))

        # Both readable after the other ran; order deliberately swapped.
        ids_a = sel_a.record_ids()
        ids_b = sel_b.record_ids()
        np.testing.assert_array_equal(
            ids_a, cpu.select(_pred("data_loss", 100)).record_ids()
        )
        np.testing.assert_array_equal(
            ids_b,
            cpu.select(_pred("data_loss", 100, CompareFunc.LEQUAL)).record_ids(),
        )
        assert len(ids_a) + len(ids_b) == gpu.relation.num_records

    def test_same_context_overwrite_still_detected(self, engines):
        """Within one context the old staleness semantics survive: a
        second stencil-writing query invalidates the first selection."""
        gpu, _ = engines
        ctx = gpu.create_context("solo")
        gpu.activate_context(ctx)
        first = gpu.select(_pred("data_loss", 100))
        gpu.select(_pred("data_loss", 500))
        with pytest.raises(StaleSelectionError):
            first.record_ids()

    def test_default_context_matches_pre_virtualization(self, engines):
        """Single-context use is band 0: generations start where a bare
        device starts, so cached behavior is bit-identical."""
        gpu, cpu = engines
        assert gpu.contexts.active is gpu.contexts.default
        selection = gpu.select(_pred("data_count", 1000, CompareFunc.GEQUAL))
        assert selection.generation < GENERATION_STRIDE
        np.testing.assert_array_equal(
            selection.record_ids(),
            cpu.select(_pred("data_count", 1000, CompareFunc.GEQUAL)).record_ids(),
        )

    def test_readback_reactivates_owning_context(self, engines):
        """record_ids() on an inactive context switches back first."""
        gpu, _ = engines
        ctx_a = gpu.create_context("a")
        ctx_b = gpu.create_context("b")
        gpu.activate_context(ctx_a)
        sel = gpu.select(_pred("data_loss", 100))
        gpu.activate_context(ctx_b)
        gpu.select(_pred("data_loss", 900))
        assert gpu.contexts.active is ctx_b
        sel.record_ids()
        assert gpu.contexts.active is ctx_a


class TestGenerationBanding:
    def test_contexts_get_disjoint_bands(self, engines):
        gpu, _ = engines
        ctx_a = gpu.create_context("a")
        ctx_b = gpu.create_context("b")
        gpu.activate_context(ctx_a)
        gpu.select(_pred("data_loss", 100))
        gen_a = gpu.device.stencil_generation
        gpu.activate_context(ctx_b)
        gpu.select(_pred("data_loss", 100))
        gen_b = gpu.device.stencil_generation
        assert gen_a // GENERATION_STRIDE == ctx_a.cid
        assert gen_b // GENERATION_STRIDE == ctx_b.cid
        assert gen_a != gen_b

    def test_equal_mutation_counts_cannot_collide(self, engines):
        """The classic ABA hazard: same number of passes in two
        contexts must not make a selection look fresh."""
        gpu, _ = engines
        ctx_a = gpu.create_context("a")
        ctx_b = gpu.create_context("b")
        gpu.activate_context(ctx_a)
        sel = gpu.select(_pred("data_loss", 100))
        gpu.activate_context(ctx_b)
        gpu.select(_pred("data_loss", 100))  # identical op count
        # B's generation differs from A's snapshot despite identical
        # workloads, because the bands are disjoint.
        assert gpu.device.stencil_generation != sel.generation
        # And A's selection still reads fine from its own band.
        sel.record_ids()


class TestPerContextPlanCache:
    def test_cache_outcomes_do_not_alias_across_contexts(self, engines):
        gpu, _ = engines
        ctx_a = gpu.create_context("a")
        ctx_b = gpu.create_context("b")
        gpu.activate_context(ctx_a)
        gpu.median("data_count")
        gpu.median("data_count")
        hits_a = gpu.plan.stats.depth_hits
        assert hits_a > 0  # second run rode A's depth cache
        gpu.activate_context(ctx_b)
        assert gpu.plan.stats.depth_hits == 0  # B's cache is its own
        gpu.median("data_count")
        assert gpu.plan.stats.depth_misses > 0

    def test_plan_property_follows_active_context(self, engines):
        gpu, _ = engines
        default_plan = gpu.plan
        ctx = gpu.create_context("x")
        gpu.activate_context(ctx)
        assert gpu.plan is not default_plan
        gpu.activate_context(gpu.contexts.default)
        assert gpu.plan is default_plan


class TestLifecycle:
    def test_released_context_cannot_be_activated(self, engines):
        gpu, _ = engines
        ctx = gpu.create_context("dead")
        gpu.activate_context(ctx)
        gpu.activate_context(gpu.contexts.default)
        gpu.release_context(ctx)
        with pytest.raises(QueryError, match="released"):
            gpu.activate_context(ctx)

    def test_default_context_cannot_be_released(self, engines):
        gpu, _ = engines
        with pytest.raises(QueryError, match="default"):
            gpu.release_context(gpu.contexts.default)

    def test_selection_from_released_context_raises_typed(self, engines):
        gpu, _ = engines
        ctx = gpu.create_context("gone")
        gpu.activate_context(ctx)
        sel = gpu.select(_pred("data_loss", 100))
        gpu.activate_context(gpu.contexts.default)
        gpu.release_context(ctx)
        with pytest.raises(QueryError):
            sel.record_ids()

    def test_fast_path_counts_no_switch(self, engines):
        gpu, _ = engines
        ctx = gpu.create_context("warm")
        gpu.activate_context(ctx)
        switches = gpu.contexts.stats.switches
        gpu.activate_context(ctx)
        gpu.activate_context(ctx)
        assert gpu.contexts.stats.switches == switches
        assert gpu.contexts.stats.fast_activations >= 2

    def test_switch_emits_trace_event(self, small_relation):
        from repro.trace import Tracer

        tracer = Tracer()
        gpu = GpuEngine(small_relation, tracer=tracer)
        ctx = gpu.create_context("traced")
        with tracer.span("op", "test"):
            gpu.activate_context(ctx)
        trace = tracer.finish()
        events = [
            e for e in trace.all_events() if e.name == "context-switch"
        ]
        assert events and events[0].attrs["context"] == "traced"


class TestFaultedOperationLeavesNoProgramBound:
    """A fault inside one context's op must not leave its fragment
    program bound: another context whose depth cache skips the copy
    would run its comparison quad through that program."""

    @pytest.mark.parametrize(
        "op, where",
        [("minimum", _pred("data_count", 1000)), ("sum", None)],
    )
    def test_cached_comparison_after_a_faulted_op(
        self, engines, monkeypatch, op, where
    ):
        gpu, cpu = engines
        predicate = _pred("data_loss", 100)
        ctx_a = gpu.create_context("a")
        ctx_b = gpu.create_context("b")
        gpu.activate_context(ctx_b)
        assert gpu.count(predicate).value == cpu.count(predicate).value

        # Context A's op faults inside its first textured (program)
        # pass: the selection's copy-to-depth, or the first TestBit.
        device = gpu.device
        render = device.render_textured_quad

        def fault_once(*args, **kwargs):
            monkeypatch.setattr(device, "render_textured_quad", render)
            raise VideoMemoryError("injected")

        gpu.activate_context(ctx_a)
        monkeypatch.setattr(device, "render_textured_quad", fault_once)
        with pytest.raises(VideoMemoryError):
            getattr(gpu, op)("data_count", where)

        gpu.activate_context(ctx_b)
        hits = gpu.plan.stats.depth_hits
        assert gpu.count(predicate).value == cpu.count(predicate).value
        assert gpu.plan.stats.depth_hits == hits + 1  # the copy was skipped
