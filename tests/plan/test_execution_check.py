"""Debug mode checks each op's execution against its schedule: the
rendering passes, synchronous occlusion reads and stencil clears the
device counted must equal the schedule's, less what the depth and
stencil caches elided."""

import pytest

from repro.core import GpuEngine, aggregates
from repro.errors import PlanVerificationError
from repro.plan import compiler
from repro.plan.passes import pass_counts
from tests.plan.test_golden_stats import _AND2, _DNF3, _OR, _relation


def _workload(engine):
    engine.select(_DNF3)
    engine.median("a", _DNF3)  # stencil-cache hit on the prefix
    engine.sum("b", _AND2)
    engine.average("d", _OR)
    engine.count(_AND2)
    engine.count()
    engine.top_k("c", 4)  # clears an all-valid mask first
    engine.quantiles("d", [0.25, 0.75], _AND2)
    engine.histogram("d", 8)
    engine.selectivities([_AND2, _DNF3, _OR])


@pytest.mark.parametrize("fusion", [True, False])
def test_every_op_executes_its_schedule(fusion):
    _workload(GpuEngine(_relation(), fusion=fusion, debug=True))


def test_sharded_ops_execute_their_schedule_on_every_shard():
    _workload(GpuEngine(_relation(), debug=True, shards=2))


def test_recopy_after_a_skipped_prefix_is_accounted():
    """The bit search's copy that the lowering elided runs anyway when
    a stencil-cache hit skipped the prefix the elision relied on."""
    relation = _relation()
    engine = GpuEngine(relation, debug=True)
    engine.select(_AND2)  # the depth buffer now holds b
    engine.histogram("a", 4)  # depth holds a; the mask survives
    result = engine.median("b", _AND2)
    schedule = compiler.lower_aggregate(
        relation, "median", "b", predicate=_AND2
    )
    prefix_passes, _stalls, _clears = pass_counts(
        schedule.nodes[:schedule.selection[0]]
    )
    assert schedule.copy_passes == 2  # the search's copy was elided
    assert result.pass_count == (
        schedule.render_passes - prefix_passes + 1
    )


@pytest.mark.parametrize("debug", [True, False])
def test_an_extra_driver_pass_is_caught(monkeypatch, debug):
    mark = aggregates.mark_top_k

    def mark_twice(device, *args):
        device.render_quad(0.0)
        return mark(device, *args)

    monkeypatch.setattr(aggregates, "mark_top_k", mark_twice)
    engine = GpuEngine(_relation(), debug=debug)
    if not debug:
        engine.top_k("a", 3, _AND2)  # nothing checks without debug
        return
    with pytest.raises(PlanVerificationError, match="top_k"):
        engine.top_k("a", 3, _AND2)
