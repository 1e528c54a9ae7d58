"""Pass-level plan compiler, result caches and schedule executor.

This package sits between the engine/SQL layers and the simulated
device:

* :mod:`repro.plan.passes`   — the typed :class:`PassSchedule` IR;
* :mod:`repro.plan.compiler` — lowering of engine operations and SQL
  statements into (fused or unfused) schedules;
* :mod:`repro.plan.cache`    — generation-keyed depth/stencil result
  caches;
* :mod:`repro.plan.executor` — whole-schedule execution
  (:class:`ScheduleExecutor`, driven by
  ``GpuEngine.execute_schedule``).

The nodes are the program: selections, selectivity sweeps, histograms
and every aggregate's WHERE prefix run node by node through
:func:`repro.core.select.run_passes`, so the verifier checks the passes
the device executes.  The bit search, the Accumulator and the top-k
mark are still driver loops.
"""

from .cache import CacheStats, DepthCache, PlanCache, StencilCache
from .compiler import (
    histogram_edges,
    lower_aggregate,
    lower_histogram,
    lower_select,
    lower_selectivities,
    lower_statement,
)
from .passes import (
    ClearStencilPass,
    CompareQuadPass,
    CopyDepthPass,
    OcclusionCountPass,
    PassNode,
    PassSchedule,
    ShardFanout,
    StencilCNFPass,
    StencilRule,
    predicate_columns,
    predicate_key,
)
from .executor import ScheduleExecutor

__all__ = [
    "CacheStats",
    "ClearStencilPass",
    "CompareQuadPass",
    "CopyDepthPass",
    "DepthCache",
    "OcclusionCountPass",
    "PassNode",
    "PassSchedule",
    "PlanCache",
    "ScheduleExecutor",
    "ShardFanout",
    "StencilCache",
    "StencilCNFPass",
    "StencilRule",
    "histogram_edges",
    "lower_aggregate",
    "lower_histogram",
    "lower_select",
    "lower_selectivities",
    "lower_statement",
    "predicate_columns",
    "predicate_key",
]
