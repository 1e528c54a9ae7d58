"""Lowering: engine operations and SQL statements to pass schedules.

Each ``lower_*`` function maps one engine operation onto the explicit
:class:`~repro.plan.passes.PassSchedule` the runtime executes, with
``fuse=True`` (the default) applying the fusion rules:

1. **Copy sharing** — one copy-to-depth per column while the depth
   buffer is undisturbed, shared across CNF clauses, range endpoints,
   multi-predicate batches (``selectivities``), bucket sweeps
   (``histogram``) and the aggregate following a selection.
2. **Batched harvesting** — occlusion-query results whose consumers do
   not feed back into the next pass (selectivity counts, histogram
   buckets, Accumulator bits) are retrieved asynchronously with a
   single stall for the batch (paper section 5.3).  Bit-search order
   statistics stay synchronous: bit ``i+1`` depends on bit ``i``.
3. **Selection reuse** — inside one SQL statement the WHERE mask is
   evaluated once (the COUNT probe) and every aggregate item reuses it
   through the stencil cache, so only the probe lowers selection nodes.

``fuse=False`` produces the honest unfused baseline: one copy per
simple predicate occurrence and one synchronous stall per occlusion
query — the pass structure of naively re-issuing routine 4.1 for every
predicate.  The differential tests pin that both lowerings return
bit-identical answers.
"""

from __future__ import annotations

from ..core.aggregates import histogram_edges
from ..core.polynomial import Polynomial
from ..core.predicates import (
    Between,
    Comparison,
    Predicate,
    SemiLinear,
)
from ..core.relation import Relation
from ..core.select import choose_normal_form
from ..errors import QueryError
from .passes import (
    CompareQuadPass,
    CopyDepthPass,
    OcclusionCountPass,
    PassNode,
    PassSchedule,
    StencilCNFPass,
)


class _FusionTracker:
    """Tracks which column the depth buffer would hold at each point of
    the schedule, eliding copies the fused runtime skips."""

    def __init__(self, fuse: bool):
        self.fuse = fuse
        self.depth_holds: str | None = None
        self.copies_saved = 0

    def copy_nodes(self, column: str) -> list[PassNode]:
        """The copy pass needed before reading ``column`` (often none)."""
        if self.fuse and self.depth_holds == column:
            self.copies_saved += 1
            return []
        self.depth_holds = column
        return [CopyDepthPass(column=column)]


def _describe(predicate: Predicate) -> str:
    return repr(predicate)


def _keyed(schedule: PassSchedule) -> PassSchedule:
    """Stamp the schedule's cache key: the runtime plan caches key any
    reuse of its results on the texture generation of every column it
    reads, so the declared key is exactly that column set."""
    schedule.cache_key = tuple(sorted(schedule.columns_read()))
    return schedule


def _simple_nodes(
    predicate: Predicate,
    tracker: _FusionTracker,
    counted: bool,
) -> list[PassNode]:
    """Nodes evaluating one simple predicate under the current stencil
    configuration (the quad itself plus any copy it needs)."""
    if isinstance(predicate, Comparison):
        nodes = tracker.copy_nodes(predicate.column)
        nodes.append(CompareQuadPass(
            column=predicate.column,
            kind="compare",
            detail=_describe(predicate),
            counted=counted,
        ))
        return nodes
    if isinstance(predicate, Between):
        nodes = tracker.copy_nodes(predicate.column)
        nodes.append(CompareQuadPass(
            column=predicate.column,
            kind="range",
            detail=_describe(predicate),
            counted=counted,
        ))
        return nodes
    if isinstance(predicate, SemiLinear):
        return [CompareQuadPass(
            column=",".join(predicate.columns),
            kind="semilinear",
            detail=_describe(predicate),
            counted=counted,
        )]
    if isinstance(predicate, Polynomial):
        return [CompareQuadPass(
            column=",".join(predicate.columns),
            kind="polynomial",
            detail=_describe(predicate),
            counted=counted,
        )]
    raise QueryError(
        f"cannot lower simple predicate {type(predicate).__name__}"
    )


def _selection_nodes(
    predicate: Predicate, tracker: _FusionTracker
) -> list[PassNode]:
    """Lower a full selection (mirrors ``execute_selection`` dispatch)."""
    if isinstance(
        predicate, (Comparison, Between, SemiLinear, Polynomial)
    ):
        nodes = _simple_nodes(predicate, tracker, counted=True)
        nodes.append(OcclusionCountPass(queries=1, batched=False))
        return nodes

    form, clauses = choose_normal_form(predicate)
    nodes: list[PassNode] = []
    if form == "cnf":
        last = len(clauses)
        for index, clause in enumerate(clauses, start=1):
            is_last = index == last
            for simple in clause:
                nodes.extend(
                    _simple_nodes(simple, tracker, counted=is_last)
                )
            nodes.append(
                StencilCNFPass(label="cnf-cleanup", clause=index)
            )
        nodes.append(OcclusionCountPass(
            queries=len(clauses[-1]), batched=False
        ))
        return nodes

    # DNF: arm the working plane, run the conjunction, accept, then two
    # normalization passes (see repro.core.boolean.eval_dnf).  The
    # accept pass itself runs inside an occlusion query — it counts the
    # newly-satisfying records while flipping their accept bit — so it
    # is the counted pass the per-clause harvest retrieves.
    for index, conjunction in enumerate(clauses, start=1):
        nodes.append(StencilCNFPass(label="dnf-arm", clause=index))
        for simple in conjunction:
            nodes.extend(_simple_nodes(simple, tracker, counted=False))
            nodes.append(
                StencilCNFPass(label="dnf-invalidate", clause=index)
            )
        nodes.append(
            StencilCNFPass(label="dnf-accept", clause=index, counted=True)
        )
        nodes.append(OcclusionCountPass(queries=1, batched=False))
    nodes.append(StencilCNFPass(label="dnf-normalize"))
    nodes.append(StencilCNFPass(label="dnf-normalize"))
    return nodes


def lower_select(
    relation: Relation, predicate: Predicate, fuse: bool = True
) -> PassSchedule:
    """Lower ``GpuEngine.select(predicate)``."""
    tracker = _FusionTracker(fuse)
    nodes = _selection_nodes(predicate, tracker)
    return _keyed(PassSchedule(
        op="select",
        table=relation.name,
        nodes=nodes,
        fused_copies=tracker.copies_saved,
        meta={"predicate": _describe(predicate)},
        payload={"predicate": predicate},
    ))


def lower_selectivities(
    relation: Relation,
    predicates: list[Predicate],
    fuse: bool = True,
) -> PassSchedule:
    """Lower the batched selectivity sweep.

    Fused: consecutive same-column predicates share the copy and every
    count is harvested asynchronously with one final stall.  Unfused:
    copy + synchronous stall per predicate.
    """
    if not predicates:
        raise QueryError("selectivities() needs at least one predicate")
    tracker = _FusionTracker(fuse)
    nodes: list[PassNode] = []
    batch = 0
    stalls_saved = 0
    for predicate in predicates:
        if isinstance(predicate, (Comparison, Between)):
            nodes.extend(_simple_nodes(predicate, tracker, counted=True))
            if fuse:
                batch += 1
            else:
                nodes.append(OcclusionCountPass(queries=1, batched=False))
        else:
            # General predicates run the full selection machinery,
            # which owns the stencil/depth state.
            if batch:
                nodes.append(OcclusionCountPass(queries=batch))
                stalls_saved += batch - 1
                batch = 0
            nodes.extend(_selection_nodes(predicate, tracker))
            tracker.depth_holds = None
    if batch:
        nodes.append(OcclusionCountPass(queries=batch))
        stalls_saved += batch - 1
    return _keyed(PassSchedule(
        op="selectivities",
        table=relation.name,
        nodes=nodes,
        fused_copies=tracker.copies_saved,
        fused_stalls=stalls_saved if fuse else 0,
        meta={"predicates": len(predicates)},
        payload={"predicates": list(predicates)},
    ))


def lower_histogram(
    relation: Relation,
    column_name: str,
    buckets: int,
    fuse: bool = True,
) -> PassSchedule:
    """Lower the histogram sweep.

    Fused: one copy, then one counted depth-bounds range quad per
    bucket with batched harvesting — ``1 + buckets`` passes, 1 stall.
    Unfused: each bucket re-runs the full range selection (stencil
    setup + copy + range quad + synchronous stall).
    """
    edges = histogram_edges(relation.column(column_name), buckets)
    num = int(edges.size - 1)
    tracker = _FusionTracker(fuse)
    nodes: list[PassNode] = []
    if fuse:
        nodes.extend(tracker.copy_nodes(column_name))
        for index in range(num):
            nodes.append(CompareQuadPass(
                column=column_name,
                kind="range",
                detail=(
                    f"bucket [{int(edges[index])}, "
                    f"{int(edges[index + 1])})"
                ),
                counted=True,
            ))
        nodes.append(OcclusionCountPass(queries=num))
        fused_copies = num - 1
        fused_stalls = num - 1
    else:
        for index in range(num):
            nodes.extend(tracker.copy_nodes(column_name))
            tracker.depth_holds = None  # stencil setup re-clears
            nodes.append(CompareQuadPass(
                column=column_name,
                kind="range",
                detail=(
                    f"bucket [{int(edges[index])}, "
                    f"{int(edges[index + 1])})"
                ),
                counted=True,
            ))
            nodes.append(OcclusionCountPass(queries=1, batched=False))
        fused_copies = 0
        fused_stalls = 0
    return _keyed(PassSchedule(
        op="histogram",
        table=relation.name,
        nodes=nodes,
        fused_copies=fused_copies,
        fused_stalls=fused_stalls,
        meta={"column": column_name, "buckets": num},
        payload={
            "column": column_name,
            "buckets": buckets,
            "edges": edges,
        },
    ))


#: Aggregate ops that binary-search the value bit by bit (synchronous
#: harvest: the next tentative value depends on the previous count).
_BIT_SEARCH_OPS = {
    "kth_largest", "kth_smallest", "minimum", "maximum", "median",
}


def lower_aggregate(
    relation: Relation,
    op: str,
    column_name: str | None,
    predicate: Predicate | None = None,
    fractions: list[float] | None = None,
    fuse: bool = True,
    tracker: _FusionTracker | None = None,
    selection_cached: bool = False,
    k: int | None = None,
) -> PassSchedule:
    """Lower one aggregate operation (optionally over a selection).

    ``tracker`` threads depth-buffer state across a multi-operation
    statement; ``selection_cached`` marks that the WHERE mask already
    sits in the stencil buffer (the stencil cache will hit), so the
    selection is not re-lowered.
    """
    if tracker is None:
        tracker = _FusionTracker(fuse)
    before = tracker.copies_saved
    fused_stalls = 0
    nodes: list[PassNode] = []
    if predicate is not None and not (fuse and selection_cached):
        nodes.extend(_selection_nodes(predicate, tracker))
    if op == "count":
        if predicate is None:
            # The count-all quad passes every fragment unconditionally;
            # it never consults the depth buffer.
            nodes.append(CompareQuadPass(
                column="*", kind="compare", detail="count",
                counted=True, depth_free=True,
            ))
            nodes.append(OcclusionCountPass(queries=1, batched=False))
    elif op in _BIT_SEARCH_OPS:
        bits = relation.column(column_name).bits
        nodes.extend(tracker.copy_nodes(column_name))
        for _ in range(bits):
            nodes.append(CompareQuadPass(
                column=column_name, kind="compare",
                detail=f"{op} bit search", counted=True,
            ))
        nodes.append(OcclusionCountPass(queries=bits, batched=False))
    elif op in ("sum", "average"):
        # Accumulator reads the texture directly — no depth copy.
        bits = relation.column(column_name).bits
        for bit in range(bits):
            nodes.append(CompareQuadPass(
                column=column_name, kind="compare",
                detail=f"TestBit {bit}", counted=True, depth_free=True,
            ))
        nodes.append(OcclusionCountPass(queries=bits, batched=fuse))
        if fuse and bits > 1:
            fused_stalls = bits - 1
    elif op == "quantiles":
        bits = relation.column(column_name).bits
        ladder = len(fractions or [0.5])
        nodes.extend(tracker.copy_nodes(column_name))
        for _ in range(ladder * bits):
            nodes.append(CompareQuadPass(
                column=column_name, kind="compare",
                detail="quantile bit search", counted=True,
            ))
        nodes.append(
            OcclusionCountPass(queries=ladder * bits, batched=False)
        )
    elif op == "top_k":
        # Threshold search (kth_largest) plus the stencil-marking
        # epilogue: one uncounted comparison quad that bumps matching
        # records' stencil values before the mask readback.
        bits = relation.column(column_name).bits
        nodes.extend(tracker.copy_nodes(column_name))
        for _ in range(bits):
            nodes.append(CompareQuadPass(
                column=column_name, kind="compare",
                detail=f"{op} bit search", counted=True,
            ))
        nodes.append(OcclusionCountPass(queries=bits, batched=False))
        nodes.append(CompareQuadPass(
            column=column_name, kind="compare",
            detail="top_k mark", counted=False,
        ))
    else:
        raise QueryError(f"cannot lower aggregate op {op!r}")
    meta = {
        "column": column_name or "*",
        "predicate": (
            _describe(predicate) if predicate is not None else None
        ),
        "selection_cached": bool(
            predicate is not None and fuse and selection_cached
        ),
    }
    if k is not None:
        meta["k"] = k
    return _keyed(PassSchedule(
        op=op,
        table=relation.name,
        nodes=nodes,
        fused_copies=tracker.copies_saved - before,
        fused_stalls=fused_stalls,
        meta=meta,
        payload={
            "column": column_name,
            "predicate": predicate,
            "fractions": fractions,
            "k": k,
        },
    ))


def lower_statement(
    statement,
    relation: Relation,
    fuse: bool = True,
    device: str = "gpu",
) -> PassSchedule:
    """Lower a whole SQL statement to one fused schedule.

    Mirrors ``Database._execute_statement``: aggregate statements run the
    COUNT probe (one selection) and each aggregate item reuses its mask
    through the stencil cache; projections run the selection and read
    the stencil mask back (a bus transfer, not a pass).
    """
    # Imported here: repro.sql imports repro.core.engine, which imports
    # this package — a module-level import would close the cycle.
    from ..sql.ast import AGGREGATE_OPS, AggregateItem

    if statement.join is not None:
        return PassSchedule(
            op="join",
            table=statement.table,
            nodes=[],
            device=device,
            meta={"note": "join lowering not scheduled pass-by-pass"},
        )
    tracker = _FusionTracker(fuse)
    nodes: list[PassNode] = []
    fused_stalls = 0
    predicate = statement.where
    if statement.is_aggregate:
        selection_cached = False
        if predicate is not None:
            # The executor's empty-selection probe evaluates the WHERE
            # mask once; with fusion it is the only selection run.
            nodes.extend(_selection_nodes(predicate, tracker))
            selection_cached = True
        for item in statement.items:
            if not isinstance(item, AggregateItem):
                continue
            op = AGGREGATE_OPS[item.func]
            if op == "count" and predicate is not None and fuse:
                continue  # the probe's count is reused outright
            sub = lower_aggregate(
                relation,
                op,
                item.column,
                predicate=predicate,
                fuse=fuse,
                tracker=tracker,
                selection_cached=selection_cached and fuse,
            )
            nodes.extend(sub.nodes)
            fused_stalls += sub.fused_stalls
    else:
        if predicate is not None:
            nodes.extend(_selection_nodes(predicate, tracker))
    return _keyed(PassSchedule(
        op="query",
        table=statement.table,
        nodes=nodes,
        device=device,
        fused_copies=tracker.copies_saved,
        fused_stalls=fused_stalls,
        meta={
            "items": [item.label for item in statement.items],
            "where": (
                _describe(predicate) if predicate is not None else None
            ),
        },
    ))
