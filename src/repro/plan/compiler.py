"""Lowering: engine operations and SQL statements to pass schedules.

Each ``lower_*`` function maps one engine operation onto the explicit
:class:`~repro.plan.passes.PassSchedule` the runtime executes.  For
selections, selectivity sweeps, histograms and every aggregate's WHERE
prefix the nodes *are* the program (:func:`repro.core.select.run_passes`
walks them), so routines 4.1–4.4, EvalCNF and EvalDNF — stencil rules
included — are written down only here.  ``fuse=True`` (the default)
applies the fusion rules:

1. **Copy sharing** — one copy-to-depth per column while the depth
   buffer is undisturbed, shared across CNF clauses, range endpoints,
   multi-predicate batches (``selectivities``), bucket sweeps
   (``histogram``) and the aggregate following a selection.
2. **Batched harvesting** — occlusion-query results whose consumers do
   not feed back into the next pass (selectivity counts, histogram
   buckets) are retrieved asynchronously with a single stall for the
   batch (paper section 5.3).  The Accumulator pipelines its bits with
   or without fusion; bit-search order statistics stay synchronous:
   bit ``i+1`` depends on bit ``i``.
3. **Selection reuse** — inside one SQL statement the WHERE mask is
   evaluated once (the COUNT probe) and every aggregate item reuses it
   through the stencil cache, so only the probe lowers selection nodes.

``fuse=False`` produces the honest unfused baseline: one copy per
simple predicate occurrence and, the Accumulator aside, one synchronous
stall per occlusion query — the pass structure of naively re-issuing routine 4.1 for every
predicate.  The differential tests pin that both lowerings return
bit-identical answers.
"""

from __future__ import annotations

from functools import lru_cache

from ..core.aggregates import histogram_edges
from ..core.polynomial import Polynomial
from ..core.predicates import (
    Between,
    Comparison,
    Predicate,
    SemiLinear,
    is_simple,
    to_cnf,
    to_dnf,
)
from ..core.relation import Relation
from ..errors import QueryError
from ..gpu.state import CNF_STENCIL_VALID_ODD, cnf_valid_stencil
from ..gpu.types import CompareFunc, StencilOp
from .passes import (
    STENCIL_OFF,
    ClearStencilPass,
    CompareQuadPass,
    CopyDepthPass,
    OcclusionCountPass,
    PassNode,
    PassSchedule,
    StencilCNFPass,
    StencilRule,
)

#: EvalDNF's stencil bit planes: bits 0-1 run one AND-clause's EvalCNF
#: counter, bit 2 stickily marks records some clause accepted — the
#: value a DNF selection leaves on its records.
_DNF_WORK_MASK = 0x3
_DNF_ACCEPT_BIT = 0x4
DNF_VALID_STENCIL = _DNF_ACCEPT_BIT

#: ``SetupStencil`` for one simple predicate: every fragment that
#: survives the quad's tests stamps 1.
_STAMP = StencilRule(
    enabled=True, func=CompareFunc.ALWAYS, reference=1,
    zpass=StencilOp.REPLACE,
)
#: Re-arm the DNF working plane to 1 everywhere; the accept bit lies
#: outside the write mask and survives.
_DNF_ARM = StencilRule(
    enabled=True, func=CompareFunc.ALWAYS, reference=1,
    write_mask=_DNF_WORK_MASK, zpass=StencilOp.REPLACE,
)
#: The two normalization passes: clear the working plane on accepted
#: records, then zero every record the accept bit does not mark.
_DNF_NORMALIZE = (
    StencilRule(
        enabled=True, func=CompareFunc.EQUAL, reference=_DNF_ACCEPT_BIT,
        mask=_DNF_ACCEPT_BIT, write_mask=_DNF_WORK_MASK,
        zpass=StencilOp.ZERO,
    ),
    StencilRule(
        enabled=True, func=CompareFunc.NOTEQUAL,
        reference=_DNF_ACCEPT_BIT, mask=_DNF_ACCEPT_BIT,
        zpass=StencilOp.ZERO,
    ),
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


@lru_cache(maxsize=None)
def _valid_rule(valid_stencil: int | None, **ops) -> StencilRule:
    """The stencil test restricting a pass to the records a selection
    left at ``valid_stencil`` (off without a selection)."""
    if valid_stencil is None:
        return STENCIL_OFF
    return StencilRule(
        enabled=True, func=CompareFunc.EQUAL, reference=valid_stencil, **ops
    )


def _quad_nodes(
    predicate: Predicate,
    tracker: _FusionTracker,
    counted: bool,
    stencil: StencilRule,
) -> list[PassNode]:
    """The quad evaluating one simple predicate under ``stencil``,
    plus the copy-to-depth it needs (often none)."""
    if isinstance(predicate, (Comparison, Between)):
        nodes = tracker.copy_nodes(predicate.column)
        column = predicate.column
        kind = "compare" if isinstance(predicate, Comparison) else "range"
    elif isinstance(predicate, (SemiLinear, Polynomial)):
        nodes = []
        column = ",".join(predicate.columns)
        kind = (
            "semilinear" if isinstance(predicate, SemiLinear)
            else "polynomial"
        )
    else:
        raise QueryError(
            f"cannot lower simple predicate {type(predicate).__name__}"
        )
    nodes.append(CompareQuadPass(
        column=column,
        kind=kind,
        detail=_describe(predicate),
        counted=counted,
        predicate=predicate,
        stencil=stencil,
    ))
    return nodes


def choose_normal_form(predicate: Predicate):
    """Pick CNF or DNF by estimated pass count.

    CNF costs one pass per simple predicate plus one cleanup per
    clause; DNF costs two passes per simple predicate plus three fixed
    passes per clause (arm + accept) and two normalization passes.  A
    form whose conversion blows past the clause limit is disqualified.
    """
    candidates = []
    try:
        cnf = to_cnf(predicate)
        cnf_cost = sum(len(c) for c in cnf) + len(cnf)
        candidates.append((cnf_cost, "cnf", cnf))
    except QueryError:
        pass
    try:
        dnf = to_dnf(predicate)
        dnf_cost = sum(2 * len(c) + 3 for c in dnf) + 2
        candidates.append((dnf_cost, "dnf", dnf))
    except QueryError:
        pass
    if not candidates:
        raise QueryError(
            "predicate explodes in both CNF and DNF; simplify the query"
        )
    candidates.sort(key=lambda entry: entry[0])
    _cost, form, clauses = candidates[0]
    return form, clauses


def _cnf_nodes(
    clauses: list[list[Predicate]], tracker: _FusionTracker
) -> tuple[list[PassNode], int]:
    """Routine 4.3, ``EvalCNF``: the nodes of a CNF selection and the
    stencil value they leave on its records.

    Clause by clause with three stencil values: 0 is permanently
    invalid, and "valid so far" ping-pongs between 1 (odd clauses) and
    2 (even clauses).  Every satisfying disjunct of an odd clause
    ``INCR``s its records from 1 to 2 — at most once, because the
    stencil test then fails for them — and a cleanup pass zeroes the
    records still at 1; even clauses mirror this with ``DECR``.  The
    occlusion counts of the last clause's quads sum to the match count,
    so selectivity costs no extra pass (paper section 5.11).
    """
    nodes: list[PassNode] = [ClearStencilPass(CNF_STENCIL_VALID_ODD)]
    if not clauses:
        # The empty conjunction selects every record.
        nodes.append(CompareQuadPass(
            column="*", kind="compare", detail="count",
            counted=True, depth_free=True,
        ))
        nodes.append(OcclusionCountPass(queries=1, batched=False))
        return nodes, CNF_STENCIL_VALID_ODD
    for index, clause in enumerate(clauses, start=1):
        valid = cnf_valid_stencil(index)
        grow = StencilOp.INCR if index % 2 else StencilOp.DECR
        for simple in clause:
            nodes.extend(_quad_nodes(
                simple, tracker, counted=index == len(clauses),
                stencil=_valid_rule(valid, zpass=grow),
            ))
        nodes.append(StencilCNFPass(
            label="cnf-cleanup", clause=index,
            stencil=_valid_rule(valid, zpass=StencilOp.ZERO),
        ))
    nodes.append(OcclusionCountPass(
        queries=len(clauses[-1]), batched=False
    ))
    return nodes, cnf_valid_stencil(len(clauses) + 1)


def _dnf_nodes(
    clauses: list[list[Predicate]], tracker: _FusionTracker
) -> tuple[list[PassNode], int]:
    """``EvalDNF``, the paper's "easily modified" routine 4.3: the
    nodes of a DNF (an OR of AND-clauses) selection and the stencil
    value they leave on its records.

    Two bit planes share the stencil through the write mask: bits 0-1
    run EvalCNF's ping-pong for one AND-clause at a time (its
    conjuncts are singleton clauses), and bit 2 stickily accepts.  The
    accept pass runs inside an occlusion query: it counts the clause's
    newly-satisfying records while ``INVERT`` flips their accept bit
    (its test spans all three bits, so accepted records are not
    re-counted).  Two normalization passes leave {0, 4}.
    """
    nodes: list[PassNode] = [ClearStencilPass(0)]
    work = {"mask": _DNF_WORK_MASK, "write_mask": _DNF_WORK_MASK}
    for index, conjunction in enumerate(clauses, start=1):
        nodes.append(StencilCNFPass(
            label="dnf-arm", clause=index, stencil=_DNF_ARM
        ))
        for position, simple in enumerate(conjunction, start=1):
            valid = cnf_valid_stencil(position)
            grow = StencilOp.INCR if position % 2 else StencilOp.DECR
            nodes.extend(_quad_nodes(
                simple, tracker, counted=False,
                stencil=_valid_rule(valid, zpass=grow, **work),
            ))
            nodes.append(StencilCNFPass(
                label="dnf-invalidate", clause=index,
                stencil=_valid_rule(valid, zpass=StencilOp.ZERO, **work),
            ))
        nodes.append(StencilCNFPass(
            label="dnf-accept", clause=index, counted=True,
            stencil=_valid_rule(
                cnf_valid_stencil(len(conjunction) + 1),
                mask=_DNF_WORK_MASK | _DNF_ACCEPT_BIT,
                write_mask=_DNF_ACCEPT_BIT,
                zpass=StencilOp.INVERT,
            ),
        ))
        nodes.append(OcclusionCountPass(queries=1, batched=False))
    for rule in _DNF_NORMALIZE:
        nodes.append(StencilCNFPass(label="dnf-normalize", stencil=rule))
    return nodes, DNF_VALID_STENCIL


def _selection_nodes(
    predicate: Predicate, tracker: _FusionTracker
) -> tuple[list[PassNode], int]:
    """Lower a full selection: its nodes, and the stencil value they
    leave on the selected records (0 elsewhere).  Their harvests sum
    to the match count.

    A simple predicate is one stamped quad — routines 4.1 (comparison),
    4.4 (depth-bounds range), 4.2 (semi-linear) or the section 4.1.2
    polynomial extension; anything else runs whichever of EvalCNF and
    EvalDNF needs fewer passes.
    """
    if is_simple(predicate):
        nodes: list[PassNode] = [ClearStencilPass(0)]
        nodes.extend(_quad_nodes(predicate, tracker, True, _STAMP))
        nodes.append(OcclusionCountPass(queries=1, batched=False))
        return nodes, 1
    form, clauses = choose_normal_form(predicate)
    if form == "cnf":
        return _cnf_nodes(clauses, tracker)
    return _dnf_nodes(clauses, tracker)


def lower_select(
    relation: Relation, predicate: Predicate, fuse: bool = True
) -> PassSchedule:
    """Lower ``GpuEngine.select(predicate)``."""
    tracker = _FusionTracker(fuse)
    nodes, valid_stencil = _selection_nodes(predicate, tracker)
    return _keyed(PassSchedule(
        op="select",
        table=relation.name,
        nodes=nodes,
        fused_copies=tracker.copies_saved,
        meta={"predicate": _describe(predicate)},
        payload={"predicate": predicate},
        selection=(len(nodes), valid_stencil),
    ))


def lower_selectivities(
    relation: Relation,
    predicates: list[Predicate],
    fuse: bool = True,
) -> PassSchedule:
    """Lower the batched selectivity sweep.

    Comparisons and ranges render as counted quads with the stencil
    test off, the stencil buffer untouched.  Fused: consecutive
    same-column predicates share the copy and every count is harvested
    asynchronously with one final stall.  Unfused: copy + synchronous
    stall per predicate.  Any other predicate runs its full selection,
    flushing the pending batch first so counts stay in order.
    """
    if not predicates:
        raise QueryError("selectivities() needs at least one predicate")
    tracker = _FusionTracker(fuse)
    nodes: list[PassNode] = []
    results: list[int] = []
    batch = 0
    stalls_saved = 0
    for predicate in predicates:
        if isinstance(predicate, (Comparison, Between)):
            nodes.extend(
                _quad_nodes(predicate, tracker, True, STENCIL_OFF)
            )
            results.append(1)
            if fuse:
                batch += 1
            else:
                nodes.append(OcclusionCountPass(queries=1, batched=False))
            continue
        if batch:
            nodes.append(OcclusionCountPass(queries=batch))
            stalls_saved += batch - 1
            batch = 0
        selection, _valid = _selection_nodes(predicate, tracker)
        nodes.extend(selection)
        results.append(sum(
            node.queries
            for node in selection
            if isinstance(node, OcclusionCountPass)
        ))
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
        payload={"predicates": list(predicates), "results": results},
    ))


def lower_histogram(
    relation: Relation,
    column_name: str,
    buckets: int,
    fuse: bool = True,
) -> PassSchedule:
    """Lower the histogram sweep: one counted depth-bounds range quad
    per bucket.

    Fused: one copy, the stencil test off (an earlier selection's mask
    survives) and batched harvesting — ``1 + buckets`` passes, 1 stall.
    Unfused: each bucket is the full range selection (stencil clear,
    copy, stamped range quad, synchronous stall).
    """
    edges = histogram_edges(relation.column(column_name), buckets)
    num = int(edges.size - 1)
    tracker = _FusionTracker(fuse)
    nodes: list[PassNode] = []
    for index in range(num):
        low, high = int(edges[index]), int(edges[index + 1])
        if not fuse:
            nodes.append(ClearStencilPass(0))
        nodes.extend(tracker.copy_nodes(column_name))
        nodes.append(CompareQuadPass(
            column=column_name,
            kind="range",
            detail=f"bucket [{low}, {high})",
            counted=True,
            predicate=Between(column_name, low, high - 1),
            stencil=STENCIL_OFF if fuse else _STAMP,
        ))
        if not fuse:
            nodes.append(OcclusionCountPass(queries=1, batched=False))
    if fuse:
        nodes.append(OcclusionCountPass(queries=num))
    return _keyed(PassSchedule(
        op="histogram",
        table=relation.name,
        nodes=nodes,
        fused_copies=tracker.copies_saved,
        fused_stalls=num - 1 if fuse else 0,
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

    The WHERE selection opens the schedule (:attr:`PassSchedule.
    selection`) and runs node by node; the passes after it — the
    COUNT(*) quad, the Accumulator's ``TestBit`` quads, the bit search
    and the top-k mark — carry the stencil test against the value the
    selection leaves.  ``tracker`` threads depth-buffer state across a
    multi-operation statement; ``selection_cached`` marks that the
    WHERE mask already sits in the stencil buffer (the stencil cache
    will hit), so the selection is not re-lowered.
    """
    if tracker is None:
        tracker = _FusionTracker(fuse)
    before = tracker.copies_saved
    nodes: list[PassNode] = []
    selection = None
    valid: int | None = None
    if predicate is not None:
        cached = fuse and selection_cached
        prefix, valid = _selection_nodes(
            predicate, _FusionTracker(fuse) if cached else tracker
        )
        if not cached:
            nodes, selection = prefix, (len(prefix), valid)
    search = _valid_rule(valid)
    if op == "count":
        if predicate is None:
            # The count-all quad passes every fragment unconditionally;
            # it never consults the depth buffer.
            nodes.append(CompareQuadPass(
                column="*", kind="compare", detail="count",
                counted=True, depth_free=True,
            ))
            nodes.append(OcclusionCountPass(queries=1, batched=False))
    elif op in _BIT_SEARCH_OPS or op in ("quantiles", "top_k"):
        bits = relation.column(column_name).bits
        searches = len(fractions or [0.5]) if op == "quantiles" else 1
        label = "quantile" if op == "quantiles" else op
        if op == "top_k" and valid is None:
            # The mark pass needs a mask: every record starts valid.
            nodes.append(ClearStencilPass(1))
            valid, search = 1, _valid_rule(1)
        nodes.extend(tracker.copy_nodes(column_name))
        for _ in range(searches * bits):
            nodes.append(CompareQuadPass(
                column=column_name, kind="compare",
                detail=f"{label} bit search", counted=True,
                stencil=search,
            ))
        nodes.append(
            OcclusionCountPass(queries=searches * bits, batched=False)
        )
        if op == "top_k":
            # One uncounted comparison quad bumps the stencil of the
            # records at or above the threshold before the readback.
            nodes.append(CompareQuadPass(
                column=column_name, kind="compare",
                detail="top_k mark", counted=False,
                stencil=_valid_rule(valid, zpass=StencilOp.INCR),
            ))
    elif op in ("sum", "average"):
        # The Accumulator reads the texture directly — no depth copy —
        # and always pipelines its queries: one stall for every bit.
        bits = relation.column(column_name).bits
        for bit in range(bits):
            nodes.append(CompareQuadPass(
                column=column_name, kind="compare",
                detail=f"TestBit {bit}", counted=True, depth_free=True,
                stencil=search,
            ))
        nodes.append(OcclusionCountPass(queries=bits))
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
        meta=meta,
        payload={
            "column": column_name,
            "predicate": predicate,
            "fractions": fractions,
            "k": k,
        },
        selection=selection,
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
            nodes.extend(_selection_nodes(predicate, tracker)[0])
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
            nodes.extend(_selection_nodes(predicate, tracker)[0])
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
