"""Typed pass schedules: the plan compiler's intermediate representation.

Every engine operation in the paper decomposes into the same three pass
kinds — copy-to-depth, comparison quads, and occlusion-counted stencil
passes — plus two non-rendering steps the cost model charges: the
stencil clear that opens a selection and the occlusion-result harvest.
A :class:`PassSchedule` makes that decomposition explicit *before* any
device call, so redundant passes can be fused away (one copy-to-depth
per column shared across CNF clauses, range endpoints and multi-query
batches) and the result rendered to users via
:meth:`PassSchedule.render_text` / ``Database.explain``.

The nodes are the program: a selection, a selectivity sweep, a
histogram and the WHERE prefix of every aggregate run node by node
(:func:`repro.core.select.run_passes`), so each quad carries the simple
predicate it evaluates and the full :class:`StencilRule` it renders
under.

Node kinds:

* :class:`ClearStencilPass`   — clear the stencil buffer to one value
  (``SetupStencil``; not a rendering pass);
* :class:`CopyDepthPass`      — route one attribute into the depth buffer
  (routine 4.1 line 1; the overhead the paper isolates in figures 3-5);
* :class:`CompareQuadPass`    — one screen quad evaluating a simple
  predicate against the depth buffer (comparison, depth-bounds range,
  semi-linear or polynomial fragment program);
* :class:`StencilCNFPass`     — one stencil-only bookkeeping quad of the
  EvalCNF/EvalDNF machinery (clause cleanup, DNF arm/accept/normalize);
* :class:`OcclusionCountPass` — the harvest point where occlusion-query
  results are read back; ``batched`` marks the pipelined retrieval
  pattern (all queries asynchronous except the last) versus a
  per-query synchronous stall.

Schedules are *estimates over the fused structure*: the runtime depth /
stencil caches (:mod:`repro.plan.cache`) can elide further passes when
earlier operations left reusable state behind.
"""

from __future__ import annotations

import dataclasses

from ..core.polynomial import Polynomial
from ..core.predicates import (
    And,
    Between,
    Comparison,
    Not,
    Or,
    Predicate,
    SemiLinear,
)
from ..errors import QueryError
from ..gpu.types import STENCIL_MAX, CompareFunc, StencilOp


def predicate_key(predicate: Predicate) -> tuple:
    """A hashable structural key for a predicate.

    Predicates are plain classes without ``__eq__``/``__hash__`` (so
    selections can hold them without surprising identity semantics);
    the caches in :mod:`repro.plan.cache` need structural equality
    instead — two independently constructed ``data_count >= 1000``
    predicates must share one cache entry.
    """
    if isinstance(predicate, Comparison):
        return ("cmp", predicate.column, predicate.op.value, predicate.value)
    if isinstance(predicate, Between):
        return ("between", predicate.column, predicate.low, predicate.high)
    if isinstance(predicate, SemiLinear):
        return (
            "semilinear",
            predicate.columns,
            predicate.coefficients,
            predicate.op.value,
            predicate.constant,
        )
    if isinstance(predicate, Polynomial):
        return (
            "poly",
            predicate.columns,
            predicate.coefficients,
            predicate.exponents,
            predicate.op.value,
            predicate.constant,
        )
    if isinstance(predicate, And):
        return ("and",) + tuple(
            predicate_key(child) for child in predicate.children
        )
    if isinstance(predicate, Or):
        return ("or",) + tuple(
            predicate_key(child) for child in predicate.children
        )
    if isinstance(predicate, Not):
        return ("not", predicate_key(predicate.child))
    raise QueryError(
        f"cannot key predicate of type {type(predicate).__name__}"
    )


def predicate_columns(predicate: Predicate) -> tuple[str, ...]:
    """Column names a predicate reads, in first-reference order."""
    if isinstance(predicate, (Comparison, Between)):
        return (predicate.column,)
    if isinstance(predicate, (SemiLinear, Polynomial)):
        return tuple(predicate.columns)
    if isinstance(predicate, Not):
        return predicate_columns(predicate.child)
    if isinstance(predicate, (And, Or)):
        names: list[str] = []
        for child in predicate.children:
            for name in predicate_columns(child):
                if name not in names:
                    names.append(name)
        return tuple(names)
    raise QueryError(
        f"cannot list columns of type {type(predicate).__name__}"
    )


#: Abstract resource names used by the per-pass read/write declarations
#: (consumed by the static verifier in :mod:`repro.analysis`).
DEPTH = "depth"
STENCIL = "stencil"


def texture_resource(column: str) -> str:
    """The abstract resource name for one attribute texture."""
    return f"texture:{column}"


@dataclasses.dataclass(frozen=True)
class StencilRule:
    """The stencil test and update a pass renders under
    (``glStencilFunc`` / ``glStencilMask`` / ``glStencilOp``); the
    default is the stencil test off."""

    enabled: bool = False
    func: CompareFunc = CompareFunc.ALWAYS
    reference: int = 0
    mask: int = STENCIL_MAX
    write_mask: int = STENCIL_MAX
    sfail: StencilOp = StencilOp.KEEP
    zfail: StencilOp = StencilOp.KEEP
    zpass: StencilOp = StencilOp.KEEP


#: The stencil test off: counting passes that leave the mask alone.
STENCIL_OFF = StencilRule()


@dataclasses.dataclass(frozen=True)
class ClearStencilPass:
    """Clear the stencil buffer to ``value`` — the ``SetupStencil`` that
    opens every selection.  Not a rendering pass: the cost model
    charges it as a clear."""

    value: int

    def describe(self) -> str:
        return f"clear stencil to {self.value}"

    def reads(self) -> frozenset[str]:
        return frozenset()

    def writes(self) -> frozenset[str]:
        return frozenset({STENCIL})


@dataclasses.dataclass(frozen=True)
class CopyDepthPass:
    """One ``CopyToDepth`` rendering pass for ``column``."""

    column: str
    channel: int = 0

    def describe(self) -> str:
        return f"copy-to-depth {self.column}"

    def reads(self) -> frozenset[str]:
        return frozenset({texture_resource(self.column)})

    def writes(self) -> frozenset[str]:
        return frozenset({DEPTH})


@dataclasses.dataclass(frozen=True)
class CompareQuadPass:
    """One predicate-evaluating quad.

    ``kind`` selects the evaluation path: ``"compare"`` (depth test,
    routine 4.1), ``"range"`` (depth-bounds test, routine 4.4),
    ``"semilinear"`` (fragment program + KIL, routine 4.2) or
    ``"polynomial"`` (the section 4.1.2 extension).  ``counted`` marks
    quads rendered inside an occlusion query.

    ``depth_free`` marks compare-kind quads that never consult the
    depth buffer — the Accumulator's alpha-test ``TestBit`` passes and
    the stencil-only COUNT(*) quad — so the verifier does not demand a
    preceding copy-to-depth for them.

    ``predicate`` is the simple predicate the quad evaluates (``None``
    on the COUNT(*) quad, which renders stencil-only, and on the
    driver-run bit-search, ``TestBit`` and top-k quads); ``stencil``
    is the rule it renders under.
    """

    column: str
    kind: str
    detail: str = ""
    counted: bool = False
    depth_free: bool = False
    predicate: Predicate | None = dataclasses.field(
        default=None, compare=False
    )
    stencil: StencilRule = STENCIL_OFF

    @property
    def reads_depth(self) -> bool:
        """True when this quad tests against the depth buffer and
        therefore depends on a live copy of its attribute there."""
        return self.kind in ("compare", "range") and not self.depth_free

    def describe(self) -> str:
        text = f"{self.kind} {self.detail or self.column}"
        if self.counted:
            text += "  [counted]"
        return text

    def reads(self) -> frozenset[str]:
        resources = {STENCIL}
        if self.reads_depth:
            resources.add(DEPTH)
        elif self.column != "*":
            resources.update(
                texture_resource(name)
                for name in self.column.split(",")
            )
        return frozenset(resources)

    def writes(self) -> frozenset[str]:
        return frozenset({STENCIL})


@dataclasses.dataclass(frozen=True)
class StencilCNFPass:
    """One stencil-only bookkeeping quad of EvalCNF / EvalDNF.

    ``counted`` marks bookkeeping quads rendered inside an occlusion
    query: the DNF accept pass counts newly-satisfying records while it
    flips their accept bit (see :func:`repro.plan.compiler._dnf_nodes`).
    ``stencil`` is the rule the quad renders under.
    """

    label: str
    clause: int | None = None
    counted: bool = False
    stencil: StencilRule = STENCIL_OFF

    def describe(self) -> str:
        if self.clause is not None:
            text = f"stencil {self.label} (clause {self.clause})"
        else:
            text = f"stencil {self.label}"
        if self.counted:
            text += "  [counted]"
        return text

    def reads(self) -> frozenset[str]:
        return frozenset({STENCIL})

    def writes(self) -> frozenset[str]:
        return frozenset({STENCIL})


@dataclasses.dataclass(frozen=True)
class OcclusionCountPass:
    """The harvest point: read ``queries`` occlusion results back.

    Not a rendering pass — ``batched=True`` models the paper's
    section 5.3 pipelined retrieval (one stall for the whole batch),
    ``batched=False`` one synchronous stall per query.
    """

    queries: int
    batched: bool = True

    @property
    def stalls(self) -> int:
        if self.queries == 0:
            return 0
        return 1 if self.batched else self.queries

    def describe(self) -> str:
        mode = "batched" if self.batched else "synchronous"
        noun = "result" if self.queries == 1 else "results"
        return (
            f"harvest {self.queries} occlusion {noun} "
            f"[{mode}, {self.stalls} stall{'s' if self.stalls != 1 else ''}]"
        )

    def reads(self) -> frozenset[str]:
        return frozenset()

    def writes(self) -> frozenset[str]:
        return frozenset()


PassNode = (
    ClearStencilPass
    | CopyDepthPass
    | CompareQuadPass
    | StencilCNFPass
    | OcclusionCountPass
)


def pass_counts(nodes) -> tuple[int, int, int]:
    """``(rendering passes, synchronous occlusion reads, stencil
    clears)`` that ``nodes`` issue when nothing is elided."""
    passes = stalls = clears = 0
    for node in nodes:
        if isinstance(node, OcclusionCountPass):
            stalls += node.stalls
        elif isinstance(node, ClearStencilPass):
            clears += 1
        else:
            passes += 1
    return passes, stalls, clears


@dataclasses.dataclass(frozen=True)
class ShardFanout:
    """Explain-only annotation: how a sharded engine
    (``GpuEngine(shards=N)``) fans a schedule out.

    Purely descriptive — every shard executes the same pass sequence
    over its record slice on its own virtual device, and the host
    merges the per-shard answers with ``combiner``.  Carried on
    :attr:`PassSchedule.fanout` so ``Database.explain`` renders the
    partition alongside the passes.
    """

    #: Number of shard devices.
    shards: int
    #: Worker threads in the pool driving them.
    threads: int
    #: Records assigned to each shard, in shard order.
    shard_records: tuple[int, ...]
    #: ``(base_cid, cid_span)`` virtual-context band per shard — the
    #: disjoint generation bands the H108 fan-out verifier checks.
    bands: tuple[tuple[int, int], ...]
    #: One-line description of the host-side merge.
    combiner: str

    def describe_lines(self) -> list[str]:
        lines = [
            f"  = fan-out across {self.shards} shards "
            f"({self.threads} pool threads), combine: {self.combiner}"
        ]
        for index, count in enumerate(self.shard_records):
            base, span = self.bands[index]
            lines.append(
                f"    shard-{index}: {count} records, "
                f"cids [{base}, {base + span})"
            )
        return lines


@dataclasses.dataclass
class PassSchedule:
    """A lowered engine operation: ordered pass nodes plus fusion facts."""

    op: str
    table: str
    nodes: list[PassNode]
    device: str = "gpu"
    #: Copy-to-depth passes the fusion pass removed relative to the
    #: unfused lowering of the same operation.
    fused_copies: int = 0
    #: Occlusion stalls removed by batched harvesting.
    fused_stalls: int = 0
    #: Free-form annotations (predicate text, bucket count, ...).
    meta: dict = dataclasses.field(default_factory=dict)
    #: Columns whose texture generations key any cached reuse of this
    #: schedule's results (the content half of the plan-cache keys).
    #: ``None`` means the schedule is never served from a cache; when
    #: set, the verifier checks it covers every column the schedule
    #: reads — an under-keyed cache would survive a texel update.
    cache_key: tuple[str, ...] | None = None
    #: Execution payload the schedule executor drives from (predicate
    #: objects, bucket edges, k, fractions, and for a selectivity sweep
    #: the occlusion results each predicate's count sums).  ``None`` on
    #: purely descriptive schedules (e.g. whole-statement explain
    #: lowerings), which :meth:`GpuEngine.execute_schedule` refuses to
    #: run.
    payload: dict | None = None
    #: ``(length, valid_stencil)`` of the selection that opens the
    #: schedule: ``nodes[:length]`` leave ``valid_stencil`` on the
    #: selected records and their harvests sum to the match count.
    #: ``None`` when the schedule opens with no selection.
    selection: tuple[int, int] | None = None
    #: Sharded fan-out annotation (explain-only); ``None`` on the
    #: single-device path.
    fanout: ShardFanout | None = None

    @property
    def copy_passes(self) -> int:
        return sum(
            1 for node in self.nodes if isinstance(node, CopyDepthPass)
        )

    @property
    def render_passes(self) -> int:
        """Rendering passes in the schedule (clears and harvests
        excluded)."""
        return pass_counts(self.nodes)[0]

    @property
    def stalls(self) -> int:
        return pass_counts(self.nodes)[1]

    @property
    def clears(self) -> int:
        return pass_counts(self.nodes)[2]

    def columns_read(self) -> frozenset[str]:
        """Every column whose attribute texture the schedule reads —
        directly (program fetches) or through a copy-to-depth."""
        names: set[str] = set()
        for node in self.nodes:
            for resource in node.reads():
                if resource.startswith("texture:"):
                    names.add(resource.split(":", 1)[1])
        return frozenset(names)

    def render_text(self) -> str:
        """Human-readable schedule, mirroring the trace text format."""
        header = f"schedule {self.op} ON {self.table} [{self.device}]"
        lines = [header]
        for key, value in sorted(self.meta.items()):
            lines.append(f"  # {key}: {value}")
        for node in self.nodes:
            lines.append(f"  - {node.describe()}")
        lines.append(
            f"  = {self.render_passes} passes "
            f"({self.copy_passes} copy), {self.stalls} stalls"
        )
        if self.fused_copies or self.fused_stalls:
            lines.append(
                f"  = fusion saved {self.fused_copies} copy passes, "
                f"{self.fused_stalls} stalls"
            )
        if self.fanout is not None:
            lines.extend(self.fanout.describe_lines())
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PassSchedule(op={self.op!r}, table={self.table!r}, "
            f"passes={self.render_passes}, copies={self.copy_passes}, "
            f"fused_copies={self.fused_copies})"
        )
