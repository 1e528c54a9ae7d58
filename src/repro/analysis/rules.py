"""The hazard catalog: every invariant the schedule verifier enforces.

Each :class:`Rule` names one way a compiled
:class:`~repro.plan.PassSchedule` can violate the substrate's unwritten
contracts (the invariants the paper's routines rely on but the hardware
never checks).  The abstract interpreter
(:mod:`repro.analysis.interpreter`) fires these rules; the catalog also
feeds ``docs/ANALYSIS.md`` and the diagnostics' typed codes.
"""

from __future__ import annotations

import dataclasses

from .diagnostics import Diagnostic, Severity, Span


@dataclasses.dataclass(frozen=True)
class Rule:
    """One verifier hazard class."""

    code: str
    name: str
    summary: str

    def diagnostic(
        self,
        span: Span,
        message: str,
        severity: Severity = Severity.ERROR,
    ) -> Diagnostic:
        return Diagnostic(
            code=self.code,
            name=self.name,
            severity=severity,
            message=message,
            span=span,
        )


#: Routine 4.1 / figure 3-5 invariant: a depth-testing quad is only
#: meaningful while the depth buffer holds its *own* attribute's values.
STALE_DEPTH = Rule(
    "H101",
    "stale-depth",
    "a compare/range quad reads the depth buffer while it holds a "
    "different attribute's values",
)

#: The depth buffer starts undefined: a compare/range quad before any
#: CopyDepthPass tests garbage.
MISSING_COPY = Rule(
    "H102",
    "missing-copy",
    "a compare/range quad reads depth never populated by a "
    "copy-to-depth pass",
)

#: The EvalCNF {0,1,2} protocol (routine 4.3): clause cleanups must
#: ping-pong in order, and DNF arm/invalidate/accept/normalize passes
#: must follow the two-bit-plane discipline.
CNF_PROTOCOL = Rule(
    "H103",
    "cnf-protocol",
    "a stencil bookkeeping pass violates the EvalCNF/EvalDNF "
    "three-value {0,1,2} stencil protocol",
)

#: Every begun occlusion query must be harvested exactly once; a leaked
#: query wedges the device (queries do not nest) and loses its count.
OCCLUSION_LEAK = Rule(
    "H104",
    "occlusion-leak",
    "occlusion queries are begun but never harvested",
)

#: Harvesting more results than queries begun means some count is read
#: twice (or a query that never ran is waited on forever).
DOUBLE_HARVEST = Rule(
    "H105",
    "double-harvest",
    "a harvest retrieves more occlusion results than queries begun",
)

#: A cached result keyed on fewer texture generations than the
#: schedule reads survives a texel update it should not.
UNDER_KEYED_CACHE = Rule(
    "H106",
    "under-keyed-cache",
    "the schedule's cache key does not cover every texture "
    "generation it reads",
)

#: Concurrency invariant (the virtual-context tentpole): when two
#: sessions interleave operations on one physical device *without*
#: checkpoint/restore contexts, a foreign op can overwrite stencil or
#: depth state a session still depends on — a stale selection at best,
#: a silently wrong answer at worst.  Fired by
#: :func:`repro.analysis.verify_interleaving`; never fires when the
#: interleaving runs under the context scheduler (``virtualized=True``).
CONTEXT_ALIASING = Rule(
    "H107",
    "context-aliasing",
    "an interleaved op from another session overwrites stencil/depth "
    "state this session still depends on (unvirtualized device sharing)",
)

#: Sharding invariant (the multi-device tentpole): every shard device
#: must own a *disjoint* virtual-context cid band, so no stencil/depth
#: generation minted on one shard can equal a generation minted on
#: another shard (or the host).  Overlapping bands would let one
#: shard's plan-cache entries or selection snapshots validate against
#: another shard's buffers — a silently wrong combined answer.  Fired
#: by :func:`repro.analysis.verify_shard_fanout`.
SHARD_ALIASING = Rule(
    "H108",
    "shard-aliasing",
    "a shard's generation band overlaps another shard's (or the "
    "host's), so cross-shard stencil/depth generations can alias",
)

#: Dynamic-sanitizer invariant (the race tentpole): every pair of
#: accesses to one piece of shared substrate state (stencil/depth
#: buffers, textures, occlusion queries, plan caches, tracer spans,
#: fault/service counters) where at least one is a write must be
#: ordered by a happens-before edge — thread-pool submit/join, lock
#: acquire/release, or a context checkpoint hand-off.  An unordered
#: write-write or read-write pair is a plain Python data race: the
#: losing access silently corrupts counts, traces, or buffer
#: generations.  Fired by :func:`repro.analysis.race.race_report` from
#: events a :class:`~repro.analysis.events.RaceRecorder` collected.
DEVICE_RACE = Rule(
    "H109",
    "device-race",
    "two threads access the same device/tracer/stats state without a "
    "happens-before edge and at least one access is a write",
)

#: Sharded-combine invariant: shard results are folded by the host
#: combiners in :data:`repro.shard.combiners.COMBINER_SPECS`.  A
#: combiner declared order-insensitive may be folded in pool-completion
#: order, so it must be commutative and associative; one that is
#: actually order-sensitive (checked symbolically on the spec's sample
#: inputs) would make the combined answer depend on thread timing.
#: Fired by :func:`repro.analysis.race.verify_combiners`.
ORDER_SENSITIVE_COMBINER = Rule(
    "H110",
    "order-sensitive-combiner",
    "a shard combiner declared order-insensitive produces different "
    "results under permuted or re-associated shard orders",
)

#: Device-memo invariant: a device answers some passes from
#: generation-keyed memos (the count-only passes' sorted index of
#: stored depth codes).  A hit must equal what the stages would have
#: computed from the live buffers; one that does not means a buffer
#: changed without its generation moving, or the key misses an input.
#: Fired by the device itself while the sanitizer is armed
#: (``REPRO_SAN=1``), which re-derives every hit
#: (:class:`~repro.errors.StaleMemoError`).
STALE_MEMO = Rule(
    "H111",
    "stale-memo",
    "a device memo hit differs from re-running the stages on the live "
    "buffers, so the memo's key misses an input",
)

#: Everything the verifier can fire, in code order.
HAZARD_RULES: tuple[Rule, ...] = (
    STALE_DEPTH,
    MISSING_COPY,
    CNF_PROTOCOL,
    OCCLUSION_LEAK,
    DOUBLE_HARVEST,
    UNDER_KEYED_CACHE,
    CONTEXT_ALIASING,
    SHARD_ALIASING,
    DEVICE_RACE,
    ORDER_SENSITIVE_COMBINER,
    STALE_MEMO,
)
