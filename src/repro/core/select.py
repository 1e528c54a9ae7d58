"""Selection queries: dispatch predicates onto the right GPU path.

A selection leaves a stencil mask (``valid_stencil`` for selected
records, 0 otherwise) and returns the match count from occlusion queries
issued during the selection itself — selectivity analysis costs no extra
pass (paper section 5.11).

Dispatch:

* single :class:`Comparison` — routine 4.1 (copy + depth-test quad),
* single :class:`Between`    — routine 4.4 (depth-bounds test),
* single :class:`SemiLinear` — routine 4.2 (fragment program + KIL),
* single :class:`Polynomial` — the section 4.1.2 extension,
* anything else              — normalized to whichever of CNF
  (routine 4.3, EvalCNF) or DNF (the paper's "easily modified"
  variant, EvalDNF) needs fewer passes; consecutive predicates on the
  same attribute share one depth copy (the per-attribute copy the
  paper measures in figure 5).
"""

from __future__ import annotations

import dataclasses
from typing import Protocol

from ..errors import QueryError
from ..gpu.pipeline import Device
from ..gpu.texture import Texture
from .boolean import eval_cnf, eval_dnf
from .compare import compare_pass
from .polynomial import Polynomial, polynomial_pass
from .predicates import (
    Between,
    Comparison,
    Predicate,
    SemiLinear,
    to_cnf,
    to_dnf,
)
from .range_query import range_pass, setup_selection_stencil
from .relation import Relation
from .semilinear import semilinear_pass


class TextureProvider(Protocol):
    """What the selection executor needs from the engine
    (:class:`repro.core.engine.GpuEngine` is the one provider)."""

    def column_texture(self, name: str) -> tuple[Texture, float, int]:
        """Return ``(texture, depth_scale, channel)`` for a column."""

    def packed_texture(self, names: tuple[str, ...]) -> Texture:
        """Return a texture with the named columns in its channels."""

    def ensure_depth(self, name: str) -> tuple[Texture, float, int]:
        """Copy ``name`` into the depth buffer unless the provider can
        prove it already sits there; return what
        :meth:`column_texture` returns."""


def _route_to_depth(provider: TextureProvider, name: str) -> Texture:
    """Put ``name``'s values into the depth buffer."""
    texture, _scale, _channel = provider.ensure_depth(name)
    return texture


@dataclasses.dataclass
class SelectionOutcome:
    """Raw outcome of executing a selection on the device."""

    count: int
    valid_stencil: int


def execute_selection(
    device: Device,
    relation: Relation,
    provider: TextureProvider,
    predicate: Predicate,
) -> SelectionOutcome:
    """Run ``predicate`` and leave the stencil mask behind."""
    records = relation.num_records

    if isinstance(predicate, Comparison):
        count = _select_comparison(device, relation, provider, predicate)
        return SelectionOutcome(count=count, valid_stencil=1)

    if isinstance(predicate, Between):
        count = _select_between(device, relation, provider, predicate)
        return SelectionOutcome(count=count, valid_stencil=1)

    if isinstance(predicate, SemiLinear):
        count = _select_semilinear(device, relation, provider, predicate)
        return SelectionOutcome(count=count, valid_stencil=1)

    if isinstance(predicate, Polynomial):
        count = _select_polynomial(device, relation, provider, predicate)
        return SelectionOutcome(count=count, valid_stencil=1)

    form, clauses = choose_normal_form(predicate)
    executor = _SimpleExecutor(relation, provider)
    evaluate = eval_cnf if form == "cnf" else eval_dnf
    valid, count = evaluate(device, clauses, executor, records)
    return SelectionOutcome(count=count, valid_stencil=valid)


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


def _select_comparison(
    device: Device,
    relation: Relation,
    provider: TextureProvider,
    predicate: Comparison,
) -> int:
    column = relation.column(predicate.column)
    depth = column.normalize(column.clamp_to_domain(predicate.value))
    setup_selection_stencil(device)
    texture = _route_to_depth(provider, predicate.column)
    query = device.begin_query()
    compare_pass(device, predicate.op, depth, texture.count)
    device.end_query()
    return query.result(synchronous=True)


def _select_between(
    device: Device,
    relation: Relation,
    provider: TextureProvider,
    predicate: Between,
) -> int:
    column = relation.column(predicate.column)
    low = column.normalize(column.clamp_to_domain(predicate.low))
    high = column.normalize(column.clamp_to_domain(predicate.high))
    setup_selection_stencil(device)
    texture = _route_to_depth(provider, predicate.column)
    query = device.begin_query()
    range_pass(device, low, high, texture.count)
    device.end_query()
    return query.result(synchronous=True)


def _select_semilinear(
    device: Device,
    relation: Relation,
    provider: TextureProvider,
    predicate: SemiLinear,
) -> int:
    texture = provider.packed_texture(predicate.columns)
    setup_selection_stencil(device)
    device.state.color_mask = (False, False, False, False)
    query = device.begin_query()
    semilinear_pass(
        device,
        texture,
        predicate.coefficients,
        predicate.op,
        predicate.constant,
    )
    device.end_query()
    return query.result(synchronous=True)


def _select_polynomial(
    device: Device,
    relation: Relation,
    provider: TextureProvider,
    predicate: Polynomial,
) -> int:
    texture = provider.packed_texture(predicate.columns)
    setup_selection_stencil(device)
    device.state.color_mask = (False, False, False, False)
    query = device.begin_query()
    polynomial_pass(device, texture, predicate)
    device.end_query()
    return query.result(synchronous=True)


class _SimpleExecutor:
    """``execute_simple`` callback for :func:`eval_cnf`.

    Consecutive predicates on the same attribute share one copy pass
    when the provider's plan cache (fusion on) proves the depth buffer
    still holds it.
    """

    def __init__(self, relation: Relation, provider: TextureProvider):
        self.relation = relation
        self.provider = provider

    def __call__(
        self, device: Device, predicate: Predicate, query: bool
    ) -> int | None:
        if isinstance(predicate, Comparison):
            return self._comparison(device, predicate, query)
        if isinstance(predicate, Between):
            return self._between(device, predicate, query)
        if isinstance(predicate, SemiLinear):
            return self._semilinear(device, predicate, query)
        if isinstance(predicate, Polynomial):
            return self._polynomial(device, predicate, query)
        raise QueryError(
            f"CNF clause holds a non-simple predicate: {predicate!r}"
        )

    def _comparison(
        self, device: Device, predicate: Comparison, query: bool
    ) -> int | None:
        column = self.relation.column(predicate.column)
        texture = _route_to_depth(self.provider, predicate.column)
        depth = column.normalize(column.clamp_to_domain(predicate.value))
        return self._counted(
            device,
            query,
            lambda: compare_pass(device, predicate.op, depth, texture.count),
        )

    def _between(
        self, device: Device, predicate: Between, query: bool
    ) -> int | None:
        column = self.relation.column(predicate.column)
        texture = _route_to_depth(self.provider, predicate.column)
        low = column.normalize(column.clamp_to_domain(predicate.low))
        high = column.normalize(column.clamp_to_domain(predicate.high))
        return self._counted(
            device,
            query,
            lambda: range_pass(device, low, high, texture.count),
        )

    def _semilinear(
        self, device: Device, predicate: SemiLinear, query: bool
    ) -> int | None:
        texture = self.provider.packed_texture(predicate.columns)
        return self._counted(
            device,
            query,
            lambda: semilinear_pass(
                device,
                texture,
                predicate.coefficients,
                predicate.op,
                predicate.constant,
            ),
        )

    def _polynomial(
        self, device: Device, predicate: Polynomial, query: bool
    ) -> int | None:
        texture = self.provider.packed_texture(predicate.columns)
        return self._counted(
            device,
            query,
            lambda: polynomial_pass(device, texture, predicate),
        )

    @staticmethod
    def _counted(device: Device, query: bool, render) -> int | None:
        if not query:
            render()
            return None
        occlusion = device.begin_query()
        render()
        device.end_query()
        return occlusion.result(synchronous=True)
