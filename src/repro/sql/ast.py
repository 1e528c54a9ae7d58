"""SQL abstract syntax tree.

Only what the paper's query shape needs: a single-table SELECT with an
optional WHERE of boolean predicate combinations, and aggregate or
column items in the select list.
"""

from __future__ import annotations

import dataclasses
import enum

from ..core.predicates import Predicate


class AggregateFunc(enum.Enum):
    COUNT = "COUNT"
    SUM = "SUM"
    AVG = "AVG"
    MIN = "MIN"
    MAX = "MAX"
    MEDIAN = "MEDIAN"


#: SQL aggregate -> engine op name (the ``GpuEngine.aggregate`` /
#: schedule op, and the ``CpuEngine`` method of the same name).
AGGREGATE_OPS = {
    AggregateFunc.COUNT: "count",
    AggregateFunc.SUM: "sum",
    AggregateFunc.AVG: "average",
    AggregateFunc.MIN: "minimum",
    AggregateFunc.MAX: "maximum",
    AggregateFunc.MEDIAN: "median",
}


@dataclasses.dataclass(frozen=True)
class AggregateItem:
    """``FUNC(column)`` or ``COUNT(*)``."""

    func: AggregateFunc
    column: str | None  # None only for COUNT(*)
    alias: str | None = None

    @property
    def label(self) -> str:
        if self.alias:
            return self.alias
        target = "*" if self.column is None else self.column
        return f"{self.func.value}({target})"


@dataclasses.dataclass(frozen=True)
class ColumnItem:
    """A projected column, optionally table-qualified (joins)."""

    column: str
    alias: str | None = None
    table: str | None = None

    @property
    def label(self) -> str:
        if self.alias:
            return self.alias
        if self.table:
            return f"{self.table}.{self.column}"
        return self.column


@dataclasses.dataclass(frozen=True)
class StarItem:
    """``SELECT *``."""

    @property
    def label(self) -> str:
        return "*"


SelectItem = AggregateItem | ColumnItem | StarItem


@dataclasses.dataclass(frozen=True)
class JoinClause:
    """``JOIN right_table ON left_table.left_column =
    right_table.right_column`` (equi-join)."""

    right_table: str
    left_column: str
    right_column: str


@dataclasses.dataclass(frozen=True)
class SelectStatement:
    items: tuple[SelectItem, ...]
    table: str
    where: Predicate | None
    group_by: str | None = None
    join: JoinClause | None = None

    @property
    def is_aggregate(self) -> bool:
        return any(isinstance(item, AggregateItem) for item in self.items)
