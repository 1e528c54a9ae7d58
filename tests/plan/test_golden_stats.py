"""Golden ``PipelineStats`` matrix for the selection family.

Every selection shape, the selectivity sweep, the histogram and the
WHERE prefix of the aggregates run here with fusion on and off and with
the JIT on and off.  Each op's answer, its full copy/compute
``PipelineStats`` windows (every pass record, uploads, readbacks,
synchronous occlusion reads, clears) and its modeled milliseconds must
equal the recorded ``golden_stats.json`` exactly: the pass sequence a
selection issues is part of its contract with the cost model.

Regenerate the recording (only when a change is *meant* to move a
modeled number, and say so) with::

    PYTHONPATH=src python -m tests.plan.test_golden_stats
"""

import dataclasses
import json
import pathlib

import numpy as np
import pytest

from repro.core import (
    And,
    Between,
    Column,
    Comparison,
    GpuEngine,
    Not,
    Or,
    Polynomial,
    Relation,
    SemiLinear,
    TopK,
)
from repro.gpu.counters import PassStats
from repro.gpu.types import CompareFunc

GOLDEN = pathlib.Path(__file__).with_name("golden_stats.json")

GE, LT, GT = CompareFunc.GEQUAL, CompareFunc.LESS, CompareFunc.GREATER


def _relation() -> Relation:
    rng = np.random.default_rng(2004)
    records = 700
    return Relation(
        "golden",
        [
            Column.integer("a", rng.integers(0, 256, records), bits=8),
            Column.integer("b", rng.integers(0, 256, records), bits=8),
            Column.integer("c", rng.integers(0, 64, records), bits=6),
            Column.integer("d", rng.integers(0, 1024, records), bits=10),
        ],
    )


_AND2 = And(Comparison("a", GE, 100), Comparison("b", LT, 200))
_OR = Or(Comparison("a", LT, 50), Comparison("b", GE, 200))
_DNF3 = Or(
    And(Comparison("a", GE, 60), Comparison("b", LT, 180),
        Comparison("c", GE, 10)),
    And(Comparison("a", LT, 40), Comparison("d", GE, 300),
        Comparison("c", LT, 50)),
)

#: case name -> ops run in order on one fresh engine.
CASES = {
    "comparison": [("select", Comparison("a", GE, 100))],
    "between": [("select", Between("a", 40, 200))],
    "semilinear": [
        ("select", SemiLinear(("a", "b"), (1.0, -1.0), GT, 0.0)),
    ],
    "polynomial": [
        ("select", Polynomial(("a", "b"), (1.0, -0.5), (2, 1), GT, 900.0)),
    ],
    "and_two_columns": [("select", _AND2)],
    "and_same_column": [
        ("select", And(Comparison("a", GE, 10), Comparison("a", LT, 200))),
    ],
    "or": [("select", _OR)],
    "or_of_ands_2x2": [
        ("select", Or(
            And(Comparison("a", GE, 100), Comparison("b", LT, 128)),
            And(Comparison("c", GE, 32), Comparison("a", LT, 60)),
        )),
    ],
    "dnf_2x3": [("select", _DNF3)],
    "not": [
        ("select", Not(Or(
            And(Comparison("a", LT, 128), Comparison("b", LT, 128)),
            Comparison("c", GE, 32),
        ))),
    ],
    "selectivities_mixed": [
        ("selectivities", [
            Comparison("a", GE, 100),
            Between("a", 20, 90),
            Comparison("b", LT, 50),
            _AND2,
            Comparison("b", GE, 10),
            _DNF3,
            SemiLinear(("a", "c"), (1.0, 2.0), GT, 150.0),
            Comparison("d", LT, 512),
        ]),
    ],
    "histogram_8": [("histogram", "d", 8)],
    "where_prefix_reuse": [
        ("select", _AND2),
        ("aggregate", "median", "a", _AND2),
        ("aggregate", "sum", "b", _AND2),
        ("aggregate", "count", None, _AND2),
        ("histogram", "a", 8),
    ],
    "where_prefix_fresh": [
        ("aggregate", "median", "d", _DNF3),
        ("aggregate", "sum", "a", _OR),
        ("aggregate", "top_k", "b", _OR, 5),
        ("aggregate", "quantiles", "d", Between("d", 100, 900)),
    ],
}

CONFIGS = {
    f"fusion={fusion},jit={jit}": {"fusion": fusion, "jit": jit}
    for fusion in (True, False)
    for jit in (True, False)
}

_PASS_FIELDS = [field.name for field in dataclasses.fields(PassStats)]


def _plain(value):
    """JSON-able form of an op's answer."""
    if isinstance(value, TopK):
        return {
            "threshold": int(value.threshold),
            "ids": [int(i) for i in value.record_ids],
        }
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    if isinstance(value, (list, np.ndarray)):
        return [_plain(item) for item in value]
    if isinstance(value, (np.integer, int)):
        return int(value)
    return float(value)


def _window(stats) -> dict:
    return {
        "passes": [
            [getattr(record, name) for name in _PASS_FIELDS]
            for record in stats.passes
        ],
        "bytes_uploaded": stats.bytes_uploaded,
        "bytes_read_back": stats.bytes_read_back,
        "occlusion_results": stats.occlusion_results,
        "clears": stats.clears,
    }


def _run(engine: GpuEngine, op: tuple):
    kind = op[0]
    if kind == "select":
        return engine.select(op[1])
    if kind == "selectivities":
        return engine.selectivities(op[1])
    if kind == "histogram":
        return engine.histogram(op[1], buckets=op[2])
    _kind, name, column, predicate, *rest = op
    if name == "top_k":
        return engine.aggregate(name, column, predicate, k=rest[0])
    if name == "quantiles":
        return engine.aggregate(
            name, column, predicate, fractions=[0.1, 0.5, 0.9]
        )
    return engine.aggregate(name, column, predicate)


def run_case(case: str, config: str) -> list[dict]:
    engine = GpuEngine(_relation(), **CONFIGS[config])
    rows = []
    for op in CASES[case]:
        result = _run(engine, op)
        rows.append({
            "value": _plain(result.value),
            "copy": _window(result.copy),
            "compute": _window(result.compute),
            "modeled_ms": result.time_ms,
        })
    return rows


def record() -> dict:
    return {
        "pass_fields": _PASS_FIELDS,
        "cases": {
            case: {config: run_case(case, config) for config in CONFIGS}
            for case in CASES
        },
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_pass_record_fields_unchanged(golden):
    assert golden["pass_fields"] == _PASS_FIELDS


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_selection_stats_match_golden(golden, case, config):
    recorded = golden["cases"][case][config]
    # A JSON round trip turns the live tuples into lists.
    actual = json.loads(json.dumps(run_case(case, config)))
    assert len(actual) == len(recorded)
    for index, (row, expected) in enumerate(zip(actual, recorded)):
        where = f"{case} [{config}] op {index}"
        assert row["value"] == expected["value"], where
        for phase in ("copy", "compute"):
            assert row[phase] == expected[phase], f"{where} {phase}"
        assert row["modeled_ms"] == expected["modeled_ms"], where


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=None) + "\n")
    print(f"wrote {GOLDEN}")
