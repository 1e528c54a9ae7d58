"""Routine 4.3 (EvalCNF): stencil invariants and CNF semantics, through
the lowered CNF nodes the pass walker runs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Column, GpuEngine, Relation
from repro.core.predicates import (
    And,
    Between,
    Comparison,
    Not,
    Or,
    SemiLinear,
    to_cnf,
)
from repro.core.select import run_passes
from repro.gpu.types import CompareFunc
from repro.plan.compiler import _cnf_nodes, _FusionTracker


def _relation(seed=11, records=300):
    rng = np.random.default_rng(seed)
    return Relation(
        "t",
        [
            Column.integer("a", rng.integers(0, 256, records), bits=8),
            Column.integer("b", rng.integers(0, 256, records), bits=8),
            Column.integer("c", rng.integers(0, 64, records), bits=6),
        ],
    )


def _eval_cnf(engine, clauses):
    """Lower ``clauses`` to EvalCNF nodes and walk them: returns the
    stencil value the nodes leave on matches and the match count."""
    nodes, valid = _cnf_nodes(clauses, _FusionTracker(engine.fusion))
    return valid, sum(run_passes(engine, nodes))


def _run_cnf(relation, predicate):
    engine = GpuEngine(relation)
    valid, count = _eval_cnf(engine, to_cnf(predicate))
    stencil = engine.device.framebuffer.stencil.values[
        : relation.num_records
    ]
    return valid, count, stencil


class TestEvalCnf:
    def test_two_clause_and(self):
        relation = _relation()
        predicate = And(
            Comparison("a", CompareFunc.GEQUAL, 100),
            Comparison("b", CompareFunc.LESS, 200),
        )
        valid, count, stencil = _run_cnf(relation, predicate)
        expected = predicate.mask(relation)
        assert count == int(np.count_nonzero(expected))
        assert np.array_equal(stencil == valid, expected)

    def test_final_valid_value_parity(self):
        relation = _relation()
        single = Comparison("a", CompareFunc.GEQUAL, 0)
        # 1 clause -> valid 2; 2 clauses -> valid 1; 3 clauses -> 2.
        for clause_count, expected_valid in ((1, 2), (2, 1), (3, 2)):
            predicate = And(*([single] * clause_count))
            valid, _count, _stencil = _run_cnf(relation, predicate)
            assert valid == expected_valid

    def test_stencil_values_stay_in_0_valid(self):
        relation = _relation()
        predicate = And(
            Or(
                Comparison("a", CompareFunc.LESS, 100),
                Comparison("b", CompareFunc.LESS, 100),
                Comparison("c", CompareFunc.LESS, 30),
            ),
            Or(
                Comparison("a", CompareFunc.GEQUAL, 20),
                Between("b", 50, 150),
            ),
        )
        valid, _count, stencil = _run_cnf(relation, predicate)
        assert set(np.unique(stencil)) <= {0, valid}

    def test_overlapping_disjuncts_counted_once(self):
        # A record satisfying several disjuncts must INCR only once.
        relation = _relation()
        predicate = And(
            Or(
                Comparison("a", CompareFunc.GEQUAL, 0),  # always true
                Comparison("a", CompareFunc.GEQUAL, 10),  # mostly true
            ),
            Comparison("b", CompareFunc.GEQUAL, 0),  # always true
        )
        valid, count, stencil = _run_cnf(relation, predicate)
        assert count == relation.num_records
        assert np.all(stencil == valid)

    def test_empty_clause_list_selects_everything(self):
        relation = _relation()
        engine = GpuEngine(relation)
        valid, count = _eval_cnf(engine, [])
        assert count == relation.num_records
        assert valid == 1

    def test_contradiction_selects_nothing(self):
        relation = _relation()
        predicate = And(
            Comparison("a", CompareFunc.LESS, 100),
            Comparison("a", CompareFunc.GEQUAL, 100),
        )
        _valid, count, stencil = _run_cnf(relation, predicate)
        assert count == 0
        assert np.all(stencil == 0)

    def test_mixed_simple_predicate_kinds_in_clause(self):
        relation = _relation()
        predicate = Or(
            Between("a", 40, 90),
            SemiLinear(("a", "b"), (1, -1), CompareFunc.GREATER, 0),
            Comparison("c", CompareFunc.EQUAL, 5),
        )
        # Wrap in And so it goes through the CNF path with a clause of 3.
        combined = And(predicate, Comparison("a", CompareFunc.GEQUAL, 0))
        valid, count, stencil = _run_cnf(relation, combined)
        expected = combined.mask(relation)
        assert count == int(np.count_nonzero(expected))
        assert np.array_equal(stencil == valid, expected)

    def test_shared_depth_copy_for_same_attribute(self):
        # Consecutive predicates on one attribute reuse the depth copy.
        relation = _relation()
        engine = GpuEngine(relation)
        predicate = And(
            Comparison("a", CompareFunc.GEQUAL, 10),
            Comparison("a", CompareFunc.LESS, 200),
        )
        engine.device.stats.reset()
        _eval_cnf(engine, to_cnf(predicate))
        copies = [
            p
            for p in engine.device.stats.passes
            if (p.program or "").startswith("copy-to-depth")
        ]
        assert len(copies) == 1

    @given(
        thresholds=st.lists(
            st.integers(0, 255), min_size=1, max_size=4
        ),
        use_or=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_matches_reference_mask(self, thresholds, use_or):
        relation = _relation(seed=3, records=120)
        parts = [
            Comparison(
                ("a", "b", "c")[i % 3], CompareFunc.GEQUAL, t % 64
            )
            for i, t in enumerate(thresholds)
        ]
        predicate = (
            Or(*parts) if use_or and len(parts) > 1 else And(*parts)
        )
        if use_or and len(parts) > 1:
            predicate = And(
                predicate, Comparison("a", CompareFunc.GEQUAL, 0)
            )
        valid, count, stencil = _run_cnf(relation, predicate)
        expected = predicate.mask(relation)
        assert count == int(np.count_nonzero(expected))
        assert np.array_equal(stencil == valid, expected)

    def test_negated_nested_boolean(self):
        relation = _relation()
        predicate = Not(
            Or(
                And(
                    Comparison("a", CompareFunc.LESS, 128),
                    Comparison("b", CompareFunc.LESS, 128),
                ),
                Comparison("c", CompareFunc.GEQUAL, 32),
            )
        )
        valid, count, stencil = _run_cnf(relation, predicate)
        expected = predicate.mask(relation)
        assert count == int(np.count_nonzero(expected))
        assert np.array_equal(stencil == valid, expected)
