"""EvalDNF (the paper's "easily modified" routine 4.3 variant) and the
stencil write mask that enables it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Column, CpuEngine, GpuEngine, Relation, col
from repro.core.predicates import (
    And,
    Between,
    Comparison,
    Or,
    to_dnf,
)
from repro.core.select import run_passes
from repro.errors import QueryError, RenderStateError
from repro.gpu import CompareFunc, Device, StencilOp
from repro.plan.compiler import (
    DNF_VALID_STENCIL,
    _dnf_nodes,
    _FusionTracker,
    choose_normal_form,
)


def _eval_dnf(engine, clauses):
    """Lower ``clauses`` to EvalDNF nodes and walk them: returns the
    stencil value the nodes leave on matches and the match count."""
    nodes, valid = _dnf_nodes(clauses, _FusionTracker(engine.fusion))
    return valid, sum(run_passes(engine, nodes))


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


class TestStencilWriteMask:
    def test_ops_confined_to_masked_bits(self):
        device = Device(2, 2)
        device.clear_stencil(0b101)
        stencil = device.state.stencil
        stencil.enabled = True
        stencil.func = CompareFunc.ALWAYS
        stencil.write_mask = 0b011
        stencil.reference = 0b111
        stencil.zpass = StencilOp.REPLACE
        device.render_quad(0.0)
        # Bit 2 survives; bits 0-1 take the reference.
        assert np.all(device.framebuffer.stencil.values == 0b111)
        stencil.write_mask = 0b100
        stencil.zpass = StencilOp.ZERO
        device.render_quad(0.0)
        assert np.all(device.framebuffer.stencil.values == 0b011)

    def test_invert_within_mask(self):
        device = Device(1, 1)
        device.clear_stencil(0b001)
        stencil = device.state.stencil
        stencil.enabled = True
        stencil.func = CompareFunc.ALWAYS
        stencil.write_mask = 0b100
        stencil.zpass = StencilOp.INVERT
        device.render_quad(0.0)
        assert device.framebuffer.stencil.values[0] == 0b101

    def test_write_mask_validated(self):
        device = Device(1, 1)
        device.state.stencil.enabled = True
        device.state.stencil.write_mask = 300
        with pytest.raises(RenderStateError):
            device.render_quad(0.0)


class TestEvalDnf:
    def _run(self, relation, predicate):
        engine = GpuEngine(relation)
        valid, count = _eval_dnf(engine, to_dnf(predicate))
        stencil = engine.device.framebuffer.stencil.values[
            : relation.num_records
        ]
        return valid, count, stencil

    def test_or_of_ands(self):
        relation = _relation()
        predicate = Or(
            And(
                Comparison("a", CompareFunc.GEQUAL, 100),
                Comparison("b", CompareFunc.LESS, 128),
            ),
            Comparison("c", CompareFunc.GEQUAL, 32),
        )
        valid, count, stencil = self._run(relation, predicate)
        expected = predicate.mask(relation)
        assert valid == DNF_VALID_STENCIL
        assert count == int(expected.sum())
        assert set(np.unique(stencil)) <= {0, valid}
        assert np.array_equal(stencil == valid, expected)

    def test_overlapping_clauses_counted_once(self):
        relation = _relation()
        predicate = Or(
            Comparison("a", CompareFunc.GEQUAL, 0),  # everything
            Comparison("b", CompareFunc.GEQUAL, 128),  # subset
        )
        _valid, count, _stencil = self._run(relation, predicate)
        assert count == relation.num_records

    def test_empty_clause_list(self):
        relation = _relation()
        engine = GpuEngine(relation)
        valid, count = _eval_dnf(engine, [])
        assert count == 0
        assert np.all(
            engine.device.framebuffer.stencil.values == 0
        )

    def test_mixed_predicate_kinds_in_conjunction(self):
        relation = _relation()
        predicate = Or(
            And(
                Between("a", 40, 200),
                Comparison("b", CompareFunc.LESS, 100),
                Comparison("c", CompareFunc.GEQUAL, 10),
            ),
            And(
                Comparison("a", CompareFunc.LESS, 20),
                col("b") > col("c"),
            ),
        )
        valid, count, stencil = self._run(relation, predicate)
        expected = predicate.mask(relation)
        assert count == int(expected.sum())
        assert np.array_equal(stencil == valid, expected)

    @given(
        seed=st.integers(0, 25),
        thresholds=st.lists(
            st.tuples(st.integers(0, 255), st.integers(0, 255)),
            min_size=1,
            max_size=4,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_matches_reference(self, seed, thresholds):
        relation = _relation(seed=seed, records=120)
        conjunctions = [
            And(
                Comparison("a", CompareFunc.GEQUAL, low),
                Comparison("b", CompareFunc.LESS, high),
            )
            for low, high in thresholds
        ]
        predicate = (
            Or(*conjunctions)
            if len(conjunctions) > 1
            else conjunctions[0]
        )
        valid, count, stencil = self._run(relation, predicate)
        expected = predicate.mask(relation)
        assert count == int(expected.sum())
        assert np.array_equal(stencil == valid, expected)


class TestNormalFormChoice:
    def test_cnf_preferred_for_and_of_ors(self):
        predicate = And(
            Or(
                Comparison("a", CompareFunc.LESS, 1),
                Comparison("b", CompareFunc.LESS, 1),
            ),
            Or(
                Comparison("a", CompareFunc.GEQUAL, 0),
                Comparison("c", CompareFunc.LESS, 1),
            ),
        )
        form, _clauses = choose_normal_form(predicate)
        assert form == "cnf"

    def test_dnf_rescues_cnf_explosion(self):
        # 6 conjunctions of 3 => 3^6 = 729 CNF clauses (over the 256
        # limit) but just 6 DNF clauses.
        conjunctions = [
            And(
                Comparison("a", CompareFunc.GEQUAL, i),
                Comparison("b", CompareFunc.LESS, 255 - i),
                Comparison("c", CompareFunc.GEQUAL, i % 64),
            )
            for i in range(6)
        ]
        predicate = Or(*conjunctions)
        form, clauses = choose_normal_form(predicate)
        assert form == "dnf"
        assert len(clauses) == 6

    def test_selection_uses_dnf_transparently(self):
        relation = _relation(seed=3, records=400)
        gpu = GpuEngine(relation)
        cpu = CpuEngine(relation)
        conjunctions = [
            And(
                Comparison("a", CompareFunc.GEQUAL, 40 * i),
                Comparison("b", CompareFunc.LESS, 60 * i + 30),
                Comparison("c", CompareFunc.GEQUAL, 4 * i),
            )
            for i in range(6)
        ]
        predicate = Or(*conjunctions)
        gpu_result = gpu.select(predicate)
        cpu_result = cpu.select(predicate)
        assert gpu_result.count == cpu_result.count
        assert np.array_equal(
            gpu_result.record_ids(), cpu_result.record_ids()
        )
        # And the mask feeds aggregates as usual.
        if gpu_result.count:
            assert (
                gpu.median("a", predicate).value
                == cpu.median("a", predicate).value
            )

    def test_double_explosion_raises(self):
        # (x00 OR y00 OR z00) AND ... deep alternation that explodes
        # both forms.
        leaf = lambda i: Comparison("a", CompareFunc.GEQUAL, i)  # noqa: E731
        ors = [Or(leaf(i), leaf(i + 1), leaf(i + 2)) for i in range(8)]
        ands = [And(*ors[:4]), And(*ors[4:])]
        predicate = Or(
            *[And(o, ors[(i + 1) % 8]) for i, o in enumerate(ors)]
        )
        # Construct something that explodes CNF; DNF may or may not
        # survive — only assert the selector never returns silently
        # wrong structure.
        from repro.plan.compiler import choose_normal_form as choose

        try:
            form, clauses = choose(predicate)
        except QueryError:
            return
        assert form in ("cnf", "dnf")
        assert clauses


class TestDnfToCnfDuality:
    @given(
        seed=st.integers(0, 10),
        depth_seed=st.integers(0, 1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_to_dnf_preserves_semantics(self, seed, depth_seed):
        rng = np.random.default_rng(depth_seed)
        relation = _relation(seed=seed, records=100)

        def leaf():
            return Comparison(
                ("a", "b", "c")[rng.integers(0, 3)],
                CompareFunc.GEQUAL,
                float(rng.integers(0, 256)),
            )

        predicate = Or(
            And(leaf(), leaf()),
            And(leaf(), Or(leaf(), leaf())),
        )
        original = predicate.mask(relation)
        rebuilt = np.zeros(relation.num_records, dtype=bool)
        for clause in to_dnf(predicate):
            clause_mask = np.ones(relation.num_records, dtype=bool)
            for simple in clause:
                clause_mask &= simple.mask(relation)
            rebuilt |= clause_mask
        assert np.array_equal(original, rebuilt)
