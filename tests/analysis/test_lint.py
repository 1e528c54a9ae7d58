"""repro-lint: each rule fires on its bug shape, suppressions work,
and the shipped source tree is clean (the CI gate's contract)."""

import json
import pathlib
import textwrap

import pytest

from repro.analysis import LINT_RULES, lint_paths, lint_source
from repro.analysis.cli import main

REPO = pathlib.Path(__file__).resolve().parents[2]


def _codes(source, path="src/repro/core/x.py"):
    return [
        finding.rule.code
        for finding in lint_source(textwrap.dedent(source), path=path)
    ]


class TestRawDevice:
    BAD = """
        from repro.gpu.pipeline import Device

        def probe():
            device = Device(4, 4)
            device.clear_stencil(0)
    """

    def test_flags_in_engine_only_layers(self):
        codes = _codes(self.BAD, path="src/repro/sql/helper.py")
        assert codes.count("L201") == 2

    def test_streams_module_is_engine_only(self):
        codes = _codes(self.BAD, path="src/repro/streams.py")
        assert codes.count("L201") == 2

    def test_device_attribute_calls_flagged(self):
        source = """
            def probe(engine):
                engine.device.render_quad(0.5)
        """
        assert "L201" in _codes(source, path="src/repro/bench/x.py")

    def test_substrate_layers_may_touch_the_device(self):
        assert _codes(self.BAD, path="src/repro/gpu/helper.py") == []
        assert _codes(self.BAD, path="src/repro/core/helper.py") == []

    def test_stats_reads_are_fine(self):
        source = """
            def snapshot(engine):
                engine.device.stats.reset()
                return engine.device.stats.snapshot()
        """
        assert _codes(source, path="src/repro/bench/x.py") == []


class TestUncheckedStencilRead:
    def test_flags_unchecked_read(self):
        source = """
            def ids(engine):
                return engine.device.read_stencil().nonzero()
        """
        assert "L202" in _codes(source)

    def test_generation_check_in_same_function_passes(self):
        source = """
            def ids(engine, generation):
                if engine.device.stencil_generation != generation:
                    raise ValueError("stale")
                return engine.device.read_stencil().nonzero()
        """
        assert _codes(source) == []

    def test_defining_read_stencil_is_not_a_read(self):
        source = """
            class Device:
                def read_stencil(self):
                    return self.state.stencil.copy()
        """
        assert _codes(source) == []


class TestBareExcept:
    def test_bare_except_flagged(self):
        source = """
            def run(op):
                try:
                    return op()
                except:
                    return None
        """
        assert "L203" in _codes(source)

    def test_blanket_exception_without_reraise_flagged(self):
        source = """
            def run(op):
                try:
                    return op()
                except Exception:
                    return None
        """
        assert "L203" in _codes(source)

    def test_blanket_exception_with_reraise_passes(self):
        source = """
            def run(op):
                try:
                    return op()
                except Exception:
                    cleanup()
                    raise
        """
        assert _codes(source) == []

    def test_typed_except_passes(self):
        source = """
            def run(op):
                try:
                    return op()
                except ValueError:
                    return None
        """
        assert _codes(source) == []


class TestFloatEq:
    def test_float_equality_flagged(self):
        assert "L204" in _codes("ok = value == 0.5\n")
        assert "L204" in _codes("ok = value != 1.0\n")

    def test_integer_equality_passes(self):
        assert _codes("ok = value == 1\n") == []

    def test_float_ordering_passes(self):
        assert _codes("ok = value < 0.5\n") == []


class TestStringDevice:
    def test_string_device_kwarg_flagged(self):
        assert "L205" in _codes('db.query(sql, device="gpu")\n')

    def test_enum_device_kwarg_passes(self):
        assert _codes("db.query(sql, device=Device.GPU)\n") == []

    def test_unrelated_string_kwargs_pass(self):
        assert _codes('db.query(sql, mode="fast")\n') == []


class TestUnscheduledStencilWrite:
    BAD = """
        def reset(engine):
            engine.device.clear_stencil(0)
    """

    def test_flags_outside_scheduler_layers(self):
        for layer in ("service", "faults", "plan", "sql"):
            codes = _codes(self.BAD, path=f"src/repro/{layer}/x.py")
            assert "L206" in codes, layer

    def test_gpu_and_core_may_write_stencil(self):
        assert _codes(self.BAD, path="src/repro/gpu/context.py") == []
        assert _codes(self.BAD, path="src/repro/core/engine.py") == []

    def test_generation_assignment_flagged(self):
        source = """
            def hack(engine, generation):
                engine.device.stencil_generation = generation
        """
        codes = _codes(source, path="src/repro/service/x.py")
        assert "L206" in codes

    def test_non_repro_files_exempt(self):
        assert _codes(self.BAD, path="tests/service/helper.py") == []

    def test_non_device_clear_passes(self):
        source = """
            def drain(queue):
                queue.clear()
        """
        assert _codes(source, path="src/repro/service/x.py") == []


class TestDirectInterpreter:
    BAD = """
        def run(program, batch, params):
            return ProgramInterpreter({}, params).run(program, batch)
    """

    def test_flags_outside_gpu_layer(self):
        for layer in ("core", "plan", "sql", "service"):
            codes = _codes(self.BAD, path=f"src/repro/{layer}/x.py")
            assert "L207" in codes, layer

    def test_gpu_layer_may_interpret(self):
        assert _codes(
            self.BAD, path="src/repro/gpu/pipeline.py"
        ) == []

    def test_attribute_call_flagged(self):
        source = """
        def run(interpreter_mod, program):
            return interpreter_mod.ProgramInterpreter({}, None)
        """
        codes = _codes(source, path="src/repro/core/x.py")
        assert "L207" in codes

    def test_non_repro_files_exempt(self):
        assert _codes(self.BAD, path="tests/gpu/helper.py") == []


class TestSuppressions:
    def test_same_line_suppression(self):
        source = 'ok = v == 0.5  # repro-lint: disable=float-eq\n'
        assert _codes(source) == []

    def test_comment_above_suppression(self):
        source = (
            "# exact sentinel.  # repro-lint: disable=float-eq\n"
            "ok = v == 0.5\n"
        )
        assert _codes(source) == []

    def test_suppression_is_rule_specific(self):
        source = 'ok = v == 0.5  # repro-lint: disable=bare-except\n'
        assert "L204" in _codes(source)

    def test_multiple_rules_one_marker(self):
        source = (
            'db.query(s, device="gpu") == 0.5'
            "  # repro-lint: disable=float-eq,string-device\n"
        )
        assert _codes(source) == []


class TestUnlockedPoolCapture:
    def test_flags_unlocked_attribute_store(self):
        source = """
            def launch(self, shard):
                def worker(shard):
                    self.stats.completed += 1
                    return shard.run()
                return self._pool.submit(worker, shard)
        """
        assert _codes(source, path="src/repro/shard/x.py") == ["L208"]

    def test_flags_unlocked_container_mutation(self):
        source = """
            def launch(self, shard):
                def worker(shard):
                    self.tracer.events.append("begin")
                    return shard.run()
                return self._pool.submit(worker, shard)
        """
        assert _codes(source, path="src/repro/shard/x.py") == ["L208"]

    def test_lock_held_passes(self):
        source = """
            def launch(self, shard):
                def worker(shard):
                    with self._lock:
                        self.stats.completed += 1
                    return shard.run()
                return self._pool.submit(worker, shard)
        """
        assert _codes(source, path="src/repro/shard/x.py") == []

    def test_own_parameter_state_passes(self):
        source = """
            def launch(self):
                def worker(shard, token):
                    shard.stats.completed += 1
                    return shard.engine.count()
                return self._pool.submit(worker, self.shard, 1)
        """
        assert _codes(source, path="src/repro/shard/x.py") == []

    def test_insensitive_capture_passes(self):
        source = """
            def launch(self, shard):
                def worker(shard):
                    self.widget.total = 3
                    return shard.run()
                return self._pool.submit(worker, shard)
        """
        assert _codes(source, path="src/repro/shard/x.py") == []

    def test_lambda_bodies_are_scanned(self):
        source = """
            def launch(self, tracer):
                return self._pool.submit(
                    lambda: tracer.spans.append("x")
                )
        """
        codes = _codes(source, path="src/repro/shard/x.py")
        assert "L208" in codes

    def test_non_pool_submit_ignored(self):
        source = """
            def launch(self, form):
                def worker():
                    self.stats.completed += 1
                return form.submit(worker)
        """
        assert _codes(source, path="src/repro/shard/x.py") == []

    def test_method_reference_resolved(self):
        source = """
            class Runner:
                def _worker(self, shard):
                    self.engine.stats.merges += 1

                def launch(self, shard):
                    return self._pool.submit(self._worker, shard)
        """
        assert _codes(source, path="src/repro/shard/x.py") == ["L208"]


class TestOffShardEngine:
    def test_flags_shard_table_index(self):
        source = """
            def launch(self):
                def worker(index):
                    return self._shards[index + 1].engine.count()
                return self._pool.submit(worker, 0)
        """
        assert _codes(source, path="src/repro/shard/x.py") == ["L209"]

    def test_flags_parent_chain(self):
        source = """
            def launch(self, shard):
                def worker(shard):
                    return shard.parent.contexts.activate(None)
                return self._pool.submit(worker, shard)
        """
        assert _codes(source, path="src/repro/shard/x.py") == ["L209"]

    def test_flags_in_branch_headers(self):
        source = """
            def launch(self):
                def worker(i):
                    if self._shards[0].degraded:
                        return None
                    return i
                return self._pool.submit(worker, 1)
        """
        assert _codes(source, path="src/repro/shard/x.py") == ["L209"]

    def test_own_shard_argument_passes(self):
        source = """
            def launch(self, fn):
                def worker(shard, token):
                    begin(token)
                    try:
                        return fn(shard)
                    finally:
                        end(token)
                return self._pool.submit(worker, self.first, 1)
        """
        assert _codes(source, path="src/repro/shard/x.py") == []

    def test_host_side_shard_index_passes(self):
        source = """
            def report(self):
                return self._shards[0].engine.relation.num_records
        """
        assert _codes(source, path="src/repro/shard/x.py") == []


class TestShippedTreeIsClean:
    def test_src_repro_lints_clean(self):
        findings = lint_paths([str(REPO / "src" / "repro")])
        assert findings == [], "\n".join(
            finding.render_text() for finding in findings
        )


class TestCli:
    def test_clean_tree_exits_zero(self, capsys):
        assert main([str(REPO / "src" / "repro" / "analysis")]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("ok = value == 0.5\n")
        assert main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "L204" in out
        assert "1 finding" in out

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in LINT_RULES:
            assert rule.code in out


class TestCliJson:
    def test_clean_tree_json(self, capsys):
        assert main(
            ["--format", "json", str(REPO / "src" / "repro" / "analysis")]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"findings": [], "count": 0, "suppressed": 0}

    def test_findings_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("ok = value == 0.5\n")
        assert main(["--format", "json", str(bad)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        (finding,) = payload["findings"]
        assert finding["code"] == "L204"
        assert finding["name"] == "float-eq"
        assert finding["line"] == 1
        assert finding["path"] == str(bad)


class TestCliBaseline:
    def test_baseline_suppresses_known_findings(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("ok = value == 0.5\n")
        baseline = tmp_path / "baseline.json"
        assert main(
            ["--write-baseline", str(baseline), str(bad)]
        ) == 0
        assert "1 finding" in capsys.readouterr().out
        assert main(["--baseline", str(baseline), str(bad)]) == 0
        assert "clean (1 baselined)" in capsys.readouterr().out

    def test_new_findings_still_fail(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("ok = value == 0.5\n")
        baseline = tmp_path / "baseline.json"
        assert main(
            ["--write-baseline", str(baseline), str(bad)]
        ) == 0
        capsys.readouterr()
        bad.write_text("ok = value == 0.5\nworse = other == 1.25\n")
        assert main(["--baseline", str(baseline), str(bad)]) == 1
        out = capsys.readouterr().out
        assert "1 finding (1 baselined)" in out

    def test_baseline_survives_line_drift(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("ok = value == 0.5\n")
        baseline = tmp_path / "baseline.json"
        assert main(
            ["--write-baseline", str(baseline), str(bad)]
        ) == 0
        capsys.readouterr()
        # The same finding moves down two lines: still baselined.
        bad.write_text("\n\nok = value == 0.5\n")
        assert main(["--baseline", str(baseline), str(bad)]) == 0

    def test_version_mismatch_rejected(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text('{"version": 99, "findings": []}')
        with pytest.raises(SystemExit):
            main(["--baseline", str(baseline), str(tmp_path)])

    def test_shipped_baseline_is_current(self, capsys):
        """The committed lint-baseline.json matches a clean tree."""
        shipped = REPO / "lint-baseline.json"
        payload = json.loads(shipped.read_text())
        assert payload["version"] == 1
        assert payload["findings"] == []


class TestRuleCatalog:
    def test_codes_unique(self):
        codes = [rule.code for rule in LINT_RULES]
        assert len(codes) == len(set(codes))
        assert len(codes) == 9

    @pytest.mark.parametrize("rule", LINT_RULES, ids=lambda r: r.code)
    def test_slugs_are_suppression_safe(self, rule):
        assert rule.name == rule.name.lower()
        assert " " not in rule.name
