"""Smoke test of the end-to-end benchmark.

Runs every workload at 2^12 records and 20 ops, end to end and traced,
and checks the result against ``BENCHMARK.json``.  Run it with
``PYTHONPATH=src pytest benchmarks/e2e``.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

import compare  # noqa: E402


def run(out: pathlib.Path, *args: str, cwd: pathlib.Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks/e2e/run.py"), "--smoke",
         "--out", str(out), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )


def last_json(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in CONTRACT[section]}


@pytest.fixture(scope="module")
def results(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("e2e")
    return {
        "out": out,
        "e2e": last_json(run(out)),
        "trace": last_json(run(out, "--trace", "1")),
    }


def test_every_workload_emits_every_end_to_end_metric(results):
    result = results["e2e"]
    assert result["correct"] is True
    assert result["failed"] == 0
    names = {w["name"] for w in CONTRACT["workloads"]}
    assert set(result["workloads"]) == names
    for summary in result["workloads"].values():
        assert summary["failed"] == 0
        assert summary["attempted"] >= 20
        metrics = summary["metrics"]
        assert {n: m["unit"] for n, m in metrics.items()} == units(
            "end_to_end"
        )
        assert all(m["value"] > 0 for m in metrics.values())


def test_trace_emits_every_per_layer_metric(results):
    result = results["trace"]
    assert result["failed"] == 0
    for name, summary in result["workloads"].items():
        metrics = summary["metrics"]
        assert {n: m["unit"] for n, m in metrics.items()} == units(
            "per_layer"
        )
        trace = json.loads(
            (results["out"] / "traces" / f"{name}.seed11.json").read_text()
        )
        assert any(e.get("name") == "request" for e in trace["traceEvents"])
    olap = {
        n: m["value"]
        for n, m in result["workloads"]["paper_olap"]["metrics"].items()
    }
    parts = ("gpu.raster_ms", "gpu.depth_quantize_ms", "gpu.program_ms",
             "gpu.jit_bind_ms", "gpu.tests_ms")
    assert sum(olap[p] for p in parts) == pytest.approx(
        olap["gpu.pass_wall_ms"]
    )
    assert olap["gpu.passes_per_op"] > 0
    assert olap["shard.fanout_wall_ms"] == 0


def test_result_files_feed_compare(results, capsys):
    out = results["out"]
    assert compare.main([str(out), str(out)]) == 0
    table = capsys.readouterr().out
    for workload in CONTRACT["workloads"]:
        assert workload["name"] in table


def test_compare_refuses_runs_of_other_seeds(results, tmp_path, capsys):
    reseeded = tmp_path / "reseeded"
    reseeded.mkdir()
    for path in results["out"].glob("*.e2e.*.json"):
        record = json.loads(path.read_text())
        record["seed"] += 1
        (reseeded / path.name).write_text(json.dumps(record))
    assert compare.main([str(results["out"]), str(reseeded)]) == 2
    assert "seeds differ" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["paper_olap", "service_small"])
def test_modeled_prefix_does_not_follow_the_seed(name):
    """``modeled_ms_per_op`` averages requests drawn from the reference
    seed; the requests after them follow ``--seed``."""
    from workloads import WORKLOADS

    def sql(seed: int) -> tuple[int, list[str]]:
        workload = WORKLOADS[name](seed, smoke=True)
        stream = workload.requests(0)
        prefix = workload.modeled_prefix
        return prefix, [next(stream).sql for _ in range(prefix + 14)]

    prefix, one = sql(1)
    _, two = sql(2)
    assert one[:prefix] == two[:prefix]
    assert one[prefix:] != two[prefix:]


def test_single_workload_prints_the_contract_line(tmp_path):
    result = last_json(run(tmp_path, "--workload", "stream_window"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True


def test_refuses_to_run_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "benchmarks/e2e")
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = run(tmp_path / "out", cwd=bare)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


@pytest.mark.parametrize(
    "base, head, better, expected",
    [
        ([10.0, 10.1, 10.2, 9.9], [10.0, 10.1, 9.9, 10.2], "lower", "ok"),
        ([10.0, 10.1, 10.2, 9.9], [13.0, 13.1, 12.9, 13.2], "lower",
         "regressed"),
        ([10.0, 10.1, 10.2, 9.9], [7.0, 7.1, 6.9, 7.2], "higher",
         "regressed"),
        ([10.0, 20.0, 5.0, 15.0], [11.0, 21.0, 6.0, 16.0], "lower",
         "unresolved"),
        ([10.0, 20.0, 5.0, 15.0], [1.0, 2.0, 1.5, 3.0], "lower", "ok"),
    ],
)
def test_compare_verdicts(base, head, better, expected):
    assert compare.verdict(base, head, better, 0.1)[0] == expected
