"""End-to-end benchmark of the GPU database simulator.

Runs each workload in a fresh child process (``harness.py``) with a
pinned environment, checks that the metrics it reports are the ones
``BENCHMARK.json`` names, writes one result file per run, prints every
metric with its unit, and ends with one JSON line::

    python3 benchmarks/e2e/run.py                      # all four workloads
    python3 benchmarks/e2e/run.py --workload paper_olap --seed 12
    python3 benchmarks/e2e/run.py --trace 1            # per-layer metrics
    python3 benchmarks/e2e/run.py --smoke              # 2^12 records, 20 ops

``BENCHMARK.json`` is the one source of the workload names, the metric
names and units, and the measured time per run (``run_seconds``, which
``--seconds`` overrides).  Compare two sets of result files with
``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: A child that runs longer is killed: one run must end within 180 s.
CHILD_TIMEOUT_S = 170
#: Cleared in every child, so a stray export cannot change the program
#: under test (shards, JIT, sanitizer, chaos profiles).
PINNED_PREFIX = "REPRO_"


class BenchError(Exception):
    """The benchmark could not produce a valid result."""


def child_env() -> dict[str, str]:
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith(PINNED_PREFIX)
    }
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        # One client thread per core at most: keep numpy single-threaded.
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        # One malloc arena for every thread: with one per thread, peak
        # RSS follows how the shard threads' allocations interleave.
        MALLOC_ARENA_MAX="1",
    )
    return env


def load_contract() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source under {ROOT / 'src'}")
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def run_child(
    workload: str, seconds: float, args: argparse.Namespace
) -> dict:
    command = [
        sys.executable, str(HERE / "harness.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(seconds),
        "--trace", str(args.trace),
        "--trace-dir", str(args.out / "traces"),
    ]
    if args.smoke:
        command.append("--smoke")
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(
            f"{workload}: no result within {CHILD_TIMEOUT_S} s"
        ) from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{workload}: child exited {done.returncode}")
    return json.loads(lines[-1])


def with_units(record: dict, expected: list[dict]) -> dict:
    """The record's metrics, which must be exactly the contract's, in
    the contract's order and with its units."""
    got = record["metrics"]
    want = [m["name"] for m in expected]
    if set(got) != set(want):
        raise BenchError(
            f"{record['workload']}: metrics differ from BENCHMARK.json "
            f"(missing {sorted(set(want) - set(got))}, "
            f"extra {sorted(set(got) - set(want))})"
        )
    return {
        m["name"]: {"value": got[m["name"]], "unit": m["unit"]}
        for m in expected
    }


def summary(record: dict) -> dict:
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }


def report(record: dict) -> None:
    print(
        f"{record['workload']} (seed {record['seed']}, "
        f"{record['attempted']} ops, {record['failed']} failed)"
    )
    for name, metric in record["metrics"].items():
        print(f"  {name:28s} {metric['value']:14.4f} {metric['unit']}")
    detail = record.get("detail", {})
    if "samples" in detail:
        print(
            f"  (not gated) latency_p50_ms {detail['latency_p50_ms']:.4f}, "
            f"latency_p90_ms {detail['latency_p90_ms']:.4f}, "
            f"latency_p99_ms {detail['latency_p99_ms']:.4f} "
            f"over {detail['samples']} samples"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument(
        "--workload", default="all",
        help="a workload BENCHMARK.json names, or all (the default)",
    )
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--seconds", type=float,
        help="measured time per end-to-end run (default: run_seconds "
             "in BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: replay the first ops traced and report per-layer metrics",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="2^12 records and 20 ops per workload",
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=HERE / "results",
        help="directory for result files and Chrome traces",
    )
    args = parser.parse_args(argv)

    try:
        contract = load_contract()
        section = contract["per_layer" if args.trace else "end_to_end"]
        workloads = [w["name"] for w in contract["workloads"]]
        if args.workload != "all" and args.workload not in workloads:
            raise BenchError(
                f"unknown workload {args.workload!r}; BENCHMARK.json "
                f"names {', '.join(workloads)}"
            )
        names = workloads if args.workload == "all" else [args.workload]
        seconds = (
            contract["run_seconds"] if args.seconds is None else args.seconds
        )
        args.out.mkdir(parents=True, exist_ok=True)
        records = []
        for workload in names:
            record = run_child(workload, seconds, args)
            record["metrics"] = with_units(record, section)
            kind = "trace" if args.trace else "e2e"
            path = args.out / (
                f"{workload}.seed{args.seed}.{kind}.{time.time_ns()}.json"
            )
            path.write_text(json.dumps(record, indent=1))
            report(record)
            records.append(record)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if len(records) == 1:
        result = summary(records[0])
    else:
        result = {
            "correct": all(r["failed"] == 0 for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "workloads": {r["workload"]: summary(r) for r in records},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
