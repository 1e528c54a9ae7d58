"""Compare two sets of end-to-end result files against the bounds in
``BENCHMARK.json``.

    python3 benchmarks/e2e/compare.py BASE_DIR HEAD_DIR

Each directory holds the result files ``run.py --out DIR`` wrote (any
number of runs per workload; traced runs are ignored).  For every
workload and end-to-end metric it prints both medians with their
quartiles, the change of the head median, the wider of the two
run-to-run spreads (quartile distance over median) and a verdict:

* ``ok`` — the head median is not worse than the base median by more
  than the metric's bound;
* ``regressed`` — it is worse by more than the bound;
* ``unresolved`` — a spread exceeds the bound, so the runs cannot tell
  (unless every head run beats every base run, which is ``ok``).

Both sets must hold runs of the same seeds for a workload (one run per
seed, or the same number of each): the inputs, and so
``modeled_ms_per_op``, follow the seed, so a change of seeds must not
pass for a change of the program.  A workload whose seeds differ is
not compared.

Exits 1 when any metric regressed, else 2 when a workload was not
compared.  Comparing a set with itself shows the spreads behind the
bounds.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
#: Fingerprint fields that must agree for a same-machine comparison.
HOST_FIELDS = ("cpu", "nproc", "python", "numpy", "system")


def load(directory: pathlib.Path) -> dict[str, list[dict]]:
    """End-to-end records by workload."""
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace") == 0:
            runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median (inf for one run)."""
    if len(values) < 2:
        return float("inf")
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(
    base: list[float], head: list[float], better: str, bound: float
) -> tuple[str, float, float]:
    """``(verdict, relative change of the head median, spread)``."""
    base_median = statistics.median(base)
    head_median = statistics.median(head)
    change = (head_median - base_median) / abs(base_median)
    worse = change if better == "lower" else -change
    width = max(spread(base), spread(head))
    if width > bound:
        beats = (
            max(head) < min(base) if better == "lower"
            else min(head) > max(base)
        )
        return ("ok" if beats else "unresolved"), change, width
    return ("regressed" if worse > bound else "ok"), change, width


def hosts(runs: dict[str, list[dict]]) -> set[tuple]:
    return {
        tuple(record["fingerprint"].get(field) for field in HOST_FIELDS)
        for records in runs.values()
        for record in records
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("base", type=pathlib.Path)
    parser.add_argument("head", type=pathlib.Path)
    parser.add_argument(
        "--benchmark", type=pathlib.Path, default=ROOT / "BENCHMARK.json"
    )
    args = parser.parse_args(argv)
    metrics = json.loads(args.benchmark.read_text())["end_to_end"]
    base, head = load(args.base), load(args.head)
    if len(hosts(base) | hosts(head)) > 1:
        print("note: the runs come from different hosts (fingerprints "
              "differ); cross-machine changes are not regressions")

    regressed = refused = False
    print(
        f"{'workload':14s} {'metric':22s} {'runs':>5s} "
        f"{'base median [q1, q3]':>30s} {'head median [q1, q3]':>30s} "
        f"{'change':>8s} {'spread':>7s} {'bound':>6s}  verdict"
    )
    for workload in sorted(set(base) | set(head)):
        if workload not in base or workload not in head:
            print(f"{workload:14s} (only in one set: skipped)")
            continue
        old_seeds, new_seeds = seeds(base[workload]), seeds(head[workload])
        if old_seeds != new_seeds:
            print(f"{workload:14s} seeds differ (base {old_seeds}, head "
                  f"{new_seeds}): not compared")
            refused = True
            continue
        for metric in metrics:
            name = metric["name"]
            old = [r["metrics"][name]["value"] for r in base[workload]]
            new = [r["metrics"][name]["value"] for r in head[workload]]
            outcome, change, width = verdict(
                old, new, metric["better"], metric["bound"]
            )
            regressed |= outcome == "regressed"
            print(
                f"{workload:14s} {name:22s} {len(old):2d}/{len(new):<2d} "
                f"{_cell(old):>30s} {_cell(new):>30s} "
                f"{change:+8.1%} {width:7.1%} {metric['bound']:6.1%}  "
                f"{outcome}"
            )
    return 1 if regressed else 2 if refused else 0


def seeds(records: list[dict]) -> list[int]:
    return sorted(record["seed"] for record in records)


def _cell(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


if __name__ == "__main__":
    sys.exit(main())
